//! Execution plans: the bridge from a tuned [`Schedule`] to concrete work.
//!
//! A plan fixes the cache blocking, the per-block DMT tile plan, the
//! packing mode and the pipeline options. Both backends (native and
//! simulated) can execute any plan, so what the tuner optimizes is what
//! runs. The engine tiles native plans over the host's register-feasible
//! menu and simulator plans over the chip's Table II menu (DESIGN.md §12).

use autogemm_arch::ChipSpec;
use autogemm_kernelgen::{tiles, MicroTile};
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::{plan_dmt, TilePlan};
use autogemm_tuner::{Packing, Schedule};

/// Per-operand packed/unpacked routing for the native driver.
///
/// The default packs both operands (the historical panel-cache
/// behaviour, and what every plan built via
/// [`ExecutionPlan::from_schedule`] carries). The engine's input-aware
/// dispatch layer replaces it with the packing-elision decision from
/// `autogemm_perfmodel::elision` when a panel cannot amortize its pack
/// copy (see DESIGN.md, "Input-aware dispatch").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandRouting {
    /// Pack A into per-`(bi, kb)` panels; `false` streams A from the
    /// caller's row-major matrix.
    pub pack_a: bool,
    /// Pack B into per-`(kb, bj)` panels; `false` streams B strided.
    pub pack_b: bool,
}

impl Default for OperandRouting {
    fn default() -> Self {
        OperandRouting { pack_a: true, pack_b: true }
    }
}

impl OperandRouting {
    /// The historical behaviour: both operands packed.
    pub fn packed() -> Self {
        OperandRouting::default()
    }
}

/// A fully resolved execution plan for one GEMM problem.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    pub schedule: Schedule,
    /// DMT tiling of one interior cache block (`m_c × n_c`).
    pub block_plan: TilePlan,
    /// Pipeline options applied to every generated kernel.
    pub opts: ModelOpts,
    /// σ_lane of the target chip.
    pub sigma_lane: usize,
    /// Override the simulated cache residency of the block's operands
    /// (used by baselines that model software prefetching, e.g.
    /// LibShalom's hand-written L1 prefetch which wins at 128³ on the
    /// KP920, §V-C). `None` derives warmth from the working-set size.
    pub warmth: Option<autogemm_sim::Warmth>,
    /// Packed/unpacked routing per operand for the native driver.
    pub routing: OperandRouting,
}

impl ExecutionPlan {
    /// Build the plan for a tuned schedule on a chip, tiling its block
    /// over the chip's Table II menu (what the simulator runs). The plan
    /// packs both operands; the engine applies input-aware elision on
    /// top.
    pub fn from_schedule(schedule: Schedule, chip: &ChipSpec) -> Self {
        Self::from_schedule_over(schedule, chip, &tiles::table_menu(chip.sigma_lane()))
    }

    /// [`Self::from_schedule`] with the block DMT-tiled over `menu` (the
    /// engine's native plans use [`crate::native::host_menu`]).
    pub fn from_schedule_over(schedule: Schedule, chip: &ChipSpec, menu: &[MicroTile]) -> Self {
        let opts = ModelOpts { rotate: true, fused: true };
        let block_plan = plan_dmt(schedule.mc, schedule.nc, schedule.kc, chip, opts, menu);
        ExecutionPlan {
            schedule,
            block_plan,
            opts,
            sigma_lane: chip.sigma_lane(),
            warmth: None,
            routing: OperandRouting::default(),
        }
    }

    /// The same plan with a different operand routing.
    pub fn with_routing(mut self, routing: OperandRouting) -> Self {
        self.routing = routing;
        self
    }

    /// Number of cache blocks along (M, N, K).
    pub fn grid(&self) -> (usize, usize, usize) {
        self.schedule.block_trips()
    }

    /// Total micro-kernel invocations across the whole GEMM.
    pub fn total_tiles(&self) -> usize {
        let (tm, tn, tk) = self.grid();
        tm * tn * tk * self.block_plan.tile_count()
    }

    /// FLOPs of the full problem.
    pub fn flops(&self) -> u64 {
        2 * self.schedule.m as u64 * self.schedule.n as u64 * self.schedule.k as u64
    }

    pub fn packing(&self) -> Packing {
        self.schedule.packing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autogemm_tuner::tune;

    #[test]
    fn plan_grid_covers_problem_exactly() {
        let chip = ChipSpec::graviton2();
        let sched = tune(64, 64, 64, &chip);
        let plan = ExecutionPlan::from_schedule(sched, &chip);
        let (tm, tn, tk) = plan.grid();
        assert_eq!(tm * plan.schedule.mc, 64);
        assert_eq!(tn * plan.schedule.nc, 64);
        assert_eq!(tk * plan.schedule.kc, 64);
        plan.block_plan.validate(4).expect("block plan covers");
    }

    #[test]
    fn flops_counts_2mnk() {
        let chip = ChipSpec::m2();
        let sched = tune(8, 12, 16, &chip);
        let plan = ExecutionPlan::from_schedule(sched, &chip);
        assert_eq!(plan.flops(), 2 * 8 * 12 * 16);
        assert!(plan.total_tiles() >= 1);
    }
}
