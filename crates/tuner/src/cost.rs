//! The schedule cost model used to prune the search space (§IV-B).
//!
//! Three components, all in projected single-core cycles:
//!
//! * **compute** — the DMT plan of one cache block (Eqn 13 with the `σ_AI`
//!   derating) over the caller's micro-kernel menu, times the number of
//!   blocks;
//! * **traffic** — a loop-order-aware data-movement model: each operand
//!   panel is re-streamed once per iteration of every loop that encloses
//!   its reuse region, and the resulting bytes are charged at the cache
//!   level they spill to;
//! * **packing** — `none` pays a strided-access penalty on `B` when the
//!   panel exceeds the private caches; `online` pays an explicit
//!   pack-copy; `offline` is free at run time (paid outside, like
//!   LibShalom's offline packing).

use crate::space::{LoopIndex, Packing, Schedule};
use autogemm_arch::ChipSpec;
use autogemm_kernelgen::MicroTile;
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::plan_dmt;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Process-wide memo of per-block DMT costs: DMT planning is by far the
/// most expensive part of scoring a schedule, and many schedules share the
/// same `(chip, m_c, n_c, k_c)` block. One chip may be planned over more
/// than one menu in a process (Table II for the simulator, the host menu
/// for native runs), so the memo is keyed by the menu first.
type BlockCostMap = HashMap<Vec<MicroTile>, HashMap<(&'static str, usize, usize, usize), f64>>;

fn block_cost_memo() -> &'static Mutex<BlockCostMap> {
    static MEMO: OnceLock<Mutex<BlockCostMap>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Effective cycles of one block DMT-tiled over `menu`, memoized.
fn block_cycles(
    mc: usize,
    nc: usize,
    kc: usize,
    chip: &ChipSpec,
    opts: ModelOpts,
    menu: &[MicroTile],
) -> f64 {
    let key = (chip.id, mc, nc, kc);
    if let Some(&c) = block_cost_memo().lock().get(menu).and_then(|m| m.get(&key)) {
        return c;
    }
    let plan = plan_dmt(mc, nc, kc, chip, opts, menu);
    let c = plan.effective_cycles(kc, chip, opts);
    block_cost_memo().lock().entry(menu.to_vec()).or_default().insert(key, c);
    c
}

/// Cost components of one schedule (cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    pub compute: f64,
    pub traffic: f64,
    pub packing: f64,
}

impl CostBreakdown {
    /// Total projected cycles: traffic overlaps compute imperfectly, so we
    /// charge the maximum plus a fraction of the loser.
    pub fn total(&self) -> f64 {
        self.compute.max(self.traffic) + 0.25 * self.compute.min(self.traffic) + self.packing
    }
}

/// Which loops each operand's footprint depends on.
fn deps(idx: LoopIndex) -> [bool; 3] {
    // [A, B, C]
    match idx {
        LoopIndex::Mc | LoopIndex::Mr => [true, false, true],
        LoopIndex::Nc | LoopIndex::Nr => [false, true, true],
        LoopIndex::Kc => [true, true, false],
    }
}

fn trips(sched: &Schedule, idx: LoopIndex) -> f64 {
    let (tm, tn, tk) = sched.block_trips();
    match idx {
        LoopIndex::Mc => tm as f64,
        LoopIndex::Nc => tn as f64,
        LoopIndex::Kc => tk as f64,
        // The register loops stream within a cache-resident block; they do
        // not multiply DRAM traffic.
        LoopIndex::Mr | LoopIndex::Nr => 1.0,
    }
}

/// Memory traffic in bytes implied by a loop order: each operand is
/// re-streamed once per combined trip of the loops it does **not** depend
/// on that sit **outside** its innermost dependent loop.
pub fn traffic_bytes(sched: &Schedule) -> f64 {
    let sizes = [
        4.0 * (sched.m * sched.k) as f64, // A
        4.0 * (sched.k * sched.n) as f64, // B
        4.0 * (sched.m * sched.n) as f64, // C
    ];
    let mut total = 0.0;
    for (op, &size) in sizes.iter().enumerate() {
        // Innermost loop position this operand depends on.
        let innermost_dep = sched
            .order
            .0
            .iter()
            .enumerate()
            .filter(|(_, &l)| deps(l)[op])
            .map(|(pos, _)| pos)
            .max()
            .unwrap_or(0);
        let mut reloads = 1.0;
        for (pos, &l) in sched.order.0.iter().enumerate() {
            if pos < innermost_dep && !deps(l)[op] {
                reloads *= trips(sched, l);
            }
        }
        // C is read+written.
        let rw = if op == 2 { 2.0 } else { 1.0 };
        total += size * reloads * rw;
    }
    total
}

/// Cycles to move `bytes` for a single core, at the bandwidth of the cache
/// level the block working set spills to.
pub fn traffic_cycles(sched: &Schedule, chip: &ChipSpec, bytes: f64) -> f64 {
    let ws = sched.block_working_set();
    // Bytes per cycle deliverable to one core from the level that holds
    // the streamed panels: approximate as vector width per rt_load when
    // L1-resident, degrading with depth.
    let vb = chip.simd.vector_bytes() as f64;
    let mut bpc = vb / chip.rt_load as f64;
    for (i, level) in chip.caches.iter().enumerate() {
        if ws > level.size_bytes {
            // Spills past level i: throughput roughly halves per level.
            bpc /= 2.0;
            let _ = i;
        }
    }
    bytes / bpc
}

/// Runtime packing overhead in cycles.
pub fn packing_cycles(sched: &Schedule, chip: &ChipSpec) -> f64 {
    match sched.packing {
        Packing::Offline => 0.0,
        Packing::Online => {
            // Pack A and B panels once per use: ~1 load + 1 store per
            // element, vectorized.
            let elems = (sched.m * sched.k + sched.k * sched.n) as f64;
            2.0 * elems / chip.sigma_lane() as f64 * chip.rt_load as f64
        }
        Packing::None => 0.0,
    }
}

/// Strided-access penalty multiplier applied to traffic when not packing:
/// a `B` panel wider than the lane-friendly layout thrashes the TLB and
/// cache lines once it exceeds the private caches.
pub fn no_packing_penalty(sched: &Schedule, chip: &ChipSpec) -> f64 {
    if sched.packing != Packing::None {
        return 1.0;
    }
    // Row stride of the unpacked B in bytes: beyond a cache line every
    // vector load opens a new line, and beyond a page every row costs a
    // TLB entry.
    let row_stride = 4 * sched.n;
    let b_panel = 4 * sched.kc * sched.n;
    let private: usize = chip.caches.iter().filter(|c| !c.shared).map(|c| c.size_bytes).sum();
    if row_stride > 4096 || b_panel > private {
        2.0
    } else if 4 * sched.kc * sched.nc > chip.l1d_bytes() {
        1.15
    } else {
        1.02
    }
}

/// Score one schedule on one chip (single core), with its blocks
/// DMT-tiled over `menu`.
pub fn schedule_cost(sched: &Schedule, chip: &ChipSpec, menu: &[MicroTile]) -> CostBreakdown {
    let opts = ModelOpts { rotate: true, fused: true };
    let (tm, tn, tk) = sched.block_trips();
    let blocks = (tm * tn * tk) as f64;
    let compute = block_cycles(sched.mc, sched.nc, sched.kc, chip, opts, menu) * blocks;
    let traffic =
        traffic_cycles(sched, chip, traffic_bytes(sched)) * no_packing_penalty(sched, chip);
    let packing = packing_cycles(sched, chip);
    CostBreakdown { compute, traffic, packing }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::LoopOrder;

    fn cost(s: &Schedule, chip: &ChipSpec) -> CostBreakdown {
        schedule_cost(s, chip, &autogemm_kernelgen::tiles::table_menu(chip.sigma_lane()))
    }

    fn sched(m: usize, n: usize, k: usize, mc: usize, nc: usize, kc: usize) -> Schedule {
        Schedule { m, n, k, mc, nc, kc, order: LoopOrder::goto(), packing: Packing::Offline }
    }

    #[test]
    fn goto_order_streams_each_operand_once_for_single_block() {
        // One block covering everything: every operand moves exactly once.
        let s = sched(64, 64, 64, 64, 64, 64);
        let bytes = traffic_bytes(&s);
        let expected = 4.0 * ((64 * 64) as f64) * (1.0 + 1.0 + 2.0);
        assert!((bytes - expected).abs() < 1e-6);
    }

    #[test]
    fn bad_loop_order_multiplies_traffic() {
        use LoopIndex::*;
        let good = sched(256, 256, 256, 64, 64, 64);
        let mut bad = good.clone();
        // K innermost of the cache loops: C re-streamed per k-block -- fine;
        // but A and B also get re-streamed by the outer loops they don't
        // depend on.
        bad.order = LoopOrder([Mc, Nc, Kc, Mr, Nr]);
        let mut worst = good.clone();
        worst.order = LoopOrder([Kc, Mc, Nc, Mr, Nr]);
        let tb_good = traffic_bytes(&good);
        let tb_bad = traffic_bytes(&bad);
        let tb_worst = traffic_bytes(&worst);
        assert!(tb_bad >= tb_good);
        assert!(tb_worst > tb_good * 0.99);
    }

    #[test]
    fn compute_dominates_for_cache_resident_blocks() {
        let chip = ChipSpec::graviton2();
        let s = sched(64, 64, 64, 64, 64, 64);
        let c = cost(&s, &chip);
        assert!(c.compute > 0.0);
        assert!(c.total() >= c.compute);
    }

    #[test]
    fn online_packing_costs_more_than_offline() {
        let chip = ChipSpec::kp920();
        let mut s = sched(256, 784, 128, 64, 112, 64);
        s.packing = Packing::Offline;
        let off = cost(&s, &chip).total();
        s.packing = Packing::Online;
        let on = cost(&s, &chip).total();
        assert!(on > off);
    }

    #[test]
    fn unpacked_wide_b_pays_a_penalty() {
        let chip = ChipSpec::kp920();
        let mut s = sched(256, 3136, 64, 64, 3136, 64);
        s.packing = Packing::None;
        let none = cost(&s, &chip).total();
        s.packing = Packing::Offline;
        let off = cost(&s, &chip).total();
        assert!(none > off, "unpacked {none:.0} should exceed offline {off:.0}");
    }

    #[test]
    fn smaller_kc_blocks_fit_but_cost_more_overhead() {
        let chip = ChipSpec::graviton2();
        let big = cost(&sched(256, 256, 256, 64, 64, 256), &chip);
        let small = cost(&sched(256, 256, 256, 64, 64, 8), &chip);
        assert!(
            small.compute > big.compute,
            "tiny k_c blocks pay prologue/epilogue overhead repeatedly"
        );
    }
}
