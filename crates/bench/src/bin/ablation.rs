//! Ablation study: remove one autoGEMM design decision at a time and
//! measure the cost — quantifying the DESIGN.md inventory beyond the
//! paper's step-wise Fig 6:
//!
//! * **full** — DMT tiling + rotation + fusion + tuned blocking/packing;
//! * **-DMT** — LIBXSMM-style static edge tiling instead of Algorithm 1;
//! * **-rotation** — no rotating register allocation (§III-C1 off);
//! * **-fusion** — kernels launched individually (§III-C2 off);
//! * **-tuning** — fixed Goto-style blocking instead of the cost-model
//!   search, packing always online;
//! * **-σ_AI** — DMT with the arithmetic-intensity derating disabled
//!   (tiles ranked by raw Eqn cycles; a σ_AI = 0 chip variant).

use autogemm::ExecutionPlan;
use autogemm_arch::ChipSpec;
use autogemm_bench::{pct, print_table};
use autogemm_kernelgen::{tiles, MicroTile};
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::{plan_dmt, plan_libxsmm};
use autogemm_tuner::space::LoopOrder;
use autogemm_tuner::{tune, Packing, Schedule};

fn efficiency(plan: &ExecutionPlan, chip: &ChipSpec) -> f64 {
    let block = autogemm::simexec::simulate_block(plan, chip, true);
    let cycles = autogemm::simexec::single_core_cycles(plan, chip, block);
    let gflops = plan.flops() as f64 * chip.freq_ghz / cycles;
    gflops / chip.peak_gflops_core()
}

fn variant(chip: &ChipSpec, m: usize, n: usize, k: usize, name: &str) -> ExecutionPlan {
    let full_opts = ModelOpts { rotate: true, fused: true };
    let sched = tune(m, n, k, chip);
    match name {
        "full" => ExecutionPlan::from_schedule(sched, chip),
        "-DMT" => {
            let mut plan = ExecutionPlan::from_schedule(sched, chip);
            plan.block_plan = plan_libxsmm(
                plan.schedule.mc,
                plan.schedule.nc,
                MicroTile::new(5, chip.sigma_lane() * 4),
                chip.sigma_lane(),
            );
            plan
        }
        "-rotation" => {
            let mut plan = ExecutionPlan::from_schedule(sched, chip);
            plan.opts = ModelOpts { rotate: false, fused: true };
            let s = &plan.schedule;
            let menu = tiles::table_menu(chip.sigma_lane());
            plan.block_plan = plan_dmt(s.mc, s.nc, s.kc, chip, plan.opts, &menu);
            plan
        }
        "-fusion" => {
            let mut plan = ExecutionPlan::from_schedule(sched, chip);
            plan.opts = ModelOpts { rotate: true, fused: false };
            plan
        }
        "-tuning" => {
            // Goto-ish defaults, oblivious to the shape.
            let pick = |dim: usize, cap: usize| {
                autogemm_tuner::space::divisors(dim)
                    .into_iter()
                    .rev()
                    .find(|&d| d <= cap)
                    .unwrap_or(dim)
            };
            let sched = Schedule {
                m,
                n,
                k,
                mc: pick(m, 192),
                nc: pick(n, 4096),
                kc: pick(k, 384),
                order: LoopOrder::goto(),
                packing: Packing::Online,
            };
            ExecutionPlan::from_schedule(sched, chip)
        }
        "-sigma_ai" => {
            let mut blind = chip.clone();
            blind.sigma_ai = 0.0;
            let mut plan = ExecutionPlan::from_schedule(sched, chip);
            let s = &plan.schedule;
            let menu = tiles::table_menu(chip.sigma_lane());
            plan.block_plan = plan_dmt(s.mc, s.nc, s.kc, &blind, full_opts, &menu);
            plan
        }
        other => unreachable!("unknown variant {other}"),
    }
}

fn main() {
    let shapes = [
        ("64^3 (small)", 64usize, 64usize, 64usize),
        ("26x36x64 (ragged)", 26, 36, 64),
        ("256x3136x64 (L4)", 256, 3136, 64),
        ("2048x49x512 (L18)", 2048, 49, 512),
    ];
    let variants = ["full", "-DMT", "-rotation", "-fusion", "-tuning", "-sigma_ai"];

    for chip in [ChipSpec::kp920(), ChipSpec::graviton2()] {
        let mut rows = Vec::new();
        for (label, m, n, k) in shapes {
            let mut row = vec![label.to_string()];
            let mut full_eff = 0.0;
            for v in variants {
                let plan = variant(&chip, m, n, k, v);
                let eff = efficiency(&plan, &chip);
                if v == "full" {
                    full_eff = eff;
                    row.push(pct(eff));
                } else {
                    row.push(format!("{} ({:+.1}%)", pct(eff), (eff / full_eff - 1.0) * 100.0));
                }
            }
            rows.push(row);
        }
        let mut headers = vec!["shape"];
        headers.extend(variants);
        print_table(
            &format!("Ablation — single-core efficiency on {}", chip.name),
            &headers,
            &rows,
        );
    }
    println!(
        "\nEach column removes one design decision; parentheses show the delta vs full autoGEMM."
    );
}
