//! Fig 7: micro-tiling strategy comparison (OpenBLAS vs LIBXSMM vs DMT)
//! on KP920, Graviton2 and M2, over the sub-matrix shapes the paper uses.

use autogemm_arch::ChipSpec;
use autogemm_bench::{pct, print_table};
use autogemm_kernelgen::{tiles, MicroTile};
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::{plan_dmt, plan_libxsmm, plan_openblas, TilePlan};
use autogemm_tuner::space::LoopOrder;
use autogemm_tuner::{Packing, Schedule};

/// Simulate a whole-block plan as autoGEMM would execute it.
fn simulate_plan(
    plan: TilePlan,
    m: usize,
    n: usize,
    kc: usize,
    chip: &ChipSpec,
    opts: ModelOpts,
) -> f64 {
    let schedule = Schedule {
        m,
        n,
        k: kc,
        mc: m,
        nc: n,
        kc,
        order: LoopOrder::goto(),
        packing: Packing::Online,
    };
    let exec = autogemm::ExecutionPlan {
        schedule,
        block_plan: plan,
        opts,
        sigma_lane: chip.sigma_lane(),
        warmth: None,
        routing: autogemm::OperandRouting::packed(),
    };
    let block = autogemm::simexec::simulate_block(&exec, chip, true);
    let flops = (2 * m * n * kc) as f64;
    let gflops = flops * chip.freq_ghz / block.cycles as f64;
    gflops / chip.peak_gflops_core()
}

fn main() {
    let kc = 64usize;
    let opts = ModelOpts { rotate: true, fused: true };
    let shapes = [(80usize, 32usize), (25, 64), (26, 36), (26, 64), (13, 20), (31, 44)];
    for chip in autogemm_bench::fig_chips() {
        let mut rows = Vec::new();
        for (m, n) in shapes {
            let tile = MicroTile::new(5, 16);
            let ob = simulate_plan(
                plan_openblas(m, n, tile),
                m,
                n,
                kc,
                &chip,
                ModelOpts { rotate: true, fused: false },
            );
            let xs = simulate_plan(
                plan_libxsmm(m, n, tile, 4),
                m,
                n,
                kc,
                &chip,
                ModelOpts { rotate: true, fused: false },
            );
            let dmt_plan = plan_dmt(m, n, kc, &chip, opts, &tiles::table_menu(chip.sigma_lane()));
            let tiles = dmt_plan.tile_count();
            let low_ai = dmt_plan.low_ai_count(&chip);
            let dmt = simulate_plan(dmt_plan, m, n, kc, &chip, opts);
            rows.push(vec![
                format!("{m}x{n}"),
                pct(ob),
                pct(xs),
                pct(dmt),
                tiles.to_string(),
                low_ai.to_string(),
            ]);
        }
        print_table(
            &format!("Fig 7 — tiling strategies on {} (k_c = {kc})", chip.name),
            &["M x N", "OpenBLAS", "LIBXSMM", "DMT (ours)", "DMT tiles", "DMT low-AI"],
            &rows,
        );
    }
    println!(
        "\npaper landmarks: ties at 80x32 and 25x64 (same 5x16 grid); at 26x64 DMT eliminates"
    );
    println!("low-AI tiles on low-sigma_AI chips (Graviton2/M2) and minimizes them on KP920.");
}
