//! Fig 11: strong scaling of autoGEMM on the L1 ResNet-50 layer
//! (64x12544x147) across all five chips.

use autogemm::AutoGemm;
use autogemm_arch::ChipSpec;
use autogemm_bench::print_table;

fn main() {
    let (m, n, k) = (64usize, 12544usize, 147usize);
    let mut summary = Vec::new();
    for chip in ChipSpec::all_evaluated() {
        let engine = AutoGemm::new(chip.clone());
        let mut rows = Vec::new();
        // One plan for the whole curve: the full-core-count multicore
        // schedule (the paper scales one tuned binary).
        let plan = engine.model_plan_multicore(m, n, k, chip.cores);
        let t1 = engine.simulate_with_plan(&plan, 1).seconds;
        let mut counts = vec![1usize, 2, 4];
        let mut c = 8;
        while c < chip.cores {
            counts.push(c);
            c *= 2;
        }
        counts.push(chip.cores);
        counts.dedup();
        let mut final_eff = 0.0;
        for &t in &counts {
            let r = engine.simulate_with_plan(&plan, t);
            let speedup = t1 / r.seconds;
            let eff = speedup / t as f64;
            final_eff = eff;
            rows.push(vec![
                t.to_string(),
                format!("{:.3} ms", r.seconds * 1e3),
                format!("{speedup:.2}x"),
                format!("{:.1}%", eff * 100.0),
                if r.bw_limited { "BW-limited".into() } else { "".into() },
            ]);
        }
        print_table(
            &format!("Fig 11 — strong scaling on {} (L1: {m}x{n}x{k})", chip.name),
            &["threads", "time", "speedup", "parallel eff", ""],
            &rows,
        );
        summary.push(vec![chip.name.to_string(), format!("{:.1}%", final_eff * 100.0)]);
    }
    print_table(
        "Fig 11 summary — parallel efficiency at full core count (paper: 98 / 98.2 / 83.2 / 93.5 / 30.3%)",
        &["chip", "parallel efficiency"],
        &summary,
    );

    // What-if: the paper's future-work item — CMG-aware operand placement
    // on the A64FX (pack per domain, no ring traffic).
    let chip = ChipSpec::a64fx();
    let baseline = AutoGemm::new(chip.clone());
    let aware = AutoGemm::new(chip.clone()).with_cmg_replication();
    let plan_b = baseline.model_plan_multicore(m, n, k, chip.cores);
    let plan_a = aware.model_plan_multicore(m, n, k, chip.cores);
    let t1 = baseline.simulate_with_plan(&plan_b, 1).seconds;
    let tb = baseline.simulate_with_plan(&plan_b, chip.cores).seconds;
    let ta = aware.simulate_with_plan(&plan_a, chip.cores).seconds;
    println!(
        "
what-if (paper future work): CMG-aware packing on the A64FX raises parallel efficiency"
    );
    println!(
        "from {:.1}% to {:.1}% at {} cores ({:.2}x end-to-end)",
        t1 / tb / chip.cores as f64 * 100.0,
        t1 / ta / chip.cores as f64 * 100.0,
        chip.cores,
        tb / ta
    );
}
