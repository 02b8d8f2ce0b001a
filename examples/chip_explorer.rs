//! Explore how the same GEMM behaves across the five modelled Arm chips:
//! peaks, σ_AI thresholds, rooflines, and what the tuner picks on each —
//! the performance-portability story of the paper's introduction.
//!
//! ```sh
//! cargo run --release --example chip_explorer [M N K]
//! ```

use autogemm::AutoGemm;
use autogemm_arch::ChipSpec;
use autogemm_perfmodel::roofline::{gemm_operational_intensity, Roofline};

fn main() {
    let args: Vec<usize> = std::env::args().skip(1).filter_map(|a| a.parse().ok()).collect();
    let (m, n, k) = match args.as_slice() {
        [m, n, k] => (*m, *n, *k),
        _ => (64, 3136, 64), // Table V L2 by default
    };
    let ai = gemm_operational_intensity(m, n, k);
    println!("GEMM {m}x{n}x{k} — operational intensity {ai:.2} flop/byte\n");
    println!(
        "{:<14} {:>6} {:>8} {:>7} {:>9} {:>8} {:>8} {:>14} {:>7}",
        "chip", "lanes", "sigmaAI", "peak/c", "roofline", "GFLOPS", "eff", "block", "tiles"
    );

    for chip in ChipSpec::all_evaluated() {
        let engine = AutoGemm::new(chip.clone());
        let plan = engine.model_plan(m, n, k);
        let report = engine.simulate(m, n, k, 1);
        let roof = Roofline::single_core(&chip);
        println!(
            "{:<14} {:>6} {:>8.1} {:>7.1} {:>9.1} {:>8.1} {:>7.1}% {:>14} {:>7}",
            chip.name,
            chip.sigma_lane(),
            chip.sigma_ai,
            chip.peak_gflops_core(),
            roof.attainable(ai),
            report.gflops,
            report.efficiency * 100.0,
            format!("{}x{}x{}", plan.schedule.mc, plan.schedule.nc, plan.schedule.kc),
            plan.block_plan.tile_count(),
        );
    }

    println!("\nNote how the SVE chip (A64FX, 16 lanes) blocks differently from the");
    println!("NEON chips, and how sigma_AI steers DMT's choice of micro-tiles.");
}
