//! Fig 5: micro-tiling strategies on the C(26,36) worked example —
//! OpenBLAS (pad), LIBXSMM (edges), DMT (dynamic) on low- and high-σ_AI
//! hardware.

use autogemm_arch::ChipSpec;
use autogemm_bench::print_table;
use autogemm_kernelgen::{tiles, MicroTile};
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::{plan_dmt, plan_libxsmm, plan_openblas};

fn main() {
    let (m, n, kc) = (26usize, 36usize, 64usize);
    let opts = ModelOpts { rotate: true, fused: true };
    let tile = MicroTile::new(5, 16);

    let ob = plan_openblas(m, n, tile);
    let xs = plan_libxsmm(m, n, tile, 4);
    let low = plan_dmt(m, n, kc, &ChipSpec::graviton2(), opts, &tiles::table_menu(4));
    let high = plan_dmt(m, n, kc, &ChipSpec::kp920(), opts, &tiles::table_menu(4));

    let mut rows = Vec::new();
    for (name, plan, chip) in [
        ("OpenBLAS (pad 5x16)", &ob, ChipSpec::kp920()),
        ("LIBXSMM (edges 5x16)", &xs, ChipSpec::kp920()),
        ("DMT (low sigma_AI: Graviton2)", &low, ChipSpec::graviton2()),
        ("DMT (high sigma_AI: KP920)", &high, ChipSpec::kp920()),
    ] {
        rows.push(vec![
            name.to_string(),
            plan.tile_count().to_string(),
            plan.low_ai_count(&chip).to_string(),
            plan.padded_elems().to_string(),
            format!("{:.0}", plan.effective_cycles(kc, &chip, opts)),
        ]);
    }
    print_table(
        "Fig 5 — tiling C(26,36) (paper: OpenBLAS 18 tiles/8 padded, LIBXSMM 18/8 low-AI, DMT 13/<=2)",
        &["strategy", "tiles", "low-AI tiles", "padded elems", "projected cycles"],
        &rows,
    );

    println!("\nDMT plan on low-sigma_AI hardware (Graviton2):\n{}", low.ascii_art());
    println!("DMT plan on high-sigma_AI hardware (KP920):\n{}", high.ascii_art());
}
