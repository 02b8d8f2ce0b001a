//! Property-based invariants of the tiling strategies and the tuner, run
//! across randomized shapes (the corner cases Fig 5/7 can't enumerate).

use autogemm::native::host_menu_for;
use autogemm_arch::ChipSpec;
use autogemm_kernelgen::{tiles, MicroTile};
use autogemm_perfmodel::submatrix::{region_cycles_derated, TileCycles};
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::{plan_dmt, plan_libxsmm, plan_openblas, TilePlan};
use proptest::prelude::*;

fn opts() -> ModelOpts {
    ModelOpts { rotate: true, fused: true }
}

/// Algorithm 1 over the chip's Table II menu.
fn plan_t2(m: usize, n: usize, kc: usize, chip: &ChipSpec) -> TilePlan {
    plan_dmt(m, n, kc, chip, opts(), &tiles::table_menu(chip.sigma_lane()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every DMT plan covers its block exactly once with feasible tiles.
    #[test]
    fn dmt_plans_always_cover(m in 1usize..72, nv in 1usize..20) {
        let n = nv * 4;
        let chip = ChipSpec::graviton2();
        let plan = plan_t2(m, n, 48, &chip);
        prop_assert!(plan.validate(4).is_ok(), "{m}x{n}: {:?}", plan.validate(4));
    }

    /// DMT never projects worse than either static strategy under its own
    /// (σ_AI-derated) metric.
    #[test]
    fn dmt_dominates_statics_in_model(m in 4usize..64, nv in 2usize..16) {
        let n = nv * 4;
        let chip = ChipSpec::kp920();
        let kc = 32;
        let dmt = plan_t2(m, n, kc, &chip).effective_cycles(kc, &chip, opts());
        let tile = MicroTile::new(5, 16);
        let ob = plan_openblas(m, n, tile).effective_cycles(kc, &chip, opts());
        let xs = plan_libxsmm(m, n, tile, 4).effective_cycles(kc, &chip, opts());
        prop_assert!(dmt <= ob * 1.001, "{m}x{n}: dmt {dmt:.0} > openblas {ob:.0}");
        prop_assert!(dmt <= xs * 1.001, "{m}x{n}: dmt {dmt:.0} > libxsmm {xs:.0}");
    }

    /// Static plans cover too (LIBXSMM exactly; OpenBLAS with padding only
    /// outside the block).
    #[test]
    fn static_plans_cover(m in 1usize..72, nv in 1usize..20) {
        let n = nv * 4;
        let xs = plan_libxsmm(m, n, MicroTile::new(5, 16), 4);
        prop_assert!(xs.validate(4).is_ok());
        let ob = plan_openblas(m, n, MicroTile::new(5, 16));
        prop_assert!(ob.validate(4).is_ok());
        prop_assert_eq!(xs.padded_elems(), 0);
    }

    /// Tuned schedules always satisfy the paper's divisor constraints and
    /// keep the block working set within twice the private cache budget.
    #[test]
    fn tuner_respects_constraints(
        mi in 1usize..8, ni in 1usize..8, ki in 1usize..8,
    ) {
        let (m, n, k) = (mi * 16, ni * 28, ki * 24);
        let chip = ChipSpec::m2();
        let s = autogemm_tuner::tune(m, n, k, &chip);
        prop_assert_eq!(m % s.mc, 0);
        prop_assert_eq!(n % s.nc, 0);
        prop_assert_eq!(k % s.kc, 0);
    }
}

#[test]
fn dmt_handles_degenerate_blocks() {
    let chip = ChipSpec::graviton2();
    for (m, n) in [(1, 4), (1, 128), (72, 4), (2, 8), (3, 4)] {
        let plan = plan_t2(m, n, 16, &chip);
        plan.validate(4).unwrap_or_else(|e| panic!("{m}x{n}: {e}"));
        assert!(plan.tile_count() >= 1);
    }
}

#[test]
fn sve_plans_cover_with_16_lane_tiles() {
    let chip = ChipSpec::a64fx();
    for (m, n) in [(8, 16), (24, 64), (13, 48)] {
        let plan = plan_t2(m, n, 32, &chip);
        plan.validate(16).unwrap_or_else(|e| panic!("{m}x{n}: {e}"));
    }
}

/// DMT prices quadrant covers from a per-call [`TileCycles`] table; its
/// region cost must equal the model's `region_cycles_derated` bit for
/// bit, or DMT's choices (and every simulator figure) could move.
#[test]
fn table_priced_region_cost_is_bit_identical_to_the_model() {
    let chip = ChipSpec::graviton2();
    let sigma = chip.sigma_lane();
    let menus = [tiles::table_menu(sigma), host_menu_for(sigma, 4), host_menu_for(sigma, 8)];
    for kc in [1, 7, 64, 256] {
        for menu in &menus {
            let table = TileCycles::new(menu, kc, &chip, opts());
            for &tile in menu {
                for m in 0..=64 {
                    for n in 0..=128 {
                        let want = region_cycles_derated(m, n, tile, kc, &chip, opts());
                        let got = table.region(m, n, tile);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{tile} over {m}x{n}, kc {kc}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }
}
