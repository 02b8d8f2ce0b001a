//! The native/model tile-menu split: native plans are DMT-tiled over the
//! host's register-feasible menu, everything the simulator plans keeps
//! the paper's Table II menu, and neither leaks into the other through
//! the engine's plan cache, its block-simulation memo or the tuner's
//! block-cost memo.

use autogemm::native::{host_menu, host_menu_for, live_registers, KERNEL_MENU};
use autogemm::simd::{SimdBackend, REGISTER_BUDGET};
use autogemm::{AutoGemm, ExecutionPlan, GemmOptions};
use autogemm_arch::ChipSpec;
use autogemm_kernelgen::{tiles, MicroTile};
use autogemm_perfmodel::ModelOpts;
use autogemm_tiling::plan_dmt;
use autogemm_tuner::space::LoopOrder;
use autogemm_tuner::{schedule_cost, tune_multicore_topk, Packing, Schedule};
use autogemm_workloads::resnet50_table_v;

/// Table V L2, the layer the Graviton2 model covers with 3×24 tiles.
const L2: (usize, usize, usize) = (64, 3136, 64);

fn data(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed.wrapping_mul(97));
            ((h >> 8) % 2001) as f32 / 1000.0 - 1.0
        })
        .collect()
}

/// `C = A·B` with every cell summed in ascending-`k` order by fused
/// multiply-adds — the accumulation chain every fused kernel runs,
/// whatever its tile shape.
fn fused_reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = (0..k).fold(0.0f32, |acc, p| b[p * n + j].mul_add(a[i * k + p], acc));
        }
    }
    c
}

fn shapes(menu: &[MicroTile]) -> Vec<(usize, usize)> {
    let mut s: Vec<(usize, usize)> = menu.iter().map(|t| (t.mr, t.nr)).collect();
    s.sort_unstable();
    s
}

/// The 24 shapes that fit 16 registers with 4-lane vector columns.
const X86_4_LANE_MENU: [(usize, usize); 24] = [
    (1, 4),
    (1, 8),
    (1, 12),
    (1, 16),
    (1, 20),
    (1, 24),
    (1, 28),
    (2, 4),
    (2, 8),
    (2, 12),
    (2, 16),
    (2, 20),
    (3, 4),
    (3, 8),
    (3, 12),
    (4, 4),
    (4, 8),
    (4, 12),
    (5, 4),
    (5, 8),
    (6, 4),
    (6, 8),
    (7, 4),
    (8, 4),
];

#[cfg(target_arch = "x86_64")]
#[test]
fn x86_host_menu_is_the_24_shapes_that_fit_16_registers() {
    // With 4-lane columns (SSE2/FMA hosts): c = n_r/4 vectors per B row.
    assert_eq!(REGISTER_BUDGET, 16);
    assert_eq!(shapes(&host_menu_for(4, 4)), X86_4_LANE_MENU);
}

#[cfg(target_arch = "x86_64")]
#[test]
fn x86_8_lane_host_menu_is_every_kernel_but_3x28_and_7x12() {
    // With 8-lane columns, c = ⌈n_r/8⌉ vectors per B row: 3×28 needs
    // 3·4 + 4 + 1 = 17 registers and 7×12 needs 7·2 + 2 + 1 = 17.
    assert_eq!(REGISTER_BUDGET, 16);
    let mut want: Vec<(usize, usize)> =
        KERNEL_MENU.iter().copied().filter(|&s| s != (3, 28) && s != (7, 12)).collect();
    want.sort_unstable();
    assert_eq!(want.len(), 36);
    assert_eq!(shapes(&host_menu_for(4, 8)), want);
    assert!(X86_4_LANE_MENU.iter().all(|s| want.contains(s)), "wider lanes dropped a tile");
}

#[cfg(target_arch = "aarch64")]
#[test]
fn aarch64_host_menu_is_the_whole_kernel_menu() {
    assert_eq!(REGISTER_BUDGET, 32);
    let mut all = KERNEL_MENU.to_vec();
    all.sort_unstable();
    assert_eq!(shapes(&host_menu(4)), all);
}

#[test]
fn host_menu_follows_the_detected_lane_count() {
    let lanes = SimdBackend::detect().lanes();
    for sigma in [4, 16] {
        assert_eq!(host_menu(sigma), host_menu_for(sigma, lanes), "σ_lane {sigma}");
    }
}

#[test]
fn host_menus_are_closed_under_shrinking() {
    // DMT's LIBXSMM-style edge tiles shrink a menu shape's rows and lane
    // columns; every such tile must stay on the menu.
    for lanes in [4, 8] {
        for sigma in [4, 16] {
            let menu = host_menu_for(sigma, lanes);
            for t in &menu {
                for mr in 1..=t.mr {
                    for nr in (sigma..=t.nr).step_by(sigma) {
                        assert!(
                            menu.contains(&MicroTile::new(mr, nr)),
                            "{lanes} lanes, σ_lane {sigma}: {t} shrinks to {mr}x{nr}, off the menu"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn host_menu_is_register_feasible_and_nonempty_for_every_paper_chip() {
    let lanes = SimdBackend::detect().lanes();
    for chip in ChipSpec::all_evaluated() {
        let sigma = chip.sigma_lane();
        let menu = host_menu(sigma);
        assert!(!menu.is_empty(), "{}: empty host menu", chip.id);
        for t in &menu {
            assert!(KERNEL_MENU.contains(&(t.mr, t.nr)), "{}: {t} is off the kernel menu", chip.id);
            assert!(
                live_registers(t.mr, t.nr, lanes) <= REGISTER_BUDGET,
                "{}: {t} spills",
                chip.id
            );
            assert_eq!(t.nr % sigma, 0, "{}: {t} is not a σ_lane multiple", chip.id);
        }
    }
    // A 16-lane planning chip on a 4- or 8-lane backend keeps only the
    // 16-wide menu kernels that fit the register budget.
    let a64fx = shapes(&host_menu(16));
    assert!(a64fx.iter().all(|&(_, nr)| nr == 16), "{a64fx:?}");
    assert!(a64fx.contains(&(1, 16)) && a64fx.contains(&(2, 16)), "{a64fx:?}");
}

/// Every placement of `plan` is a host-menu kernel and the plan covers
/// its block.
fn assert_on_host_menu(label: &str, plan: &ExecutionPlan, menu: &[MicroTile]) {
    plan.block_plan.validate(plan.sigma_lane).expect("block plan covers");
    for p in &plan.block_plan.placements {
        assert!(menu.contains(&p.tile), "{label}: {} is off the host menu", p.tile);
    }
}

#[test]
fn single_thread_plans_for_table_v_stay_on_the_host_menu() {
    let engine = AutoGemm::new(ChipSpec::graviton2());
    let menu = host_menu(4);
    for l in resnet50_table_v() {
        assert_on_host_menu(&l.name(), &engine.plan(l.m, l.n, l.k), &menu);
    }
}

#[test]
fn two_thread_plans_for_table_v_stay_on_the_host_menu() {
    // `plan_multicore` picks one of the tuner's multi-core shortlist by
    // simulating each candidate block, which costs seconds per shape in
    // an unoptimized build. Whichever it picks is planned over the host
    // menu, so check every shortlisted candidate for all 20 shapes, and
    // the engine's own pick for L2.
    let chip = ChipSpec::graviton2();
    let menu = host_menu(chip.sigma_lane());
    for l in resnet50_table_v() {
        for s in tune_multicore_topk(l.m, l.n, l.k, &chip, false, 2, &menu, 6) {
            let label = format!("{} {}x{}x{}", l.name(), s.mc, s.nc, s.kc);
            assert_on_host_menu(&label, &ExecutionPlan::from_schedule_over(s, &chip, &menu), &menu);
        }
    }
    let (m, n, k) = L2;
    let engine = AutoGemm::new(chip);
    assert_on_host_menu("L2", &engine.plan_multicore(m, n, k, 2), &menu);
}

#[test]
fn traced_l2_runs_menu_kernels_bit_identically_on_every_paper_chip() {
    let (m, n, k) = L2;
    let a = data(m * k, 1);
    let b = data(k * n, 2);
    let want = fused_reference(m, n, k, &a, &b);
    for chip in ChipSpec::all_evaluated() {
        let engine = AutoGemm::new(chip.clone());
        let mut c = vec![0.0f32; m * n];
        let report = engine
            .try_gemm_traced_opts(m, n, k, &a, &b, &mut c, &GemmOptions::default())
            .expect("traced L2");
        assert!(report.total_tiles() > 0, "{}: no tiles recorded", chip.id);
        for t in &report.tiles {
            assert!(
                KERNEL_MENU.contains(&(t.mr, t.nr)),
                "{}: {}x{} ran off the kernel menu",
                chip.id,
                t.mr,
                t.nr
            );
        }
        if SimdBackend::detect().fused() {
            assert!(
                c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{}: L2 diverged from the fused reference",
                chip.id
            );
        }
    }
}

#[test]
fn host_menu_outputs_are_bit_identical_to_the_fused_reference() {
    if !SimdBackend::detect().fused() {
        return;
    }
    // Ragged shapes and a Table V crop; the values are not exactly
    // representable sums, so any change of accumulation order shows.
    for (m, n, k) in [(26, 36, 64), (13, 49, 40), (64, 196, 64)] {
        let a = data(m * k, 3);
        let b = data(k * n, 4);
        let want = fused_reference(m, n, k, &a, &b);
        for chip in ChipSpec::all_evaluated() {
            let engine = AutoGemm::new(chip.clone());
            for threads in [1, 2] {
                let mut c = vec![0.0f32; m * n];
                let opts = GemmOptions::default().threads(threads);
                engine.try_gemm_opts(m, n, k, &a, &b, &mut c, &opts).expect("native call");
                assert!(
                    c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{} {m}x{n}x{k} t{threads}: diverged from the fused reference",
                    chip.id
                );
            }
        }
    }
}

#[test]
fn simulate_ignores_native_calls_on_the_same_engine() {
    let (m, n, k) = L2;
    let a = data(m * k, 5);
    let b = data(k * n, 6);
    for threads in [1, 2] {
        let served = AutoGemm::new(ChipSpec::graviton2());
        let mut c = vec![0.0f32; m * n];
        served
            .try_gemm_opts(m, n, k, &a, &b, &mut c, &GemmOptions::default().threads(threads))
            .expect("native call");
        let after_native = served.simulate(m, n, k, threads);
        let fresh = AutoGemm::new(ChipSpec::graviton2()).simulate(m, n, k, threads);
        assert_eq!(after_native.seconds.to_bits(), fresh.seconds.to_bits(), "t{threads}");
        assert_eq!(after_native.packing, fresh.packing, "t{threads}");
        // And the model plan is still the paper's: Table II tiles.
        let model = served.model_plan(m, n, k);
        let t2 = tiles::table_menu(4);
        assert!(model.block_plan.placements.iter().all(|p| t2.contains(&p.tile)));
    }
}

#[test]
fn tuner_block_cost_is_keyed_by_menu() {
    // A block no other test in this binary scores, so the process-wide
    // memo starts cold for it.
    let chip = ChipSpec::m2();
    let (mc, nc, kc) = (26, 36, 64);
    let sched = Schedule {
        m: mc,
        n: nc,
        k: kc,
        mc,
        nc,
        kc,
        order: LoopOrder::goto(),
        packing: Packing::Online,
    };
    let opts = ModelOpts { rotate: true, fused: true };
    let table = tiles::table_menu(chip.sigma_lane());
    let host = host_menu(chip.sigma_lane());
    let block = |menu: &[MicroTile]| {
        plan_dmt(mc, nc, kc, &chip, opts, menu).effective_cycles(kc, &chip, opts)
    };

    let before = schedule_cost(&sched, &chip, &table);
    let over_host = schedule_cost(&sched, &chip, &host);
    let after = schedule_cost(&sched, &chip, &table);
    assert_eq!(before, after, "Table II cost changed once the host menu scored the block");
    assert_eq!(before.compute, block(&table));
    assert_eq!(over_host.compute, block(&host), "host menu served a Table II block cost");
}
