//! Per-layer measurements for the traced run: the engine's layers timed
//! through their public functions on a workload's own inputs, each beside
//! the ceiling that bounds it, measured in the same run.

use crate::inputs::{Case, Shape};
use crate::stats::{median, Metrics};
use crate::trace::Tracer;
use autogemm::native::{run_placement, try_gemm_with_plan_pooled, CTile};
use autogemm::packing::{
    pack_a, pack_a_into, pack_b, pack_b_into, pack_traffic_bytes, PackedBlock,
};
use autogemm::{AutoGemm, ExecutionPlan, OperandRouting, PanelPool, PoolStats};
use autogemm_kernelgen::MicroTile;
use autogemm_tiling::TilePlacement;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Tile shapes reported one by one: the ones the Graviton2-model plans
/// dispatch most on the Table V and small shapes, plus 6×8 and 2×20, the
/// menu's fastest tiles on x86 hosts with FMA, which a host-tuned planner
/// is expected to pick. Every other tile still counts in the mix figures
/// and in `kernels.other.count`.
pub const TRACKED_TILES: [(usize, usize); 8] =
    [(3, 24), (4, 16), (4, 20), (8, 4), (5, 16), (7, 8), (6, 8), (2, 20)];

/// `k_c` of the L1-resident ceiling panels: an `8×16` or `3×24` tile's A
/// and B panels at this depth fit a 32 KiB L1 data cache.
const CEILING_KC: usize = 256;

/// Whether the engine sends a shape to its GEMV/small-k routes, which
/// never plan or pack (`m = 1`, `n = 1` or `k ≤ 8`, as `AutoGemm`
/// documents its degenerate-shape dispatch).
pub fn fast_route(s: &Shape) -> bool {
    s.m == 1 || s.n == 1 || s.k <= 8
}

/// The plan the engine's front door runs for `s` at `threads`: its cached
/// plan with the operand routing its dispatch applies.
pub fn engine_plan(engine: &AutoGemm, s: &Shape, threads: usize) -> ExecutionPlan {
    let plan = if threads > 1 {
        engine.plan_multicore(s.m, s.n, s.k, threads)
    } else {
        engine.plan(s.m, s.n, s.k)
    };
    let (tm, tn, _) = plan.grid();
    let r = autogemm_perfmodel::route_packing(s.m, s.n, s.k, tm, tn);
    plan.with_routing(OperandRouting { pack_a: r.pack_a, pack_b: r.pack_b })
}

/// Bytes the panel-cache driver packs for one call under `plan`'s routing
/// and grid: each A panel and each B panel once (computed, not timed).
pub fn pack_bytes_per_call(plan: &ExecutionPlan) -> f64 {
    let s = &plan.schedule;
    let (tm, tn, tk) = plan.grid();
    let a = if plan.routing.pack_a { (tm * tk) as u64 * pack_traffic_bytes(s.mc, s.kc) } else { 0 };
    let b = if plan.routing.pack_b { (tk * tn) as u64 * pack_traffic_bytes(s.kc, s.nc) } else { 0 };
    (a + b) as f64
}

/// Median seconds per call of `f`, over `samples` samples of enough
/// calls each to last at least `min_s`.
pub fn time_per_call(samples: usize, min_s: f64, mut f: impl FnMut()) -> f64 {
    let mut iters = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_secs_f64() >= min_s || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&per_call)
}

/// Layer totals accumulated over a workload's shapes.
#[derive(Default)]
pub struct LayerAcc {
    pub pack_a_bytes: f64,
    pub pack_a_s: f64,
    pub pack_b_bytes: f64,
    pub pack_b_s: f64,
    pub pack_bytes_per_call: Vec<f64>,
    /// Per tile shape: placements per GEMM (summed over shapes), useful
    /// flops and seconds in the panel replay.
    pub tiles: BTreeMap<(usize, usize), TileAcc>,
    pub verify_s: Vec<f64>,
    pub verify_ideal_flops: Vec<f64>,
}

#[derive(Default, Clone, Copy)]
pub struct TileAcc {
    pub count: u64,
    pub flops: f64,
    pub secs: f64,
}

fn tile_span_name(mr: usize, nr: usize) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static NAMES: OnceLock<Mutex<BTreeMap<(usize, usize), &'static str>>> = OnceLock::new();
    let mut names = NAMES.get_or_init(Default::default).lock().expect("tile name table poisoned");
    names
        .entry((mr, nr))
        .or_insert_with(|| Box::leak(format!("kernels.{mr}x{nr}").into_boxed_str()))
}

/// Replay the panel-cache driver's work for one call from the public
/// packing and kernel functions: pack every A and B panel once, then run
/// each block's placements grouped by tile shape, one span per group.
/// The output is not a product (groups run out of order); only the
/// timings are used.
pub fn panel_replay(
    plan: &ExecutionPlan,
    case: &Case,
    tracer: &mut Tracer,
    call: u64,
    acc: &mut LayerAcc,
) {
    let (m, n, k) = (case.shape.m, case.shape.n, case.shape.k);
    let s = &plan.schedule;
    let (mc, nc, kc, lane) = (s.mc, s.nc, s.kc, plan.sigma_lane);
    let (tm, tn, tk) = plan.grid();
    let mut groups: BTreeMap<(usize, usize), Vec<&TilePlacement>> = BTreeMap::new();
    for p in &plan.block_plan.placements {
        groups.entry((p.tile.mr, p.tile.nr)).or_default().push(p);
    }
    let blocks = (tm * tn * tk) as u64;
    for (&t, ps) in &groups {
        acc.tiles.entry(t).or_default().count += ps.len() as u64 * blocks;
    }
    acc.pack_bytes_per_call.push(pack_bytes_per_call(plan));
    tracer.span("native.panel_replay", call, |tr| {
        let mut a_panels = vec![PackedBlock::empty(); tm * tk];
        for bi in 0..tm {
            for kb in 0..tk {
                let t = Instant::now();
                tr.span("packing.pack_a", call, |_| {
                    pack_a_into(
                        &mut a_panels[bi * tk + kb],
                        &case.a,
                        k,
                        bi * mc,
                        kb * kc,
                        mc,
                        kc,
                        lane,
                    )
                });
                acc.pack_a_s += t.elapsed().as_secs_f64();
                acc.pack_a_bytes += pack_traffic_bytes(mc, kc) as f64;
            }
        }
        let mut b_panels = vec![PackedBlock::empty(); tk * tn];
        for kb in 0..tk {
            for bj in 0..tn {
                let t = Instant::now();
                tr.span("packing.pack_b", call, |_| {
                    pack_b_into(
                        &mut b_panels[kb * tn + bj],
                        &case.b,
                        n,
                        kb * kc,
                        bj * nc,
                        kc,
                        nc,
                        lane,
                    )
                });
                acc.pack_b_s += t.elapsed().as_secs_f64();
                acc.pack_b_bytes += pack_traffic_bytes(kc, nc) as f64;
            }
        }
        let mut c = vec![0.0f32; m * n];
        for bi in 0..tm {
            for bj in 0..tn {
                let offset = bi * mc * n + bj * nc;
                for kb in 0..tk {
                    let (ap, bp) = (&a_panels[bi * tk + kb], &b_panels[kb * tn + bj]);
                    for (&(mr, nr), ps) in &groups {
                        let t = Instant::now();
                        tr.span(tile_span_name(mr, nr), call, |_| {
                            for p in ps {
                                // SAFETY: this thread owns `c`; the handle
                                // starts at block (bi, bj) inside it and
                                // `len` counts the elements to its end.
                                let ct = unsafe {
                                    CTile::new(c.as_mut_ptr().add(offset), n, c.len() - offset)
                                };
                                run_placement(p, kc, &ap.data, ap.ld, &bp.data, bp.ld, ct, kb > 0);
                            }
                        });
                        let e = acc.tiles.entry((mr, nr)).or_default();
                        e.secs += t.elapsed().as_secs_f64();
                        e.flops += ps
                            .iter()
                            .map(|p| 2.0 * (p.eff_rows * p.eff_cols * kc) as f64)
                            .sum::<f64>();
                    }
                }
            }
        }
        black_box(&c);
    });
}

/// Time the driver alone on `plan` (median of `reps` calls) and check its
/// output. Returns seconds per call and whether every output was correct.
pub fn time_driver(
    plan: &ExecutionPlan,
    case: &Case,
    threads: usize,
    reps: usize,
    pool: &PanelPool,
    tracer: &mut Tracer,
    call: u64,
) -> (f64, bool) {
    let mut c = case.poisoned_output();
    let mut secs = Vec::with_capacity(reps);
    let mut ok = true;
    for _ in 0..reps {
        let (s, good) = driver_call(plan, case, &mut c, threads, pool, tracer, call);
        secs.push(s);
        ok &= good;
    }
    (median(&secs), ok)
}

/// One checked driver call in a `native.try_gemm_with_plan` span.
pub fn driver_call(
    plan: &ExecutionPlan,
    case: &Case,
    c: &mut [f32],
    threads: usize,
    pool: &PanelPool,
    tracer: &mut Tracer,
    call: u64,
) -> (f64, bool) {
    Case::poison(c);
    let t = Instant::now();
    let r = tracer.span("native.try_gemm_with_plan", call, |_| {
        try_gemm_with_plan_pooled(plan, &case.a, &case.b, c, threads, pool)
    });
    let secs = t.elapsed().as_secs_f64();
    (secs, r.is_ok() && case.check(c))
}

/// Time `verify_output` on the reference product of `case` (median of
/// five calls). Returns the seconds, the Freivalds arithmetic the check
/// costs at the least (rounds × 2·(mn + kn + mk) flops), and whether
/// every check passed.
pub fn time_verify(case: &Case, tracer: &mut Tracer, call: u64) -> (f64, f64, bool) {
    let Shape { m, n, k, .. } = case.shape;
    let c = case.reference();
    let mut ok = true;
    let mut secs = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let r = tracer.span("verify.verify_output", call, |_| {
            autogemm::verify::verify_output(m, n, k, &case.a, &case.b, c)
        });
        secs.push(t.elapsed().as_secs_f64());
        ok &= r.is_ok();
    }
    let flops =
        f64::from(autogemm::verify::FREIVALDS_ROUNDS) * 2.0 * (m * n + k * n + m * k) as f64;
    (median(&secs), flops, ok)
}

/// GFLOP/s of one tile on L1-resident packed panels.
pub fn tile_ceiling_gflops(mr: usize, nr: usize, lane: usize) -> f64 {
    let kc = CEILING_KC;
    let a: Vec<f32> = (0..mr * kc).map(|i| ((i * 13 + 5) % 23) as f32 - 11.0).collect();
    let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 7 + 2) % 19) as f32 - 9.0).collect();
    let (pa, pb) = (pack_a(&a, kc, 0, 0, mr, kc, lane), pack_b(&b, nr, 0, 0, kc, nr, lane));
    let p = TilePlacement::full(0, 0, MicroTile::new(mr, nr));
    let mut c = vec![0.0f32; mr * nr];
    let secs = time_per_call(7, 2e-4, || {
        // SAFETY: `c` is this thread's `mr × nr` buffer, exactly the
        // tile's extent at stride `nr`.
        let ct = unsafe { CTile::new(c.as_mut_ptr(), nr, c.len()) };
        run_placement(black_box(&p), kc, &pa.data, pa.ld, &pb.data, pb.ld, ct, true);
    });
    2.0 * (mr * nr * kc) as f64 / secs / 1e9
}

/// Copy bandwidth of `copy_from_slice` on a buffer of `floats` elements,
/// counted like `pack_traffic_bytes` (bytes read plus bytes written).
pub fn copy_ceiling_bytes_per_s(floats: usize) -> f64 {
    let src: Vec<f32> = (0..floats).map(|i| i as f32).collect();
    let mut dst = vec![0.0f32; floats];
    let secs = time_per_call(7, 2e-3, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    8.0 * floats as f64 / secs
}

/// Per-tile and mix kernel figures: in-context GFLOP/s from the panel
/// replay, the L1-resident ceiling of each dispatched tile, and the
/// count-weighted mix of both.
pub fn push_kernels(l: &mut Metrics, acc: &LayerAcc, lane: usize) {
    let (mut mix_flops, mut mix_secs, mut ceil_secs, mut other) = (0.0, 0.0, 0.0, 0u64);
    let mut ceilings = std::collections::BTreeMap::new();
    for (&(mr, nr), t) in &acc.tiles {
        let ceiling = tile_ceiling_gflops(mr, nr, lane);
        ceilings.insert((mr, nr), ceiling);
        mix_flops += t.flops;
        mix_secs += t.secs;
        ceil_secs += t.flops / (ceiling * 1e9);
        if !TRACKED_TILES.contains(&(mr, nr)) {
            other += t.count;
        }
    }
    for (mr, nr) in TRACKED_TILES {
        let t = acc.tiles.get(&(mr, nr)).copied().unwrap_or_default();
        l.push(format!("kernels.{mr}x{nr}.count"), t.count as f64, "count");
        l.push(format!("kernels.{mr}x{nr}.gflops"), t.flops / t.secs / 1e9, "GFLOP/s");
        l.push(
            format!("kernels.{mr}x{nr}.ceiling_gflops"),
            ceilings.get(&(mr, nr)).copied().unwrap_or(f64::NAN),
            "GFLOP/s",
        );
    }
    l.push("kernels.other.count", other as f64, "count");
    l.push("kernels.mix_gflops", mix_flops / mix_secs / 1e9, "GFLOP/s");
    l.push("kernels.mix_ceiling_gflops", mix_flops / ceil_secs / 1e9, "GFLOP/s");
    let best = ceilings.values().copied().fold(f64::NAN, f64::max);
    l.push("kernels.best_ceiling_gflops", best, "GFLOP/s");
}

/// Pool wake latency and busy share over the measured phase, from
/// differenced `PoolStats`.
pub fn push_runtime(l: &mut Metrics, p0: &PoolStats, p1: &PoolStats, wall: Duration) {
    let wakes = (p1.wake_count - p0.wake_count) as f64;
    l.push("runtime.wake_ns_mean", (p1.wake_ns_total - p0.wake_ns_total) as f64 / wakes, "ns");
    l.push(
        "runtime.busy_share",
        (p1.busy_ns_total - p0.busy_ns_total) as f64 / (p1.workers as f64 * wall.as_nanos() as f64),
        "ratio",
    );
}

/// Verify cost per call, set against the Freivalds arithmetic at the best
/// kernel ceiling measured in this run.
pub fn push_verify(l: &mut Metrics, acc: &LayerAcc, runs: f64) {
    let best = l.get("kernels.best_ceiling_gflops").unwrap_or(f64::NAN);
    let secs: f64 = acc.verify_s.iter().sum();
    let ideal: f64 = acc.verify_ideal_flops.iter().sum::<f64>() / (best * 1e9);
    l.push("verify.us_per_call", secs / acc.verify_s.len() as f64 * 1e6, "us");
    l.push("verify.ceiling_ratio", secs / ideal, "ratio");
    l.push("verify.runs", runs, "count");
}
