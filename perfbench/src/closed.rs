//! Closed-loop workloads: one caller sends each call after the previous
//! one returns, round-robin over the workload's shapes, through
//! `AutoGemm::try_gemm_opts`.

use crate::host::{seconds_at_ref, HostSpeed};
use crate::inputs::{Case, Rng, Shape};
use crate::layers::{self, LayerAcc};
use crate::stats::{geomean, interquartile_mean, median, LogHist, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, Tally};
use autogemm::telemetry::metrics::Counter;
use autogemm::{AutoGemm, GemmOptions, PanelPool};
use autogemm_arch::ChipSpec;
use std::time::{Duration, Instant};

/// Front-door/driver call pairs per shape behind `engine.front_door_self_us`.
const FRONT_DOOR_PAIRS: usize = 7;

pub struct ClosedSpec {
    pub shapes: Vec<Shape>,
    pub threads: usize,
    /// Fresh-engine set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// One call through the front door: poison `c`, time the call alone,
/// then check the output. Returns the call's seconds and whether it
/// succeeded with a correct output.
fn call(engine: &AutoGemm, case: &Case, c: &mut [f32], opts: &GemmOptions) -> (f64, bool) {
    let Shape { m, n, k, .. } = case.shape;
    Case::poison(c);
    let t = Instant::now();
    let r = engine.try_gemm_opts(m, n, k, &case.a, &case.b, c, opts);
    let secs = t.elapsed().as_secs_f64();
    (secs, r.is_ok() && case.check(c))
}

/// A fresh engine plus the first call of every shape: engine creation
/// and the calls are timed, output checks are not. Returns the engine and
/// the set-up seconds at the reference host speed.
fn setup(
    cases: &[Case],
    outs: &mut [Vec<f32>],
    opts: &GemmOptions,
    tally: &mut Tally,
) -> (AutoGemm, f64) {
    let mut engine = None;
    let secs = seconds_at_ref(cases.len() + 1, |i| {
        let Some(e) = &engine else {
            let t = Instant::now();
            engine = Some(AutoGemm::new(ChipSpec::graviton2()));
            return t.elapsed().as_secs_f64();
        };
        let (s, ok) = call(e, &cases[i - 1], &mut outs[i - 1], opts);
        tally.record(ok);
        s
    });
    (engine.expect("the first step builds the engine"), secs)
}

/// The set-up alone, for a fresh process measuring one cold set-up.
pub fn setup_only(spec: &ClosedSpec, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let cases: Vec<Case> = spec.shapes.iter().map(|&s| Case::unchecked(s, &mut rng)).collect();
    let mut outs: Vec<Vec<f32>> = cases.iter().map(Case::poisoned_output).collect();
    setup(&cases, &mut outs, &GemmOptions::new().threads(spec.threads), &mut Tally::default()).1
}

/// Timings of the measured phase.
struct Loop {
    /// Per shape: its untraced calls' seconds.
    shape_secs: Vec<LogHist>,
    traced_pass_secs: Vec<f64>,
    untraced_pass_secs: Vec<f64>,
}

/// How often the measured phase samples the host's speed.
const CALIBRATION_EVERY: Duration = Duration::from_millis(100);

pub fn run(spec: &ClosedSpec, workload: &str, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut rng = Rng::new(seed);
    let cases: Vec<Case> = spec.shapes.iter().map(|&s| Case::new(s, &mut rng)).collect();
    let mut outs: Vec<Vec<f32>> = cases.iter().map(Case::poisoned_output).collect();
    let opts = GemmOptions::new().threads(spec.threads);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();

    let mut setup_secs = Vec::new();
    let mut plan_build_s = 0.0;
    let engine = if trace {
        // One traced set-up: the cold plan of each planned shape, then
        // its first call (a plan-cache hit).
        let t = Instant::now();
        let e = AutoGemm::new(ChipSpec::graviton2());
        let mut secs = t.elapsed().as_secs_f64();
        for (i, (case, c)) in cases.iter().zip(outs.iter_mut()).enumerate() {
            if !layers::fast_route(&case.shape) {
                let t = Instant::now();
                tracer.span("tuner.plan", i as u64, |_| {
                    layers::engine_plan(&e, &case.shape, spec.threads)
                });
                let s = t.elapsed().as_secs_f64();
                plan_build_s += s;
                secs += s;
            }
            let (s, ok) =
                tracer.span("engine.try_gemm_opts", i as u64, |_| call(&e, case, c, &opts));
            secs += s;
            tally.record(ok);
        }
        setup_secs.push(secs);
        e
    } else {
        let (e, secs) = setup(&cases, &mut outs, &opts, &mut tally);
        setup_secs.push(secs);
        for _ in 1..spec.setup_reps {
            let cold = crate::cold_setup(workload, seed);
            tally.record(cold.is_some());
            setup_secs.extend(cold);
        }
        e
    };

    let cache0 = engine.plan_cache_stats();
    let pool0 = engine.pool_stats();
    let loop_start = Instant::now();
    let mut speed = HostSpeed::default();
    let lp = measure(
        &engine,
        &cases,
        &mut outs,
        &opts,
        seconds,
        trace,
        &mut tracer,
        &mut tally,
        &mut speed,
    );
    let loop_wall = loop_start.elapsed();
    let cache1 = engine.plan_cache_stats();
    let pool1 = engine.pool_stats();

    // Per shape, its median call; all figures at the reference host
    // speed. `gflops` weighs shapes by their flops, so the long calls
    // decide it; `calls_per_s` weighs every shape alike, so the short
    // calls' dispatch cost shows; `latency_p50_us` is the typical shape's
    // median call, the mean over the middle half of shapes (the median
    // shape alone spread by 10% over six `small_shapes` seeds, this 4%).
    let slow = speed.slowdown();
    let medians: Vec<f64> = lp.shape_secs.iter().map(|h| h.quantile(0.5)).collect();
    let mut all_calls = LogHist::new();
    for h in &lp.shape_secs {
        all_calls.merge(h);
    }
    let flops: f64 = cases.iter().map(|c| c.shape.flops()).sum();
    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_secs), "s");
    m.push("gflops", flops / medians.iter().sum::<f64>() / 1e9 * slow, "GFLOP/s");
    m.push("calls_per_s", geomean(medians.iter().map(|s| 1.0 / s)) * slow, "1/s");
    m.push("latency_p50_us", interquartile_mean(&medians) / slow * 1e6, "us");
    m.push("peak_rss_mb", crate::host::peak_rss_mb(), "MiB");
    println!(
        "host slowdown {slow:.4} over {} calibrations; {} calls measured, p99 {:.0} us",
        speed.samples(),
        all_calls.count(),
        all_calls.quantile(0.99) / slow * 1e6
    );
    if !trace {
        return Outcome { tally, metrics: m, tracer: None };
    }

    // Per-layer figures.
    let mut l = Metrics::default();
    let hits = (cache1.hits - cache0.hits) as f64;
    let misses = (cache1.misses - cache0.misses) as f64;
    l.push("tuner.plan_build_s", plan_build_s, "s");
    l.push("plancache.hits", hits, "count");
    l.push("plancache.misses", misses, "count");
    l.push("plancache.hit_ratio", hits / (hits + misses), "ratio");

    let mut acc = LayerAcc::default();
    let pool = PanelPool::new();
    let (mut t1_flops, mut t1_secs, mut t2_secs, mut front_self) = (0.0, 0.0, 0.0, Vec::new());
    let mut a_panel_floats = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let call_id = (1 << 32) + i as u64;
        let (secs, flops, ok) = layers::time_verify(case, &mut tracer, call_id);
        acc.verify_s.push(secs);
        acc.verify_ideal_flops.push(flops);
        tally.record(ok);
        if layers::fast_route(&case.shape) {
            continue;
        }
        let plan = layers::engine_plan(&engine, &case.shape, spec.threads);
        let (s1, ok1) = layers::time_driver(&plan, case, 1, 3, &pool, &mut tracer, call_id);
        let (s2, ok2) = layers::time_driver(&plan, case, 2, 3, &pool, &mut tracer, call_id);
        tally.record(ok1);
        tally.record(ok2);
        t1_flops += case.shape.flops();
        t1_secs += s1;
        t2_secs += s2;
        // Front door minus driver on the same plan, in interleaved pairs.
        let mut c = case.poisoned_output();
        let diffs: Vec<f64> = (0..FRONT_DOOR_PAIRS)
            .map(|_| {
                let (front, ok_f) = tracer
                    .span("engine.try_gemm_opts", call_id, |_| call(&engine, case, &mut c, &opts));
                let (driver, ok_d) = layers::driver_call(
                    &plan,
                    case,
                    &mut c,
                    spec.threads,
                    &pool,
                    &mut tracer,
                    call_id,
                );
                tally.record(ok_f);
                tally.record(ok_d);
                front - driver
            })
            .collect();
        front_self.push(median(&diffs));
        layers::panel_replay(&plan, case, &mut tracer, call_id, &mut acc);
        a_panel_floats.push(plan.schedule.mc * plan.schedule.kc);
    }
    l.push("engine.front_door_self_us", median(&front_self) * 1e6, "us");
    l.push("packing.a_bytes_per_s", acc.pack_a_bytes / acc.pack_a_s, "B/s");
    l.push("packing.b_bytes_per_s", acc.pack_b_bytes / acc.pack_b_s, "B/s");
    let panel = median(&a_panel_floats.iter().map(|&f| f as f64).collect::<Vec<_>>());
    l.push(
        "packing.copy_ceiling_bytes_per_s",
        if panel.is_finite() { layers::copy_ceiling_bytes_per_s(panel as usize) } else { f64::NAN },
        "B/s",
    );
    l.push("packing.bytes_per_call", mean(&acc.pack_bytes_per_call), "B");
    layers::push_kernels(&mut l, &acc, autogemm_arch::ChipSpec::graviton2().sigma_lane());
    l.push("native.driver_gflops_t1", t1_flops / t1_secs / 1e9, "GFLOP/s");
    l.push("native.driver_gflops_t2", t1_flops / t2_secs / 1e9, "GFLOP/s");
    layers::push_runtime(&mut l, &pool0, &pool1, loop_wall);
    l.push("runtime.parallel_efficiency", t1_secs / (2.0 * t2_secs), "ratio");
    l.push("gemv.row_gflops", route_gflops(&cases, &lp, |s| s.m == 1), "GFLOP/s");
    l.push("gemv.col_gflops", route_gflops(&cases, &lp, |s| s.n == 1 && s.m > 1), "GFLOP/s");
    layers::push_verify(&mut l, &acc, acc.verify_s.len() as f64);
    let snap = engine.metrics();
    l.push(
        "supervisor.breaker_transitions",
        snap.counter(Counter::BreakerTransitions) as f64,
        "count",
    );
    l.push("supervisor.retries", snap.counter(Counter::RetryAttempts) as f64, "count");
    l.push(
        "trace.overhead_pct",
        100.0 * (median(&lp.traced_pass_secs) / median(&lp.untraced_pass_secs) - 1.0),
        "%",
    );
    Outcome { tally, metrics: l, tracer: Some(tracer) }
}

/// The measured phase: whole passes over every shape until `seconds`
/// have passed, gauging the host's speed between passes. In a traced run
/// every other pass wraps its calls in spans, so traced and untraced
/// passes interleave.
#[allow(clippy::too_many_arguments)]
fn measure(
    engine: &AutoGemm,
    cases: &[Case],
    outs: &mut [Vec<f32>],
    opts: &GemmOptions,
    seconds: u64,
    trace: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
    speed: &mut HostSpeed,
) -> Loop {
    let mut lp = Loop {
        shape_secs: cases.iter().map(|_| LogHist::new()).collect(),
        traced_pass_secs: Vec::new(),
        untraced_pass_secs: Vec::new(),
    };
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut last_gauge = start;
    speed.sample();
    let mut pass = 0u64;
    while start.elapsed() < budget {
        let traced = trace && pass % 2 == 1;
        let mut secs = 0.0;
        for (i, (case, c)) in cases.iter().zip(outs.iter_mut()).enumerate() {
            let (s, ok) = if traced {
                let id = pass * cases.len() as u64 + i as u64;
                tracer.span("engine.try_gemm_opts", id, |_| call(engine, case, c, opts))
            } else {
                call(engine, case, c, opts)
            };
            tally.record(ok);
            secs += s;
            if !traced {
                lp.shape_secs[i].record(s);
            }
        }
        if traced {
            lp.traced_pass_secs.push(secs);
        } else {
            lp.untraced_pass_secs.push(secs);
        }
        pass += 1;
        if last_gauge.elapsed() >= CALIBRATION_EVERY {
            speed.sample();
            last_gauge = Instant::now();
        }
    }
    speed.sample();
    lp
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// GFLOP/s of the shapes `pick` selects, from their median call times in
/// the measured phase.
fn route_gflops(cases: &[Case], lp: &Loop, pick: impl Fn(&Shape) -> bool) -> f64 {
    let (mut flops, mut secs) = (0.0, 0.0);
    for (case, s) in cases.iter().zip(&lp.shape_secs) {
        if pick(&case.shape) {
            flops += case.shape.flops();
            secs += s.quantile(0.5);
        }
    }
    flops / secs / 1e9
}
