//! `service_mixed`: an open loop into `GemmService` at fixed rates.
//!
//! Two tenants share the service's runtime, one client thread each. Each
//! client sends on its own seeded Poisson schedule, whatever the service
//! is doing, so a slow call delays the calls due after it; every call is
//! timed from when it was due. The rates are absolute calls per second,
//! the same on every commit, so two commits are offered the same load.

use crate::host::{seconds_at_ref, HostSpeed};
use crate::inputs::{Case, Rng, Shape};
use crate::layers::{self, LayerAcc};
use crate::stats::{geomean, median, quantile, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, Tally};
use autogemm::telemetry::metrics::Counter;
use autogemm::{
    GemmError, GemmOptions, GemmReport, GemmService, ServiceConfig, ServiceReply, TenantId,
    TenantQuota, VerifyPolicy,
};
use autogemm_arch::ChipSpec;
use std::time::{Duration, Instant};

/// The service's saturation rate on the reference host (2-vCPU Xeon,
/// KVM, AVX-512): calls per second over both clients sending back to
/// back, as `service.saturation_qps` of a traced run measures it
/// (README.md has the runs).
const SATURATION_REF_QPS: f64 = 1950.0;
/// Offered load per step, in calls per second over both clients: 0.1×,
/// 0.25×, 0.5×, 0.8× and 1× the reference saturation rate, fixed, so a
/// faster commit is offered the same load and shows as shorter queues and
/// a higher `service.max_rate_within_slo_qps`. Each step lasts an equal
/// share of the run.
const RATES: [f64; 5] = [
    0.1 * SATURATION_REF_QPS,
    0.25 * SATURATION_REF_QPS,
    0.5 * SATURATION_REF_QPS,
    0.8 * SATURATION_REF_QPS,
    SATURATION_REF_QPS,
];
/// The latency limit a step's p99 (timed from the scheduled send) must
/// meet for its rate to count as sustained.
const SLO_P99_US: f64 = 20_000.0;
/// `latency_p50_us` comes from the calls of this many first steps, the
/// light ones. From half the saturation rate up, a call of L11 or L16
/// (about 3 ms, against 0.1 ms for most others) decides whether the calls
/// behind it queue, and a step's median latency swings by a factor of
/// 2–4 from seed to seed.
const LATENCY_STEPS: usize = 2;
/// Per-call deadline. It sits above the slowest cold first call (L16's
/// first call tunes for about 1.5 s on a 2-vCPU x86 host): the service
/// sheds a call when the tenant's observed p95 latency exceeds
/// the deadline, that p95 includes the cold first calls, and a shed call
/// adds no sample, so a deadline below the cold-start latency sheds every
/// later call of the tenant that set up cold.
const DEADLINE: Duration = Duration::from_secs(5);
/// The verifying tenant checks one call in this many.
const VERIFY_RATE: u32 = 4;
/// Cold set-ups per untraced run (this process's own, then fresh
/// processes); `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Client threads, one per tenant; client 0's tenant verifies.
pub const CLIENTS: usize = 2;
/// A client gauges the host's speed while it waits for a send at least
/// this far off (one gauge takes about 2 ms).
const GAUGE_GAP: Duration = Duration::from_millis(5);
/// Sleep until this close to a send time, then spin.
const SPIN: Duration = Duration::from_micros(200);
/// How long a traced run drives the service back to back for
/// `service.saturation_qps`.
const SATURATION_S: f64 = 1.0;

struct Sample {
    client: usize,
    step: usize,
    shape: usize,
    /// Seconds from the ladder's epoch to the scheduled send.
    due_s: f64,
    latency_us: f64,
    queue_us: f64,
    exec_us: f64,
    lateness_us: f64,
    ok: bool,
}

fn config() -> ServiceConfig {
    ServiceConfig {
        queue_depth: 32,
        // Below the client count, so one client's call waits in the
        // admission queue while the other's runs.
        max_in_flight: 1,
        ..ServiceConfig::default()
    }
}

fn quota(verify: VerifyPolicy) -> TenantQuota {
    TenantQuota { threads: 1, max_in_flight: 1, verify, ..TenantQuota::default() }
}

fn submit(
    service: &GemmService,
    tenant: &TenantId,
    case: &Case,
    c: &mut [f32],
) -> Result<ServiceReply, GemmError> {
    let Shape { m, n, k, .. } = case.shape;
    let opts = GemmOptions::new().deadline(DEADLINE);
    service.submit(tenant, m, n, k, &case.a, &case.b, c, &opts)
}

/// One checked call through `submit_traced`, whose report carries the
/// tenant engine's counters.
fn submit_traced(
    service: &GemmService,
    tenant: &TenantId,
    case: &Case,
    c: &mut [f32],
) -> Result<(ServiceReply, GemmReport), GemmError> {
    let Shape { m, n, k, .. } = case.shape;
    let opts = GemmOptions::new().deadline(DEADLINE);
    service.submit_traced(tenant, m, n, k, &case.a, &case.b, c, &opts)
}

/// `[breaker transitions, retries, verify runs]` of a tenant's engine,
/// from a traced report's metrics and integrity sections.
fn engine_counts(r: &GemmReport) -> [f64; 3] {
    let m = r.metrics.as_ref();
    [
        m.map_or(f64::NAN, |m| m.counter(Counter::BreakerTransitions) as f64),
        m.map_or(f64::NAN, |m| m.counter(Counter::RetryAttempts) as f64),
        r.integrity.as_ref().map_or(f64::NAN, |i| i.verify_runs_total as f64),
    ]
}

/// A fresh service with both tenants, plus each tenant's first call of
/// every shape. Returns the set-up seconds (checks excluded) at the
/// reference host speed.
fn setup(cases: &[Case], tally: &mut Tally) -> (GemmService, [TenantId; CLIENTS], f64) {
    let mut built = None;
    let secs = seconds_at_ref(CLIENTS * cases.len() + 1, |i| {
        let Some((service, tenants)) = &built else {
            let t = Instant::now();
            let service = GemmService::new(ChipSpec::graviton2(), config());
            let tenants = [
                service.add_tenant("verify", quota(VerifyPolicy::Sample { rate: VERIFY_RATE })),
                service.add_tenant("plain", quota(VerifyPolicy::Off)),
            ];
            built = Some((service, tenants));
            return t.elapsed().as_secs_f64();
        };
        let (tenant, case) = (&tenants[(i - 1) / cases.len()], &cases[(i - 1) % cases.len()]);
        let mut c = case.poisoned_output();
        let t = Instant::now();
        let r = submit(service, tenant, case, &mut c);
        let secs = t.elapsed().as_secs_f64();
        tally.record(r.is_ok() && case.check(&c));
        secs
    });
    let (service, tenants) = built.expect("the first step builds the service");
    (service, tenants, secs)
}

/// One client's calls for every step: seeded Poisson arrivals at half the
/// step's rate, each with a seeded shape. `(due seconds, step, shape)`.
fn schedule(rng: &mut Rng, n_shapes: usize, step_s: f64) -> Vec<(f64, usize, usize)> {
    let mut out = Vec::new();
    for (step, rate) in RATES.iter().enumerate() {
        let (start, end) = (step as f64 * step_s, (step + 1) as f64 * step_s);
        let mut t = start;
        loop {
            t += -(1.0 - rng.unit()).ln() / (rate / 2.0);
            if t >= end {
                break;
            }
            out.push((t, step, rng.below(n_shapes)));
        }
    }
    out
}

/// A call's latency from its scheduled send at the reference host speed;
/// a failed call is over any limit.
fn latency_at_ref(s: &Sample, slow: f64) -> f64 {
    if s.ok {
        s.latency_us / slow
    } else {
        f64::INFINITY
    }
}

/// Per shape, the median execution time (queue wait excluded) in seconds
/// of its successful calls; `NaN` for a shape that drew none.
fn exec_medians(samples: &[Sample], shapes: usize) -> Vec<f64> {
    (0..shapes)
        .map(|i| {
            median(
                &samples
                    .iter()
                    .filter(|s| s.ok && s.shape == i)
                    .map(|s| s.exec_us / 1e6)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Per shape, the median latency from the scheduled send of its calls in
/// the first `steps` steps (a failed call is over any limit); shapes that
/// drew no call are left out.
fn latency_medians(samples: &[Sample], shapes: usize, steps: usize) -> Vec<f64> {
    (0..shapes)
        .map(|i| {
            median(
                &samples
                    .iter()
                    .filter(|s| s.step < steps && s.shape == i)
                    .map(|s| latency_at_ref(s, 1.0))
                    .collect::<Vec<_>>(),
            )
        })
        .filter(|v| !v.is_nan())
        .collect()
}

/// What one client sent: its samples, the host-speed gauges it took, and
/// in a traced ladder the report of its last call.
struct ClientRun {
    samples: Vec<Sample>,
    gauges: Vec<f64>,
    report: Option<GemmReport>,
}

/// Send `plan` from this thread, gauging the host's speed in long waits.
/// In a traced ladder each call is a span and the last call goes through
/// `submit_traced`.
#[allow(clippy::too_many_arguments)]
fn client(
    service: &GemmService,
    tenant: &TenantId,
    client: usize,
    cases: &[Case],
    plan: &[(f64, usize, usize)],
    epoch: Instant,
    mut tracer: Option<&mut Tracer>,
) -> ClientRun {
    let mut outs: Vec<Vec<f32>> = cases.iter().map(Case::poisoned_output).collect();
    let mut run =
        ClientRun { samples: Vec::with_capacity(plan.len()), gauges: Vec::new(), report: None };
    let mut ready = epoch;
    for (i, &(due_s, step, shape)) in plan.iter().enumerate() {
        let due = epoch + Duration::from_secs_f64(due_s);
        if due > Instant::now() + GAUGE_GAP {
            run.gauges.push(crate::host::calibration_s());
        }
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let (case, c) = (&cases[shape], &mut outs[shape]);
        let id = ((client as u64) << 40) + i as u64;
        let last = i + 1 == plan.len();
        let sent = Instant::now();
        let r = match tracer.as_deref_mut() {
            Some(t) if last => t.span("service.submit", id, |_| {
                submit_traced(service, tenant, case, c).map(|(reply, report)| {
                    run.report = Some(report);
                    reply
                })
            }),
            Some(t) => t.span("service.submit", id, |_| submit(service, tenant, case, c)),
            None => submit(service, tenant, case, c),
        };
        let done = Instant::now();
        let queue_us = r.as_ref().map_or(0.0, |reply| reply.queue_wait.as_secs_f64() * 1e6);
        let total_us = (done - sent).as_secs_f64() * 1e6;
        run.samples.push(Sample {
            client,
            step,
            shape,
            due_s,
            latency_us: (done - due).as_secs_f64() * 1e6,
            queue_us,
            exec_us: total_us - queue_us,
            lateness_us: sent.saturating_duration_since(due.max(ready)).as_secs_f64() * 1e6,
            ok: r.is_ok() && case.check(c),
        });
        Case::poison(c);
        ready = Instant::now();
    }
    run
}

/// Run both clients' schedules at once. Returns the samples and, in a
/// traced ladder, each client's last-call report.
fn ladder(
    service: &GemmService,
    tenants: &[TenantId; CLIENTS],
    cases: &[Case],
    plans: &[Vec<(f64, usize, usize)>; CLIENTS],
    tracers: [Option<&mut Tracer>; CLIENTS],
    speed: &mut HostSpeed,
) -> (Vec<Sample>, Vec<Option<GemmReport>>) {
    let epoch = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let (tenant, plan) = (&tenants[i], &plans[i]);
                scope.spawn(move || client(service, tenant, i, cases, plan, epoch, t))
            })
            .collect();
        let (mut samples, mut reports) = (Vec::new(), Vec::new());
        for h in handles {
            let run = h.join().expect("client thread panicked");
            samples.extend(run.samples);
            speed.extend(run.gauges);
            reports.push(run.report);
        }
        (samples, reports)
    })
}

/// Calls per second the service completes with both clients sending back
/// to back (seeded shapes, each output checked between calls, as the
/// ladder's clients do): the rate the ladder's steps are set against.
fn saturation_qps(
    service: &GemmService,
    tenants: &[TenantId; CLIENTS],
    cases: &[Case],
    rng: &mut Rng,
    tally: &mut Tally,
) -> f64 {
    let draws: Vec<Vec<usize>> =
        (0..CLIENTS).map(|_| (0..4096).map(|_| rng.below(cases.len())).collect()).collect();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(SATURATION_S);
    let oks: Vec<Vec<bool>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .zip(&draws)
            .map(|(tenant, draw)| {
                scope.spawn(move || {
                    let mut oks = Vec::new();
                    for &shape in draw.iter().cycle() {
                        if Instant::now() >= end {
                            break;
                        }
                        let case = &cases[shape];
                        let mut c = case.poisoned_output();
                        oks.push(submit(service, tenant, case, &mut c).is_ok() && case.check(&c));
                    }
                    oks
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let calls = oks.iter().map(Vec::len).sum::<usize>();
    for ok in oks.into_iter().flatten() {
        tally.record(ok);
    }
    calls as f64 / elapsed
}

/// The set-up alone, for a fresh process measuring one cold set-up.
pub fn setup_only(shapes: &[Shape], seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let cases: Vec<Case> = shapes.iter().map(|&s| Case::unchecked(s, &mut rng)).collect();
    setup(&cases, &mut Tally::default()).2
}

pub fn run(shapes: &[Shape], workload: &str, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut rng = Rng::new(seed);
    let cases: Vec<Case> = shapes.iter().map(|&s| Case::new(s, &mut rng)).collect();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut plan_build_s = 0.0;
    if trace {
        // The tuner's cold cost for this workload's planned shapes, on an
        // engine of its own; the tenants then set up warm.
        let engine = autogemm::AutoGemm::new(ChipSpec::graviton2());
        for (i, case) in cases.iter().enumerate().filter(|(_, c)| !layers::fast_route(&c.shape)) {
            let t = Instant::now();
            tracer.span("tuner.plan", i as u64, |_| layers::engine_plan(&engine, &case.shape, 1));
            plan_build_s += t.elapsed().as_secs_f64();
        }
    }
    let (service, tenants, secs) = setup(&cases, &mut tally);
    if !trace {
        let mut setup_secs = vec![secs];
        for _ in 1..SETUP_REPS {
            let cold = crate::cold_setup(workload, seed);
            tally.record(cold.is_some());
            setup_secs.extend(cold);
        }
        let step_s = seconds as f64 / RATES.len() as f64;
        let mut speed = HostSpeed::default();
        speed.sample_burst();
        let plans =
            [schedule(&mut rng, cases.len(), step_s), schedule(&mut rng, cases.len(), step_s)];
        let (samples, _) = ladder(&service, &tenants, &cases, &plans, [None, None], &mut speed);
        speed.sample_burst();
        // Rejected, shed and expired calls come back as errors, so they
        // count as failed here.
        for s in &samples {
            tally.record(s.ok);
        }
        // Per shape, its median call, so the seeded shape mix does not
        // move the figures: execution time (queue wait excluded) for the
        // engine's speed inside the service, as in the closed loops, and
        // latency from the scheduled send in the light steps. Latency is
        // the geometric mean over shapes: over five seeds the median
        // shape's median spread by 20%, the geometric mean by 3%. All at
        // the reference host speed.
        let slow = speed.slowdown();
        let exec: Vec<(f64, f64)> = cases
            .iter()
            .zip(exec_medians(&samples, cases.len()))
            .filter(|(_, e)| e.is_finite())
            .map(|(c, e)| (c.shape.flops(), e))
            .collect();
        let (flops, exec_sum) = exec.iter().fold((0.0, 0.0), |(f, t), &(cf, e)| (f + cf, t + e));
        let mut m = Metrics::default();
        m.push("setup_s", median(&setup_secs), "s");
        m.push("gflops", flops / exec_sum / 1e9 * slow, "GFLOP/s");
        m.push("calls_per_s", geomean(exec.iter().map(|&(_, e)| 1.0 / e)) * slow, "1/s");
        m.push(
            "latency_p50_us",
            geomean(latency_medians(&samples, cases.len(), LATENCY_STEPS)) / slow,
            "us",
        );
        m.push("peak_rss_mb", crate::host::peak_rss_mb(), "MiB");
        println!(
            "host slowdown {slow:.4} over {} calibrations; {} calls measured; \
             max rate within the {SLO_P99_US} us p99 limit {:.0} calls/s",
            speed.samples(),
            samples.len(),
            max_rate_within_slo(&samples, step_s)
        );
        return Outcome { tally, metrics: m, tracer: None };
    }

    let saturation = saturation_qps(&service, &tenants, &cases, &mut rng, &mut tally);
    // The traced run drives the ladder twice at half length each: once
    // untraced, then traced, and sets their execution speeds against
    // each other. Each tenant's engine counters are read from a traced
    // call just before the traced ladder and from its last call in it.
    let step_s = seconds as f64 / (RATES.len() * 2) as f64;
    let mut speed = HostSpeed::default();
    let plans = [schedule(&mut rng, cases.len(), step_s), schedule(&mut rng, cases.len(), step_s)];
    let base_section = service.report_section();
    let (untraced, _) = ladder(&service, &tenants, &cases, &plans, [None, None], &mut speed);
    let base: Vec<Option<GemmReport>> = tenants
        .iter()
        .map(|tenant| {
            let case = &cases[0];
            let mut c = case.poisoned_output();
            let r = submit_traced(&service, tenant, case, &mut c);
            tally.record(r.is_ok() && case.check(&c));
            r.ok().map(|(_, report)| report)
        })
        .collect();
    let plans = [schedule(&mut rng, cases.len(), step_s), schedule(&mut rng, cases.len(), step_s)];
    let mut tracers = [Tracer::new(), Tracer::new()];
    let [t0, t1] = &mut tracers;
    let (traced, end) =
        ladder(&service, &tenants, &cases, &plans, [Some(t0), Some(t1)], &mut speed);
    let end_section = service.report_section();
    for s in untraced.iter().chain(&traced) {
        tally.record(s.ok);
    }
    let samples: Vec<&Sample> = untraced.iter().chain(&traced).collect();
    let ok: Vec<&Sample> = samples.iter().copied().filter(|s| s.ok).collect();

    let col = |f: fn(&Sample) -> f64| ok.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let mut l = Metrics::default();
    l.push("tuner.plan_build_s", plan_build_s, "s");
    l.push("service.saturation_qps", saturation, "1/s");
    l.push("service.max_rate_within_slo_qps", max_rate_within_slo(&untraced, step_s), "1/s");
    l.push("service.queue_wait_p50_us", quantile(&col(|s| s.queue_us), 0.5), "us");
    l.push("service.queue_wait_p99_us", quantile(&col(|s| s.queue_us), 0.99), "us");
    l.push("service.exec_p50_us", quantile(&col(|s| s.exec_us), 0.5), "us");
    l.push(
        "service.latency_p99_us",
        quantile(&samples.iter().map(|s| latency_at_ref(s, 1.0)).collect::<Vec<_>>(), 0.99),
        "us",
    );
    let counted =
        |f: fn(&autogemm::ServiceReport) -> u64| (f(&end_section) - f(&base_section)) as f64;
    l.push("service.admitted", counted(|r| r.admitted), "count");
    l.push("service.rejected", counted(|r| r.rejected), "count");
    l.push("service.shed", counted(|r| r.shed), "count");
    l.push("service.expired", counted(|r| r.expired_in_queue), "count");
    l.push(
        "loadgen.lateness_p99_us",
        quantile(&samples.iter().map(|s| s.lateness_us).collect::<Vec<_>>(), 0.99),
        "us",
    );

    // Engine counters over the traced ladder, summed over both tenants.
    let mut counts = [0.0; 3];
    for (b, e) in base.iter().zip(&end) {
        let (b, e) = match (b, e) {
            (Some(b), Some(e)) => (engine_counts(b), engine_counts(e)),
            _ => ([f64::NAN; 3], [f64::NAN; 3]),
        };
        for (sum, (b, e)) in counts.iter_mut().zip(b.iter().zip(&e)) {
            *sum += e - b;
        }
    }
    let [breaker_transitions, retries, verify_runs] = counts;

    // Verify cost per call: `verify_output` timed on each shape, weighted
    // by the verifying tenant's shape mix in the traced ladder (its engine
    // samples one call in `VERIFY_RATE` by its own counter), against the
    // Freivalds arithmetic at the best kernel ceiling of this run.
    let verify_cost: Vec<(f64, f64)> = cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let (secs, flops, ok) = layers::time_verify(case, &mut tracer, (1 << 32) + i as u64);
            tally.record(ok);
            (secs, flops)
        })
        .collect();
    let mut acc = LayerAcc::default();
    for s in traced.iter().filter(|s| s.client == 0) {
        acc.verify_s.push(verify_cost[s.shape].0);
        acc.verify_ideal_flops.push(verify_cost[s.shape].1);
    }
    let lane = ChipSpec::graviton2().sigma_lane();
    let best = layers::TRACKED_TILES
        .iter()
        .map(|&(mr, nr)| layers::tile_ceiling_gflops(mr, nr, lane))
        .fold(f64::NAN, f64::max);
    l.push("kernels.best_ceiling_gflops", best, "GFLOP/s");
    layers::push_verify(&mut l, &acc, verify_runs);
    l.push("supervisor.breaker_transitions", breaker_transitions, "count");
    l.push("supervisor.retries", retries, "count");
    // Spans wrap each submit, so they land in its execution time.
    let rate = |s: &[Sample]| {
        geomean(exec_medians(s, cases.len()).into_iter().filter(|e| e.is_finite()).map(|e| 1.0 / e))
    };
    l.push("trace.overhead_pct", 100.0 * (rate(&untraced) / rate(&traced) - 1.0), "%");
    let [t0, t1] = tracers;
    tracer.absorb(t0);
    tracer.absorb(t1);
    Outcome { tally, metrics: l, tracer: Some(tracer) }
}

/// The offered rate at which a step's p99 latency (timed from the
/// scheduled send; a failed call counts as over the limit) crosses
/// `SLO_P99_US`, interpolated in log latency between the last step under
/// the limit and the first over it. A step's p99 is the larger of its
/// whole p99 and its last quarter's, so a growing backlog counts as over.
/// 0 when the first step is over; the top rate when none is. Prints each
/// step's latency.
fn max_rate_within_slo(samples: &[Sample], step_s: f64) -> f64 {
    let worst: Vec<f64> = RATES
        .iter()
        .enumerate()
        .map(|(step, rate)| {
            let mut in_step: Vec<&Sample> = samples.iter().filter(|s| s.step == step).collect();
            in_step.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
            let lat: Vec<f64> = in_step.iter().map(|s| latency_at_ref(s, 1.0)).collect();
            let (p50, p99) = (quantile(&lat, 0.5), quantile(&lat, 0.99));
            let tail_p99 = quantile(&lat[lat.len() * 3 / 4..], 0.99);
            println!(
                "step {rate:>6.0} calls/s: {} calls in {step_s:.2} s, p50 {p50:.0} us, \
                 p99 {p99:.0} us, last-quarter p99 {tail_p99:.0} us",
                lat.len()
            );
            p99.max(tail_p99)
        })
        .collect();
    let Some(over) = worst.iter().position(|w| w.is_nan() || *w > SLO_P99_US) else {
        return RATES[RATES.len() - 1];
    };
    if over == 0 {
        return 0.0;
    }
    let (r0, l0, r1, l1) = (RATES[over - 1], worst[over - 1], RATES[over], worst[over]);
    if !l1.is_finite() {
        return r0;
    }
    r0 + (r1 - r0) * (SLO_P99_US.ln() - l0.ln()) / (l1.ln() - l0.ln())
}
