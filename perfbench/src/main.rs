//! The autoGEMM engine benchmark: one command, four workloads, every
//! output checked against the scalar reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tablev_t1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with nothing
//! traced; with `--trace 1` it is a separate run that records spans
//! around the engine's public layer functions and reports the per-layer
//! metrics. The last stdout line is the JSON result; README.md lists the
//! workloads and metrics.

mod closed;
mod host;
mod inputs;
mod layers;
mod service;
mod stats;
mod trace;

use inputs::Shape;
use stats::Metrics;
use std::fmt::Write as _;
use std::process::ExitCode;

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub tracer: Option<trace::Tracer>,
}

/// Operations a run attempted and how many failed: an error, a
/// rejection, a shed call, an expiry or a wrong output.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// `(name, unit)` of every end-to-end metric, in report order. Every
/// workload reports all of them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("gflops", "GFLOP/s"),
    ("calls_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric a traced run reports. A layer
/// the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tuner.plan_build_s", "s"),
    ("tuner.self_ms", "ms"),
    ("plancache.hits", "count"),
    ("plancache.misses", "count"),
    ("plancache.hit_ratio", "ratio"),
    ("engine.front_door_self_us", "us"),
    ("engine.self_ms", "ms"),
    ("packing.a_bytes_per_s", "B/s"),
    ("packing.b_bytes_per_s", "B/s"),
    ("packing.copy_ceiling_bytes_per_s", "B/s"),
    ("packing.bytes_per_call", "B"),
    ("packing.self_ms", "ms"),
    ("kernels.3x24.count", "count"),
    ("kernels.3x24.gflops", "GFLOP/s"),
    ("kernels.3x24.ceiling_gflops", "GFLOP/s"),
    ("kernels.4x16.count", "count"),
    ("kernels.4x16.gflops", "GFLOP/s"),
    ("kernels.4x16.ceiling_gflops", "GFLOP/s"),
    ("kernels.4x20.count", "count"),
    ("kernels.4x20.gflops", "GFLOP/s"),
    ("kernels.4x20.ceiling_gflops", "GFLOP/s"),
    ("kernels.8x4.count", "count"),
    ("kernels.8x4.gflops", "GFLOP/s"),
    ("kernels.8x4.ceiling_gflops", "GFLOP/s"),
    ("kernels.5x16.count", "count"),
    ("kernels.5x16.gflops", "GFLOP/s"),
    ("kernels.5x16.ceiling_gflops", "GFLOP/s"),
    ("kernels.7x8.count", "count"),
    ("kernels.7x8.gflops", "GFLOP/s"),
    ("kernels.7x8.ceiling_gflops", "GFLOP/s"),
    ("kernels.6x8.count", "count"),
    ("kernels.6x8.gflops", "GFLOP/s"),
    ("kernels.6x8.ceiling_gflops", "GFLOP/s"),
    ("kernels.2x20.count", "count"),
    ("kernels.2x20.gflops", "GFLOP/s"),
    ("kernels.2x20.ceiling_gflops", "GFLOP/s"),
    ("kernels.other.count", "count"),
    ("kernels.mix_gflops", "GFLOP/s"),
    ("kernels.mix_ceiling_gflops", "GFLOP/s"),
    ("kernels.best_ceiling_gflops", "GFLOP/s"),
    ("kernels.self_ms", "ms"),
    ("native.driver_gflops_t1", "GFLOP/s"),
    ("native.driver_gflops_t2", "GFLOP/s"),
    ("native.self_ms", "ms"),
    ("runtime.wake_ns_mean", "ns"),
    ("runtime.busy_share", "ratio"),
    ("runtime.parallel_efficiency", "ratio"),
    ("gemv.row_gflops", "GFLOP/s"),
    ("gemv.col_gflops", "GFLOP/s"),
    ("verify.us_per_call", "us"),
    ("verify.ceiling_ratio", "ratio"),
    ("verify.runs", "count"),
    ("verify.self_ms", "ms"),
    ("service.saturation_qps", "1/s"),
    ("service.max_rate_within_slo_qps", "1/s"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.exec_p50_us", "us"),
    ("service.latency_p99_us", "us"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("service.shed", "count"),
    ("service.expired", "count"),
    ("service.self_ms", "ms"),
    ("supervisor.breaker_transitions", "count"),
    ("supervisor.retries", "count"),
    ("loadgen.lateness_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Spans written to the trace file at most; the layer totals cover all.
const MAX_WRITTEN_SPANS: usize = 200_000;

const fn shape(name: &'static str, m: usize, n: usize, k: usize) -> Shape {
    Shape { name, m, n, k }
}

/// The 20 ResNet-50 layers of Table V.
fn table_v() -> Vec<Shape> {
    const NAMES: [&str; 20] = [
        "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11", "L12", "L13", "L14",
        "L15", "L16", "L17", "L18", "L19", "L20",
    ];
    autogemm_workloads::resnet50_table_v()
        .into_iter()
        .map(|l| shape(NAMES[l.layer - 1], l.m, l.n, l.k))
        .collect()
}

/// Fig 8's cubes, the GEMV-row, GEMV-column and small-k routes, and two
/// crops of Table V layers.
fn small_shapes() -> Vec<Shape> {
    const CUBES: [&str; 12] =
        ["c4", "c8", "c12", "c16", "c24", "c32", "c48", "c64", "c80", "c96", "c112", "c128"];
    let sweep = autogemm_workloads::small_sweep();
    assert_eq!(sweep.len(), CUBES.len(), "Fig 8 sweep changed size");
    let mut v: Vec<Shape> =
        sweep.into_iter().zip(CUBES).map(|(s, name)| shape(name, s, s, s)).collect();
    v.extend([
        shape("gemv_row", 1, 512, 512),
        shape("gemv_col", 512, 1, 512),
        shape("small_k", 128, 196, 8),
        shape("L16c", 128, 49, 256),
        shape("L20c", 64, 49, 64),
    ]);
    v
}

enum Workload {
    Closed(closed::ClosedSpec),
    Service(Vec<Shape>),
}

impl Workload {
    fn named(name: &str) -> Option<Workload> {
        let table_v_subset = |names: &[&str]| {
            table_v().into_iter().filter(|s| names.contains(&s.name)).collect::<Vec<_>>()
        };
        Some(match name {
            "tablev_t1" => Workload::Closed(closed::ClosedSpec {
                shapes: table_v(),
                threads: 1,
                setup_reps: 1,
            }),
            "tablev_t2" => Workload::Closed(closed::ClosedSpec {
                shapes: table_v_subset(&["L2", "L11", "L17", "L18"]),
                threads: 2,
                setup_reps: 3,
            }),
            "small_shapes" => Workload::Closed(closed::ClosedSpec {
                shapes: small_shapes(),
                threads: 1,
                setup_reps: 3,
            }),
            "service_mixed" => {
                let mut shapes = small_shapes();
                shapes.extend(table_v_subset(&["L11", "L16"]));
                Workload::Service(shapes)
            }
            _ => return None,
        })
    }

    /// Caller plus worker threads the workload runs at once.
    fn threads(&self) -> usize {
        match self {
            Workload::Closed(spec) => spec.threads,
            Workload::Service(_) => service::CLIENTS,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Measure one cold set-up and print its seconds (the benchmark runs
    /// itself this way for repeated set-ups).
    setup_only: bool,
}

const USAGE: &str = "usage: perfbench --workload <tablev_t1|tablev_t2|small_shapes|service_mixed> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10, trace: false, setup_only: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 600),
            "--trace" => args.trace = flag_bit(flag, value)?,
            "--setup-only" => args.setup_only = flag_bit(flag, value)?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn flag_bit(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, not {value}")),
    }
}

/// Seconds of one cold set-up of `workload`, measured in a fresh process
/// of this benchmark: the tuner memoizes block costs process-wide, so
/// only a new process sets up cold. `None` when the child failed.
pub fn cold_setup(workload: &str, seed: u64) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let seed = seed.to_string();
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed, "--setup-only", "1"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout).lines().last()?.trim().parse().ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if args.setup_only {
        let secs = match &workload {
            Workload::Closed(spec) => closed::setup_only(spec, args.seed),
            Workload::Service(shapes) => service::setup_only(shapes, args.seed),
        };
        println!("{secs}");
        return ExitCode::SUCCESS;
    }
    let threads = workload.threads();
    let host = host::Fingerprint::probe();
    let oversubscribed = threads > host.nproc;
    eprintln!("host: {}", host.to_json());
    if oversubscribed {
        eprintln!(
            "oversubscribed: {threads} threads on {} cores; thread timings are not comparable",
            host.nproc
        );
    }

    let outcome = match &workload {
        Workload::Closed(spec) => {
            closed::run(spec, &args.workload, args.seed, args.seconds, args.trace)
        }
        Workload::Service(shapes) => {
            service::run(shapes, &args.workload, args.seed, args.seconds, args.trace)
        }
    };
    let list: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    let mut metrics = Metrics::default();
    let tracer = outcome.tracer.as_ref();
    let layer_times = tracer.map(trace::Tracer::by_name).unwrap_or_default();
    for &(name, unit) in list {
        let value = if let Some(module) = name.strip_suffix(".self_ms") {
            let prefix = format!("{module}.");
            let ns: u64 = layer_times
                .iter()
                .filter(|(n, _)| n.starts_with(&prefix))
                .map(|(_, t)| t.self_ns)
                .sum();
            ns as f64 / 1e6
        } else if name == "trace.spans" {
            tracer.map_or(0.0, |t| t.spans().len() as f64)
        } else {
            outcome.metrics.get(name).unwrap_or(0.0)
        };
        // A per-layer ratio over a layer the workload never ran is 0/0.
        let value = if value.is_finite() || !args.trace { value } else { 0.0 };
        metrics.push(name, value, unit);
    }
    for m in &metrics.0 {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Some(t) = tracer {
        if let Err(e) = write_trace(&args, &host, oversubscribed, t, &layer_times) {
            eprintln!("trace file not written: {e}");
        }
    }
    let Tally { attempted, failed } = outcome.tally;
    println!("{}", stats::result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Write the spans and per-layer times to `perfbench/out/trace_<workload>.json`.
fn write_trace(
    args: &Args,
    host: &host::Fingerprint,
    oversubscribed: bool,
    tracer: &trace::Tracer,
    layers: &std::collections::BTreeMap<&'static str, trace::LayerTime>,
) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"host\": {}, \"oversubscribed\": {oversubscribed},\n\"layers\": {{",
        args.workload,
        args.seed,
        args.seconds,
        host.to_json()
    );
    for (i, (name, t)) in layers.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let spans = tracer.spans();
    let _ = write!(s, "\n}},\n\"spans_total\": {}, \"spans\": ", spans.len());
    s.push_str(&trace::spans_json(&spans[..spans.len().min(MAX_WRITTEN_SPANS)]));
    s.push_str("}\n");
    std::fs::write(dir.join(format!("trace_{}.json", args.workload)), s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "metric count");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in ["tablev_t1", "tablev_t2", "small_shapes", "service_mixed"] {
            assert!(Workload::named(w).is_some());
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
    }

    #[test]
    fn every_tracked_tile_is_reported() {
        for (mr, nr) in layers::TRACKED_TILES {
            for metric in ["count", "gflops", "ceiling_gflops"] {
                let name = format!("kernels.{mr}x{nr}.{metric}");
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} missing");
            }
        }
    }

    #[test]
    fn workload_shapes() {
        assert_eq!(table_v().len(), 20);
        let small = small_shapes();
        assert_eq!(small.len(), 17);
        assert!(small.iter().any(|s| s.m == 1) && small.iter().any(|s| s.n == 1));
        assert!(small.iter().any(|s| s.k <= 8 && s.m > 1 && s.n > 1));
    }
}
