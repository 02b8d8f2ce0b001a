//! Host fingerprint and process memory.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What a result was measured on: CPU model, core count, the SIMD backend
/// the engine dispatched and the code revision.
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub simd_backend: &'static str,
    /// `git` commit of the working directory, or `"none"` outside a clone.
    pub git_rev: String,
    /// FNV-1a digest of the engine's and the benchmark's Rust sources, so
    /// a checkout without `.git` is still identified.
    pub source_digest: String,
}

impl Fingerprint {
    pub fn probe() -> Fingerprint {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for dir in ["crates", "perfbench/src"] {
            hash_sources(Path::new(dir), &mut digest);
        }
        Fingerprint {
            cpu_model,
            nproc: autogemm::host_parallelism(),
            simd_backend: autogemm::simd::SimdBackend::detect().name(),
            git_rev: git_rev().unwrap_or_else(|| "none".to_string()),
            source_digest: format!("{digest:016x}"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": \"{}\", \"nproc\": {}, \"simd_backend\": \"{}\", \"git_rev\": \"{}\", \
             \"source_digest\": \"{}\"}}",
            self.cpu_model.replace(['"', '\\'], ""),
            self.nproc,
            self.simd_backend,
            self.git_rev,
            self.source_digest
        )
    }
}

/// `HEAD`'s commit, read from `.git` without running `git`.
fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(String::from)
}

/// Fold every `.rs` file under `dir` into an FNV-1a digest, in sorted
/// path order so the digest does not depend on directory listing order.
fn hash_sources(dir: &Path, digest: &mut u64) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            hash_sources(&p, digest);
        } else if p.extension().is_some_and(|e| e == "rs") {
            if let Ok(bytes) = fs::read(&p) {
                for b in p.to_string_lossy().bytes().chain(bytes) {
                    *digest = (*digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One run of a fixed piece of work, in seconds: a gauge of how fast this
/// host runs right now. On a shared host one core's speed drifts by
/// 10–15% from minute to minute, and the engine's times drift with it.
/// The work is the benchmark's own: 400k chained `f32::mul_add` calls.
/// Of the loops tried (this one, a vectorized multiply-add loop and an
/// L2-resident triple-loop matrix product), its drift tracked the
/// engine's closest: over eight `small_shapes` runs the per-shape
/// throughput spread (IQR over median) went from 5.9% raw to 3.3%
/// adjusted, against 7.6% for the matrix product.
pub fn calibration_s() -> f64 {
    let t = Instant::now();
    let mut acc = [1.0f32; 16];
    for i in 0..CALIBRATION_ITERS {
        for (j, a) in acc.iter_mut().enumerate() {
            *a = a.mul_add(0.999_9, (i + j) as f32 * 1e-9);
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

const CALIBRATION_ITERS: usize = 25_000;

/// The calibration loop's time at the reference speed: its median on the
/// 2-vCPU Xeon (KVM, AVX-512) host where this benchmark was defined.
pub const CALIBRATION_REF_S: f64 = 1.94e-3;

/// One gauge of the host's slowdown against the reference speed.
pub fn slowdown_now() -> f64 {
    calibration_s() / CALIBRATION_REF_S
}

/// Time each of `steps` in turn at the reference host speed: each step's
/// seconds are divided by the mean slowdown gauged just before and just
/// after it. For set-ups, whose single long steps a run-wide median
/// would gauge poorly.
pub fn seconds_at_ref(steps: usize, mut step: impl FnMut(usize) -> f64) -> f64 {
    let mut before = slowdown_now();
    let mut total = 0.0;
    for i in 0..steps {
        let secs = step(i);
        let after = slowdown_now();
        total += secs / (0.5 * (before + after));
        before = after;
    }
    total
}

/// Calibration samples taken through a run, beside the work they gauge.
#[derive(Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    pub fn sample(&mut self) {
        self.0.push(calibration_s());
    }

    /// Five samples in a row: the gauge on each side of a rate ladder.
    pub fn sample_burst(&mut self) {
        for _ in 0..5 {
            self.sample();
        }
    }

    /// Take samples gauged elsewhere (by the service's client threads).
    pub fn extend(&mut self, samples: impl IntoIterator<Item = f64>) {
        self.0.extend(samples);
    }

    pub fn samples(&self) -> usize {
        self.0.len()
    }

    /// How much slower than the reference speed the host ran (the
    /// calibration median over the reference time). The end-to-end
    /// metrics divide times and multiply rates by it, so they read as
    /// measured at the reference speed.
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.0) / CALIBRATION_REF_S
    }
}
