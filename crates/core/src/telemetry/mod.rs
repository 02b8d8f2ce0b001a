//! Per-GEMM telemetry: call observers, phase/thread profiles, and
//! measured-vs-model cycle reports.
//!
//! The paper's whole pipeline — the micro-kernel cycle model (Eqns 6/8),
//! DMT (Algorithm 1) and the tuner's Eqn-13 pruning — runs on *projected*
//! cycle counts. This module closes the loop: every traced GEMM
//! ([`crate::native::try_gemm_with_plan_report`], the engine's
//! [`crate::AutoGemm::try_gemm_traced_opts`], or the service's
//! [`crate::GemmService::submit_traced`]) produces a [`GemmReport`]
//! holding
//!
//! * per-phase wall/cycle times (pack-A, pack-B, kernel, drain);
//! * per-call pack counts and traffic bytes, counted race-free on the
//!   call's own observer;
//! * per-thread block counts, busy time and drain (idle-at-the-end) time
//!   from the work-queue driver;
//! * the kernel-shape histogram actually dispatched — including the
//!   sub-tiles the dynamic fallback kernel chunks oversized (SVE-wide)
//!   requests into;
//! * optionally, a join against the `autogemm-perfmodel` projection for
//!   the same `(m_r, n_r, k_c)` tiles ([`GemmReport::join_model`]),
//!   yielding the measured-vs-model cycle ratio every later perf PR is
//!   expected to cite.
//!
//! ## One driver per route, one optional observer
//!
//! There is no traced copy of any driver. Each route (the block driver,
//! the GEMV/small-k fast paths, the engine front door) has one body that
//! takes an `Option<&`[`CallObserver`]`>`. A traced entry point attaches
//! one and builds its report from it; every other call passes `None`,
//! and the driver then reads no clock and records nothing per panel,
//! block, unit or tile — each hook is a single predictable branch. With
//! an observer attached the driver takes one stamp pair per phase and
//! per claimed block or unit, and bumps a stack-local histogram per
//! dispatched micro-tile — all far below the work they measure (a block
//! is `O(m_c·n_c·k)` FLOPs, a tile `O(m_r·n_r·k_c)`). The clocks in
//! [`clock`] are always real; only the observer decides whether they
//! are read.
//!
//! ## Report schema
//!
//! [`GemmReport`] serializes to a versioned JSON object
//! ([`report::SCHEMA_VERSION`], guarded on read by
//! [`GemmReport::from_json`]); `BENCH_gemmtrace.json` is an array of such
//! reports emitted by the `gemmtrace` bench bin. serde is an offline stub
//! in this workspace, so serialization is hand-rolled over the minimal
//! [`json`] value model.

//! ## Engine-lifetime observability
//!
//! Two sibling layers are engine-lifetime rather than per-call — they
//! are toggled/attached at runtime, because a release-build service must
//! be able to read them across calls:
//!
//! * [`metrics`] — the engine/runtime [`MetricsRegistry`]: monotonic
//!   counters (calls, errors, breaker transitions, retry rungs,
//!   plan-cache hits/misses/evictions), an in-flight gauge, and sharded
//!   log-bucket histograms (call latency, achieved GFLOP-s, pool
//!   wake/busy/park) merged on read into a [`MetricsSnapshot`] with
//!   p50/p95/p99, a schema-v5 JSON section, and a Prometheus
//!   text-exposition dump;
//! * [`tracebuf`] — the bounded per-worker span ring ([`TraceBuf`])
//!   behind `AutoGemm::with_tracing`, exported as Chrome trace-event
//!   JSON for Perfetto / `chrome://tracing` (the `gemmtrace --timeline`
//!   artifact).

pub mod clock;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod report;
pub mod tracebuf;

pub use clock::Stamp;
pub use json::{Json, JsonError};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, HIST_BUCKETS,
};
pub use observer::CallObserver;
pub use report::{
    DispatchStats, FallbackStats, GemmReport, HealthReport, IntegrityReport, ModelJoin, PackStats,
    PathHealth, PhaseProfile, PhaseTimes, ServiceReport, ThreadProfile, TileCount,
    MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use tracebuf::{TraceBuf, TraceSpan};
