//! Shape-keyed plan cache: memoize fully resolved [`ExecutionPlan`]s in
//! front of the tuner.
//!
//! The engine historically memoized tuned `Schedule`s per
//! `(m, n, k, threads)`; the cache here sits one layer later and stores
//! the *plan* — schedule, DMT block plan and the input-aware operand
//! routing — behind an `Arc`, so a repeated shape skips the tuner, the
//! DMT planner and the elision heuristic entirely and shares one
//! allocation across concurrent callers. The key adds the detected SIMD
//! backend name: a cached plan encodes lane-width and register-budget
//! decisions, so a (hypothetical) backend change must miss rather than
//! replay a plan tuned for another ISA, and the simulator's Table II
//! plans (keyed `"model"`) never answer a native lookup. Hit/miss counters feed
//! `GemmReport::dispatch` and the engine's `plan_cache_stats()`.
//!
//! The cache is **bounded**: at [`PLAN_CACHE_CAPACITY`] entries the
//! least-recently-used entry is evicted (deterministic — a monotonic
//! touch stamp per entry, min-stamp victim), so a service streaming
//! unbounded distinct shapes holds at most `capacity` plans, not a
//! monotonically growing map. Evictions surface in
//! [`PlanCacheStats::evictions`].

use crate::plan::ExecutionPlan;
use crate::telemetry::metrics::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Everything a cached plan depends on. `threads` is the tuner's thread
/// budget (multicore schedules differ structurally from single-core
/// ones). `backend` is the detected SIMD backend name for native plans
/// (tiled over the host menu) and `"model"` for the simulator's plans
/// (tiled over the chip's Table II menu), so the two never share an
/// entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub threads: usize,
    pub backend: &'static str,
}

/// Most plans one engine's cache holds before evicting. Plans are a few
/// hundred bytes each, so this bounds the cache well under a megabyte
/// while comfortably covering a workload's live shape set (a full
/// Table II/V sweep is under 40 keys).
pub const PLAN_CACHE_CAPACITY: usize = 128;

/// Cumulative hit/miss/eviction counters of one engine's plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries evicted to respect the capacity bound — a nonzero value
    /// on a steady workload means its live shape set exceeds
    /// [`PLAN_CACHE_CAPACITY`] and calls are re-tuning.
    pub evictions: u64,
}

/// One cached plan plus its last-touch stamp (monotonic per cache).
struct CacheEntry {
    plan: Arc<ExecutionPlan>,
    stamp: u64,
}

/// The cache itself: one per [`crate::AutoGemm`] engine.
pub(crate) struct PlanCache {
    plans: Mutex<HashMap<PlanKey, CacheEntry>>,
    capacity: usize,
    /// Monotonic touch counter driving LRU stamps.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Engine-lifetime registry mirroring the counters above as
    /// [`Counter::PlanCacheHits`]/`Misses`/`Evictions` (set once by the
    /// owning engine; detached caches count only locally).
    metrics: OnceLock<Arc<MetricsRegistry>>,
}

impl PlanCache {
    pub(crate) fn new() -> Self {
        Self::with_capacity(PLAN_CACHE_CAPACITY)
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            plans: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }
    }

    /// Attach the engine's metrics registry; hit/miss/eviction events
    /// from now on also bump its counters. First attach wins.
    pub(crate) fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        let _ = self.metrics.set(registry);
    }

    fn count(&self, c: Counter) {
        if let Some(m) = self.metrics.get() {
            m.add(c, 1);
        }
    }

    /// Look up `key`, building (outside the lock — tuning is expensive
    /// and must not serialize unrelated shapes) on a miss. Returns the
    /// shared plan and whether this call hit. Two threads racing the
    /// same cold key may both tune; the first insert wins and both get
    /// the same `Arc` back, so callers never observe divergent plans.
    /// Inserting at capacity evicts the least-recently-touched entry.
    pub(crate) fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> ExecutionPlan,
    ) -> (Arc<ExecutionPlan>, bool) {
        {
            let mut map = self.plans.lock();
            if let Some(entry) = map.get_mut(&key) {
                entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                let plan = Arc::clone(&entry.plan);
                drop(map);
                self.count(Counter::PlanCacheHits);
                return (plan, true);
            }
        }
        let built = Arc::new(build());
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.count(Counter::PlanCacheMisses);
        let mut map = self.plans.lock();
        if !map.contains_key(&key) && map.len() >= self.capacity {
            // Deterministic LRU: the minimum stamp is unique (stamps are
            // handed out by one monotonic counter).
            if let Some(victim) = map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone()) {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.count(Counter::PlanCacheEvictions);
            }
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let entry = map.entry(key).or_insert(CacheEntry { plan: built, stamp });
        (Arc::clone(&entry.plan), false)
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autogemm_arch::ChipSpec;
    use autogemm_tuner::tune;

    fn key(m: usize, n: usize, k: usize, threads: usize) -> PlanKey {
        PlanKey { m, n, k, threads, backend: "test" }
    }

    fn build(m: usize, n: usize, k: usize) -> ExecutionPlan {
        let chip = ChipSpec::graviton2();
        ExecutionPlan::from_schedule(tune(m, n, k, &chip), &chip)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new();
        let (p1, hit1) = cache.get_or_build(key(26, 36, 24, 1), || build(26, 36, 24));
        let (p2, hit2) = cache.get_or_build(key(26, 36, 24, 1), || build(26, 36, 24));
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&p1, &p2), "hit must share the cached allocation");
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2);
        cache.get_or_build(key(8, 12, 16, 1), || build(8, 12, 16));
        cache.get_or_build(key(16, 12, 16, 1), || build(16, 12, 16));
        // Touch the first entry so the second becomes the LRU victim.
        let (_, hit) = cache.get_or_build(key(8, 12, 16, 1), || build(8, 12, 16));
        assert!(hit);
        cache.get_or_build(key(24, 12, 16, 1), || build(24, 12, 16));
        assert_eq!(cache.stats().evictions, 1);
        let (_, survived) = cache.get_or_build(key(8, 12, 16, 1), || build(8, 12, 16));
        assert!(survived, "recently touched entry must survive the eviction");
        let (_, evicted) = cache.get_or_build(key(16, 12, 16, 1), || build(16, 12, 16));
        assert!(!evicted, "LRU entry must have been evicted");
        // The re-insert of the evicted key pushed the map back to
        // capacity and evicted again: the bound holds at all times.
        assert!(cache.plans.lock().len() <= 2);
    }

    #[test]
    fn default_capacity_is_documented_bound() {
        let cache = PlanCache::new();
        assert_eq!(cache.capacity, PLAN_CACHE_CAPACITY);
        assert_eq!(cache.stats(), PlanCacheStats::default());
    }

    #[test]
    fn key_distinguishes_shape_threads_and_backend() {
        let cache = PlanCache::new();
        cache.get_or_build(key(26, 36, 24, 1), || build(26, 36, 24));
        let (_, hit_threads) = cache.get_or_build(key(26, 36, 24, 2), || build(26, 36, 24));
        let (_, hit_shape) = cache.get_or_build(key(36, 26, 24, 1), || build(36, 26, 24));
        let mut other = key(26, 36, 24, 1);
        other.backend = "other";
        let (_, hit_backend) = cache.get_or_build(other, || build(26, 36, 24));
        assert!(!hit_threads && !hit_shape && !hit_backend);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn attached_registry_mirrors_hit_miss_eviction_counters() {
        let cache = PlanCache::with_capacity(1);
        let reg = Arc::new(MetricsRegistry::new());
        cache.attach_metrics(Arc::clone(&reg));
        cache.get_or_build(key(8, 12, 16, 1), || build(8, 12, 16)); // miss
        cache.get_or_build(key(8, 12, 16, 1), || build(8, 12, 16)); // hit
        cache.get_or_build(key(16, 12, 16, 1), || build(16, 12, 16)); // miss + evict
        assert_eq!(reg.counter(Counter::PlanCacheHits), 1);
        assert_eq!(reg.counter(Counter::PlanCacheMisses), 2);
        assert_eq!(reg.counter(Counter::PlanCacheEvictions), 1);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions),
            (1, 2, 1),
            "registry and local counters must agree"
        );
    }

    #[test]
    fn miss_does_not_rebuild_on_insert_race_loser() {
        // Single-threaded approximation: the entry API returns the
        // first-inserted plan even if a second build completed.
        let cache = PlanCache::new();
        let (p1, _) = cache.get_or_build(key(8, 12, 16, 1), || build(8, 12, 16));
        let (p2, hit) = cache.get_or_build(key(8, 12, 16, 1), || build(8, 12, 16));
        assert!(hit);
        assert!(Arc::ptr_eq(&p1, &p2));
    }
}
