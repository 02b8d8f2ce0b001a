//! The per-call observer: what a traced entry point attaches to one GEMM
//! call so the call's single driver records its phases, worker profiles,
//! pack counts and dispatched tiles.
//!
//! A traced entry point creates one [`CallObserver`], hands
//! `Some(&observer)` to the route's driver, and turns it into a
//! [`GemmReport`] afterwards ([`CallObserver::into_report`]). Every other
//! call passes `None`: the driver then reads no clock and records nothing
//! per panel, block, unit or tile — each hook is one branch on the
//! `Option`.
//!
//! Workers keep their tile histogram in a stack-local [`TileTally`] and
//! their busy time in a local [`ThreadProfile`]; both reach the observer
//! in one lock when the worker leaves its section, never on the block
//! path.

use crate::telemetry::clock::Stamp;
use crate::telemetry::report::{GemmReport, ThreadProfile, TileCount};
use parking_lot::Mutex;

/// One worker's dispatched-tile histogram. A plan dispatches a handful
/// of distinct `(m_r, n_r)` shapes, so a linear-searched vec beats
/// hashing on the tile path.
#[derive(Debug, Default)]
pub(crate) struct TileTally {
    tiles: Vec<((usize, usize), u64)>,
}

impl TileTally {
    /// Count one dispatched `mr × nr` tile. Kept out of line: every
    /// kernel dispatch site carries a call to it behind the `Option`
    /// branch, and the untraced dispatch should stay as tight as the
    /// kernels alone.
    #[inline(never)]
    pub(crate) fn record(&mut self, mr: usize, nr: usize) {
        self.add((mr, nr), 1);
    }

    fn add(&mut self, shape: (usize, usize), count: u64) {
        match self.tiles.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, c)) => *c += count,
            None => self.tiles.push((shape, count)),
        }
    }

    /// The histogram as [`TileCount`] buckets sorted by `(mr, nr)`.
    pub(crate) fn counts(&self) -> Vec<TileCount> {
        let mut tiles: Vec<TileCount> =
            self.tiles.iter().map(|&((mr, nr), count)| TileCount { mr, nr, count }).collect();
        tiles.sort_unstable_by_key(|t| (t.mr, t.nr));
        tiles
    }
}

#[derive(Default)]
struct State {
    report: GemmReport,
    /// Tiles merged from every worker that has left its section.
    tiles: TileTally,
    /// Workers that left the current kernel section, with the stamp of
    /// their exit (their drain runs from there to the section's end).
    finished: Vec<(ThreadProfile, Stamp)>,
}

/// One traced call's collector, shared by reference with every worker
/// of the call.
pub struct CallObserver {
    start: Stamp,
    state: Mutex<State>,
}

impl Default for CallObserver {
    fn default() -> Self {
        CallObserver::new()
    }
}

impl CallObserver {
    /// Start observing: the report's wall time runs from here to
    /// [`CallObserver::into_report`].
    pub fn new() -> Self {
        CallObserver { start: Stamp::now(), state: Mutex::new(State::default()) }
    }

    /// Fill in or adjust report fields (shape, blocking, dispatch,
    /// fallbacks, phase times).
    pub(crate) fn update(&self, f: impl FnOnce(&mut GemmReport)) {
        f(&mut self.state.lock().report);
    }

    /// A worker leaves its kernel section: merge its tiles and park its
    /// profile until [`CallObserver::kernel_done`] charges its drain.
    pub(crate) fn worker_done(&self, prof: ThreadProfile, tally: &TileTally) {
        let end = Stamp::now();
        let mut st = self.state.lock();
        for &(shape, count) in &tally.tiles {
            st.tiles.add(shape, count);
        }
        st.finished.push((prof, end));
    }

    /// The kernel section that began at `section0` has ended: add its
    /// span to the kernel phase and each parked worker's idle tail to
    /// its drain. Profiles merge by worker index, so repeated sections
    /// (a batch's items) sum per worker.
    pub(crate) fn kernel_done(&self, section0: Stamp) {
        let end = Stamp::now();
        let mut st = self.state.lock();
        let st = &mut *st;
        st.report.phases.kernel += section0.delta_to(end);
        for (mut prof, finish) in st.finished.drain(..) {
            prof.drain = finish.delta_to(end);
            st.report.phases.drain += prof.drain;
            let profiles = &mut st.report.thread_profiles;
            match profiles.iter_mut().find(|p| p.thread == prof.thread) {
                Some(p) => {
                    p.blocks += prof.blocks;
                    p.busy += prof.busy;
                    p.drain += prof.drain;
                }
                None => profiles.push(prof),
            }
        }
        st.report.thread_profiles.sort_by_key(|p| p.thread);
    }

    /// The finished report: wall time since [`CallObserver::new`], the
    /// sorted tile histogram, and `threads` = workers that ran a kernel
    /// section.
    pub fn into_report(self) -> GemmReport {
        let wall = self.start.elapsed();
        let st = self.state.into_inner();
        GemmReport {
            wall,
            threads: st.report.thread_profiles.len(),
            tiles: st.tiles.counts(),
            ..st.report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_sorts_and_merges_shapes() {
        let mut t = TileTally::default();
        t.record(8, 4);
        t.record(5, 16);
        t.record(5, 16);
        let counts = t.counts();
        assert_eq!(counts.len(), 2);
        assert_eq!((counts[0].mr, counts[0].nr, counts[0].count), (5, 16, 2));
        assert_eq!((counts[1].mr, counts[1].nr, counts[1].count), (8, 4, 1));
    }

    #[test]
    fn workers_merge_across_threads_into_one_report() {
        let obs = CallObserver::new();
        let s0 = Stamp::now();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let obs = &obs;
                scope.spawn(move || {
                    let mut tally = TileTally::default();
                    tally.record(4, 16);
                    obs.update(|r| r.packs.b_packs += 1);
                    obs.worker_done(
                        ThreadProfile { thread: t, blocks: 2, ..Default::default() },
                        &tally,
                    );
                });
            }
        });
        obs.kernel_done(s0);
        let r = obs.into_report();
        assert_eq!(r.packs.b_packs, 4);
        assert_eq!(r.threads, 4);
        assert_eq!(r.total_tiles(), 4);
        assert_eq!(r.thread_profiles.iter().map(|p| p.blocks).sum::<u64>(), 8);
        assert!(r.thread_profiles.windows(2).all(|w| w[0].thread < w[1].thread));
        assert!(r.wall.wall_ns >= r.phases.kernel.wall_ns);
    }

    #[test]
    fn repeated_sections_sum_per_worker() {
        let obs = CallObserver::new();
        for _ in 0..3 {
            let s0 = Stamp::now();
            obs.worker_done(
                ThreadProfile { thread: 0, blocks: 1, ..Default::default() },
                &TileTally::default(),
            );
            obs.kernel_done(s0);
        }
        let r = obs.into_report();
        assert_eq!(r.threads, 1);
        assert_eq!(r.thread_profiles[0].blocks, 3);
    }
}
