//! Phase-level call profiling: where every cycle of a switchless call
//! goes.
//!
//! A call decomposes into six fixed phases:
//!
//! | phase     | ZC / Intel meaning                                     |
//! |-----------|--------------------------------------------------------|
//! | `reserve` | scanning for + CAS-claiming an idle worker / task slot |
//! | `copy_in` | pool allocation + payload copy to untrusted memory     |
//! | `signal`  | publishing the request (status CAS / doorbell). On the |
//! |           | fallback and regular paths this accounts the enclave   |
//! |           | transition itself.                                     |
//! | `wait`    | caller spin awaiting completion, *minus* execute       |
//! | `execute` | host-function run time as measured by the worker       |
//! | `copy_out`| reply validation + result copy-back + release          |
//!
//! The caller-side boundary timestamps telescope, so
//! `reserve + copy_in + signal + wait + execute + copy_out` equals the
//! measured whole-call latency *by construction* (`execute` is carved
//! out of the caller's raw spin window, clamped to never exceed it) —
//! the 1% conservation gate in CI verifies the instrumentation stays
//! wired that way.
//!
//! [`CallPhaseProfiler`] is the accumulation substrate: a saturating
//! sum, a count and a log₂ histogram per (path, phase), and a
//! whole-call latency histogram per path — kept once per recording
//! thread, so that a recording is plain loads and stores on lines no
//! other thread writes, and summed when a snapshot is taken.

use crate::quantile::HIST_BUCKETS;
use crate::quantile::{self, Quantiles};
use crate::thread_ids::ThreadIds;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use switchless_core::CallPath;

/// The fixed call phases, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Scan + claim of an idle worker / task slot.
    Reserve,
    /// Pool allocation and payload copy into untrusted memory.
    CopyIn,
    /// Request publication (status CAS / doorbell ring); the enclave
    /// transition on non-switchless paths.
    Signal,
    /// Caller completion spin, net of the worker's execute time.
    Wait,
    /// Host-function execution, measured worker-side.
    Execute,
    /// Reply validation, result copy-back and worker release.
    CopyOut,
}

/// Number of fixed phases.
pub const PHASES: usize = 6;

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Reserve,
        Phase::CopyIn,
        Phase::Signal,
        Phase::Wait,
        Phase::Execute,
        Phase::CopyOut,
    ];

    /// Stable lowercase name used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Reserve => "reserve",
            Phase::CopyIn => "copy_in",
            Phase::Signal => "signal",
            Phase::Wait => "wait",
            Phase::Execute => "execute",
            Phase::CopyOut => "copy_out",
        }
    }

    /// Index into per-phase arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Dense index of a [`CallPath`] into per-path arrays.
#[must_use]
pub fn path_index(path: CallPath) -> usize {
    match path {
        CallPath::Switchless => 0,
        CallPath::Fallback => 1,
        CallPath::Regular => 2,
    }
}

/// The three call paths in [`path_index`] order.
pub const PATHS: [CallPath; 3] = [CallPath::Switchless, CallPath::Fallback, CallPath::Regular];

/// Cycle accumulator: saturating sum, count, log₂ histogram.
#[derive(Debug)]
struct PhaseStats {
    sum: AtomicU64,
    count: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl PhaseStats {
    fn new() -> Self {
        PhaseStats {
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one observation. The one thread that owns the shard
    /// (`owned`) updates with a relaxed load and store; threads sharing
    /// a shard need the read-modify-write.
    #[inline]
    fn record(&self, cycles: u64, owned: bool) {
        let bucket = &self.buckets[quantile::bucket_index(cycles)];
        if owned {
            bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            self.count
                .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            // Saturating sum, as in the metrics histograms: a
            // pathological total must not wrap and corrupt means.
            let sum = self.sum.load(Ordering::Relaxed).saturating_add(cycles);
            self.sum.store(sum, Ordering::Relaxed);
        } else {
            bucket.fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            let _ = self
                .sum
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
                    Some(sum.saturating_add(cycles))
                });
        }
    }

    /// Add this accumulator into `into`.
    fn add_to(&self, into: &mut PhaseSnapshot) {
        into.sum = into.sum.saturating_add(self.sum.load(Ordering::Relaxed));
        into.count += self.count.load(Ordering::Relaxed);
        for (acc, b) in into.buckets.iter_mut().zip(&self.buckets) {
            *acc += b.load(Ordering::Relaxed);
        }
    }
}

/// Immutable snapshot of one (path, phase) accumulator, summed over
/// the recording threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Saturating sum of observed cycles.
    pub sum: u64,
    /// Observation count.
    pub count: u64,
    /// Per-log₂-bucket counts.
    pub buckets: Vec<u64>,
}

impl PhaseSnapshot {
    /// Mean observed cycles (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// p50/p99/p99.9 upper-edge estimates.
    #[must_use]
    pub fn quantiles(&self) -> Quantiles {
        Quantiles::from_counts(&self.buckets)
    }
}

/// Per-path accumulators: whole-call latency plus the six phases.
#[derive(Debug)]
struct PathProfile {
    total: PhaseStats,
    phases: [PhaseStats; PHASES],
}

/// Recording threads that get a shard to themselves, in first-use
/// order; any later thread records into one more shard they share.
const PRIVATE_SHARDS: usize = 8;

/// One recording thread's accumulators (or the shared overflow ones),
/// on cache lines of their own.
#[derive(Debug)]
#[repr(align(128))]
struct Shard {
    paths: [PathProfile; 3],
}

impl Shard {
    fn new() -> Box<Self> {
        Box::new(Shard {
            paths: std::array::from_fn(|_| PathProfile {
                total: PhaseStats::new(),
                phases: std::array::from_fn(|_| PhaseStats::new()),
            }),
        })
    }
}

/// The fixed-phase call profiler, lock-free throughout. Owned by every
/// [`crate::Telemetry`] hub.
///
/// Each recording thread writes its own shard (threads beyond the
/// first `PRIVATE_SHARDS` share one, with atomic read-modify-writes),
/// and [`snapshot`](CallPhaseProfiler::snapshot) sums the shards: exact
/// once the recording threads are quiescent, otherwise short by at most
/// the recordings in flight.
///
/// Starts a 64-byte line of its own: its thread ids and shard pointers,
/// read on every recording, must not share a line with the tracer
/// ring's `head` cursor beside it in the hub, which every event writes.
#[derive(Debug)]
#[repr(align(64))]
pub struct CallPhaseProfiler {
    threads: ThreadIds,
    /// `PRIVATE_SHARDS` single-writer shards, then the shared one, each
    /// allocated by the first recording that lands in it: a profiler
    /// costs memory per thread that records, not per thread that might.
    shards: [OnceLock<Box<Shard>>; PRIVATE_SHARDS + 1],
}

impl Default for CallPhaseProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl CallPhaseProfiler {
    /// Empty profiler.
    #[must_use]
    pub fn new() -> Self {
        CallPhaseProfiler {
            threads: ThreadIds::new(),
            shards: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The calling thread's accumulators for `path`, and whether it is
    /// their only writer: a thread's number is never handed to a second
    /// thread, so a private shard has one writer for good.
    #[inline]
    fn shard(&self, path: CallPath) -> (&PathProfile, bool) {
        let thread = self.threads.current() as usize;
        let owned = thread < PRIVATE_SHARDS;
        let shard =
            self.shards[if owned { thread } else { PRIVATE_SHARDS }].get_or_init(Shard::new);
        (&shard.paths[path_index(path)], owned)
    }

    /// Record one completed call: whole-call latency plus its per-phase
    /// breakdown (from [`PhaseRecorder::finish`]).
    #[inline]
    pub fn record_call(&self, path: CallPath, total_cycles: u64, phases: &[u64; PHASES]) {
        let (p, owned) = self.shard(path);
        p.total.record(total_cycles, owned);
        for (stats, &cycles) in p.phases.iter().zip(phases.iter()) {
            stats.record(cycles, owned);
        }
    }

    /// Snapshot of every (path, phase) accumulator, summed over shards.
    #[must_use]
    pub fn snapshot(&self) -> ProfileSnapshot {
        let empty = || PhaseSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            ..PhaseSnapshot::default()
        };
        let mut snap = ProfileSnapshot {
            paths: std::array::from_fn(|i| PathSnapshot {
                path: PATHS[i],
                total: empty(),
                phases: std::array::from_fn(|_| empty()),
            }),
        };
        for shard in self.shards.iter().filter_map(OnceLock::get) {
            for (into, p) in snap.paths.iter_mut().zip(&shard.paths) {
                p.total.add_to(&mut into.total);
                for (into, stats) in into.phases.iter_mut().zip(&p.phases) {
                    stats.add_to(into);
                }
            }
        }
        snap
    }
}

/// Snapshot of one path's accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSnapshot {
    /// Which call path.
    pub path: CallPath,
    /// Whole-call latency.
    pub total: PhaseSnapshot,
    /// Per-phase cycles, indexed by [`Phase::index`].
    pub phases: [PhaseSnapshot; PHASES],
}

impl PathSnapshot {
    /// Sum of the per-phase cycle sums (the conservation counterpart of
    /// `total.sum`).
    #[must_use]
    pub fn phase_sum(&self) -> u64 {
        self.phases
            .iter()
            .fold(0u64, |a, p| a.saturating_add(p.sum))
    }
}

/// Snapshot of a whole profiler, in [`PATHS`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Per-path snapshots.
    pub paths: [PathSnapshot; 3],
}

impl ProfileSnapshot {
    /// Snapshot for one path.
    #[must_use]
    pub fn path(&self, path: CallPath) -> &PathSnapshot {
        &self.paths[path_index(path)]
    }
}

/// Caller-side phase stopwatch for one call.
///
/// Marks telescope: each [`mark`](PhaseRecorder::mark) charges the
/// cycles since the previous boundary to the given phase, so the phase
/// sums partition the whole-call latency exactly. The worker-measured
/// execute time is carved out of the raw `wait` window at
/// [`finish`](PhaseRecorder::finish), clamped so the partition is
/// preserved even if the two clocks disagree.
///
/// `now` is supplied by closures: the real runtimes read their
/// `CycleClock`, the DES passes kernel virtual time.
#[derive(Debug, Clone)]
pub struct PhaseRecorder {
    start: u64,
    last: u64,
    acc: [u64; PHASES],
    execute_hint: u64,
}

impl PhaseRecorder {
    /// Start timing a call at `now()`.
    #[inline]
    pub fn start(now: impl FnOnce() -> u64) -> Self {
        let t = now();
        PhaseRecorder {
            start: t,
            last: t,
            acc: [0; PHASES],
            execute_hint: 0,
        }
    }

    /// Charge the cycles since the previous boundary to `phase`.
    #[inline]
    pub fn mark(&mut self, phase: Phase, now: impl FnOnce() -> u64) {
        let t = now();
        self.acc[phase.index()] += t.saturating_sub(self.last);
        self.last = t;
    }

    /// The latest boundary stamp: the time of the last
    /// [`mark`](PhaseRecorder::mark), or of the start before any. A
    /// consumer that needs "now" a few instructions after a boundary
    /// takes this instead of reading the clock again.
    #[inline]
    #[must_use]
    pub fn last(&self) -> u64 {
        self.last
    }

    /// Worker-measured host-function cycles for this call, to be carved
    /// out of the raw wait window at [`finish`](PhaseRecorder::finish).
    #[inline]
    pub fn set_execute_hint(&mut self, cycles: u64) {
        self.execute_hint = cycles;
    }

    /// Re-attribute up to `cycles` already charged to `from` onto `to`
    /// (clamped to what `from` holds, so the partition is preserved).
    /// Used by the fallback path to carve the known enclave-transition
    /// cost out of its measured execute window.
    #[inline]
    pub fn transfer(&mut self, from: Phase, to: Phase, cycles: u64) {
        let moved = cycles.min(self.acc[from.index()]);
        self.acc[from.index()] -= moved;
        self.acc[to.index()] += moved;
    }

    /// Finish at `now()`: any unmarked residual is charged to
    /// `copy_out`, execute is carved from wait, and the per-phase
    /// breakdown plus whole-call total are returned. The breakdown sums
    /// exactly to the total.
    #[inline]
    pub fn finish(mut self, now: impl FnOnce() -> u64) -> ([u64; PHASES], u64) {
        let t = now();
        self.acc[Phase::CopyOut.index()] += t.saturating_sub(self.last);
        let exec = self.execute_hint.min(self.acc[Phase::Wait.index()]);
        self.acc[Phase::Wait.index()] -= exec;
        self.acc[Phase::Execute.index()] += exec;
        (self.acc, t.saturating_sub(self.start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_partitions_total_exactly() {
        let mut t = 1000u64;
        let mut tick = |d: u64| {
            t += d;
            t
        };
        let mut rec = PhaseRecorder::start(|| tick(0));
        rec.mark(Phase::Reserve, || tick(10));
        rec.mark(Phase::CopyIn, || tick(20));
        rec.mark(Phase::Signal, || tick(5));
        rec.mark(Phase::Wait, || tick(300));
        rec.set_execute_hint(250);
        let (phases, total) = rec.finish(|| tick(15));
        assert_eq!(total, 350);
        assert_eq!(phases[Phase::Reserve.index()], 10);
        assert_eq!(phases[Phase::CopyIn.index()], 20);
        assert_eq!(phases[Phase::Signal.index()], 5);
        assert_eq!(phases[Phase::Wait.index()], 50, "execute carved out");
        assert_eq!(phases[Phase::Execute.index()], 250);
        assert_eq!(phases[Phase::CopyOut.index()], 15);
        assert_eq!(phases.iter().sum::<u64>(), total);
    }

    #[test]
    fn oversized_execute_hint_clamps_to_wait() {
        let mut t = 0u64;
        let mut tick = |d: u64| {
            t += d;
            t
        };
        let mut rec = PhaseRecorder::start(|| tick(0));
        rec.mark(Phase::Wait, || tick(100));
        rec.set_execute_hint(1_000_000); // clock disagreement
        let (phases, total) = rec.finish(|| tick(0));
        assert_eq!(phases[Phase::Wait.index()], 0);
        assert_eq!(phases[Phase::Execute.index()], 100);
        assert_eq!(phases.iter().sum::<u64>(), total);
    }

    #[test]
    fn profiler_accumulates_per_path_and_phase() {
        let prof = CallPhaseProfiler::new();
        let phases = [10, 20, 5, 50, 250, 15];
        prof.record_call(CallPath::Switchless, 350, &phases);
        prof.record_call(CallPath::Switchless, 350, &phases);
        prof.record_call(CallPath::Fallback, 14_000, &[0, 0, 13_500, 0, 500, 0]);
        let snap = prof.snapshot();
        let zc = snap.path(CallPath::Switchless);
        assert_eq!(zc.total.count, 2);
        assert_eq!(zc.total.sum, 700);
        assert_eq!(zc.phase_sum(), 700, "phases conserve the total");
        assert_eq!(zc.phases[Phase::Execute.index()].sum, 500);
        let fb = snap.path(CallPath::Fallback);
        assert_eq!(fb.total.count, 1);
        assert_eq!(fb.phase_sum(), fb.total.sum);
        assert_eq!(snap.path(CallPath::Regular).total.count, 0);
    }

    /// Four threads own a shard each, the rest share one; either way a
    /// quiescent snapshot is exact.
    #[test]
    fn concurrent_recordings_sum_exactly_at_quiescence() {
        const PER_THREAD: u64 = 10_000;
        for threads in [4u64, PRIVATE_SHARDS as u64 + 3] {
            let prof = CallPhaseProfiler::new();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let prof = &prof;
                    s.spawn(move || {
                        for i in 0..PER_THREAD {
                            let phases = [t, i, 5, 50, 250, 15];
                            let path = PATHS[(i % 3) as usize];
                            prof.record_call(path, phases.iter().sum(), &phases);
                        }
                    });
                }
            });
            let snap = prof.snapshot();
            let calls: u64 = snap.paths.iter().map(|p| p.total.count).sum();
            assert_eq!(calls, threads * PER_THREAD);
            for p in &snap.paths {
                assert_eq!(p.phase_sum(), p.total.sum, "{:?}", p.path);
                assert_eq!(p.total.buckets.iter().sum::<u64>(), p.total.count);
                for phase in &p.phases {
                    assert_eq!(phase.count, p.total.count);
                }
            }
        }
    }

    #[test]
    fn phase_quantiles_come_from_histograms() {
        let prof = CallPhaseProfiler::new();
        let wait_only = |cycles| {
            let mut phases = [0; PHASES];
            phases[Phase::Wait.index()] = cycles;
            prof.record_call(CallPath::Switchless, cycles, &phases);
        };
        (0..99).for_each(|_| wait_only(100));
        wait_only(1_000_000);
        let snap = prof.snapshot();
        let wait = &snap.path(CallPath::Switchless).phases[Phase::Wait.index()];
        let q = wait.quantiles();
        assert!(q.p50 < 256);
        assert!(q.p999 >= 1_000_000 / 2);
        assert!((wait.mean() - (99.0 * 100.0 + 1_000_000.0) / 100.0).abs() < 1e-9);
    }
}
