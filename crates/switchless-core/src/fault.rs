//! Scriptable fault injection for the switchless runtimes.
//!
//! Every injectable fault is one [`Fault`] variant, and each fires at
//! one instrumented [`FaultSite`]. A [`FaultPlan`] gives each fault a
//! [`FaultSchedule`] over its site's 0-based occurrence indices, and a
//! [`FaultInjector`] (shared as an `Arc` between callers, workers and
//! the fallback engine) evaluates the plan with plain atomic counters,
//! so injection decisions are deterministic functions of call order
//! alone: no timers, no randomness.
//!
//! | site | hook caller | faults, in precedence order | degradation exercised |
//! |------|-------------|-----------------------------|-----------------------|
//! | [`WorkerCall`](FaultSite::WorkerCall) | zc and intel workers, as they take a call | crash, hang, stall | poisoned-worker quarantine, caller re-route; a hang is abandoned by the drain |
//! | [`Publish`](FaultSite::Publish) | zc worker, before it publishes the reply | flip-status, garbage-command, oversize-reply, undersize-reply, stale-seq, torn-request | trusted-side guard, quarantine, fallback |
//! | [`EnclaveCall`](FaultSite::EnclaveCall) | front door, once a call's intent is journaled | enclave crash, enclave stall | replay / redeliver / refuse; stalled calls ride it out |
//! | [`Replay`](FaultSite::Replay) | front door, once a replay journaled its completion | enclave replay crash | replay idempotence: the second round redelivers |
//! | [`PoolAlloc`](FaultSite::PoolAlloc) | zc caller, allocating the payload | pool exhaustion | bounded retry-with-backoff, then a regular ocall |
//! | [`Transition`](FaultSite::Transition) | regular-ocall engine | transition failure | bounded retry-with-backoff, then [`TransitionFailed`] |
//! | [`Dispatch`](FaultSite::Dispatch) | front door, on entry | clock skew | timestamp-robust accounting |
//!
//! [`TransitionFailed`]: crate::SwitchlessError::TransitionFailed

use std::collections::BTreeSet;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};

/// An instrumented point in the runtimes. Each site keeps its own
/// occurrence index, which is what a [`FaultSchedule`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A worker is about to service a switchless call.
    WorkerCall,
    /// A worker is about to publish a call's reply — the moment a
    /// hostile host would lie.
    Publish,
    /// A journaled call is dispatching into the enclave machinery.
    EnclaveCall,
    /// A reconciled call's replay has journaled its completion; the
    /// reply is not delivered yet.
    Replay,
    /// A caller is allocating from a worker's request pool.
    PoolAlloc,
    /// A regular enclave transition is about to execute.
    Transition,
    /// A call is entering the front door.
    Dispatch,
}

/// Every injectable fault. Within one [`FaultSite`], declaration order
/// is precedence: when several schedules fire at the same index, the
/// earliest variant wins and the others do not fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The worker terminates *before* invoking the host function,
    /// leaving its buffer poisoned.
    WorkerCrash,
    /// The worker poisons its buffer and wedges forever; the shutdown
    /// drain must abandon it unless a supervisor respawns the slot.
    WorkerHang,
    /// The worker burns the plan's stall cycles before proceeding.
    WorkerStall,
    /// Byzantine: overwrite the status word with an undecodable byte
    /// instead of publishing the reply.
    FlipStatus,
    /// Byzantine: scribble an undecodable byte into the
    /// scheduler-command word after servicing the call.
    GarbageCommand,
    /// Byzantine: declare more reply bytes than were produced.
    OversizeReply,
    /// Byzantine: declare fewer reply bytes than were produced.
    UndersizeReply,
    /// Byzantine: stamp the reply with a stale sequence tag (replay).
    StaleSeq,
    /// Byzantine: overwrite the posted request while the worker owns
    /// the slot.
    TornRequest,
    /// Kill the whole enclave: every in-flight call's fate is unknown
    /// until the recovery plane ([`crate::recovery`]) reconciles it.
    EnclaveCrash,
    /// Freeze the whole enclave for the plan's enclave-stall cycles,
    /// then let it revive (callers ride it out).
    EnclaveStall,
    /// Kill the enclave again mid-replay: the second recovery round
    /// must redeliver, never re-execute.
    EnclaveReplayCrash,
    /// The pool allocation reports exhaustion.
    PoolExhaustion,
    /// The transition fails.
    TransitionFailure,
    /// The clock jumps forward by the plan's skew cycles.
    ClockSkew,
}

impl Fault {
    /// Every fault, in precedence order within each site.
    pub const ALL: [Fault; 15] = [
        Fault::WorkerCrash,
        Fault::WorkerHang,
        Fault::WorkerStall,
        Fault::FlipStatus,
        Fault::GarbageCommand,
        Fault::OversizeReply,
        Fault::UndersizeReply,
        Fault::StaleSeq,
        Fault::TornRequest,
        Fault::EnclaveCrash,
        Fault::EnclaveStall,
        Fault::EnclaveReplayCrash,
        Fault::PoolExhaustion,
        Fault::TransitionFailure,
        Fault::ClockSkew,
    ];

    /// Stable lowercase name used by the trace exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fault::WorkerCrash => "worker_crash",
            Fault::WorkerHang => "worker_hang",
            Fault::WorkerStall => "worker_stall",
            Fault::FlipStatus => "flip_status",
            Fault::GarbageCommand => "garbage_command",
            Fault::OversizeReply => "oversize_reply",
            Fault::UndersizeReply => "undersize_reply",
            Fault::StaleSeq => "stale_seq",
            Fault::TornRequest => "torn_request",
            Fault::EnclaveCrash => "enclave_crash",
            Fault::EnclaveStall => "enclave_stall",
            Fault::EnclaveReplayCrash => "enclave_replay_crash",
            Fault::PoolExhaustion => "pool_exhaustion",
            Fault::TransitionFailure => "transition_failure",
            Fault::ClockSkew => "clock_skew",
        }
    }

    /// The site this fault fires at.
    fn site(self) -> FaultSite {
        match self {
            Fault::WorkerCrash | Fault::WorkerHang | Fault::WorkerStall => FaultSite::WorkerCall,
            Fault::FlipStatus
            | Fault::GarbageCommand
            | Fault::OversizeReply
            | Fault::UndersizeReply
            | Fault::StaleSeq
            | Fault::TornRequest => FaultSite::Publish,
            Fault::EnclaveCrash | Fault::EnclaveStall => FaultSite::EnclaveCall,
            Fault::EnclaveReplayCrash => FaultSite::Replay,
            Fault::PoolExhaustion => FaultSite::PoolAlloc,
            Fault::TransitionFailure => FaultSite::Transition,
            Fault::ClockSkew => FaultSite::Dispatch,
        }
    }

    /// Where a plan keeps this fault's duration; only the two stalls
    /// and the skew have one.
    fn duration_slot(self) -> usize {
        match self {
            Fault::WorkerStall => 0,
            Fault::EnclaveStall => 1,
            Fault::ClockSkew => 2,
            _ => panic!("{} has no duration", self.name()),
        }
    }
}

/// A deterministic firing schedule over 0-based site indices: explicit
/// indices, an every-n-th stride, a first-n prefix, or any union of
/// them (see [`FaultPlan::inject`]). The default schedule never fires.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    indices: BTreeSet<u64>,
    every: Option<u64>,
    first: u64,
}

impl FaultSchedule {
    /// Fire at the single index `n`.
    #[must_use]
    pub fn at(n: u64) -> Self {
        Self::at_each([n])
    }

    /// Fire at each of the given indices.
    #[must_use]
    pub fn at_each(ns: impl IntoIterator<Item = u64>) -> Self {
        FaultSchedule {
            indices: ns.into_iter().collect(),
            ..Self::default()
        }
    }

    /// Fire at every `n`-th occurrence: indices `n-1`, `2n-1`, … (`n`
    /// is clamped to ≥ 1, so `every(1)` fires at every index).
    #[must_use]
    pub fn every(n: u64) -> Self {
        FaultSchedule {
            every: Some(n.max(1)),
            ..Self::default()
        }
    }

    /// Fire at each of the first `n` occurrences.
    #[must_use]
    pub fn first(n: u64) -> Self {
        FaultSchedule {
            first: n,
            ..Self::default()
        }
    }

    /// Does the schedule fire at 0-based index `n`?
    fn fires_at(&self, n: u64) -> bool {
        n < self.first
            || self.indices.contains(&n)
            || self.every.is_some_and(|e| (n + 1).is_multiple_of(e))
    }
}

/// Script of failures to inject: one [`FaultSchedule`] per [`Fault`],
/// plus how long a worker stall and an enclave stall last and how far a
/// clock skew jumps (in modelled cycles). The default plan injects
/// nothing.
///
/// # Example
///
/// ```
/// use switchless_core::fault::{Fault, FaultInjector, FaultPlan, FaultSchedule, FaultSite};
///
/// let plan = FaultPlan::new()
///     .inject(Fault::WorkerCrash, FaultSchedule::at(1))
///     .inject(Fault::TransitionFailure, FaultSchedule::first(2));
/// let inj = FaultInjector::new(plan);
/// assert_eq!(inj.fire(FaultSite::WorkerCall), None); // call 0
/// assert_eq!(inj.fire(FaultSite::WorkerCall), Some(Fault::WorkerCrash)); // call 1
/// assert!(inj.fire(FaultSite::Transition).is_some()); // transition 0 fails
/// assert!(inj.fire(FaultSite::Transition).is_some()); // transition 1 fails
/// assert!(inj.fire(FaultSite::Transition).is_none()); // transition 2 proceeds
/// assert_eq!(inj.counts()[Fault::WorkerCrash], 1);
/// assert_eq!(inj.counts()[Fault::TransitionFailure], 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    schedules: [FaultSchedule; Fault::ALL.len()],
    durations: [u64; 3],
}

impl FaultPlan {
    /// Empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Also fire `fault` wherever `schedule` fires. Chained calls for
    /// one fault accumulate; a later stride replaces an earlier one.
    #[must_use]
    pub fn inject(mut self, fault: Fault, schedule: FaultSchedule) -> Self {
        let s = &mut self.schedules[fault as usize];
        s.indices.extend(schedule.indices);
        s.every = schedule.every.or(s.every);
        s.first = s.first.max(schedule.first);
        self
    }

    /// Set the modelled cycles a [`Fault::WorkerStall`] or
    /// [`Fault::EnclaveStall`] lasts, or a [`Fault::ClockSkew`] jumps.
    ///
    /// # Panics
    ///
    /// For any other fault: it has no duration.
    #[must_use]
    pub fn cycles(mut self, fault: Fault, cycles: u64) -> Self {
        self.durations[fault.duration_slot()] = cycles;
        self
    }
}

/// Snapshot of faults fired so far, indexed by [`Fault`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts([u64; Fault::ALL.len()]);

impl FaultCounts {
    /// Faults fired at `site`, all kinds together.
    #[must_use]
    pub fn total(&self, site: FaultSite) -> u64 {
        Fault::ALL
            .into_iter()
            .filter(|f| f.site() == site)
            .map(|f| self[f])
            .sum()
    }
}

impl Index<Fault> for FaultCounts {
    type Output = u64;

    fn index(&self, fault: Fault) -> &u64 {
        &self.0[fault as usize]
    }
}

/// Thread-safe evaluator of a [`FaultPlan`]: one occurrence counter per
/// [`FaultSite`] and one fired counter per [`Fault`].
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    occurrences: [AtomicU64; FaultSite::Dispatch as usize + 1],
    fired: [AtomicU64; Fault::ALL.len()],
}

impl FaultInjector {
    /// Injector evaluating `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            occurrences: Default::default(),
            fired: Default::default(),
        }
    }

    /// Site hook: advance `site`'s occurrence index and return the
    /// first of its faults (in [`Fault::ALL`] order) whose schedule
    /// fires there, counting it; `None` means behave normally.
    pub fn fire(&self, site: FaultSite) -> Option<Fault> {
        let n = self.occurrences[site as usize].fetch_add(1, Ordering::AcqRel);
        let fault = Fault::ALL
            .into_iter()
            .find(|&f| f.site() == site && self.plan.schedules[f as usize].fires_at(n))?;
        self.fired[fault as usize].fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    /// The plan's duration for `fault`, in modelled cycles (see
    /// [`FaultPlan::cycles`]).
    ///
    /// # Panics
    ///
    /// For a fault that has no duration.
    #[must_use]
    pub fn cycles(&self, fault: Fault) -> u64 {
        self.plan.durations[fault.duration_slot()]
    }

    /// Faults fired so far.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        FaultCounts(std::array::from_fn(|i| {
            self.fired[i].load(Ordering::Acquire)
        }))
    }
}

/// Outcome of a drain-with-timeout shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Worker threads that exited and were joined within the timeout.
    pub drained: usize,
    /// Worker threads still alive at the deadline, detached instead of
    /// joined (e.g. wedged by a [`Fault::WorkerHang`]).
    pub abandoned: usize,
}

impl DrainReport {
    /// `true` when every worker exited within the timeout.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.abandoned == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITES: [FaultSite; 7] = [
        FaultSite::WorkerCall,
        FaultSite::Publish,
        FaultSite::EnclaveCall,
        FaultSite::Replay,
        FaultSite::PoolAlloc,
        FaultSite::Transition,
        FaultSite::Dispatch,
    ];

    fn faults_at(site: FaultSite) -> Vec<Fault> {
        Fault::ALL
            .into_iter()
            .filter(|f| f.site() == site)
            .collect()
    }

    /// Drive every site `n` times; the firings, per site, in order.
    fn drive(inj: &FaultInjector, n: usize) -> Vec<Vec<Option<Fault>>> {
        SITES
            .iter()
            .map(|&s| (0..n).map(|_| inj.fire(s)).collect())
            .collect()
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::new());
        for firings in drive(&inj, 100) {
            assert!(firings.iter().all(Option::is_none));
        }
        assert_eq!(inj.counts(), FaultCounts::default());
    }

    #[test]
    fn every_schedule_fires_exactly_at_its_indices_for_every_fault() {
        // (schedule, the indices it must fire at among 0..9)
        let forms: [(FaultSchedule, &[usize]); 4] = [
            (FaultSchedule::at(3), &[3]),
            (FaultSchedule::at_each([5, 1, 4, 1]), &[1, 4, 5]),
            (FaultSchedule::every(3), &[2, 5, 8]),
            (FaultSchedule::first(2), &[0, 1]),
        ];
        for fault in Fault::ALL {
            for (schedule, want) in &forms {
                let inj = FaultInjector::new(FaultPlan::new().inject(fault, schedule.clone()));
                for (site, firings) in SITES.iter().zip(drive(&inj, 9)) {
                    let fired: Vec<usize> = (0..9).filter(|&i| firings[i].is_some()).collect();
                    let expect: &[usize] = if *site == fault.site() { want } else { &[] };
                    assert_eq!(fired, expect, "{} {schedule:?} at {site:?}", fault.name());
                    assert!(firings.iter().flatten().all(|&f| f == fault));
                }
                let counts = inj.counts();
                for other in Fault::ALL {
                    let n = if other == fault { want.len() as u64 } else { 0 };
                    assert_eq!(
                        counts[other],
                        n,
                        "{} counted under {}",
                        fault.name(),
                        other.name()
                    );
                }
                assert_eq!(counts.total(fault.site()), want.len() as u64);
            }
        }
    }

    #[test]
    fn overlap_resolves_in_declaration_order_at_every_site() {
        for site in SITES {
            // Fault j fires at indices 0..=j, so at index i faults i..
            // all fire and fault i must win.
            let order = faults_at(site);
            let plan = order
                .iter()
                .enumerate()
                .fold(FaultPlan::new(), |p, (j, &f)| {
                    p.inject(f, FaultSchedule::first(j as u64 + 1))
                });
            let inj = FaultInjector::new(plan);
            let firings: Vec<_> = (0..=order.len()).map(|_| inj.fire(site)).collect();
            let mut want: Vec<_> = order.iter().copied().map(Some).collect();
            want.push(None);
            assert_eq!(firings, want, "{site:?}");
            for f in &order {
                assert_eq!(inj.counts()[*f], 1, "losers are not counted");
            }
        }
        // The precedence the runtimes rely on, spelled out.
        assert_eq!(
            faults_at(FaultSite::WorkerCall),
            [Fault::WorkerCrash, Fault::WorkerHang, Fault::WorkerStall]
        );
        assert_eq!(
            faults_at(FaultSite::EnclaveCall),
            [Fault::EnclaveCrash, Fault::EnclaveStall]
        );
        assert_eq!(faults_at(FaultSite::Publish)[0], Fault::FlipStatus);
        assert_eq!(faults_at(FaultSite::Publish)[5], Fault::TornRequest);
    }

    #[test]
    fn no_site_advances_another_sites_index() {
        let plan = Fault::ALL
            .into_iter()
            .fold(FaultPlan::new(), |p, f| p.inject(f, FaultSchedule::at(0)));
        for site in SITES {
            // However often the other sites fire, this one is still at
            // its own index 0.
            let inj = FaultInjector::new(plan.clone());
            for other in SITES.into_iter().filter(|&o| o != site) {
                for _ in 0..5 {
                    inj.fire(other);
                }
            }
            assert_eq!(inj.fire(site), Some(faults_at(site)[0]), "{site:?}");
            assert_eq!(inj.fire(site), None, "{site:?}");
        }
    }

    #[test]
    fn chained_injections_accumulate() {
        let plan = FaultPlan::new()
            .inject(Fault::WorkerCrash, FaultSchedule::at(2))
            .inject(Fault::WorkerCrash, FaultSchedule::at(7))
            .inject(Fault::WorkerCrash, FaultSchedule::every(0)) // clamps to 1
            .inject(Fault::WorkerCrash, FaultSchedule::every(5))
            .inject(Fault::PoolExhaustion, FaultSchedule::first(3))
            .inject(Fault::PoolExhaustion, FaultSchedule::first(1));
        let inj = FaultInjector::new(plan);
        let crashes: Vec<u64> = (0..12)
            .filter(|_| inj.fire(FaultSite::WorkerCall).is_some())
            .collect();
        assert_eq!(crashes, [2, 4, 7, 9], "indices plus the later stride");
        let exhausted = (0..5)
            .filter(|_| inj.fire(FaultSite::PoolAlloc).is_some())
            .count();
        assert_eq!(exhausted, 3, "the longer prefix holds");
        assert!(FaultSchedule::every(0).fires_at(0), "stride clamps to >= 1");
    }

    #[test]
    fn durations_belong_to_their_fault() {
        let inj = FaultInjector::new(
            FaultPlan::new()
                .cycles(Fault::WorkerStall, 5_000)
                .cycles(Fault::EnclaveStall, 9_000)
                .cycles(Fault::ClockSkew, 1_000),
        );
        assert_eq!(inj.cycles(Fault::WorkerStall), 5_000);
        assert_eq!(inj.cycles(Fault::EnclaveStall), 9_000);
        assert_eq!(inj.cycles(Fault::ClockSkew), 1_000);
    }

    #[test]
    #[should_panic(expected = "worker_crash has no duration")]
    fn only_stalls_and_skew_have_a_duration() {
        let _ = FaultPlan::new().cycles(Fault::WorkerCrash, 1);
    }

    #[test]
    fn trace_names_are_stable_and_unique() {
        let names: Vec<_> = [
            Fault::WorkerCrash,
            Fault::WorkerStall,
            Fault::WorkerHang,
            Fault::PoolExhaustion,
            Fault::TransitionFailure,
            Fault::ClockSkew,
            Fault::EnclaveStall,
        ]
        .map(Fault::name)
        .into();
        assert_eq!(
            names,
            [
                "worker_crash",
                "worker_stall",
                "worker_hang",
                "pool_exhaustion",
                "transition_failure",
                "clock_skew",
                "enclave_stall"
            ]
        );
        let all: BTreeSet<_> = Fault::ALL.map(Fault::name).into();
        assert_eq!(all.len(), Fault::ALL.len());
        assert!(all.iter().all(|n| *n == n.to_lowercase()));
        for (i, f) in Fault::ALL.into_iter().enumerate() {
            assert_eq!(f as usize, i, "ALL is declaration order");
        }
    }

    #[test]
    fn drain_report_cleanliness() {
        assert!(DrainReport {
            drained: 3,
            abandoned: 0
        }
        .is_clean());
        assert!(!DrainReport {
            drained: 2,
            abandoned: 1
        }
        .is_clean());
    }
}
