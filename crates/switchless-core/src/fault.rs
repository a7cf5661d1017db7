//! Scriptable fault injection for the switchless runtimes.
//!
//! A [`FaultPlan`] describes *which* failures to provoke and *when* —
//! worker crash/stall/hang at a given call index, forced pool
//! exhaustion, enclave-transition failure, clock skew — and a
//! [`FaultInjector`] (shared as an `Arc` between callers, workers and
//! the fallback engine) evaluates the plan at each instrumented site
//! with plain atomic counters, so injection decisions are deterministic
//! functions of call order alone: no timers, no randomness.
//!
//! The runtimes consume the injector at five sites:
//!
//! | site | hook | plan knob | degradation exercised |
//! |------|------|-----------|-----------------------|
//! | worker picks up a call | [`FaultInjector::on_worker_call`] | crash / stall / hang | poisoned-worker quarantine, caller re-route |
//! | caller allocates from the request pool | [`FaultInjector::on_pool_alloc`] | forced exhaustion | bounded retry-with-backoff, then fallback |
//! | regular ocall transition | [`FaultInjector::on_transition`] | forced failure | bounded retry-with-backoff, then [`TransitionFailed`] |
//! | dispatch entry | [`FaultInjector::on_dispatch`] | clock skew | timestamp-robust accounting |
//! | shutdown | (drain loop) | hang | drain-with-timeout, [`DrainReport`] |
//!
//! [`TransitionFailed`]: crate::SwitchlessError::TransitionFailed

use crate::state::WorkerState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A deterministic firing schedule over 0-based site indices: an
/// explicit index set, an optional every-N stride, or both. An empty
/// (default) schedule never fires.
///
/// The stride follows the clock-skew convention: `every(n)` fires at
/// indices `n-1`, `2n-1`, … (every n-th occurrence), so `every(1)`
/// fires at every index.
///
/// # Example
///
/// ```
/// use switchless_core::fault::FaultSchedule;
///
/// let s = FaultSchedule::at_each([2, 5]).and_every(10);
/// assert!(!s.fires_at(0));
/// assert!(s.fires_at(2) && s.fires_at(5)); // explicit indices
/// assert!(s.fires_at(9) && s.fires_at(19)); // every 10th occurrence
/// assert!(!s.fires_at(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Explicit indices, kept sorted and deduplicated.
    indices: Vec<u64>,
    /// Optional stride (clamped to ≥ 1 by the builders).
    every: Option<u64>,
}

impl FaultSchedule {
    /// Empty schedule (never fires).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule firing at the single index `n`.
    #[must_use]
    pub fn at(n: u64) -> Self {
        Self::default().and_at(n)
    }

    /// Schedule firing at each of the given indices.
    #[must_use]
    pub fn at_each(ns: impl IntoIterator<Item = u64>) -> Self {
        ns.into_iter().fold(Self::default(), Self::and_at)
    }

    /// Schedule firing at every `n`-th occurrence (indices `n-1`,
    /// `2n-1`, …; `n` is clamped to ≥ 1).
    #[must_use]
    pub fn every(n: u64) -> Self {
        Self::default().and_every(n)
    }

    /// Add the explicit index `n` to this schedule.
    #[must_use]
    pub fn and_at(mut self, n: u64) -> Self {
        if let Err(pos) = self.indices.binary_search(&n) {
            self.indices.insert(pos, n);
        }
        self
    }

    /// Add (or replace) the every-`n`-th stride (clamped to ≥ 1).
    #[must_use]
    pub fn and_every(mut self, n: u64) -> Self {
        self.every = Some(n.max(1));
        self
    }

    /// Does the schedule fire at 0-based index `n`?
    #[must_use]
    pub fn fires_at(&self, n: u64) -> bool {
        self.indices.binary_search(&n).is_ok()
            || self.every.is_some_and(|e| (n + 1).is_multiple_of(e))
    }

    /// `true` when the schedule can never fire.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty() && self.every.is_none()
    }

    /// The explicit indices, sorted ascending.
    #[must_use]
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// The every-N stride, if any.
    #[must_use]
    pub fn stride(&self) -> Option<u64> {
        self.every
    }

    /// Seeded schedule: `count` indices drawn uniformly from
    /// `[0, max_index)` by the workspace PRNG
    /// ([`SplitMix64`](crate::rand::SplitMix64)), deduplicated.
    ///
    /// The same seed always yields the same schedule, so one `u64`
    /// reproduces a whole randomized fault scenario — and, with the
    /// arrival processes drawing from a fork of the same generator, an
    /// entire overload+fault run (DESIGN.md §13).
    #[must_use]
    pub fn seeded(seed: u64, count: usize, max_index: u64) -> Self {
        let mut rng = crate::rand::SplitMix64::new(seed);
        let mut s = Self::default();
        for _ in 0..count {
            s = s.and_at(rng.next_below(max_index.max(1)));
        }
        s
    }
}

/// Script of failures to inject, all keyed on deterministic call indices
/// (0-based). An empty (default) plan injects nothing.
///
/// Worker faults (crash / stall / hang) are driven by [`FaultSchedule`]s,
/// so a single plan can describe repeatable multi-fault scenarios (the
/// chaos-soak harness); the single-index builders remain as sugar for
/// one-shot faults.
///
/// # Example
///
/// ```
/// use switchless_core::fault::{FaultInjector, FaultPlan, WorkerFault};
///
/// let plan = FaultPlan::new().crash_worker_at(1).fail_transitions_first(2);
/// let inj = FaultInjector::new(plan);
/// assert_eq!(inj.on_worker_call(), WorkerFault::None); // call 0
/// assert_eq!(inj.on_worker_call(), WorkerFault::Crash); // call 1
/// assert!(inj.on_transition()); // transition 0: forced failure
/// assert!(inj.on_transition()); // transition 1: forced failure
/// assert!(!inj.on_transition()); // transition 2 proceeds
/// assert_eq!(inj.counts().crashes, 1);
/// assert_eq!(inj.counts().transition_failures, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash the worker servicing each scheduled switchless call: the
    /// worker thread terminates *before* invoking the host function,
    /// leaving its buffer poisoned.
    pub crash_worker_calls: FaultSchedule,
    /// Stall the worker servicing each scheduled switchless call for
    /// [`stall_cycles`](Self::stall_cycles) before it proceeds.
    pub stall_worker_calls: FaultSchedule,
    /// Stall duration in modelled cycles.
    pub stall_cycles: u64,
    /// Wedge the worker servicing each scheduled switchless call forever
    /// (it poisons its buffer and never observes another command) — the
    /// shutdown drain must abandon it unless a supervisor respawns the
    /// slot first.
    pub hang_worker_calls: FaultSchedule,
    /// Force the first n request-pool allocations to report exhaustion.
    pub exhaust_pool_first: u64,
    /// Force the first n enclave transitions to fail.
    pub fail_transition_first: u64,
    /// Skew the clock forward on every n-th dispatch (1 = every
    /// dispatch).
    pub skew_every_dispatch: Option<u64>,
    /// Skew amount in modelled cycles.
    pub skew_cycles: u64,
    /// Byzantine: overwrite the worker's status word with an
    /// undecodable byte instead of publishing the reply.
    pub flip_status_calls: FaultSchedule,
    /// Byzantine: scribble an undecodable byte into the worker's
    /// scheduler-command word after servicing the call.
    pub garbage_command_calls: FaultSchedule,
    /// Byzantine: declare more reply bytes than were produced.
    pub oversize_reply_calls: FaultSchedule,
    /// Byzantine: declare fewer reply bytes than were produced.
    pub undersize_reply_calls: FaultSchedule,
    /// Byzantine: stamp the reply with a stale sequence tag (replay).
    pub stale_seq_calls: FaultSchedule,
    /// Byzantine: tear the request slot (overwrite the posted request)
    /// while the worker owns it.
    pub torn_request_calls: FaultSchedule,
    /// Crash the whole enclave as each scheduled switchless call is
    /// dispatched (before the host function runs): every in-flight
    /// call's fate becomes unknown and the recovery plane reconciles
    /// them against the intent journal ([`crate::recovery`]).
    pub enclave_crash_calls: FaultSchedule,
    /// Stall the whole enclave for
    /// [`enclave_stall_cycles`](Self::enclave_stall_cycles) as each
    /// scheduled call is dispatched, then let it revive on its own —
    /// the stall-then-revive scenario (callers must ride it out, not
    /// misroute it into a watchdog cancellation).
    pub enclave_stall_calls: FaultSchedule,
    /// Enclave stall duration in modelled cycles.
    pub enclave_stall_cycles: u64,
    /// Crash the enclave again as each scheduled *replay* executes
    /// (after the replay's completion is journaled, before delivery):
    /// the crash-during-replay scenario that proves replay idempotence
    /// — the second recovery round must redeliver, never re-execute.
    pub enclave_replay_crash_calls: FaultSchedule,
}

impl FaultPlan {
    /// Empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Crash the worker servicing switchless call `n` (0-based). May be
    /// chained to build a multi-crash schedule.
    #[must_use]
    pub fn crash_worker_at(mut self, n: u64) -> Self {
        self.crash_worker_calls = self.crash_worker_calls.and_at(n);
        self
    }

    /// Crash the workers servicing each of the given switchless calls.
    #[must_use]
    pub fn crash_worker_at_each(mut self, ns: impl IntoIterator<Item = u64>) -> Self {
        self.crash_worker_calls = ns
            .into_iter()
            .fold(self.crash_worker_calls, FaultSchedule::and_at);
        self
    }

    /// Crash the worker servicing every `n`-th switchless call.
    #[must_use]
    pub fn crash_worker_every(mut self, n: u64) -> Self {
        self.crash_worker_calls = self.crash_worker_calls.and_every(n);
        self
    }

    /// Stall the worker servicing switchless call `n` for `cycles`. May
    /// be chained; the last `cycles` value wins for all stalls.
    #[must_use]
    pub fn stall_worker_at(mut self, n: u64, cycles: u64) -> Self {
        self.stall_worker_calls = self.stall_worker_calls.and_at(n);
        self.stall_cycles = cycles;
        self
    }

    /// Stall the worker servicing every `n`-th switchless call for
    /// `cycles`.
    #[must_use]
    pub fn stall_worker_every(mut self, n: u64, cycles: u64) -> Self {
        self.stall_worker_calls = self.stall_worker_calls.and_every(n);
        self.stall_cycles = cycles;
        self
    }

    /// Wedge the worker servicing switchless call `n` forever. May be
    /// chained to build a multi-hang schedule.
    #[must_use]
    pub fn hang_worker_at(mut self, n: u64) -> Self {
        self.hang_worker_calls = self.hang_worker_calls.and_at(n);
        self
    }

    /// Wedge the workers servicing each of the given switchless calls.
    #[must_use]
    pub fn hang_worker_at_each(mut self, ns: impl IntoIterator<Item = u64>) -> Self {
        self.hang_worker_calls = ns
            .into_iter()
            .fold(self.hang_worker_calls, FaultSchedule::and_at);
        self
    }

    /// Force the first `n` pool allocations to report exhaustion.
    #[must_use]
    pub fn exhaust_pool_first(mut self, n: u64) -> Self {
        self.exhaust_pool_first = n;
        self
    }

    /// Force the first `n` enclave transitions to fail.
    #[must_use]
    pub fn fail_transitions_first(mut self, n: u64) -> Self {
        self.fail_transition_first = n;
        self
    }

    /// Skew the clock by `cycles` on every `every`-th dispatch.
    #[must_use]
    pub fn skew_clock(mut self, every: u64, cycles: u64) -> Self {
        self.skew_every_dispatch = Some(every.max(1));
        self.skew_cycles = cycles;
        self
    }

    /// Byzantine: flip the status word on corruption-site index `n`.
    #[must_use]
    pub fn flip_status_at(mut self, n: u64) -> Self {
        self.flip_status_calls = self.flip_status_calls.and_at(n);
        self
    }

    /// Byzantine: garbage the command word on corruption-site index `n`.
    #[must_use]
    pub fn garbage_command_at(mut self, n: u64) -> Self {
        self.garbage_command_calls = self.garbage_command_calls.and_at(n);
        self
    }

    /// Byzantine: oversize the declared reply length at site `n`.
    #[must_use]
    pub fn oversize_reply_at(mut self, n: u64) -> Self {
        self.oversize_reply_calls = self.oversize_reply_calls.and_at(n);
        self
    }

    /// Byzantine: undersize the declared reply length at site `n`.
    #[must_use]
    pub fn undersize_reply_at(mut self, n: u64) -> Self {
        self.undersize_reply_calls = self.undersize_reply_calls.and_at(n);
        self
    }

    /// Byzantine: replay a stale sequence tag at site `n`.
    #[must_use]
    pub fn stale_seq_at(mut self, n: u64) -> Self {
        self.stale_seq_calls = self.stale_seq_calls.and_at(n);
        self
    }

    /// Byzantine: tear the request slot at site `n`.
    #[must_use]
    pub fn torn_request_at(mut self, n: u64) -> Self {
        self.torn_request_calls = self.torn_request_calls.and_at(n);
        self
    }

    /// Crash the enclave at dispatch-site index `n` (0-based). May be
    /// chained to build a multi-crash schedule.
    #[must_use]
    pub fn crash_enclave_at(mut self, n: u64) -> Self {
        self.enclave_crash_calls = self.enclave_crash_calls.and_at(n);
        self
    }

    /// Crash the enclave at each of the given dispatch-site indices.
    #[must_use]
    pub fn crash_enclave_at_each(mut self, ns: impl IntoIterator<Item = u64>) -> Self {
        self.enclave_crash_calls = ns
            .into_iter()
            .fold(self.enclave_crash_calls, FaultSchedule::and_at);
        self
    }

    /// Stall the enclave for `cycles` at dispatch-site index `n`, then
    /// revive. May be chained; the last `cycles` value wins.
    #[must_use]
    pub fn stall_enclave_at(mut self, n: u64, cycles: u64) -> Self {
        self.enclave_stall_calls = self.enclave_stall_calls.and_at(n);
        self.enclave_stall_cycles = cycles;
        self
    }

    /// Crash the enclave again during replay-site index `n` — after
    /// the replay journals its completion, before delivery.
    #[must_use]
    pub fn crash_enclave_during_replay_at(mut self, n: u64) -> Self {
        self.enclave_replay_crash_calls = self.enclave_replay_crash_calls.and_at(n);
        self
    }

    /// `true` when any enclave-fault schedule can fire.
    #[must_use]
    pub fn has_enclave_faults(&self) -> bool {
        !(self.enclave_crash_calls.is_empty()
            && self.enclave_stall_calls.is_empty()
            && self.enclave_replay_crash_calls.is_empty())
    }
}

/// Decision returned by [`FaultInjector::on_worker_call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Proceed normally.
    None,
    /// Burn the given number of modelled cycles before proceeding.
    Stall(u64),
    /// Terminate the worker thread (before touching the request).
    Crash,
    /// Wedge forever (park in an unrecoverable loop).
    Hang,
}

/// Decision returned by [`FaultInjector::on_enclave_call`]: what to do
/// to the whole enclave as a call dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveFault {
    /// Proceed normally.
    None,
    /// Freeze the enclave for the given number of modelled cycles, then
    /// revive it (in-flight calls ride it out).
    Stall(u64),
    /// Kill the enclave: every in-flight call's fate becomes unknown
    /// until the recovery plane reconciles it.
    Crash,
}

/// Byzantine corruption decision returned by
/// [`FaultInjector::on_byzantine`]: how the (modelled) hostile host
/// lies about the call it is servicing. At most one corruption fires
/// per site index; earlier variants take precedence on overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineFault {
    /// Behave honestly.
    None,
    /// Overwrite the status word with an undecodable byte instead of
    /// publishing the reply.
    FlipStatus,
    /// Scribble an undecodable byte into the scheduler-command word.
    GarbageCommand,
    /// Declare more reply bytes than were produced.
    OversizeReplyLen,
    /// Declare fewer reply bytes than were produced.
    UndersizeReplyLen,
    /// Stamp the reply with a stale sequence tag (replayed reply).
    StaleSeqReplay,
    /// Overwrite the posted request while the worker owns the slot.
    TornRequest,
}

/// Snapshot of faults injected so far (observability for tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Worker crashes injected.
    pub crashes: u64,
    /// Worker stalls injected.
    pub stalls: u64,
    /// Worker hangs injected.
    pub hangs: u64,
    /// Pool allocations forced to report exhaustion.
    pub pool_exhaustions: u64,
    /// Enclave transitions forced to fail.
    pub transition_failures: u64,
    /// Clock skews applied.
    pub clock_skews: u64,
    /// Byzantine status-word flips injected.
    pub flipped_status: u64,
    /// Byzantine command-word scribbles injected.
    pub garbage_commands: u64,
    /// Byzantine oversized reply-length lies injected.
    pub oversize_replies: u64,
    /// Byzantine undersized reply-length lies injected.
    pub undersize_replies: u64,
    /// Byzantine stale-sequence replays injected.
    pub stale_replays: u64,
    /// Byzantine torn-request overwrites injected.
    pub torn_requests: u64,
    /// Whole-enclave crashes injected.
    pub enclave_crashes: u64,
    /// Whole-enclave stalls injected.
    pub enclave_stalls: u64,
    /// Enclave crashes injected during replay.
    pub enclave_replay_crashes: u64,
}

impl FaultCounts {
    /// Total Byzantine corruptions injected (all six kinds).
    #[must_use]
    pub fn byzantine_total(&self) -> u64 {
        self.flipped_status
            + self.garbage_commands
            + self.oversize_replies
            + self.undersize_replies
            + self.stale_replays
            + self.torn_requests
    }
}

/// Thread-safe evaluator of a [`FaultPlan`]: each instrumented site
/// calls its `on_*` hook, which advances a per-site atomic counter and
/// reports whether (and how) to misbehave.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    worker_calls: AtomicU64,
    pool_allocs: AtomicU64,
    transitions: AtomicU64,
    dispatches: AtomicU64,
    byzantine_calls: AtomicU64,
    crashes: AtomicU64,
    stalls: AtomicU64,
    hangs: AtomicU64,
    pool_exhaustions: AtomicU64,
    transition_failures: AtomicU64,
    clock_skews: AtomicU64,
    flipped_status: AtomicU64,
    garbage_commands: AtomicU64,
    oversize_replies: AtomicU64,
    undersize_replies: AtomicU64,
    stale_replays: AtomicU64,
    torn_requests: AtomicU64,
    enclave_calls: AtomicU64,
    replay_calls: AtomicU64,
    enclave_crashes: AtomicU64,
    enclave_stalls: AtomicU64,
    enclave_replay_crashes: AtomicU64,
}

impl FaultInjector {
    /// Injector evaluating `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            worker_calls: AtomicU64::new(0),
            pool_allocs: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            byzantine_calls: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            hangs: AtomicU64::new(0),
            pool_exhaustions: AtomicU64::new(0),
            transition_failures: AtomicU64::new(0),
            clock_skews: AtomicU64::new(0),
            flipped_status: AtomicU64::new(0),
            garbage_commands: AtomicU64::new(0),
            oversize_replies: AtomicU64::new(0),
            undersize_replies: AtomicU64::new(0),
            stale_replays: AtomicU64::new(0),
            torn_requests: AtomicU64::new(0),
            enclave_calls: AtomicU64::new(0),
            replay_calls: AtomicU64::new(0),
            enclave_crashes: AtomicU64::new(0),
            enclave_stalls: AtomicU64::new(0),
            enclave_replay_crashes: AtomicU64::new(0),
        }
    }

    /// The plan this injector evaluates.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Site hook: a worker is about to service a switchless call.
    /// Advances the worker-call index and returns the fault to inject.
    pub fn on_worker_call(&self) -> WorkerFault {
        let n = self.worker_calls.fetch_add(1, Ordering::AcqRel);
        if self.plan.crash_worker_calls.fires_at(n) {
            self.crashes.fetch_add(1, Ordering::Relaxed);
            return WorkerFault::Crash;
        }
        if self.plan.hang_worker_calls.fires_at(n) {
            self.hangs.fetch_add(1, Ordering::Relaxed);
            return WorkerFault::Hang;
        }
        if self.plan.stall_worker_calls.fires_at(n) {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            return WorkerFault::Stall(self.plan.stall_cycles);
        }
        WorkerFault::None
    }

    /// Site hook: a worker is about to publish the result of a
    /// switchless call — the moment a hostile host would lie. Advances
    /// the corruption-site index and returns the corruption to apply
    /// (at most one per site; earlier [`ByzantineFault`] variants win
    /// on overlap).
    pub fn on_byzantine(&self) -> ByzantineFault {
        let n = self.byzantine_calls.fetch_add(1, Ordering::AcqRel);
        if self.plan.flip_status_calls.fires_at(n) {
            self.flipped_status.fetch_add(1, Ordering::Relaxed);
            return ByzantineFault::FlipStatus;
        }
        if self.plan.garbage_command_calls.fires_at(n) {
            self.garbage_commands.fetch_add(1, Ordering::Relaxed);
            return ByzantineFault::GarbageCommand;
        }
        if self.plan.oversize_reply_calls.fires_at(n) {
            self.oversize_replies.fetch_add(1, Ordering::Relaxed);
            return ByzantineFault::OversizeReplyLen;
        }
        if self.plan.undersize_reply_calls.fires_at(n) {
            self.undersize_replies.fetch_add(1, Ordering::Relaxed);
            return ByzantineFault::UndersizeReplyLen;
        }
        if self.plan.stale_seq_calls.fires_at(n) {
            self.stale_replays.fetch_add(1, Ordering::Relaxed);
            return ByzantineFault::StaleSeqReplay;
        }
        if self.plan.torn_request_calls.fires_at(n) {
            self.torn_requests.fetch_add(1, Ordering::Relaxed);
            return ByzantineFault::TornRequest;
        }
        ByzantineFault::None
    }

    /// Site hook: a call is dispatching into the enclave machinery.
    /// Advances the enclave-site index and returns the whole-enclave
    /// fault to inject (crash wins over stall on overlap).
    pub fn on_enclave_call(&self) -> EnclaveFault {
        let n = self.enclave_calls.fetch_add(1, Ordering::AcqRel);
        if self.plan.enclave_crash_calls.fires_at(n) {
            self.enclave_crashes.fetch_add(1, Ordering::Relaxed);
            return EnclaveFault::Crash;
        }
        if self.plan.enclave_stall_calls.fires_at(n) {
            self.enclave_stalls.fetch_add(1, Ordering::Relaxed);
            return EnclaveFault::Stall(self.plan.enclave_stall_cycles);
        }
        EnclaveFault::None
    }

    /// Site hook: a reconciled call is replaying after a restart (the
    /// replay's completion is journaled, delivery has not happened).
    /// Returns `true` if the enclave must crash again right here —
    /// the crash-during-replay scenario.
    pub fn on_enclave_replay(&self) -> bool {
        let n = self.replay_calls.fetch_add(1, Ordering::AcqRel);
        if self.plan.enclave_replay_crash_calls.fires_at(n) {
            self.enclave_replay_crashes.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Site hook: a caller is allocating from a request pool. Returns
    /// `true` if the allocation must report exhaustion.
    pub fn on_pool_alloc(&self) -> bool {
        let n = self.pool_allocs.fetch_add(1, Ordering::AcqRel);
        if n < self.plan.exhaust_pool_first {
            self.pool_exhaustions.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Site hook: a regular enclave transition is about to execute.
    /// Returns `true` if the transition must fail.
    pub fn on_transition(&self) -> bool {
        let n = self.transitions.fetch_add(1, Ordering::AcqRel);
        if n < self.plan.fail_transition_first {
            self.transition_failures.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Site hook: a dispatch is entering the runtime. Returns the clock
    /// skew (in cycles) to apply, `0` for none.
    pub fn on_dispatch(&self) -> u64 {
        let n = self.dispatches.fetch_add(1, Ordering::AcqRel);
        match self.plan.skew_every_dispatch {
            Some(every) if (n + 1).is_multiple_of(every) => {
                self.clock_skews.fetch_add(1, Ordering::Relaxed);
                self.plan.skew_cycles
            }
            _ => 0,
        }
    }

    /// Faults injected so far.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            crashes: self.crashes.load(Ordering::Acquire),
            stalls: self.stalls.load(Ordering::Acquire),
            hangs: self.hangs.load(Ordering::Acquire),
            pool_exhaustions: self.pool_exhaustions.load(Ordering::Acquire),
            transition_failures: self.transition_failures.load(Ordering::Acquire),
            clock_skews: self.clock_skews.load(Ordering::Acquire),
            flipped_status: self.flipped_status.load(Ordering::Acquire),
            garbage_commands: self.garbage_commands.load(Ordering::Acquire),
            oversize_replies: self.oversize_replies.load(Ordering::Acquire),
            undersize_replies: self.undersize_replies.load(Ordering::Acquire),
            stale_replays: self.stale_replays.load(Ordering::Acquire),
            torn_requests: self.torn_requests.load(Ordering::Acquire),
            enclave_crashes: self.enclave_crashes.load(Ordering::Acquire),
            enclave_stalls: self.enclave_stalls.load(Ordering::Acquire),
            enclave_replay_crashes: self.enclave_replay_crashes.load(Ordering::Acquire),
        }
    }
}

/// Outcome of a drain-with-timeout shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Worker threads that exited and were joined within the timeout.
    pub drained: usize,
    /// Worker threads still alive at the deadline, detached instead of
    /// joined (e.g. wedged by a [`WorkerFault::Hang`]).
    pub abandoned: usize,
}

impl DrainReport {
    /// `true` when every worker exited within the timeout.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.abandoned == 0
    }
}

/// Recorder of successful worker-state transitions, for state-machine
/// property tests: attach one to every worker buffer and assert
/// afterwards that only legal edges of the paper's state machine were
/// taken, even under injected faults.
#[derive(Debug, Default)]
pub struct TransitionLog {
    edges: Mutex<Vec<(WorkerState, WorkerState)>>,
}

impl TransitionLog {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one successful `from -> to` transition.
    pub fn record(&self, from: WorkerState, to: WorkerState) {
        self.edges
            .lock()
            .expect("transition log poisoned")
            .push((from, to));
    }

    /// All recorded edges, in global observation order.
    #[must_use]
    pub fn edges(&self) -> Vec<(WorkerState, WorkerState)> {
        self.edges.lock().expect("transition log poisoned").clone()
    }

    /// Recorded edges that are illegal per
    /// [`WorkerState::can_transition`]. Empty on a correct run.
    #[must_use]
    pub fn illegal_edges(&self) -> Vec<(WorkerState, WorkerState)> {
        self.edges()
            .into_iter()
            .filter(|(from, to)| !from.can_transition(*to))
            .collect()
    }

    /// Number of recorded edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.lock().expect("transition log poisoned").len()
    }

    /// `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::new());
        for _ in 0..100 {
            assert_eq!(inj.on_worker_call(), WorkerFault::None);
            assert!(!inj.on_pool_alloc());
            assert!(!inj.on_transition());
            assert_eq!(inj.on_dispatch(), 0);
        }
        assert_eq!(inj.counts(), FaultCounts::default());
    }

    #[test]
    fn crash_fires_exactly_once_at_index() {
        let inj = FaultInjector::new(FaultPlan::new().crash_worker_at(3));
        let decisions: Vec<_> = (0..6).map(|_| inj.on_worker_call()).collect();
        assert_eq!(decisions[3], WorkerFault::Crash);
        assert_eq!(
            decisions
                .iter()
                .filter(|d| **d == WorkerFault::Crash)
                .count(),
            1
        );
        assert_eq!(inj.counts().crashes, 1);
    }

    #[test]
    fn stall_and_hang_fire_at_their_indices() {
        let inj = FaultInjector::new(FaultPlan::new().stall_worker_at(0, 5_000).hang_worker_at(2));
        assert_eq!(inj.on_worker_call(), WorkerFault::Stall(5_000));
        assert_eq!(inj.on_worker_call(), WorkerFault::None);
        assert_eq!(inj.on_worker_call(), WorkerFault::Hang);
        let c = inj.counts();
        assert_eq!((c.stalls, c.hangs), (1, 1));
    }

    #[test]
    fn pool_and_transition_prefixes() {
        let inj = FaultInjector::new(
            FaultPlan::new()
                .exhaust_pool_first(2)
                .fail_transitions_first(1),
        );
        assert!(inj.on_pool_alloc());
        assert!(inj.on_pool_alloc());
        assert!(!inj.on_pool_alloc());
        assert!(inj.on_transition());
        assert!(!inj.on_transition());
        let c = inj.counts();
        assert_eq!((c.pool_exhaustions, c.transition_failures), (2, 1));
    }

    #[test]
    fn skew_fires_every_nth_dispatch() {
        let inj = FaultInjector::new(FaultPlan::new().skew_clock(3, 1_000));
        let skews: Vec<u64> = (0..9).map(|_| inj.on_dispatch()).collect();
        assert_eq!(skews, vec![0, 0, 1_000, 0, 0, 1_000, 0, 0, 1_000]);
        assert_eq!(inj.counts().clock_skews, 3);
    }

    #[test]
    fn schedule_fires_at_each_explicit_index() {
        let inj = FaultInjector::new(FaultPlan::new().crash_worker_at_each([1, 4, 5]));
        let decisions: Vec<_> = (0..8).map(|_| inj.on_worker_call()).collect();
        for (i, d) in decisions.iter().enumerate() {
            let expect = if [1, 4, 5].contains(&i) {
                WorkerFault::Crash
            } else {
                WorkerFault::None
            };
            assert_eq!(*d, expect, "call {i}");
        }
        assert_eq!(inj.counts().crashes, 3);
    }

    #[test]
    fn chained_single_index_builders_accumulate() {
        // Backward-compatible sugar: chaining the one-shot builder
        // builds the same schedule as the multi-index form.
        let chained = FaultPlan::new().crash_worker_at(2).crash_worker_at(7);
        assert_eq!(
            chained.crash_worker_calls,
            FaultSchedule::at_each([7, 2]),
            "order-insensitive"
        );
        let inj = FaultInjector::new(chained);
        let crashes = (0..10)
            .map(|_| inj.on_worker_call())
            .filter(|d| *d == WorkerFault::Crash)
            .count();
        assert_eq!(crashes, 2);
    }

    #[test]
    fn every_n_schedule_fires_periodically() {
        let inj = FaultInjector::new(FaultPlan::new().stall_worker_every(3, 1_000));
        let decisions: Vec<_> = (0..9).map(|_| inj.on_worker_call()).collect();
        assert_eq!(
            decisions,
            vec![
                WorkerFault::None,
                WorkerFault::None,
                WorkerFault::Stall(1_000),
                WorkerFault::None,
                WorkerFault::None,
                WorkerFault::Stall(1_000),
                WorkerFault::None,
                WorkerFault::None,
                WorkerFault::Stall(1_000),
            ]
        );
        assert_eq!(inj.counts().stalls, 3);
    }

    #[test]
    fn mixed_crash_and_hang_schedules_compose() {
        let inj = FaultInjector::new(
            FaultPlan::new()
                .crash_worker_at_each([0, 3])
                .hang_worker_at_each([1, 5]),
        );
        let d: Vec<_> = (0..6).map(|_| inj.on_worker_call()).collect();
        assert_eq!(d[0], WorkerFault::Crash);
        assert_eq!(d[1], WorkerFault::Hang);
        assert_eq!(d[2], WorkerFault::None);
        assert_eq!(d[3], WorkerFault::Crash);
        assert_eq!(d[5], WorkerFault::Hang);
        let c = inj.counts();
        assert_eq!((c.crashes, c.hangs), (2, 2));
    }

    #[test]
    fn crash_takes_precedence_over_hang_on_overlap() {
        let inj = FaultInjector::new(FaultPlan::new().crash_worker_at(0).hang_worker_at(0));
        assert_eq!(inj.on_worker_call(), WorkerFault::Crash);
        assert_eq!(inj.counts().hangs, 0);
    }

    #[test]
    fn seeded_schedule_is_reproducible_and_bounded() {
        let a = FaultSchedule::seeded(42, 16, 1_000);
        let b = FaultSchedule::seeded(42, 16, 1_000);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, FaultSchedule::seeded(43, 16, 1_000));
        assert!(!a.is_empty());
        assert!(a.indices().iter().all(|&i| i < 1_000));
        assert!(a.indices().len() <= 16, "duplicates collapse");
        // Degenerate range still works.
        let z = FaultSchedule::seeded(7, 4, 0);
        assert_eq!(z.indices(), &[0]);
    }

    #[test]
    fn empty_schedule_never_fires_and_zero_stride_clamps() {
        let s = FaultSchedule::new();
        assert!(s.is_empty());
        assert!(!s.fires_at(0));
        let clamped = FaultSchedule::every(0);
        assert_eq!(clamped.stride(), Some(1), "stride clamps to >=1");
        assert!(clamped.fires_at(0) && clamped.fires_at(1));
        assert!(!FaultSchedule::at(3).is_empty());
    }

    #[test]
    fn byzantine_schedules_fire_at_their_sites() {
        let inj = FaultInjector::new(
            FaultPlan::new()
                .flip_status_at(0)
                .garbage_command_at(1)
                .oversize_reply_at(2)
                .undersize_reply_at(3)
                .stale_seq_at(4)
                .torn_request_at(5),
        );
        let d: Vec<_> = (0..7).map(|_| inj.on_byzantine()).collect();
        assert_eq!(
            d,
            vec![
                ByzantineFault::FlipStatus,
                ByzantineFault::GarbageCommand,
                ByzantineFault::OversizeReplyLen,
                ByzantineFault::UndersizeReplyLen,
                ByzantineFault::StaleSeqReplay,
                ByzantineFault::TornRequest,
                ByzantineFault::None,
            ]
        );
        let c = inj.counts();
        assert_eq!(c.byzantine_total(), 6);
        assert_eq!(
            (c.flipped_status, c.garbage_commands, c.oversize_replies),
            (1, 1, 1)
        );
        assert_eq!(
            (c.undersize_replies, c.stale_replays, c.torn_requests),
            (1, 1, 1)
        );
    }

    #[test]
    fn byzantine_precedence_and_empty_plan() {
        let plan = FaultPlan::new().flip_status_at(0).torn_request_at(0);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_byzantine(), ByzantineFault::FlipStatus);
        assert_eq!(inj.counts().torn_requests, 0);
        let clean = FaultInjector::new(FaultPlan::new());
        for _ in 0..10 {
            assert_eq!(clean.on_byzantine(), ByzantineFault::None);
        }
        assert_eq!(clean.counts().byzantine_total(), 0);
    }

    #[test]
    fn byzantine_sites_are_independent_of_worker_calls() {
        // A crash schedule at worker-call 0 must not consume the
        // corruption-site index, and vice versa.
        let inj = FaultInjector::new(FaultPlan::new().crash_worker_at(0).stale_seq_at(0));
        assert_eq!(inj.on_byzantine(), ByzantineFault::StaleSeqReplay);
        assert_eq!(inj.on_worker_call(), WorkerFault::Crash);
    }

    #[test]
    fn enclave_fault_schedules_fire_at_their_sites() {
        let inj = FaultInjector::new(
            FaultPlan::new()
                .crash_enclave_at(1)
                .stall_enclave_at(3, 9_000)
                .crash_enclave_during_replay_at(0),
        );
        let d: Vec<_> = (0..5).map(|_| inj.on_enclave_call()).collect();
        assert_eq!(
            d,
            vec![
                EnclaveFault::None,
                EnclaveFault::Crash,
                EnclaveFault::None,
                EnclaveFault::Stall(9_000),
                EnclaveFault::None,
            ]
        );
        assert!(inj.on_enclave_replay());
        assert!(!inj.on_enclave_replay());
        let c = inj.counts();
        assert_eq!(
            (
                c.enclave_crashes,
                c.enclave_stalls,
                c.enclave_replay_crashes
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn enclave_crash_wins_over_stall_on_overlap() {
        let plan = FaultPlan::new()
            .crash_enclave_at(0)
            .stall_enclave_at(0, 100);
        assert!(plan.has_enclave_faults());
        assert!(!FaultPlan::new().has_enclave_faults());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_enclave_call(), EnclaveFault::Crash);
        assert_eq!(inj.counts().enclave_stalls, 0);
    }

    #[test]
    fn enclave_sites_are_independent_of_worker_sites() {
        let inj = FaultInjector::new(FaultPlan::new().crash_worker_at(0).crash_enclave_at(0));
        assert_eq!(inj.on_enclave_call(), EnclaveFault::Crash);
        assert_eq!(inj.on_worker_call(), WorkerFault::Crash);
        assert!(!inj.on_enclave_replay(), "replay site separate too");
    }

    #[test]
    fn transition_log_flags_illegal_edges() {
        let log = TransitionLog::new();
        log.record(WorkerState::Unused, WorkerState::Reserved);
        log.record(WorkerState::Reserved, WorkerState::Processing);
        assert!(log.illegal_edges().is_empty());
        log.record(WorkerState::Processing, WorkerState::Unused); // illegal
        assert_eq!(
            log.illegal_edges(),
            vec![(WorkerState::Processing, WorkerState::Unused)]
        );
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
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
