//! The call front door shared by both real-thread switchless runtimes.
//!
//! Every ocall dispatched through `ZcRuntime` or `IntelSwitchless`
//! passes the same robustness planes in the same order; this module is
//! the one place that order is written down:
//!
//! 0. the call id, once per offered call (traced or journaled runtimes
//!    only; it is the journal sequence and the reply-guard tag too);
//! 1. stopped check, then `record_issued`;
//! 2. overload admission (a shed call costs nothing downstream);
//! 3. the transport's pinned-to-regular check;
//! 4. the injector's clock-skew site;
//! 5. journal intent + the injector's enclave-fault site;
//! 6. **route** — the only step the transports implement themselves;
//! 7. journal retire, on every outcome.
//!
//! Around that pipeline sit the pieces both transports need while
//! routing: the regular-ocall fallback with its phase accounting,
//! enclave-loss detection and journal reconciliation, the traced
//! wrapper (one `CallPhases` event per completed call), the plane
//! metric collector and the shutdown drain.
//!
//! A runtime embeds one [`FrontDoor`] and implements [`Transport`] for
//! its shared state. Dispatch is generic over the transport and
//! statically dispatched, so each runtime monomorphises to its own
//! protocol with the planes inlined around it; with no telemetry hub
//! attached the pipeline reads no clock and takes no lock of its own.

use crate::clock::CycleClock;
use crate::transition::RegularOcall;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use switchless_core::overload::InflightGuard;
use switchless_core::recovery::{EntryState, ReconcileVerdict, RecoveryPlane};
use switchless_core::{
    CallPath, CallStats, DrainReport, Fault, FaultInjector, FaultSite, GuardViolation, Ledger,
    OcallRequest, OverloadParams, OverloadPlane, OverloadSnapshot, RecoveryParams,
    RecoverySnapshot, SwitchlessError,
};
pub use zc_telemetry::Phase;
use zc_telemetry::{Event, Origin, PhaseRecorder, Telemetry};

/// Busy-wait loops yield to the OS scheduler after this many pauses
/// (keeps the protocols live when the host has fewer cores than the
/// modelled machine; a no-op cost-wise on idle multicore hosts).
pub const YIELD_EVERY: u32 = 64;

/// One iteration of a busy-wait: a modelled `pause`, plus a host yield
/// every [`YIELD_EVERY`] iterations.
#[inline]
pub fn spin_pause(clock: &CycleClock, spins: &mut u32) {
    clock.pause();
    *spins = spins.wrapping_add(1);
    if spins.is_multiple_of(YIELD_EVERY) {
        std::thread::yield_now();
    }
}

/// Per-call phase stopwatch threaded through the dispatch path: `None`
/// when no hub is attached, so a hub-less runtime pays one branch per
/// mark and never reads the clock.
#[derive(Debug)]
pub struct Rec(Option<PhaseRecorder>);

impl Rec {
    /// Charge the cycles since the previous boundary to `phase`.
    #[inline]
    pub fn mark(&mut self, phase: Phase, clock: &CycleClock) {
        if let Some(r) = &mut self.0 {
            r.mark(phase, || clock.now_cycles());
        }
    }

    /// Worker-measured host-function cycles, carved out of the wait
    /// window when the recording closes (clamped there, so a lying host
    /// cannot break phase conservation).
    #[inline]
    pub fn set_execute_hint(&mut self, cycles: u64) {
        if let Some(r) = &mut self.0 {
            r.set_execute_hint(cycles);
        }
    }

    /// "Now" for a plane that runs a few instructions after a phase
    /// boundary: the recording's latest stamp, so a traced call does
    /// not read the clock twice for one instant. Without a recording
    /// this is the plane's own clock read, as ever.
    #[inline]
    #[must_use]
    pub fn stamp(&self, clock: &CycleClock) -> u64 {
        match &self.0 {
            Some(r) => r.last(),
            None => clock.now_cycles(),
        }
    }
}

/// What a switchless mechanism supplies to the front door: its planes,
/// its routing protocol and its share of an enclave restart. Exactly
/// two implementations exist (zc: worker scan + claim CAS, slot respawn
/// on restart; Intel: task pool + `rbf`, cost-only restart).
pub trait Transport {
    /// The planes this transport's calls pass through.
    fn door(&self) -> &FrontDoor;

    /// Route one admitted, journaled call through the switchless
    /// protocol (or its fallbacks).
    ///
    /// # Errors
    ///
    /// Whatever the protocol or the fallback engine surfaces.
    fn route(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
        rec: &mut Rec,
    ) -> Result<(i64, CallPath), SwitchlessError>;

    /// Is this request shape pinned to the regular path before it is
    /// journaled (zc: the supervisor's poison blacklist)?
    fn pinned_regular(&self, _req: &OcallRequest, _payload_len: usize) -> bool {
        false
    }

    /// Restart, fence phase: make sure no worker of the dead enclave
    /// incarnation can touch a request again.
    fn fence_workers(&self) {}

    /// Restart, after the rebuild cost was paid: bring up the workers
    /// of the new incarnation.
    fn respawn_workers(&self) {}
}

/// A worker thread's "I will never return" flag: raised by the thread
/// itself just before it parks forever (injected hang), read by the
/// drain to abandon it instead of waiting.
#[derive(Debug, Clone, Default)]
pub struct Wedged(Arc<AtomicBool>);

impl Wedged {
    /// Publish that the calling worker thread is about to wedge.
    pub fn mark(&self) {
        self.0.store(true, Ordering::Release);
    }
}

#[derive(Debug)]
struct WorkerThread {
    slot: usize,
    wedged: Wedged,
    handle: JoinHandle<()>,
}

/// The planes and services shared by every call of one runtime.
#[derive(Debug)]
pub struct FrontDoor {
    /// The runtime's cycle clock (inherited from the enclave).
    pub clock: CycleClock,
    /// Regular-ocall engine used for every fallback and replay.
    pub fallback: RegularOcall,
    /// Call statistics, shared with the fallback engine.
    pub stats: Arc<CallStats>,
    /// Deterministic fault injector, if any.
    pub faults: Option<Arc<FaultInjector>>,
    /// Overload-control plane; `Some` iff configured. Every call stores
    /// its offered count, and every admitted one its in-flight word, so
    /// it sits on a block of its own, as `call_ids` does (DESIGN.md §16).
    pub overload: CachePadded<Option<OverloadPlane>>,
    /// Enclave-restart recovery plane; `Some` iff configured.
    pub recovery: Option<RecoveryPlane>,
    /// Telemetry hub, if one was attached at start.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Call-id source of a traced runtime without a recovery plane
    /// (with one, the plane's journal sequence is the id). Stored by
    /// every such call, so it sits on a block of its own: beside the
    /// clock, injector and hub handles, which a worker reads on every
    /// request, each call would pay one more cross-core line transfer.
    call_ids: CachePadded<AtomicU64>,
    running: AtomicBool,
    workers: Mutex<Vec<WorkerThread>>,
}

/// A value alone on its 128-byte block (two adjacent cache lines, which
/// x86 prefetches as a pair): for a word stored on every call beside
/// words read on every call.
#[derive(Debug)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

const _: () = {
    use std::mem::{align_of, size_of};
    assert!(align_of::<CachePadded<AtomicU64>>() == 128);
    assert!(size_of::<CachePadded<AtomicU64>>() == 128);
    assert!(align_of::<CachePadded<Option<OverloadPlane>>>() == 128);
    assert!(size_of::<CachePadded<Option<OverloadPlane>>>() == 128);
};

impl FrontDoor {
    /// Front door over `fallback` (whose clock and stats it shares).
    #[must_use]
    pub fn new(
        mut fallback: RegularOcall,
        faults: Option<Arc<FaultInjector>>,
        overload: Option<OverloadParams>,
        recovery: Option<RecoveryParams>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Self {
        if let Some(f) = &faults {
            fallback = fallback.with_faults(Arc::clone(f));
        }
        FrontDoor {
            clock: fallback.enclave().clock(),
            stats: Arc::clone(fallback.stats()),
            fallback,
            faults,
            overload: CachePadded(overload.map(OverloadPlane::new)),
            recovery: recovery.map(RecoveryPlane::new),
            telemetry,
            call_ids: CachePadded(AtomicU64::new(0)),
            running: AtomicBool::new(true),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// `false` once [`stop`](FrontDoor::stop) was called.
    #[inline]
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }

    /// Refuse new calls and tell service threads to wind down.
    pub fn stop(&self) {
        self.running.store(false, Ordering::Release);
    }

    /// Record one event stamped with the runtime clock from an explicit
    /// origin. One branch when no hub is attached; the clock is only
    /// read when one is.
    #[inline]
    pub fn event(&self, origin: Origin, event: Event) {
        if let Some(t) = &self.telemetry {
            t.record(self.clock.now_cycles(), origin, event);
        }
    }

    /// [`event`](FrontDoor::event) attributed to the calling (enclave
    /// application) thread.
    #[inline]
    pub fn caller_event(&self, event: Event) {
        if let Some(t) = &self.telemetry {
            t.record(self.clock.now_cycles(), t.caller_origin(), event);
        }
    }

    /// The id of one offered call (DESIGN.md §16): the journal sequence
    /// when a recovery plane is attached, else a counter of this door
    /// when a hub is, else 0 — nothing would carry it. Ids start at 1
    /// and are unique per runtime, not dense per completed call.
    #[inline]
    fn next_call_id(&self) -> u64 {
        if let Some(plane) = &self.recovery {
            plane.next_seq()
        } else if self.telemetry.is_some() {
            self.call_ids.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        }
    }

    /// Has the enclave been lost since a call captured `epoch0`? Either
    /// the loss flag is currently raised, or a full crash/restart cycle
    /// already completed (epoch moved on). Always `false` without a
    /// recovery plane.
    #[inline]
    pub fn lost_since(&self, epoch0: u64) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|plane| plane.is_lost() || plane.epoch() != epoch0)
    }

    /// Recovery epoch to capture when a call enters routing (0 without
    /// a recovery plane).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.recovery.as_ref().map_or(0, RecoveryPlane::epoch)
    }

    /// Snapshot of the overload plane (`None` when it is off).
    #[must_use]
    pub fn overload_snapshot(&self) -> Option<OverloadSnapshot> {
        self.overload.as_ref().map(OverloadPlane::snapshot)
    }

    /// Snapshot of the recovery plane (`None` when it is off).
    #[must_use]
    pub fn recovery_snapshot(&self) -> Option<RecoverySnapshot> {
        self.recovery.as_ref().map(RecoveryPlane::snapshot)
    }

    /// This runtime's row of the ledger `offered == completed + shed +
    /// abandoned + refused`, as the DES reports it per tenant: a
    /// watchdog-cancelled call was re-routed and returned its result, so
    /// it is completed, and a runtime never abandons an offered call
    /// un-issued. Exact at quiescence.
    #[must_use]
    pub fn usage(&self) -> Ledger {
        let s = self.stats.snapshot();
        Ledger {
            offered: s.issued,
            completed: s.total_calls(),
            shed: self.overload_snapshot().map_or(0, |o| o.shed_total()),
            abandoned: 0,
            refused: self
                .recovery_snapshot()
                .map_or(0, |r| r.refused_non_idempotent),
        }
    }

    /// Front-door admission: offer the call to the overload plane (when
    /// configured) and either take an in-flight token or shed with a
    /// typed [`SwitchlessError::Overloaded`]. A shed call performs no
    /// work at all — no switchless attempt, no fallback transition.
    /// Admission is the first thing a dispatch does, so it shares the
    /// recording's start stamp.
    fn overload_admit(
        &self,
        req: &OcallRequest,
        rec: &Rec,
    ) -> Result<Option<InflightGuard<'_>>, SwitchlessError> {
        let Some(plane) = &*self.overload else {
            return Ok(None);
        };
        match plane.try_admit(rec.stamp(&self.clock), req.deadline()) {
            Ok(guard) => Ok(Some(guard)),
            Err(reason) => {
                self.caller_event(Event::CallShed {
                    call: req.seq,
                    func: req.func.0,
                    reason,
                });
                Err(SwitchlessError::Overloaded { reason })
            }
        }
    }

    /// Execute the regular-ocall fallback engine and charge its cycles
    /// to the phase model: everything since the previous boundary
    /// becomes `execute`, out of which the machine's enclave-transition
    /// cost is re-attributed to `signal` (the transition *is* what a
    /// non-switchless call pays to signal the host; clamped, so
    /// conservation holds exactly).
    ///
    /// # Errors
    ///
    /// Propagates the fallback engine's errors.
    pub fn fallback_with_phases(
        &self,
        rec: &mut Rec,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<i64, SwitchlessError> {
        let ret = self
            .fallback
            .execute_transition(req, payload_in, payload_out)?;
        if let Some(r) = &mut rec.0 {
            r.mark(Phase::Execute, || self.clock.now_cycles());
            r.transfer(Phase::Execute, Phase::Signal, self.clock.spec().t_es_cycles);
        }
        Ok(ret)
    }

    /// Complete a routed call on the regular path: the would-fallback
    /// point (no idle worker, pool full, `rbf` expired, payload refused)
    /// and every safety re-route (worker crash, guard violation,
    /// poisoned slot) alike. Never gated: an admitted call completes
    /// (paper §IV-B, Take-away 7).
    ///
    /// # Errors
    ///
    /// Propagates the fallback engine's errors.
    pub fn reroute_fallback(
        &self,
        rec: &mut Rec,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<(i64, CallPath), SwitchlessError> {
        let ret = self.fallback_with_phases(rec, req, payload_in, payload_out)?;
        self.stats.record_fallback();
        Ok((ret, CallPath::Fallback))
    }

    /// Count and trace a guard violation the caller of call `call`
    /// observed on worker (or pool slot) `worker`.
    pub fn guard_violation(&self, call: u64, worker: u32, violation: GuardViolation) {
        self.stats.record_guard_violation();
        self.caller_event(Event::GuardViolation {
            call,
            worker,
            kind: violation.kind,
        });
    }

    /// Spawn worker thread `name` for slot `slot` and keep its handle
    /// for the drain. `body` receives the thread's [`Wedged`] flag.
    ///
    /// # Panics
    ///
    /// If the OS refuses to spawn the thread.
    pub fn spawn_worker(
        &self,
        slot: usize,
        name: String,
        body: impl FnOnce(&Wedged) + Send + 'static,
    ) {
        let wedged = Wedged::default();
        let flag = wedged.clone();
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || body(&flag))
            .expect("failed to spawn switchless worker");
        self.workers.lock().push(WorkerThread {
            slot,
            wedged,
            handle,
        });
    }

    /// Drain the worker threads after the runtime told them to exit.
    ///
    /// Joined-vs-abandoned is decided from published worker state, not
    /// from a deadline: a thread that marked itself [`Wedged`] is
    /// abandoned (detached, one `WorkerAbandoned` event each) at once,
    /// every other thread is waited for and joined — however long the
    /// OS takes to schedule it, and regardless of what the runtime's
    /// (possibly virtual) clock says. `backstop` of real wall time only
    /// bounds the wait against a thread that wedged without saying so.
    /// `wake` is invoked before every wait so sleeping or parked
    /// workers re-check their exit condition.
    pub fn drain(&self, backstop: Duration, wake: impl Fn()) -> DrainReport {
        let give_up_at = Instant::now() + backstop;
        let mut report = DrainReport::default();
        loop {
            // Take the handles out instead of holding the lock across
            // the wait: a dying worker may be pushing its successor.
            let batch = std::mem::take(&mut *self.workers.lock());
            if batch.is_empty() {
                break;
            }
            let timed_out = Instant::now() >= give_up_at;
            let mut waiting = Vec::new();
            for w in batch {
                if w.handle.is_finished() {
                    let _ = w.handle.join();
                    report.drained += 1;
                } else if timed_out || w.wedged.0.load(Ordering::Acquire) {
                    // Given up loudly; dropping the handle leaves the
                    // thread to die with the process.
                    report.abandoned += 1;
                    self.caller_event(Event::WorkerAbandoned {
                        worker: w.slot as u32,
                    });
                } else {
                    waiting.push(w);
                }
            }
            if !waiting.is_empty() {
                self.workers.lock().append(&mut waiting);
                wake();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.caller_event(Event::Drain {
            drained: report.drained as u64,
            abandoned: report.abandoned as u64,
        });
        report
    }
}

/// Spin until the restart the plane has begun completes: the epoch has
/// advanced past `epoch0` and the loss flag is cleared. The winner of
/// the detection race drives the restart synchronously, so this wait is
/// bounded.
fn wait_for_restart(clock: &CycleClock, plane: &RecoveryPlane, epoch0: u64) {
    let mut spins: u32 = 0;
    while plane.is_lost() || plane.epoch() == epoch0 {
        spin_pause(clock, &mut spins);
    }
}

/// Whole-enclave restart, driven by the one thread that won the loss
/// detection race ([`RecoveryPlane::begin_crash`]): fence the dead
/// incarnation's workers, pay the rebuild cost on the clock, bring up
/// the new incarnation's workers, and reopen the plane under a new
/// epoch. Blocked callers observe the epoch change and reconcile their
/// own calls against the journal.
///
/// # Panics
///
/// If the transport has no recovery plane.
fn enclave_restart<T: Transport>(t: &T) {
    let door = t.door();
    let plane = door
        .recovery
        .as_ref()
        .expect("enclave restart without a recovery plane");
    t.fence_workers();
    door.clock
        .advance_cycles(plane.params().restart_cycles.max(1));
    t.respawn_workers();
    plane.complete_restart();
    plane.resume();
}

/// The calling thread observed an enclave crash: win the detection race
/// and drive the restart, or wait for the winner's.
fn crash_or_wait<T: Transport>(t: &T, plane: &RecoveryPlane) {
    let epoch0 = plane.epoch();
    if plane.begin_crash() {
        t.door().caller_event(Event::EnclaveCrash { epoch: epoch0 });
        enclave_restart(t);
    } else {
        wait_for_restart(&t.door().clock, plane, epoch0);
    }
}

/// A routing call found the enclave lost under it (see
/// [`FrontDoor::lost_since`]): close its wait phase, sit out the
/// restart and reconcile against the journal.
///
/// # Errors
///
/// See `recover_call`'s verdicts.
///
/// # Panics
///
/// If the transport has no recovery plane.
pub fn recover_lost<T: Transport>(
    t: &T,
    epoch0: u64,
    req: &OcallRequest,
    payload_in: &[u8],
    payload_out: &mut Vec<u8>,
    rec: &mut Rec,
) -> Result<(i64, CallPath), SwitchlessError> {
    let door = t.door();
    let plane = door
        .recovery
        .as_ref()
        .expect("enclave loss without a recovery plane");
    rec.mark(Phase::Wait, &door.clock);
    wait_for_restart(&door.clock, plane, epoch0);
    recover_call(t, plane, req, payload_in, payload_out, rec)
}

/// Reconcile one lost in-flight call against the journal after the
/// enclave restarted, and act on the verdict:
///
/// * `Replay` — the intent was journaled but no completion: re-execute
///   through the regular-ocall engine (this caller still holds the
///   payload), journal the completion, and deliver. Exactly-once holds
///   because the journal proves the host function never ran.
/// * `Redeliver` — a completion was journaled but the reply never
///   reached the caller: return the recorded result without touching
///   the host function again.
/// * `Refuse` — the call is non-idempotent and execution state is
///   unknowable: surface the typed [`SwitchlessError::EnclaveLost`].
fn recover_call<T: Transport>(
    t: &T,
    plane: &RecoveryPlane,
    req: &OcallRequest,
    payload_in: &[u8],
    payload_out: &mut Vec<u8>,
    rec: &mut Rec,
) -> Result<(i64, CallPath), SwitchlessError> {
    let door = t.door();
    match plane.reconcile_with_class(req.seq, req.idempotency_class()) {
        ReconcileVerdict::Replay => {
            door.caller_event(Event::JournalReplay { seq: req.seq });
            let ret = door.fallback_with_phases(rec, req, payload_in, payload_out)?;
            plane.record_completion(req.seq, ret, payload_out.len() as u32);
            // Crash-during-replay site: the enclave dies again right
            // after the replay journaled its completion. The second
            // reconciliation downgrades to Redeliver — the recorded
            // result is returned and the host function never runs a
            // second time.
            let replay = door.faults.as_ref().and_then(|f| f.fire(FaultSite::Replay));
            if replay.is_some() {
                crash_or_wait(t, plane);
                return recover_call(t, plane, req, payload_in, payload_out, rec);
            }
            plane.retire(req.seq);
            door.stats.record_fallback();
            Ok((ret, CallPath::Fallback))
        }
        ReconcileVerdict::Redeliver => {
            door.caller_event(Event::CallRedelivered { seq: req.seq });
            let ret = match plane.entry(req.seq).map(|e| e.state) {
                Some(EntryState::Completed { ret, .. }) => ret,
                // Unreachable by construction (Redeliver only comes
                // from a Completed entry), but never panic on the
                // recovery path.
                _ => 0,
            };
            // `payload_out` already holds the replayed output: the
            // redelivery window only opens after a replay's own
            // completion was journaled (crash-during-replay).
            plane.retire(req.seq);
            door.stats.record_fallback();
            Ok((ret, CallPath::Fallback))
        }
        ReconcileVerdict::Refuse => {
            door.caller_event(Event::CallRefused { seq: req.seq });
            plane.retire(req.seq);
            Err(SwitchlessError::EnclaveLost {
                in_flight_seq: req.seq,
            })
        }
    }
}

/// Dispatch one ocall through the front door and transport `t`.
///
/// With no hub attached this is the bare pipeline. With one, the caller
/// reads the clock at phase boundaries (six reads on a switchless call:
/// start, four marks, finish — the planes in between reuse those
/// stamps, see [`Rec::stamp`]), adds the per-phase breakdown to its own
/// shard of the hub's `CallPhaseProfiler`, and records one
/// `CallPhases` event carrying the call's id (one ring push, no locks,
/// no heap allocation).
///
/// # Errors
///
/// [`SwitchlessError::RuntimeStopped`] after shutdown,
/// [`SwitchlessError::Overloaded`] when shed,
/// [`SwitchlessError::EnclaveLost`] when reconciliation refuses a
/// non-idempotent call, or whatever routing surfaces.
pub fn dispatch<T: Transport>(
    t: &T,
    req: &OcallRequest,
    payload_in: &[u8],
    payload_out: &mut Vec<u8>,
) -> Result<(i64, CallPath), SwitchlessError> {
    let door = t.door();
    let stamped;
    let req = match door.next_call_id() {
        0 => req,
        id => {
            stamped = req.with_seq(id);
            &stamped
        }
    };
    let Some(hub) = &door.telemetry else {
        return admit_and_route(t, req, payload_in, payload_out, &mut Rec(None));
    };
    let start = door.clock.now_cycles();
    let mut rec = Rec(Some(PhaseRecorder::start(|| start)));
    let result = admit_and_route(t, req, payload_in, payload_out, &mut rec);
    if let (Ok((_, path)), Some(r)) = (&result, rec.0) {
        let (phases, total) = r.finish(|| door.clock.now_cycles());
        hub.profile().record_call(*path, total, &phases);
        hub.record(
            start.saturating_add(total),
            hub.caller_origin(),
            Event::CallPhases {
                call: req.seq,
                func: req.func.0,
                path: *path,
                phases,
            },
        );
    }
    result
}

/// The plane pipeline itself (module docs, steps 1–7).
fn admit_and_route<T: Transport>(
    t: &T,
    req: &OcallRequest,
    payload_in: &[u8],
    payload_out: &mut Vec<u8>,
    rec: &mut Rec,
) -> Result<(i64, CallPath), SwitchlessError> {
    let door = t.door();
    if !door.is_running() {
        return Err(SwitchlessError::RuntimeStopped);
    }
    door.stats.record_issued();
    // The guard holds one unit of the queue-depth gate until this
    // dispatch returns (any path, including errors).
    let _inflight = door.overload_admit(req, rec)?;
    if t.pinned_regular(req, payload_in.len()) {
        let ret = door.fallback_with_phases(rec, req, payload_in, payload_out)?;
        door.stats.record_regular();
        return Ok((ret, CallPath::Regular));
    }
    if let Some(faults) = &door.faults {
        if faults.fire(FaultSite::Dispatch).is_some() {
            door.clock.advance_cycles(faults.cycles(Fault::ClockSkew));
            door.caller_event(Event::Fault {
                kind: Fault::ClockSkew,
            });
        }
    }
    // Recovery plane: journal the call's intent under its id, so
    // whatever happens to the enclave from here on, the reconciliation
    // after a restart can classify this call. A
    // slot collision (journal full) leaves the call uncovered rather
    // than failing it — the journal is sized far above any realistic
    // in-flight population. This is also the injector's enclave fault
    // site: a scheduled crash fires while exactly this call is in
    // flight.
    let Some(plane) = &door.recovery else {
        return t.route(req, payload_in, payload_out, rec);
    };
    let _covered = plane.record_intent(req.seq, req.idempotency_class());
    if let Some(faults) = &door.faults {
        match faults.fire(FaultSite::EnclaveCall) {
            Some(Fault::EnclaveCrash) => {
                crash_or_wait(t, plane);
                return recover_call(t, plane, req, payload_in, payload_out, rec);
            }
            Some(stall) => {
                door.clock.advance_cycles(faults.cycles(stall));
                door.caller_event(Event::Fault { kind: stall });
            }
            None => {}
        }
    }
    let result = t.route(req, payload_in, payload_out, rec);
    // Retire on every outcome: either the call completed (reply
    // delivered, journal entry dead) or it failed with a typed error
    // and is no longer in flight. Recovery's own paths have already
    // retired — retire is idempotent.
    plane.retire(req.seq);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Enclave;
    use switchless_core::{CpuSpec, OcallTable};

    /// ROADMAP item 0: on a virtual clock the old drain burned its
    /// deadline in loop iterations that cost no wall time, so a healthy
    /// thread the OS had not scheduled yet was counted as abandoned.
    #[test]
    fn drain_joins_slow_exits_and_abandons_only_self_marked_wedges() {
        let enclave = Enclave::new_virtual(CpuSpec::paper_machine());
        let fallback = RegularOcall::new(Arc::new(OcallTable::new()), enclave);
        let door = Arc::new(FrontDoor::new(fallback, None, None, None, None));
        let d = Arc::clone(&door);
        door.spawn_worker(0, "slow-exit".into(), move |_| {
            while d.is_running() {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(50));
        });
        door.spawn_worker(1, "wedged".into(), |wedged| {
            wedged.mark();
            loop {
                std::thread::park();
            }
        });
        door.stop();
        let backstop = Duration::from_secs(60);
        let t0 = Instant::now();
        let report = door.drain(backstop, || {});
        assert_eq!(
            report,
            DrainReport {
                drained: 1,
                abandoned: 1
            }
        );
        assert!(
            t0.elapsed() < backstop / 2,
            "state, not the backstop, decided"
        );
    }
}
