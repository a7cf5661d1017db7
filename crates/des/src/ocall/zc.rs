//! ZC-SWITCHLESS as a virtual-thread protocol.
//!
//! Mirrors the real runtime in `zc-switchless`: callers claim an `UNUSED`
//! worker (atomic within one kernel step), copy the payload into the
//! worker's untrusted pool (reallocated via one transition when full),
//! post the request and spin; with no idle worker they fall back
//! *immediately*. Workers idle-spin on a doorbell flag; the scheduler
//! actor hosts the identical [`SchedulerDriver`] step the real runtime's
//! scheduler thread does, probing worker counts every configuration
//! phase and parking surplus workers.

use super::prof::{Phase, Prof};
use super::{CallDesc, CostModel, Dispatcher, Step};
use crate::kernel::{FlagId, Kernel, SpinTarget, StepCx, Syscall, SyscallResult, Tid};
use crate::metrics::SimCounters;
use std::cell::RefCell;
use std::rc::Rc;
use switchless_core::config::{COLLECT_CYCLES, HANDOFF_CYCLES};
use switchless_core::policy::PolicyParams;
use switchless_core::stats::WorkerResidency;
use switchless_core::{
    CallPath, Fault, FaultInjector, FaultPlan, FaultSchedule, FaultSite, GuardKind,
    ReconcileVerdict, RecoveryParams, RecoveryPlane, WorkerState,
};
use zc_telemetry::SchedulerDriver;

/// Scheduler command posted to a worker (DES model: no exit — the driver
/// simply stops the simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Keep polling.
    Run,
    /// Park when next idle.
    Deactivate,
}

/// Shared state of one simulated worker.
#[derive(Debug)]
pub struct WorkerSt {
    /// Paper state machine word.
    pub state: WorkerState,
    /// Scheduler command.
    pub cmd: Cmd,
    /// Host-function duration of the posted request.
    pub host_cycles: u64,
    /// Result bytes of the posted request.
    pub ret_bytes: u64,
    /// Caller index owning the current request.
    pub caller: usize,
    /// Bytes bump-allocated in this worker's untrusted pool.
    pub pool_used: u64,
    /// Worker crashed or hung: it serves nothing until revived by the
    /// supervisor.
    pub dead: bool,
    /// The in-flight request was cancelled by the caller's watchdog; a
    /// late completion must be discarded, never published.
    pub cancelled: bool,
    /// A dead worker's actor has actually parked — only then is the slot
    /// safe to revive (no compute still draining on it).
    pub parked_dead: bool,
}

/// Shared ZC protocol state.
#[derive(Debug)]
pub struct ZcWorld {
    /// Per-worker protocol state.
    pub workers: Vec<WorkerSt>,
    /// Worker thread ids (filled at spawn).
    pub worker_tids: Vec<Tid>,
    /// Worker doorbells (rung on request post, on scheduler commands, and
    /// on a release that a posted Deactivate waits for).
    pub worker_db: Vec<FlagId>,
    /// Authoritative doorbell counters (actors cannot read kernel flags).
    pub worker_db_val: Vec<u64>,
    /// Caller doorbells (rung on request completion).
    pub caller_db: Vec<FlagId>,
    /// Authoritative caller doorbell counters.
    pub caller_db_val: Vec<u64>,
    /// Per-worker untrusted pool capacity in bytes.
    pub pool_bytes: u64,
    /// Worker count of the current scheduler step.
    pub active_workers: usize,
    /// Externally imposed ceiling on the scheduler's worker count
    /// (fleet bulkhead): the scheduler clamps every step to this cap, so
    /// a fleet allocator can bound this shard's share of a global
    /// worker budget. Takes effect at the next scheduler step.
    pub worker_cap: usize,
    /// Worker-count residency histogram (paper §V-B).
    pub residency: WorkerResidency,
    /// Whether this shard's scheduler has completed a configuration
    /// phase: until it has, the fleet controller leaves its cap alone.
    pub decided: bool,
    /// Injected crashes applied so far.
    pub crashes: u64,
    /// Injected hangs applied so far.
    pub hangs: u64,
    /// Worker slots recovered (supervisor revivals plus self-recoveries
    /// of live workers whose call was watchdog-cancelled).
    pub respawns: u64,
    /// In-flight calls cancelled by caller watchdogs.
    pub cancelled: u64,
    /// Byzantine corruptions detected by the trusted-side guards (each
    /// quarantines its worker slot until revival).
    pub guard_violations: u64,
    /// Enclave recovery plane (durable call journal + restart policy).
    /// Built only when the fault schedule injects enclave faults, so
    /// fault-free and worker-only-fault runs are byte-identical to a
    /// world without the recovery machinery.
    pub recovery: Option<RecoveryPlane>,
    /// Evaluator of the schedule's enclave [`FaultPlan`], fired at the
    /// `EnclaveCall` site once per journaled dispatch and at the
    /// `Replay` site once per replay (site indices are global across
    /// callers). Empty unless the schedule injects enclave faults.
    enclave_faults: FaultInjector,
    /// The enclave lifecycle actor's tid (unparked by a crash trigger).
    pub enclave_tid: Option<Tid>,
    /// A crash trigger fired; the enclave actor consumes this and
    /// walks fence → restart → reconcile-ready.
    pub crash_pending: bool,
    /// Virtual time the most recent restart completed.
    pub last_restart_done_at: u64,
    /// Set at restart completion; the next completed call (any path)
    /// records restart-to-first-completion and clears it.
    pub awaiting_first_completion: bool,
    /// Restart-to-first-completion latencies, one per restart (cycles).
    pub restart_to_first_completion: Vec<u64>,
    /// Crash-detection-to-resolution latencies of calls that straddled
    /// a crash and were redelivered or replayed (cycles).
    pub redelivery_cycles: Vec<u64>,
}

impl ZcWorld {
    /// Build the world and allocate its kernel flags.
    pub fn new(
        kernel: &mut Kernel,
        max_workers: usize,
        callers: usize,
        pool_bytes: u64,
    ) -> Rc<RefCell<ZcWorld>> {
        let workers = (0..max_workers)
            .map(|_| WorkerSt {
                state: WorkerState::Unused,
                cmd: Cmd::Run,
                host_cycles: 0,
                ret_bytes: 0,
                caller: usize::MAX,
                pool_used: 0,
                dead: false,
                cancelled: false,
                parked_dead: false,
            })
            .collect();
        let worker_db = (0..max_workers).map(|_| kernel.new_flag(0)).collect();
        let caller_db = (0..callers).map(|_| kernel.new_flag(0)).collect();
        Rc::new(RefCell::new(ZcWorld {
            workers,
            worker_tids: Vec::new(),
            worker_db,
            worker_db_val: vec![0; max_workers],
            caller_db,
            caller_db_val: vec![0; callers],
            pool_bytes,
            active_workers: 0,
            worker_cap: max_workers,
            residency: WorkerResidency::new(max_workers),
            decided: false,
            crashes: 0,
            hangs: 0,
            respawns: 0,
            cancelled: 0,
            guard_violations: 0,
            recovery: None,
            enclave_faults: FaultInjector::new(FaultPlan::new()),
            enclave_tid: None,
            crash_pending: false,
            last_restart_done_at: 0,
            awaiting_first_completion: false,
            restart_to_first_completion: Vec::new(),
            redelivery_cycles: Vec::new(),
        }))
    }

    /// An idle live worker the scheduler still counts in `M`. A worker
    /// told to `Deactivate` parks only when it next runs while UNUSED,
    /// so claiming it in the meantime would keep it serving forever.
    fn find_unused(&self) -> Option<usize> {
        self.workers
            .iter()
            .position(|w| w.state == WorkerState::Unused && !w.dead && w.cmd == Cmd::Run)
    }

    /// Install the enclave-fault schedule and build its recovery plane.
    /// A schedule without enclave faults leaves the world untouched.
    pub fn install_enclave_faults(&mut self, faults: &ZcSimFaults) {
        if !faults.has_enclave_faults() {
            return;
        }
        self.enclave_faults = FaultInjector::new(faults.enclave_faults.clone());
        self.recovery = Some(RecoveryPlane::new(
            RecoveryParams::default().with_restart_cycles(faults.enclave_restart_cycles),
        ));
    }

    /// Note one completed call: the first after a restart records the
    /// restart-to-first-completion latency. No-op outside recovery.
    fn note_completion(&mut self, now: u64) {
        if self.awaiting_first_completion {
            self.awaiting_first_completion = false;
            self.restart_to_first_completion
                .push(now.saturating_sub(self.last_restart_done_at));
        }
    }

    /// `true` from a crash trigger until its restart completes.
    fn loss_in_progress(&self) -> bool {
        self.crash_pending || self.recovery.as_ref().is_some_and(|p| p.is_lost())
    }

    /// `true` while the enclave is lost or restarting, or already moved
    /// past the epoch an in-flight call was journaled under.
    fn enclave_lost_since(&self, epoch0: u64) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|p| p.is_lost() || p.epoch() != epoch0)
    }
}

/// Per-caller ZC dialogue.
#[derive(Debug)]
pub struct ZcDispatcher {
    world: Rc<RefCell<ZcWorld>>,
    counters: Rc<RefCell<SimCounters>>,
    costs: CostModel,
    caller: usize,
    dialog: Dialog,
    await_db_val: u64,
    /// Caller watchdog: on-CPU pauses spent awaiting completion before
    /// the in-flight call is cancelled and re-routed (None = wait
    /// forever, the fault-free default).
    watchdog_pauses: Option<u64>,
    prof: Prof,
    /// Journal sequence of the in-flight call (0 = nothing journaled;
    /// the plane's sequences start at 1).
    call_seq: u64,
    /// Recovery epoch sampled when the in-flight call was journaled.
    call_epoch0: u64,
    /// Virtual time this caller detected the enclave loss.
    crash_detected_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialog {
    Idle,
    /// Copying the payload into the claimed worker's pool.
    Post {
        w: usize,
    },
    /// Spinning for completion (the worker's doorbell was rung).
    Await {
        w: usize,
    },
    /// Copying results back (the worker's doorbell was rung on release
    /// if a Deactivate waits for it).
    Collect,
    /// Executing the fallback regular ocall.
    FallbackExec,
    /// Stalled by an injected enclave stall before the dialogue opens.
    StallThenBegin,
    /// Spinning until the enclave restart bumps the recovery epoch.
    AwaitRestart,
    /// Asking the post-restart journal for the in-flight call's fate.
    Reconcile,
    /// Re-executing a replayed idempotent call on the regular path.
    ReplayExec,
}

impl ZcDispatcher {
    /// Dialogue driver for `caller`. With a hub, every completed call
    /// accumulates its per-phase cycle breakdown into the hub's
    /// [`CallPhaseProfiler`](zc_telemetry::CallPhaseProfiler) and is
    /// traced as a `call_phases` event at
    /// [`Origin::Caller`](zc_telemetry::Origin::Caller), as are this
    /// caller's recovery events, all stamped with kernel virtual time.
    #[must_use]
    pub fn new(
        world: Rc<RefCell<ZcWorld>>,
        counters: Rc<RefCell<SimCounters>>,
        costs: CostModel,
        caller: usize,
        watchdog_pauses: Option<u64>,
        telemetry: Option<std::sync::Arc<zc_telemetry::Telemetry>>,
    ) -> Self {
        ZcDispatcher {
            world,
            counters,
            costs,
            caller,
            dialog: Dialog::Idle,
            await_db_val: 0,
            watchdog_pauses,
            prof: Prof::new(telemetry, caller),
            call_seq: 0,
            call_epoch0: 0,
            crash_detected_at: 0,
        }
    }

    /// Recovery-plane prologue of one dispatch: journal the call's
    /// intent, fire the `EnclaveCall` site, and divert to the
    /// restart-await path when the enclave is already lost. Returns
    /// `None` when the dialogue opens normally. Only called when the
    /// world carries a recovery plane.
    fn begin_recovery(&mut self, call: &CallDesc, now: u64, cx: &mut StepCx) -> Option<Syscall> {
        let world = Rc::clone(&self.world);
        let mut wld = world.borrow_mut();
        {
            let plane = wld.recovery.as_ref().expect("caller checked presence");
            self.call_seq = plane.next_seq();
            self.prof.set_call(self.call_seq);
            self.call_epoch0 = plane.epoch();
            plane.record_intent(self.call_seq, call.idempotency_class());
        }
        let fault = wld.enclave_faults.fire(FaultSite::EnclaveCall);
        if wld.loss_in_progress() {
            // A crash (scheduled here or detected by another caller) is
            // still recovering: this dispatch folds into it and waits
            // for the epoch bump like every other straddling call.
            self.crash_detected_at = now;
            return Some(self.await_restart(&mut wld));
        }
        match fault {
            Some(Fault::EnclaveCrash) => Some(self.trigger_crash(&mut wld, now, cx)),
            Some(Fault::EnclaveStall) => {
                // The enclave stalls (an AEX storm, paging) but is not
                // lost: the dialogue opens once the stall drains.
                self.dialog = Dialog::StallThenBegin;
                let cycles = wld.enclave_faults.cycles(Fault::EnclaveStall);
                Some(Syscall::Compute(cycles.max(1)))
            }
            _ => None,
        }
    }

    /// Trip the crash trigger: mark the restart pending and wake the
    /// enclave actor to fence and restart. This caller then awaits the
    /// epoch bump like any other in-flight caller.
    fn trigger_crash(&mut self, wld: &mut ZcWorld, now: u64, cx: &mut StepCx) -> Syscall {
        wld.crash_pending = true;
        self.crash_detected_at = now;
        if let Some(plane) = &wld.recovery {
            self.prof.trace(
                now,
                zc_telemetry::Event::EnclaveCrash {
                    epoch: plane.epoch(),
                },
            );
        }
        cx.unpark(wld.enclave_tid.expect("enclave actor spawned with faults"));
        self.await_restart(wld)
    }

    /// Arm a spin on this caller's doorbell until the enclave actor
    /// completes the restart (it rings every caller doorbell), or move
    /// straight to reconciliation when the epoch already advanced.
    fn await_restart(&mut self, wld: &mut ZcWorld) -> Syscall {
        self.await_db_val = wld.caller_db_val[self.caller];
        let restarted = wld
            .recovery
            .as_ref()
            .is_some_and(|p| !p.is_lost() && p.epoch() != self.call_epoch0);
        if restarted {
            self.dialog = Dialog::Reconcile;
            return Syscall::Compute(1);
        }
        let flag = wld.caller_db[self.caller];
        self.dialog = Dialog::AwaitRestart;
        Syscall::SpinUntil {
            flag,
            target: SpinTarget::Ne(self.await_db_val),
            timeout_pauses: None,
        }
    }

    /// Release worker slot `w` after an enclave loss: a published
    /// result is discarded (the journal, not the worker buffer, is the
    /// source of truth across a restart) and an in-flight execution is
    /// poisoned so its late completion is never published.
    fn abandon_slot(wld: &mut ZcWorld, w: usize, caller: usize) {
        let st = &mut wld.workers[w];
        if st.caller != caller {
            return; // the slot moved on (e.g. already self-recovered)
        }
        match st.state {
            WorkerState::Waiting => {
                st.state = WorkerState::Unused;
                st.caller = usize::MAX;
            }
            WorkerState::Processing | WorkerState::Reserved => {
                st.cancelled = true;
            }
            _ => {}
        }
    }

    /// Journal the normal-path completion and retire the entry (the
    /// real runtimes journal the reply before delivering it). No-op
    /// without a recovery plane.
    fn complete_journaled(&mut self, call: &CallDesc, now: u64) {
        let mut wld = self.world.borrow_mut();
        if let Some(plane) = &wld.recovery {
            plane.record_completion(self.call_seq, 0, call.ret_bytes as u32);
            plane.retire(self.call_seq);
        }
        wld.note_completion(now);
    }
}

impl ZcDispatcher {
    /// Open the ZC dialogue proper: claim an idle worker or fall back
    /// immediately (the recovery prologue, if any, already ran).
    fn begin_dialogue(&mut self, call: &CallDesc) -> Syscall {
        let mut wld = self.world.borrow_mut();
        let Some(w) = wld.find_unused() else {
            // No idle worker: immediate fallback, no busy-wait.
            self.dialog = Dialog::FallbackExec;
            return Syscall::Compute(self.costs.regular_call_cycles(call));
        };
        // Claim (UNUSED -> RESERVED is atomic within this step).
        wld.workers[w].state = WorkerState::Reserved;
        wld.workers[w].caller = self.caller;
        if call.payload_bytes > wld.pool_bytes {
            // Larger than the pool: release and fall back.
            wld.workers[w].state = WorkerState::Unused;
            self.dialog = Dialog::FallbackExec;
            return Syscall::Compute(self.costs.regular_call_cycles(call));
        }
        // Pool allocation; exhaustion costs one reallocation transition.
        let mut extra = 0;
        if wld.workers[w].pool_used + call.payload_bytes > wld.pool_bytes {
            wld.workers[w].pool_used = call.payload_bytes;
            self.counters.borrow_mut().pool_reallocs += 1;
            extra = self.costs.t_es_cycles;
        } else {
            wld.workers[w].pool_used += call.payload_bytes;
        }
        self.dialog = Dialog::Post { w };
        Syscall::Compute(HANDOFF_CYCLES + self.costs.copy_cycles(call.payload_bytes) + extra)
    }
}

impl Dispatcher for ZcDispatcher {
    fn begin(&mut self, call: &CallDesc, now: u64, cx: &mut StepCx) -> Syscall {
        debug_assert_eq!(self.dialog, Dialog::Idle, "begin during an active dialogue");
        self.prof.begin(now);
        if self.world.borrow().recovery.is_some() {
            if let Some(diverted) = self.begin_recovery(call, now, cx) {
                return diverted;
            }
        }
        self.begin_dialogue(call)
    }

    fn advance(&mut self, call: &CallDesc, res: SyscallResult, now: u64, cx: &mut StepCx) -> Step {
        debug_assert!(
            res == SyscallResult::Ok || matches!(self.dialog, Dialog::Await { .. }),
            "only the watchdog-armed await may time out"
        );
        match self.dialog {
            Dialog::Post { w } => {
                // The finished compute was handoff + payload copy (+ any
                // realloc transition, left in copy-in).
                self.prof.mark(Phase::CopyIn, now);
                self.prof
                    .transfer(Phase::CopyIn, Phase::Reserve, HANDOFF_CYCLES);
                let mut wld = self.world.borrow_mut();
                debug_assert_eq!(wld.workers[w].state, WorkerState::Reserved);
                wld.workers[w].state = WorkerState::Processing;
                wld.workers[w].host_cycles = call.host_cycles;
                wld.workers[w].ret_bytes = call.ret_bytes;
                // Sample my own doorbell BEFORE ringing the worker so the
                // completion ring can never be missed.
                self.await_db_val = wld.caller_db_val[self.caller];
                wld.worker_db_val[w] += 1;
                cx.set_flag(wld.worker_db[w], wld.worker_db_val[w]);
                self.prof.mark(Phase::Signal, now);
                self.dialog = Dialog::Await { w };
                Step::Next(Syscall::SpinUntil {
                    flag: wld.caller_db[self.caller],
                    target: SpinTarget::Ne(self.await_db_val),
                    timeout_pauses: self.watchdog_pauses,
                })
            }
            Dialog::Await { w } => {
                self.prof.mark(Phase::Wait, now);
                let world = Rc::clone(&self.world);
                let mut wld = world.borrow_mut();
                if wld.enclave_lost_since(self.call_epoch0) {
                    // The enclave died under this call. Abandon the
                    // worker slot (the journal, not its buffer, is the
                    // source of truth now) and let reconciliation
                    // decide the call's fate after the restart.
                    self.crash_detected_at = now;
                    Self::abandon_slot(&mut wld, w, self.caller);
                    return Step::Next(self.await_restart(&mut wld));
                }
                if res == SyscallResult::TimedOut {
                    // Watchdog cancellation: the worker crashed, hung, or
                    // overran the deadline. Poison the in-flight request
                    // so a late completion is discarded (never published),
                    // then re-route to the regular path. The slot stays
                    // quarantined until the supervisor revives it (or the
                    // still-live worker self-recovers).
                    wld.workers[w].cancelled = true;
                    wld.cancelled += 1;
                    drop(wld);
                    self.counters.borrow_mut().cancelled += 1;
                    self.dialog = Dialog::FallbackExec;
                    return Step::Next(Syscall::Compute(self.costs.regular_call_cycles(call)));
                }
                debug_assert_eq!(
                    wld.workers[w].state,
                    WorkerState::Waiting,
                    "caller woke before the worker published results"
                );
                // The completion spin covered the worker's host-function
                // run: carve the modelled execute time out of the wait.
                self.prof.set_execute_hint(call.host_cycles);
                wld.workers[w].state = WorkerState::Unused;
                // A scheduler Deactivate posted while the worker executed
                // found it off its doorbell, and the worker re-reads its
                // command word only when rung: ring it so it parks. A
                // worker told to keep running has nothing to re-read.
                if wld.workers[w].cmd == Cmd::Deactivate {
                    wld.worker_db_val[w] += 1;
                    cx.set_flag(wld.worker_db[w], wld.worker_db_val[w]);
                }
                self.dialog = Dialog::Collect;
                Step::Next(Syscall::Compute(
                    COLLECT_CYCLES + self.costs.copy_cycles(call.ret_bytes),
                ))
            }
            Dialog::Collect => {
                // Release + collect + result copy land in copy-out (the
                // finish residual).
                self.complete_journaled(call, now);
                self.prof.complete(call.class, CallPath::Switchless, now);
                self.dialog = Dialog::Idle;
                Step::Complete(CallPath::Switchless)
            }
            Dialog::FallbackExec => {
                // One regular-call compute. A watchdog-cancelled call
                // keeps its dead spin in the wait phase.
                self.complete_journaled(call, now);
                let path = CallPath::Fallback;
                self.prof
                    .complete_regular(&self.costs, call, call.payload_bytes, path, now);
                self.dialog = Dialog::Idle;
                Step::Complete(path)
            }
            Dialog::StallThenBegin => {
                // The injected stall drained. If the enclave was also
                // lost meanwhile, straddle into recovery; otherwise the
                // dialogue opens as if nothing happened.
                if self.world.borrow().enclave_lost_since(self.call_epoch0) {
                    self.crash_detected_at = now;
                    let world = Rc::clone(&self.world);
                    let mut wld = world.borrow_mut();
                    return Step::Next(self.await_restart(&mut wld));
                }
                Step::Next(self.begin_dialogue(call))
            }
            Dialog::AwaitRestart => {
                // Rung — either by the restarted enclave or by a stale
                // pre-crash completion. `await_restart` re-checks the
                // epoch and re-arms if the restart is not done yet.
                let world = Rc::clone(&self.world);
                let mut wld = world.borrow_mut();
                Step::Next(self.await_restart(&mut wld))
            }
            Dialog::Reconcile => {
                self.prof.mark(Phase::Wait, now);
                let mut wld = self.world.borrow_mut();
                let verdict = {
                    let plane = wld.recovery.as_ref().expect("reconcile implies recovery");
                    plane.reconcile_with_class(self.call_seq, call.idempotency_class())
                };
                match verdict {
                    ReconcileVerdict::Replay => {
                        // Idempotent and incomplete at the crash:
                        // re-execute through the regular path.
                        self.prof.trace(
                            now,
                            zc_telemetry::Event::JournalReplay { seq: self.call_seq },
                        );
                        drop(wld);
                        self.dialog = Dialog::ReplayExec;
                        Step::Next(Syscall::Compute(self.costs.regular_call_cycles(call)))
                    }
                    ReconcileVerdict::Redeliver => {
                        // Completed before the crash but never
                        // delivered: hand back the journaled result
                        // without re-executing anything.
                        self.prof.trace(
                            now,
                            zc_telemetry::Event::CallRedelivered { seq: self.call_seq },
                        );
                        if let Some(plane) = &wld.recovery {
                            plane.retire(self.call_seq);
                        }
                        let dt = now.saturating_sub(self.crash_detected_at);
                        wld.redelivery_cycles.push(dt);
                        wld.note_completion(now);
                        drop(wld);
                        self.prof.complete(call.class, CallPath::Fallback, now);
                        self.dialog = Dialog::Idle;
                        Step::Complete(CallPath::Fallback)
                    }
                    ReconcileVerdict::Refuse => {
                        // Non-idempotent with an unknown fate: neither
                        // completing nor re-executing is provably safe.
                        self.prof
                            .trace(now, zc_telemetry::Event::CallRefused { seq: self.call_seq });
                        if let Some(plane) = &wld.recovery {
                            plane.retire(self.call_seq);
                        }
                        drop(wld);
                        self.prof.discard();
                        self.dialog = Dialog::Idle;
                        Step::Refused
                    }
                }
            }
            Dialog::ReplayExec => {
                // The re-executed host call finished. Journal the
                // completion BEFORE firing the `Replay` site, so a
                // second loss redelivers the recorded result instead
                // of executing a third time.
                let world = Rc::clone(&self.world);
                let mut wld = world.borrow_mut();
                if let Some(plane) = &wld.recovery {
                    plane.record_completion(self.call_seq, 0, call.ret_bytes as u32);
                }
                let fault = wld.enclave_faults.fire(FaultSite::Replay);
                if fault == Some(Fault::EnclaveReplayCrash) && !wld.loss_in_progress() {
                    return Step::Next(self.trigger_crash(&mut wld, now, cx));
                }
                if let Some(plane) = &wld.recovery {
                    plane.retire(self.call_seq);
                }
                let dt = now.saturating_sub(self.crash_detected_at);
                wld.redelivery_cycles.push(dt);
                wld.note_completion(now);
                drop(wld);
                // Same phase attribution as a fallback execution.
                let path = CallPath::Fallback;
                self.prof
                    .complete_regular(&self.costs, call, call.payload_bytes, path, now);
                self.dialog = Dialog::Idle;
                Step::Complete(path)
            }
            Dialog::Idle => unreachable!("advance without an active dialogue"),
        }
    }

    fn name(&self) -> &'static str {
        "zc"
    }
}

/// Worker actor of the ZC model.
#[derive(Debug)]
pub struct ZcWorkerActor {
    world: Rc<RefCell<ZcWorld>>,
    idx: usize,
    executing: bool,
}

impl ZcWorkerActor {
    /// Worker actor for slot `idx`.
    #[must_use]
    pub fn new(world: Rc<RefCell<ZcWorld>>, idx: usize) -> Self {
        ZcWorkerActor {
            world,
            idx,
            executing: false,
        }
    }
}

impl crate::kernel::Actor for ZcWorkerActor {
    fn step(&mut self, _res: SyscallResult, _now: u64, cx: &mut StepCx) -> Syscall {
        let mut wld = self.world.borrow_mut();
        let idx = self.idx;
        if self.executing {
            self.executing = false;
            if !wld.workers[idx].cancelled && !wld.workers[idx].dead {
                // Host function finished: publish results, ring the
                // caller, then back to the doorbell below.
                debug_assert_eq!(wld.workers[idx].state, WorkerState::Processing);
                wld.workers[idx].state = WorkerState::Waiting;
                let caller = wld.workers[idx].caller;
                wld.caller_db_val[caller] += 1;
                cx.set_flag(wld.caller_db[caller], wld.caller_db_val[caller]);
            } else if !wld.workers[idx].dead {
                // Cancelled by the caller's watchdog, still alive — the
                // caller merely gave up on a slow call. The results are
                // discarded, never published (a crashed worker's too),
                // and the slot self-recovers onto a fresh buffer (the
                // real runtime's supervisor respawn after a watchdog
                // cancel).
                let w = &mut wld.workers[idx];
                w.state = WorkerState::Unused;
                w.cancelled = false;
                w.pool_used = 0;
                w.caller = usize::MAX;
                wld.respawns += 1;
            }
        }
        if wld.workers[idx].dead {
            // Crashed or hung: park until the supervisor revives us. The
            // flag tells the supervisor no compute is draining on this
            // slot, so it is safe to reset.
            wld.workers[idx].parked_dead = true;
            return Syscall::Park;
        }
        match wld.workers[idx].state {
            WorkerState::Processing => {
                self.executing = true;
                Syscall::Compute(wld.workers[idx].host_cycles)
            }
            WorkerState::Unused if wld.workers[idx].cmd == Cmd::Deactivate => {
                wld.workers[idx].state = WorkerState::Paused;
                Syscall::Park
            }
            // Idle (or caller mid-post): spin on the doorbell. Reading
            // the authoritative counter and arming the spin is atomic
            // within this step, so no ring can be lost.
            _ => {
                let v = wld.worker_db_val[idx];
                let flag = wld.worker_db[idx];
                Syscall::SpinUntil {
                    flag,
                    target: SpinTarget::Ne(v),
                    timeout_pauses: None,
                }
            }
        }
    }

    fn group(&self) -> &str {
        "worker"
    }
}

/// The adaptive scheduler actor: the virtual-time host of the
/// [`SchedulerDriver`] the real scheduler thread runs.
#[derive(Debug)]
pub struct ZcSchedulerActor {
    world: Rc<RefCell<ZcWorld>>,
    counters: Rc<RefCell<SimCounters>>,
    driver: SchedulerDriver,
}

impl ZcSchedulerActor {
    /// Scheduler with the given policy parameters and initial worker
    /// count. With a hub, phase starts and argmin decisions (with their
    /// measured `F_i` and derived `U_i`) are traced stamped with
    /// **kernel virtual time**.
    #[must_use]
    pub fn new(
        world: Rc<RefCell<ZcWorld>>,
        counters: Rc<RefCell<SimCounters>>,
        params: PolicyParams,
        initial_workers: usize,
        telemetry: Option<std::sync::Arc<zc_telemetry::Telemetry>>,
    ) -> Self {
        ZcSchedulerActor {
            world,
            counters,
            driver: SchedulerDriver::new(params, initial_workers, telemetry),
        }
    }
}

impl crate::kernel::Actor for ZcSchedulerActor {
    fn step(&mut self, _res: SyscallResult, now: u64, cx: &mut StepCx) -> Syscall {
        let mut wld = self.world.borrow_mut();
        let step = self
            .driver
            .step(now, self.counters.borrow().fallback, wld.worker_cap);
        let m = step.workers;
        wld.active_workers = m;
        wld.residency.record(m, step.duration_cycles);
        wld.decided = step.decisions > 0;
        for i in 0..wld.workers.len() {
            if i < m {
                wld.workers[i].cmd = Cmd::Run;
                if wld.workers[i].state == WorkerState::Paused {
                    wld.workers[i].state = WorkerState::Unused;
                    cx.unpark(wld.worker_tids[i]);
                }
            } else if wld.workers[i].cmd != Cmd::Deactivate {
                wld.workers[i].cmd = Cmd::Deactivate;
                // Ring the doorbell so an idle spinner re-checks its
                // command word and parks.
                wld.worker_db_val[i] += 1;
                cx.set_flag(wld.worker_db[i], wld.worker_db_val[i]);
            }
        }
        Syscall::Sleep(step.duration_cycles)
    }

    fn group(&self) -> &str {
        "scheduler"
    }
}

/// Deterministic fault schedule for the ZC model. Attached to a
/// simulation via
/// [`SimConfig::with_zc_faults`](crate::sim::SimConfig::with_zc_faults);
/// ignored by non-ZC mechanisms.
///
/// Worker faults are timed: each applies at a virtual cycle to one
/// worker slot. Enclave faults are the real runtimes' [`FaultPlan`]:
/// counted over site visits, not time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZcSimFaults {
    /// `(virtual cycle, worker index, fault)` injections: a
    /// [`Fault::WorkerCrash`], a [`Fault::WorkerHang`] or one of the six
    /// `Publish`-site corruptions, with which a hostile host scribbles
    /// on the shared words / reply metadata of that worker's buffer.
    /// The trusted-side guard detects the lie and quarantines the slot
    /// — the DES models the detect-and-quarantine as one event; the
    /// owning caller's watchdog re-routes any in-flight call to the
    /// regular path and the supervisor revives the slot after the
    /// respawn delay. Same-instant faults on one slot apply in
    /// [`Fault`] declaration order, and only the first takes effect.
    pub worker_faults: Vec<(u64, usize, Fault)>,
    /// Dead time before the supervisor revives a failed worker slot
    /// (the respawn/probation latency of the real runtime).
    pub respawn_delay_cycles: u64,
    /// Caller watchdog: on-CPU pauses spent awaiting completion before
    /// an in-flight call is cancelled and re-routed.
    pub watchdog_pauses: u64,
    /// Enclave faults, as in the real runtimes: `EnclaveCrash` and
    /// `EnclaveStall` at the `EnclaveCall` site, whose 0-based index
    /// counts ZC dispatches across all callers, and
    /// `EnclaveReplayCrash` at the `Replay` site, whose index counts
    /// post-restart replays (the replay's completion is journaled
    /// first, so the second loss redelivers). A crash that fires
    /// while a previous loss is still recovering folds into it. Any
    /// plan other than the empty one builds the recovery plane.
    pub enclave_faults: FaultPlan,
    /// Modelled enclave teardown + reload duration.
    pub enclave_restart_cycles: u64,
}

impl ZcSimFaults {
    /// Empty schedule with a ~0.5 ms (at the paper machine's 3.8 GHz)
    /// revive delay and a watchdog orders of magnitude above a healthy
    /// call's completion spin.
    #[must_use]
    pub fn new() -> Self {
        ZcSimFaults {
            worker_faults: Vec::new(),
            respawn_delay_cycles: 2_000_000,
            watchdog_pauses: 10_000,
            enclave_faults: FaultPlan::new(),
            enclave_restart_cycles: 2_000_000,
        }
    }

    fn at(mut self, cycle: u64, worker: usize, fault: Fault) -> Self {
        self.worker_faults.push((cycle, worker, fault));
        self
    }

    /// Builder-style crash of `worker` at virtual `cycle`.
    #[must_use]
    pub fn crash_at(self, cycle: u64, worker: usize) -> Self {
        self.at(cycle, worker, Fault::WorkerCrash)
    }

    /// Builder-style hang of `worker` at virtual `cycle`.
    #[must_use]
    pub fn hang_at(self, cycle: u64, worker: usize) -> Self {
        self.at(cycle, worker, Fault::WorkerHang)
    }

    /// Host flips `worker`'s status word to garbage at `cycle`.
    #[must_use]
    pub fn flip_status_at(self, cycle: u64, worker: usize) -> Self {
        self.at(cycle, worker, Fault::FlipStatus)
    }

    /// Host scribbles on `worker`'s scheduler-command word at `cycle`.
    #[must_use]
    pub fn garbage_command_at(self, cycle: u64, worker: usize) -> Self {
        self.at(cycle, worker, Fault::GarbageCommand)
    }

    /// Host over-declares `worker`'s reply length at `cycle`.
    #[must_use]
    pub fn oversize_reply_at(self, cycle: u64, worker: usize) -> Self {
        self.at(cycle, worker, Fault::OversizeReply)
    }

    /// Host under-declares `worker`'s reply length at `cycle`.
    #[must_use]
    pub fn undersize_reply_at(self, cycle: u64, worker: usize) -> Self {
        self.at(cycle, worker, Fault::UndersizeReply)
    }

    /// Host replays a stale reply sequence tag on `worker` at `cycle`.
    #[must_use]
    pub fn stale_seq_at(self, cycle: u64, worker: usize) -> Self {
        self.at(cycle, worker, Fault::StaleSeq)
    }

    /// Host tears `worker`'s posted request slot at `cycle`.
    #[must_use]
    pub fn torn_request_at(self, cycle: u64, worker: usize) -> Self {
        self.at(cycle, worker, Fault::TornRequest)
    }

    /// Builder-style revive delay.
    #[must_use]
    pub fn with_respawn_delay(mut self, cycles: u64) -> Self {
        self.respawn_delay_cycles = cycles;
        self
    }

    /// Builder-style caller watchdog budget.
    #[must_use]
    pub fn with_watchdog_pauses(mut self, pauses: u64) -> Self {
        self.watchdog_pauses = pauses;
        self
    }

    /// Builder-style enclave crash at the `n`-th dispatch (0-based,
    /// global across callers): shorthand for injecting
    /// [`Fault::EnclaveCrash`] at `n` into
    /// [`enclave_faults`](ZcSimFaults::enclave_faults).
    #[must_use]
    pub fn crash_enclave_at_call(mut self, n: u64) -> Self {
        self.enclave_faults = std::mem::take(&mut self.enclave_faults)
            .inject(Fault::EnclaveCrash, FaultSchedule::at(n));
        self
    }

    /// Builder-style enclave restart (teardown + reload) duration.
    #[must_use]
    pub fn with_enclave_restart_cycles(mut self, cycles: u64) -> Self {
        self.enclave_restart_cycles = cycles;
        self
    }

    /// `true` when the schedule injects any enclave-level fault; only
    /// then are the recovery plane and enclave actor built.
    #[must_use]
    pub fn has_enclave_faults(&self) -> bool {
        self.enclave_faults != FaultPlan::new()
    }
}

impl Default for ZcSimFaults {
    fn default() -> Self {
        ZcSimFaults::new()
    }
}

/// The guard verdict a corruption is traced as, or `None` for a fault
/// that is no corruption.
fn guard_kind(fault: Fault) -> Option<GuardKind> {
    Some(match fault {
        Fault::FlipStatus => GuardKind::BadStatusWord,
        Fault::GarbageCommand => GuardKind::BadCommandWord,
        Fault::OversizeReply => GuardKind::OversizedReply,
        Fault::UndersizeReply => GuardKind::UndersizedReply,
        Fault::StaleSeq => GuardKind::StaleSequence,
        Fault::TornRequest => GuardKind::TornRequest,
        _ => return None,
    })
}

/// One scheduled supervisor event: a fault to apply to a worker slot,
/// or (`None`) that slot's revival.
type SupEv = (usize, Option<Fault>);

/// Total order of same-instant events: crashes, then hangs, then
/// corruptions, then revivals, each by worker; one worker's
/// same-instant corruptions in [`Fault`] declaration order.
fn rank((w, fault): SupEv) -> (u8, usize, usize) {
    let class = match fault {
        Some(Fault::WorkerCrash) => 0,
        Some(Fault::WorkerHang) => 1,
        Some(_) => 2,
        None => 3,
    };
    (class, w, fault.map_or(0, |f| f as usize))
}

/// A revive that found the slot still busy (compute draining or a caller
/// attached) retries after this many cycles.
const REVIVE_RETRY_CYCLES: u64 = 100_000;

/// The supervisor actor of the ZC fault model: applies the
/// crash/hang/corruption schedule at its virtual times and revives each
/// failed slot
/// [`respawn_delay_cycles`](ZcSimFaults::respawn_delay_cycles) after
/// the fault that took it down — the DES mirror of the real runtime's
/// `zc-supervisor` thread. A corruption quarantines the slot exactly
/// like a crash (the trusted-side guard detected the lie and poisoned
/// the buffer), but is counted in [`ZcWorld::guard_violations`] and
/// traced as a `GuardViolation` event instead of a `Fault`.
///
/// Failure → recovery sequence for one slot: the supervisor marks the
/// worker dead (its actor parks); the owning caller's watchdog cancels
/// the in-flight call and completes it on the regular path (no call is
/// ever lost or double-completed); after the revive delay the slot is
/// reset to `UNUSED` on a fresh pool and the actor is unparked. A
/// fault on a slot that is already down is a no-op and schedules no
/// revival.
#[derive(Debug)]
pub struct ZcSupervisorActor {
    world: Rc<RefCell<ZcWorld>>,
    /// Pending events, sorted by `(time, rank)` **descending** so the
    /// earliest event pops from the back.
    events: Vec<(u64, SupEv)>,
    respawn_delay_cycles: u64,
    /// Per-slot respawn generation (0 = initial spawn).
    gens: Vec<u64>,
    telemetry: Option<std::sync::Arc<zc_telemetry::Telemetry>>,
}

impl ZcSupervisorActor {
    /// Supervisor for `faults` over the workers of `world`. With a hub,
    /// fault injections are traced at
    /// [`Origin::Worker`](zc_telemetry::Origin::Worker) and revivals as
    /// `WorkerRespawned` at
    /// [`Origin::Scheduler`](zc_telemetry::Origin::Scheduler), stamped
    /// with kernel virtual time.
    ///
    /// # Panics
    ///
    /// If the schedule holds a worker fault the DES does not model
    /// (anything but a crash, a hang or a corruption).
    #[must_use]
    pub fn new(
        world: Rc<RefCell<ZcWorld>>,
        faults: &ZcSimFaults,
        telemetry: Option<std::sync::Arc<zc_telemetry::Telemetry>>,
    ) -> Self {
        let workers = world.borrow().workers.len();
        let mut events: Vec<(u64, SupEv)> = faults
            .worker_faults
            .iter()
            .filter(|&&(_, w, _)| w < workers)
            .map(|&(t, w, fault)| {
                assert!(
                    matches!(fault, Fault::WorkerCrash | Fault::WorkerHang)
                        || guard_kind(fault).is_some(),
                    "{} is not a worker fault the DES models",
                    fault.name()
                );
                (t, (w, Some(fault)))
            })
            .collect();
        events.sort_by_key(|&(t, ev)| std::cmp::Reverse((t, rank(ev))));
        ZcSupervisorActor {
            world,
            events,
            respawn_delay_cycles: faults.respawn_delay_cycles,
            gens: vec![0; workers],
            telemetry,
        }
    }

    fn insert(&mut self, t: u64, ev: SupEv) {
        let key = (t, rank(ev));
        let pos = self
            .events
            .partition_point(|&(et, eev)| (et, rank(eev)) > key);
        self.events.insert(pos, (t, ev));
    }

    /// Apply the event scheduled at `t` (reached at `now`).
    fn apply(&mut self, t: u64, (w, fault): SupEv, now: u64, cx: &mut StepCx) {
        let mut wld = self.world.borrow_mut();
        let Some(fault) = fault else {
            let ready = {
                let st = &wld.workers[w];
                st.parked_dead
                    && match st.state {
                        WorkerState::Unused | WorkerState::Paused => true,
                        // A caller is still attached: only safe once
                        // its watchdog cancelled the call.
                        WorkerState::Processing | WorkerState::Waiting => st.cancelled,
                        _ => false, // RESERVED: caller mid-post
                    }
            };
            if !ready {
                drop(wld);
                self.insert(now.saturating_add(REVIVE_RETRY_CYCLES), (w, None));
                return;
            }
            let st = &mut wld.workers[w];
            st.dead = false;
            st.parked_dead = false;
            st.cancelled = false;
            st.state = WorkerState::Unused;
            st.pool_used = 0;
            st.caller = usize::MAX;
            wld.respawns += 1;
            cx.unpark(wld.worker_tids[w]);
            self.gens[w] += 1;
            if let Some(hub) = &self.telemetry {
                hub.record(
                    now,
                    zc_telemetry::Origin::Scheduler,
                    zc_telemetry::Event::WorkerRespawned {
                        worker: w as u32,
                        generation: self.gens[w],
                    },
                );
            }
            return;
        };
        if wld.workers[w].dead {
            return; // already down; the fault is a no-op
        }
        wld.workers[w].dead = true;
        let kind = guard_kind(fault);
        match fault {
            Fault::WorkerCrash => wld.crashes += 1,
            Fault::WorkerHang => wld.hangs += 1,
            _ => wld.guard_violations += 1,
        }
        if wld.workers[w].state == WorkerState::Paused {
            // Already parked by the scheduler: nothing drains.
            wld.workers[w].parked_dead = true;
        } else {
            // Ring its doorbell so an idle spinner wakes, sees `dead`
            // and parks. A worker mid-compute ignores the ring and
            // parks when its compute drains.
            wld.worker_db_val[w] += 1;
            cx.set_flag(wld.worker_db[w], wld.worker_db_val[w]);
        }
        drop(wld);
        if let Some(hub) = &self.telemetry {
            let event = match kind {
                Some(kind) => zc_telemetry::Event::GuardViolation {
                    call: 0,
                    worker: w as u32,
                    kind,
                },
                None => zc_telemetry::Event::Fault { kind: fault },
            };
            hub.record(now, zc_telemetry::Origin::Worker(w as u32), event);
        }
        self.insert(t.saturating_add(self.respawn_delay_cycles), (w, None));
    }
}

impl crate::kernel::Actor for ZcSupervisorActor {
    fn step(&mut self, _res: SyscallResult, now: u64, cx: &mut StepCx) -> Syscall {
        loop {
            match self.events.last() {
                Some(&(t, _)) if t <= now => {
                    let (t, ev) = self.events.pop().expect("checked non-empty");
                    self.apply(t, ev, now, cx);
                }
                Some(&(t, _)) => return Syscall::Sleep(t - now),
                None => return Syscall::Park,
            }
        }
    }

    fn group(&self) -> &str {
        "supervisor"
    }
}

/// The enclave lifecycle actor of the recovery model: parked until a
/// crash trigger unparks it, then it drives the shared
/// [`RecoveryPlane`] through the whole-enclave restart — the DES
/// mirror of the real runtimes' `frontdoor::enclave_restart`.
///
/// One step **fences** (poisons every in-flight worker request so no
/// pre-crash execution can publish into the new epoch) and starts the
/// modelled teardown + reload sleep; the next step **completes** the
/// restart — the epoch bump every blocked caller spins on — resumes
/// the plane, and rings every caller and live-worker doorbell so
/// nothing stays parked on a pre-crash ring. Spawned only when the
/// fault schedule has enclave faults.
#[derive(Debug)]
pub struct ZcEnclaveActor {
    world: Rc<RefCell<ZcWorld>>,
    restarting: bool,
}

impl ZcEnclaveActor {
    /// Lifecycle actor over `world` (which must carry a recovery
    /// plane by the time the first crash trigger fires).
    #[must_use]
    pub fn new(world: Rc<RefCell<ZcWorld>>) -> Self {
        ZcEnclaveActor {
            world,
            restarting: false,
        }
    }
}

impl crate::kernel::Actor for ZcEnclaveActor {
    fn step(&mut self, _res: SyscallResult, now: u64, cx: &mut StepCx) -> Syscall {
        let mut wld = self.world.borrow_mut();
        if self.restarting {
            // The reload sleep drained: bump the epoch, resume, and
            // wake everyone blocked on the old one.
            self.restarting = false;
            {
                let plane = wld.recovery.as_ref().expect("spawned with recovery");
                plane.complete_restart();
                plane.resume();
            }
            wld.last_restart_done_at = now;
            wld.awaiting_first_completion = true;
            for c in 0..wld.caller_db.len() {
                wld.caller_db_val[c] += 1;
                cx.set_flag(wld.caller_db[c], wld.caller_db_val[c]);
            }
            for i in 0..wld.workers.len() {
                if !wld.workers[i].dead && wld.workers[i].state != WorkerState::Paused {
                    wld.worker_db_val[i] += 1;
                    cx.set_flag(wld.worker_db[i], wld.worker_db_val[i]);
                }
            }
        }
        if wld.crash_pending {
            wld.crash_pending = false;
            // Fence: poison every in-flight request so a pre-crash
            // execution drains without publishing.
            for w in wld.workers.iter_mut() {
                if !w.dead && matches!(w.state, WorkerState::Processing | WorkerState::Reserved) {
                    w.cancelled = true;
                }
            }
            let cycles = {
                let plane = wld.recovery.as_ref().expect("spawned with recovery");
                plane.begin_crash();
                plane.params().restart_cycles
            };
            self.restarting = true;
            return Syscall::Sleep(cycles.max(1));
        }
        Syscall::Park
    }

    fn group(&self) -> &str {
        "enclave"
    }
}
