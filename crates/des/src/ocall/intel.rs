//! The Intel SDK switchless mechanism as a virtual-thread protocol.
//!
//! Statically configured switchless classes, a bounded task queue,
//! `rbf`-bounded caller spinning for acceptance (then unbounded spinning
//! for completion), and `rbs`-bounded worker polling followed by sleep.
//! Matches the real-thread reimplementation in `intel-switchless`.

use super::prof::{Phase, Prof};
use super::{CallDesc, CostModel, Dispatcher, Step};
use crate::kernel::{Bell, Kernel, StepCx, Syscall, SyscallResult, Tid};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use switchless_core::config::{
    intel_default_task_pool, COLLECT_CYCLES, HANDOFF_CYCLES, INTEL_DEFAULT_RETRIES,
};
use switchless_core::CallPath;

/// Static configuration of the simulated Intel mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntelSimConfig {
    /// Call classes marked switchless at "build time".
    pub switchless_classes: BTreeSet<usize>,
    /// Worker thread count.
    pub workers: usize,
    /// Caller pauses before cancelling an unaccepted task (`rbf`).
    pub retries_before_fallback: u64,
    /// Worker pauses polling an empty queue before sleeping (`rbs`).
    pub retries_before_sleep: u64,
    /// Task queue capacity.
    pub capacity: usize,
}

impl IntelSimConfig {
    /// SDK-default retries (20 000/20 000) with the given switchless
    /// classes and worker count.
    #[must_use]
    pub fn new(workers: usize, switchless: impl IntoIterator<Item = usize>) -> Self {
        IntelSimConfig {
            switchless_classes: switchless.into_iter().collect(),
            workers,
            retries_before_fallback: u64::from(INTEL_DEFAULT_RETRIES),
            retries_before_sleep: u64::from(INTEL_DEFAULT_RETRIES),
            capacity: intel_default_task_pool(workers),
        }
    }

    /// Builder-style override of `rbf`.
    #[must_use]
    pub fn with_rbf(mut self, rbf: u64) -> Self {
        self.retries_before_fallback = rbf;
        self
    }
}

/// A submitted task awaiting acceptance.
#[derive(Debug, Clone, Copy)]
pub struct Task {
    /// Unique id (for cancellation).
    pub id: u64,
    /// Submitting caller.
    pub caller: usize,
    /// Host-function duration.
    pub host_cycles: u64,
}

/// Shared Intel protocol state.
#[derive(Debug)]
pub struct IntelWorld {
    /// Configuration.
    pub config: IntelSimConfig,
    /// Submitted, not-yet-accepted tasks.
    pub queue: VecDeque<Task>,
    /// Queue doorbell: rung on every submission.
    pub queue_db: Bell,
    /// Per-caller acceptance doorbells.
    pub accept_db: Vec<Bell>,
    /// Per-caller completion doorbells.
    pub done_db: Vec<Bell>,
    /// Indices of sleeping workers.
    pub sleeping: Vec<usize>,
    /// Worker thread ids (filled at spawn).
    pub worker_tids: Vec<Tid>,
    next_task_id: u64,
}

impl IntelWorld {
    /// Build the world and allocate its doorbells.
    pub fn new(
        kernel: &mut Kernel,
        config: IntelSimConfig,
        callers: usize,
    ) -> Rc<RefCell<IntelWorld>> {
        Rc::new(RefCell::new(IntelWorld {
            config,
            queue: VecDeque::new(),
            queue_db: kernel.bell(),
            accept_db: (0..callers).map(|_| kernel.bell()).collect(),
            done_db: (0..callers).map(|_| kernel.bell()).collect(),
            sleeping: Vec::new(),
            worker_tids: Vec::new(),
            next_task_id: 0,
        }))
    }
}

/// Per-caller Intel dialogue.
#[derive(Debug)]
pub struct IntelDispatcher {
    world: Rc<RefCell<IntelWorld>>,
    costs: CostModel,
    caller: usize,
    dialog: Dialog,
    task_id: u64,
    /// Count of this caller's completion doorbell read at submit: the
    /// worker may ring it before the acceptance wait ends.
    done_seen: u64,
    prof: Prof,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialog {
    Idle,
    /// Copying the payload into untrusted memory before submitting.
    CopyIn,
    /// Spinning for acceptance with the rbf budget (the queue doorbell
    /// was rung and a sleeping worker, if any, woken).
    AwaitAccept,
    /// Spinning for completion (unbounded).
    AwaitDone,
    /// Copying results back.
    Collect,
    /// Executing a regular call for a non-switchless class.
    RegularExec,
    /// Executing the fallback after a cancel.
    FallbackExec,
}

impl IntelDispatcher {
    /// Dialogue driver for `caller`. With a hub, every completed call
    /// accumulates its per-phase cycle breakdown into the hub's
    /// [`CallPhaseProfiler`](zc_telemetry::CallPhaseProfiler) and is
    /// traced as a `call_phases` event at
    /// [`Origin::Caller`](zc_telemetry::Origin::Caller), stamped with
    /// kernel virtual time.
    #[must_use]
    pub fn new(
        world: Rc<RefCell<IntelWorld>>,
        costs: CostModel,
        caller: usize,
        telemetry: Option<std::sync::Arc<zc_telemetry::Telemetry>>,
    ) -> Self {
        IntelDispatcher {
            world,
            costs,
            caller,
            dialog: Dialog::Idle,
            task_id: 0,
            done_seen: 0,
            prof: Prof::new(telemetry, caller),
        }
    }

    fn fallback_remainder(&self, call: &CallDesc) -> u64 {
        // The payload was already copied to untrusted memory during
        // CopyIn; the fallback pays the transition, host time and the
        // result copy.
        self.costs.t_es_cycles + call.host_cycles + self.costs.copy_cycles(call.ret_bytes)
    }
}

impl Dispatcher for IntelDispatcher {
    fn begin(&mut self, call: &CallDesc, now: u64, _cx: &mut StepCx) -> Syscall {
        debug_assert_eq!(self.dialog, Dialog::Idle, "begin during an active dialogue");
        self.prof.begin(now);
        let wld = self.world.borrow();
        if !wld.config.switchless_classes.contains(&call.class) {
            self.dialog = Dialog::RegularExec;
            return Syscall::Compute(self.costs.regular_call_cycles(call));
        }
        drop(wld);
        self.dialog = Dialog::CopyIn;
        Syscall::Compute(HANDOFF_CYCLES + self.costs.copy_cycles(call.payload_bytes))
    }

    fn advance(&mut self, call: &CallDesc, res: SyscallResult, now: u64, cx: &mut StepCx) -> Step {
        match self.dialog {
            Dialog::CopyIn => {
                // The finished compute was handoff + payload copy.
                self.prof.mark(Phase::CopyIn, now);
                self.prof
                    .transfer(Phase::CopyIn, Phase::Reserve, HANDOFF_CYCLES);
                let mut wld = self.world.borrow_mut();
                if wld.queue.len() >= wld.config.capacity {
                    // Pool full: immediate fallback (as in the SDK).
                    self.dialog = Dialog::FallbackExec;
                    return Step::Next(Syscall::Compute(self.fallback_remainder(call)));
                }
                wld.next_task_id += 1;
                self.task_id = wld.next_task_id;
                // No worker runs before this step ends, so the counts of
                // my doorbells read here precede the task's acceptance
                // and completion rings.
                let accept_db = wld.accept_db[self.caller];
                let accept_seen = cx.rung(accept_db);
                self.done_seen = cx.rung(wld.done_db[self.caller]);
                let task = Task {
                    id: self.task_id,
                    caller: self.caller,
                    host_cycles: call.host_cycles,
                };
                wld.queue.push_back(task);
                cx.ring(wld.queue_db);
                if let Some(w) = wld.sleeping.pop() {
                    cx.unpark(wld.worker_tids[w]);
                }
                self.prof.mark(Phase::Signal, now);
                self.dialog = Dialog::AwaitAccept;
                Step::Next(Syscall::SpinUntil {
                    bell: accept_db,
                    seen: accept_seen,
                    timeout_pauses: Some(wld.config.retries_before_fallback),
                })
            }
            Dialog::AwaitAccept => {
                self.prof.mark(Phase::Wait, now);
                if res == SyscallResult::TimedOut {
                    // rbf exhausted: try to cancel.
                    let mut wld = self.world.borrow_mut();
                    let before = wld.queue.len();
                    let id = self.task_id;
                    wld.queue.retain(|t| t.id != id);
                    if wld.queue.len() < before {
                        // Cancel won: fall back.
                        self.dialog = Dialog::FallbackExec;
                        return Step::Next(Syscall::Compute(self.fallback_remainder(call)));
                    }
                    // A worker accepted at the last moment: wait for it.
                }
                self.dialog = Dialog::AwaitDone;
                let wld = self.world.borrow();
                Step::Next(Syscall::SpinUntil {
                    bell: wld.done_db[self.caller],
                    seen: self.done_seen,
                    timeout_pauses: None,
                })
            }
            Dialog::AwaitDone => {
                debug_assert_eq!(res, SyscallResult::Ok);
                // Both spins (acceptance + completion) are wait time; the
                // completion spin covered the worker's host-function run.
                self.prof.mark(Phase::Wait, now);
                self.prof.set_execute_hint(call.host_cycles);
                self.dialog = Dialog::Collect;
                Step::Next(Syscall::Compute(
                    COLLECT_CYCLES + self.costs.copy_cycles(call.ret_bytes),
                ))
            }
            Dialog::Collect => {
                // Collect + result copy land in copy-out (finish
                // residual).
                self.prof.complete(call.class, CallPath::Switchless, now);
                self.dialog = Dialog::Idle;
                Step::Complete(CallPath::Switchless)
            }
            Dialog::RegularExec => {
                let path = CallPath::Regular;
                self.prof
                    .complete_regular(&self.costs, call, call.payload_bytes, path, now);
                self.dialog = Dialog::Idle;
                Step::Complete(path)
            }
            Dialog::FallbackExec => {
                // The fallback remainder: transition + host + result copy
                // (the payload copy was already charged in copy-in). A
                // cancelled task keeps its rbf spin in the wait phase.
                let path = CallPath::Fallback;
                self.prof.complete_regular(&self.costs, call, 0, path, now);
                self.dialog = Dialog::Idle;
                Step::Complete(path)
            }
            Dialog::Idle => unreachable!("advance without an active dialogue"),
        }
    }

    fn name(&self) -> &'static str {
        "intel"
    }
}

/// Worker actor of the Intel model.
#[derive(Debug)]
pub struct IntelWorkerActor {
    world: Rc<RefCell<IntelWorld>>,
    idx: usize,
    phase: WPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WPhase {
    /// Check the queue.
    Poll,
    /// Spinning on the queue doorbell with the rbs budget.
    IdleSpin,
    /// Host function of an accepted task running.
    Executing { caller: usize },
}

impl IntelWorkerActor {
    /// Worker actor for slot `idx`.
    #[must_use]
    pub fn new(world: Rc<RefCell<IntelWorld>>, idx: usize) -> Self {
        IntelWorkerActor {
            world,
            idx,
            phase: WPhase::Poll,
        }
    }
}

impl crate::kernel::Actor for IntelWorkerActor {
    fn step(&mut self, res: SyscallResult, _now: u64, cx: &mut StepCx) -> Syscall {
        loop {
            match self.phase {
                WPhase::Poll => {
                    let mut wld = self.world.borrow_mut();
                    if let Some(task) = wld.queue.pop_front() {
                        // Accept: ring the caller's acceptance doorbell
                        // and run the host function.
                        cx.ring(wld.accept_db[task.caller]);
                        self.phase = WPhase::Executing {
                            caller: task.caller,
                        };
                        return Syscall::Compute(task.host_cycles);
                    }
                    // Queue empty: arm the rbs-bounded idle spin.
                    self.phase = WPhase::IdleSpin;
                    return Syscall::SpinUntil {
                        bell: wld.queue_db,
                        seen: cx.rung(wld.queue_db),
                        timeout_pauses: Some(wld.config.retries_before_sleep),
                    };
                }
                WPhase::IdleSpin => {
                    if res == SyscallResult::TimedOut {
                        // rbs exhausted: go to sleep until a submission
                        // wakes us. Registering and parking happen in the
                        // same atomic step, so no wakeup can be lost.
                        let mut wld = self.world.borrow_mut();
                        if wld.queue.is_empty() {
                            let idx = self.idx;
                            wld.sleeping.push(idx);
                            self.phase = WPhase::Poll;
                            return Syscall::Park;
                        }
                    }
                    self.phase = WPhase::Poll;
                    // Loop back to re-poll immediately.
                }
                WPhase::Executing { caller } => {
                    // Done: ring the caller's completion doorbell and
                    // poll again.
                    cx.ring(self.world.borrow().done_db[caller]);
                    self.phase = WPhase::Poll;
                }
            }
        }
    }

    fn group(&self) -> &str {
        "worker"
    }
}
