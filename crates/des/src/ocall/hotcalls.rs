//! HotCalls (Weisse et al., ISCA'17) as a virtual-thread protocol — the
//! prior-art design the paper's related work compares against.
//!
//! HotCalls dedicates an always-spinning untrusted worker to serving
//! hot calls and **never falls back**: a caller that finds every worker
//! busy spins until one frees up. This buys the lowest possible
//! per-call latency at a fixed CPU cost — exactly the waste profile
//! ZC-SWITCHLESS's scheduler exists to avoid. Modelled faithfully:
//!
//! * workers spin forever (no `rbs` sleep, no parking);
//! * callers with no free worker spin on a global release doorbell and
//!   retry (no `rbf`, no fallback);
//! * the switchless set is static like Intel's (HotCalls instruments
//!   specific call sites); non-hot calls go regular.

use super::{CallDesc, CostModel, Dispatcher, Step};
use crate::kernel::{FlagId, Kernel, SpinTarget, StepCx, Syscall, SyscallResult, Tid};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use switchless_core::config::{COLLECT_CYCLES, HANDOFF_CYCLES};
use switchless_core::{CallPath, WorkerState};

/// Static HotCalls configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotcallsConfig {
    /// Call classes served by hot workers.
    pub hot_classes: BTreeSet<usize>,
    /// Dedicated worker count.
    pub workers: usize,
}

impl HotcallsConfig {
    /// Configuration with `workers` hot workers serving `hot` classes.
    #[must_use]
    pub fn new(workers: usize, hot: impl IntoIterator<Item = usize>) -> Self {
        HotcallsConfig {
            hot_classes: hot.into_iter().collect(),
            workers: workers.max(1),
        }
    }
}

/// Shared state of one hot worker.
#[derive(Debug)]
pub struct HotWorkerSt {
    /// `Unused`, `Reserved`, `Processing` or `Waiting` (no pausing).
    pub state: WorkerState,
    /// Posted host duration.
    pub host_cycles: u64,
    /// Result bytes.
    pub ret_bytes: u64,
    /// Owning caller.
    pub caller: usize,
}

/// Shared HotCalls protocol state.
#[derive(Debug)]
pub struct HotcallsWorld {
    /// Configuration.
    pub config: HotcallsConfig,
    /// Worker slots.
    pub workers: Vec<HotWorkerSt>,
    /// Worker thread ids.
    pub worker_tids: Vec<Tid>,
    /// Per-worker request doorbells.
    pub worker_db: Vec<FlagId>,
    /// Authoritative per-worker doorbell counters.
    pub worker_db_val: Vec<u64>,
    /// Per-caller completion doorbells.
    pub caller_db: Vec<FlagId>,
    /// Authoritative caller doorbell counters.
    pub caller_db_val: Vec<u64>,
    /// Global doorbell rung whenever any worker is released, so waiting
    /// callers re-scan.
    pub release_db: FlagId,
    /// Authoritative release counter.
    pub release_db_val: u64,
}

impl HotcallsWorld {
    /// Build the world and its kernel flags.
    pub fn new(
        kernel: &mut Kernel,
        config: HotcallsConfig,
        callers: usize,
    ) -> Rc<RefCell<HotcallsWorld>> {
        let n = config.workers;
        Rc::new(RefCell::new(HotcallsWorld {
            config,
            workers: (0..n)
                .map(|_| HotWorkerSt {
                    state: WorkerState::Unused,
                    host_cycles: 0,
                    ret_bytes: 0,
                    caller: usize::MAX,
                })
                .collect(),
            worker_tids: Vec::new(),
            worker_db: (0..n).map(|_| kernel.new_flag(0)).collect(),
            worker_db_val: vec![0; n],
            caller_db: (0..callers).map(|_| kernel.new_flag(0)).collect(),
            caller_db_val: vec![0; callers],
            release_db: kernel.new_flag(0),
            release_db_val: 0,
        }))
    }

    fn find_unused(&self) -> Option<usize> {
        self.workers
            .iter()
            .position(|w| w.state == WorkerState::Unused)
    }
}

/// Per-caller HotCalls dialogue.
#[derive(Debug)]
pub struct HotcallsDispatcher {
    world: Rc<RefCell<HotcallsWorld>>,
    costs: CostModel,
    caller: usize,
    dialog: Dialog,
    await_db_val: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialog {
    Idle,
    /// Spinning on the release doorbell for a free worker.
    AwaitFree,
    /// Copying the payload to the claimed worker.
    Post {
        w: usize,
    },
    /// Spinning for completion (the worker was rung).
    Await {
        w: usize,
    },
    /// Copying results back (the release doorbell was rung).
    Collect,
    /// Executing a regular (non-hot) call.
    RegularExec,
}

impl HotcallsDispatcher {
    /// Dialogue driver for `caller`.
    #[must_use]
    pub fn new(world: Rc<RefCell<HotcallsWorld>>, costs: CostModel, caller: usize) -> Self {
        HotcallsDispatcher {
            world,
            costs,
            caller,
            dialog: Dialog::Idle,
            await_db_val: 0,
        }
    }

    /// Try to claim a worker; returns the next step either way.
    fn try_claim(&mut self, call: &CallDesc) -> Step {
        let mut wld = self.world.borrow_mut();
        if let Some(w) = wld.find_unused() {
            wld.workers[w].state = WorkerState::Reserved;
            wld.workers[w].caller = self.caller;
            self.dialog = Dialog::Post { w };
            return Step::Next(Syscall::Compute(
                HANDOFF_CYCLES + self.costs.copy_cycles(call.payload_bytes),
            ));
        }
        // All workers busy: HotCalls never falls back — spin until any
        // worker is released, then retry the scan.
        let v = wld.release_db_val;
        let flag = wld.release_db;
        self.dialog = Dialog::AwaitFree;
        Step::Next(Syscall::SpinUntil {
            flag,
            target: SpinTarget::Ne(v),
            timeout_pauses: None,
        })
    }
}

impl Dispatcher for HotcallsDispatcher {
    fn begin(&mut self, call: &CallDesc, _now: u64, _cx: &mut StepCx) -> Syscall {
        debug_assert_eq!(self.dialog, Dialog::Idle, "begin during an active dialogue");
        if !self.world.borrow().config.hot_classes.contains(&call.class) {
            self.dialog = Dialog::RegularExec;
            return Syscall::Compute(self.costs.regular_call_cycles(call));
        }
        match self.try_claim(call) {
            Step::Next(s) => s,
            Step::Complete(_) | Step::Refused => {
                unreachable!("claim never completes or refuses a call")
            }
        }
    }

    fn advance(&mut self, call: &CallDesc, res: SyscallResult, _now: u64, cx: &mut StepCx) -> Step {
        debug_assert_eq!(res, SyscallResult::Ok, "hotcalls dialogues never time out");
        match self.dialog {
            Dialog::AwaitFree => self.try_claim(call),
            Dialog::Post { w } => {
                let mut wld = self.world.borrow_mut();
                debug_assert_eq!(wld.workers[w].state, WorkerState::Reserved);
                wld.workers[w].state = WorkerState::Processing;
                wld.workers[w].host_cycles = call.host_cycles;
                wld.workers[w].ret_bytes = call.ret_bytes;
                self.await_db_val = wld.caller_db_val[self.caller];
                wld.worker_db_val[w] += 1;
                cx.set_flag(wld.worker_db[w], wld.worker_db_val[w]);
                self.dialog = Dialog::Await { w };
                Step::Next(Syscall::SpinUntil {
                    flag: wld.caller_db[self.caller],
                    target: SpinTarget::Ne(self.await_db_val),
                    timeout_pauses: None,
                })
            }
            Dialog::Await { w } => {
                let mut wld = self.world.borrow_mut();
                debug_assert_eq!(wld.workers[w].state, WorkerState::Waiting);
                wld.workers[w].state = WorkerState::Unused;
                wld.release_db_val += 1;
                cx.set_flag(wld.release_db, wld.release_db_val);
                self.dialog = Dialog::Collect;
                Step::Next(Syscall::Compute(
                    COLLECT_CYCLES + self.costs.copy_cycles(call.ret_bytes),
                ))
            }
            Dialog::Collect => {
                self.dialog = Dialog::Idle;
                Step::Complete(CallPath::Switchless)
            }
            Dialog::RegularExec => {
                self.dialog = Dialog::Idle;
                Step::Complete(CallPath::Regular)
            }
            Dialog::Idle => unreachable!("advance without an active dialogue"),
        }
    }

    fn name(&self) -> &'static str {
        "hotcalls"
    }
}

/// A hot worker: spins forever on its doorbell, serving requests.
#[derive(Debug)]
pub struct HotWorkerActor {
    world: Rc<RefCell<HotcallsWorld>>,
    idx: usize,
    executing: bool,
}

impl HotWorkerActor {
    /// Worker actor for slot `idx`.
    #[must_use]
    pub fn new(world: Rc<RefCell<HotcallsWorld>>, idx: usize) -> Self {
        HotWorkerActor {
            world,
            idx,
            executing: false,
        }
    }
}

impl crate::kernel::Actor for HotWorkerActor {
    fn step(&mut self, _res: SyscallResult, _now: u64, cx: &mut StepCx) -> Syscall {
        let mut wld = self.world.borrow_mut();
        let idx = self.idx;
        if self.executing {
            // Done: publish, ring the caller, back to the doorbell.
            self.executing = false;
            debug_assert_eq!(wld.workers[idx].state, WorkerState::Processing);
            wld.workers[idx].state = WorkerState::Waiting;
            let caller = wld.workers[idx].caller;
            wld.caller_db_val[caller] += 1;
            cx.set_flag(wld.caller_db[caller], wld.caller_db_val[caller]);
        }
        if wld.workers[idx].state == WorkerState::Processing {
            self.executing = true;
            return Syscall::Compute(wld.workers[idx].host_cycles);
        }
        // Hot: spin forever, no sleeping, no parking.
        let v = wld.worker_db_val[idx];
        let flag = wld.worker_db[idx];
        Syscall::SpinUntil {
            flag,
            target: SpinTarget::Ne(v),
            timeout_pauses: None,
        }
    }

    fn group(&self) -> &str {
        "worker"
    }
}
