//! Discrete-event kernel: virtual cores, a FIFO run queue, round-robin
//! preemption, spin-waits, sleeps and parking — all in virtual cycles.
//!
//! # Model
//!
//! * The machine has `N` identical cores. Runnable threads beyond `N`
//!   wait in a FIFO run queue.
//! * Threads are [`Actor`]s: each time the previous syscall finishes, the
//!   kernel calls [`Actor::step`] with the result and executes the
//!   returned [`Syscall`].
//! * Scheduling is preemptive round-robin, the time-sliced machine the
//!   paper runs on: every core occupancy arms a quantum, and a running
//!   thread is preempted at the end of it whenever the run queue is
//!   non-empty. With no thread queued a quantum renews in place, so with
//!   at most as many runnable threads as cores nothing is ever preempted.
//! * **Busy-waiting is modelled, not stepped**: a [`Syscall::SpinUntil`]
//!   is charged as *busy* time but the kernel does not simulate each
//!   `pause` iteration. A spinner *holds* its core. When another thread
//!   sets the awaited flag, a spinner on a core observes it one
//!   pause-latency later; a preempted spinner observes it as soon as it
//!   is scheduled again. Spin timeouts (`rbf`/`rbs`) are measured in
//!   pauses, and a pause budget only elapses while its spinner holds a
//!   core — exactly like a real pause loop.
//! * Instant ops — flag writes and unparks — are issued through the
//!   [`StepCx`] a step is handed. They apply in issue order at the step's
//!   instant, before the syscall the step returns, exactly as if each had
//!   been returned by a step of its own, so one step carries a whole
//!   protocol turn (ring the doorbell, then spin). A returned instant
//!   syscall ([`Syscall::SetFlag`], [`Syscall::Unpark`]) goes through the
//!   same code, and the actor is immediately stepped again. Since event
//!   processing is serialized, actors may also touch shared `RefCell`
//!   protocol state inside `step` without data races — atomicity is a
//!   property of the kernel, mirroring word-sized atomic operations on
//!   real hardware.
//!
//! Determinism: no wall clock, no OS threads, FIFO tie-breaking by event
//! sequence number. Two runs with the same actors produce identical
//! traces.
//!
//! In discrete-event terms each thread is a component: its `next_tick`
//! is the timestamp of its one armed event, [`Actor::step`] is its
//! `tick`, and the [`StepCx`] it is handed is its write access to the
//! rest of the machine. [`Kernel::next_tick`]/[`Kernel::tick`] expose the
//! machine-level form of that interface for external drivers that want
//! to interleave the simulation with other event sources;
//! [`Kernel::run_while`] is the loop over them.
//!
//! The event queue holds at most one armed event per component — each
//! core's quantum, each thread's op completion, spin wake or timeout, or
//! sleep timer — so it never exceeds `cores + threads` entries.
//! Re-arming a component replaces its entry and invalidating it (a
//! preemption, a vacated core, a park, an exit) removes it. The event
//! being handled stays queued until its handler returns: a handler that
//! re-arms its own slot (a compute followed by the next one, a renewed
//! quantum) moves the entry in place — one sift rather than a pop and a
//! push — and an entry nobody re-armed or disarmed is retired then.
//!
//! # End of run and accounting
//!
//! A run stops at the last event that can change the machine. A machine
//! whose run queue is empty and whose only armed events are quanta —
//! every thread on a core an untimed spinner — is quiescent: its quanta
//! would renew to the deadline with nothing left to happen, so
//! [`Kernel::next_tick`] reports no event there. A thread's busy cycles
//! are its closed segments plus the open one — the span since it last
//! took a core — up to [`Kernel::now`], so a spinner still waiting when a
//! run stops is charged for its wait.

use std::collections::VecDeque;

/// Thread identifier within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub usize);

/// Identifier of a kernel flag cell (a shared `u64` used for spin-wait
/// rendezvous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlagId(pub usize);

/// Condition a spin-wait is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinTarget {
    /// Wait until the flag equals this value.
    Eq(u64),
    /// Wait until the flag differs from this value (doorbell pattern:
    /// spin on the last-seen value, wake on any change).
    Ne(u64),
}

impl SpinTarget {
    /// Is the condition satisfied by `value`?
    #[must_use]
    pub fn matches(self, value: u64) -> bool {
        match self {
            SpinTarget::Eq(v) => value == v,
            SpinTarget::Ne(v) => value != v,
        }
    }
}

/// What a thread asks the kernel to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syscall {
    /// Execute `0` or more cycles of useful work (busy).
    Compute(u64),
    /// Busy-wait (busy) until the flag satisfies `target`, or until
    /// `timeout_pauses` pauses have elapsed *on-CPU* (if `Some`).
    SpinUntil {
        /// Flag to watch.
        flag: FlagId,
        /// Condition to wait for.
        target: SpinTarget,
        /// Give up after this many on-CPU pauses.
        timeout_pauses: Option<u64>,
    },
    /// Write `value` to `flag` (instant; wakes matching spinners).
    SetFlag {
        /// Flag to write.
        flag: FlagId,
        /// New value.
        value: u64,
    },
    /// Yield the core and sleep for the given cycles (idle).
    Sleep(u64),
    /// Yield the core until someone calls [`Syscall::Unpark`] (idle).
    /// A pending unpark token makes this return immediately.
    Park,
    /// Deliver an unpark token to `Tid` (instant).
    Unpark(Tid),
    /// Terminate this thread.
    Done,
}

/// Result of the previously issued syscall, passed to [`Actor::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallResult {
    /// First step of the thread; no previous syscall.
    Init,
    /// The previous syscall completed normally (compute finished, flag
    /// observed, sleep elapsed, park released, instant op applied).
    Ok,
    /// A `SpinUntil` gave up after its pause budget.
    TimedOut,
}

/// The instant ops one [`Actor::step`] issues before the syscall it
/// returns: flag writes and unparks. The kernel applies them in issue
/// order at the step's instant, ahead of that syscall — exactly as if
/// each had been returned by a step of its own — so one step can carry a
/// whole protocol turn (ring the doorbell, then spin).
#[derive(Debug, Default)]
pub struct StepCx {
    ops: Vec<Syscall>,
}

impl StepCx {
    /// Issue [`Syscall::SetFlag`] for this step.
    pub fn set_flag(&mut self, flag: FlagId, value: u64) {
        self.ops.push(Syscall::SetFlag { flag, value });
    }

    /// Issue [`Syscall::Unpark`] for this step.
    pub fn unpark(&mut self, tid: Tid) {
        self.ops.push(Syscall::Unpark(tid));
    }
}

/// A simulated thread body.
pub trait Actor {
    /// Decide the next syscall given the previous result and the current
    /// virtual time; instant ops to apply first go through `cx`.
    fn step(&mut self, res: SyscallResult, now: u64, cx: &mut StepCx) -> Syscall;

    /// Label used for per-group accounting (e.g. `"caller"`, `"worker"`).
    fn group(&self) -> &str {
        "thread"
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Compute {
        remaining: u64,
    },
    Spin {
        flag: FlagId,
        target: SpinTarget,
        remaining_pauses: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Running { core: usize },
    Sleeping,
    Parked,
    Finished,
}

struct ThreadCb {
    actor: Box<dyn Actor>,
    state: ThreadState,
    pending: Option<Pending>,
    /// Result to deliver at the next `step`.
    next_result: SyscallResult,
    unpark_pending: bool,
    busy_cycles: u64,
    idle_cycles: u64,
    /// When the current on-core (or sleeping/parked) segment started.
    segment_start: u64,
    group: String,
}

struct Flag {
    value: u64,
    /// Tids currently spin-waiting on this flag.
    waiters: Vec<Tid>,
}

/// Heap position of a slot with no armed event.
const UNARMED: usize = usize::MAX;

/// Indexed binary min-heap of armed events ordered by `(time, seq)`, at
/// most one per slot: slot `c` is core `c`'s quantum, slot `cores + t`
/// thread `t`'s op completion or sleep timer. `seq` counts arms, so
/// equal-time events pop in arm order (FIFO).
struct EventQueue {
    /// `(time, seq, slot)` in heap order.
    heap: Vec<(u64, u64, usize)>,
    /// Heap index of each slot's entry, or `UNARMED`.
    pos: Vec<usize>,
    seq: u64,
}

impl EventQueue {
    /// Arm `slot` at `time`, replacing its armed event if any.
    fn arm(&mut self, slot: usize, time: u64) {
        self.seq += 1;
        let entry = (time, self.seq, slot);
        let i = match self.pos[slot] {
            UNARMED => {
                self.heap.push(entry);
                self.heap.len() - 1
            }
            i => {
                self.heap[i] = entry;
                i
            }
        };
        self.sift(i);
    }

    /// Remove `slot`'s armed event, if any.
    fn disarm(&mut self, slot: usize) {
        let i = std::mem::replace(&mut self.pos[slot], UNARMED);
        if i != UNARMED {
            self.heap.swap_remove(i);
            if i < self.heap.len() {
                self.sift(i);
            }
        }
    }

    /// Remove `slot`'s event if it is still the one armed as `seq`: the
    /// event just handled, which nobody re-armed or disarmed meanwhile.
    fn retire(&mut self, slot: usize, seq: u64) {
        let i = self.pos[slot];
        if i != UNARMED && self.heap[i].1 == seq {
            self.disarm(slot);
        }
    }

    /// Move the entry at `i` up or down to its place in heap order. Whole
    /// entries compare as their `(time, seq)` key: `seq` is unique.
    fn sift(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 && entry < self.heap[(i - 1) / 2] {
            self.place(i, self.heap[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        loop {
            let mut c = 2 * i + 1;
            if c + 1 < self.heap.len() && self.heap[c + 1] < self.heap[c] {
                c += 1;
            }
            if c >= self.heap.len() || entry < self.heap[c] {
                break;
            }
            self.place(i, self.heap[c]);
            i = c;
        }
        self.place(i, entry);
    }

    /// Store `entry` at heap index `i` and record that in `pos`.
    fn place(&mut self, i: usize, entry: (u64, u64, usize)) {
        self.heap[i] = entry;
        self.pos[entry.2] = i;
    }
}

/// Default round-robin quantum: 3 ms at 3.8 GHz.
pub const DEFAULT_RR_QUANTUM: u64 = 11_400_000;

/// The discrete-event kernel. See module docs.
pub struct Kernel {
    now: u64,
    /// The thread occupying each core.
    running: Vec<Option<Tid>>,
    /// Idle cores as a bitset: bit `c % 64` of word `c / 64` is set
    /// exactly when `running[c]` is `None`; the lowest index is handed
    /// out first.
    free_cores: Vec<u64>,
    runq: VecDeque<Tid>,
    events: EventQueue,
    threads: Vec<ThreadCb>,
    flags: Vec<Flag>,
    /// Round-robin quantum in cycles: each core occupancy arms one.
    quantum: u64,
    pause_cycles: u64,
    live_threads: usize,
    steps: u64,
    /// Instant ops of the step in progress (empty between steps).
    cx: StepCx,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("quantum", &self.quantum)
            .field("now", &self.now)
            .field("cores", &self.running.len())
            .field("threads", &self.threads.len())
            .field("live", &self.live_threads)
            .finish()
    }
}

impl Kernel {
    /// Round-robin kernel with `cores` cores, a preemption quantum and
    /// the pause latency (both in cycles).
    #[must_use]
    pub fn new(cores: usize, rr_quantum: u64, pause_cycles: u64) -> Self {
        let cores = cores.max(1);
        Kernel {
            now: 0,
            running: vec![None; cores],
            // Every core idle: word `w` holds cores `64w..`, up to 64.
            free_cores: (0..cores.div_ceil(64))
                .map(|w| u64::MAX >> (64 * (w + 1)).saturating_sub(cores))
                .collect(),
            runq: VecDeque::new(),
            events: EventQueue {
                heap: Vec::new(),
                pos: vec![UNARMED; cores],
                seq: 0,
            },
            threads: Vec::new(),
            flags: Vec::new(),
            quantum: rr_quantum.max(1),
            pause_cycles: pause_cycles.max(1),
            live_threads: 0,
            steps: 0,
            cx: StepCx::default(),
        }
    }

    /// Number of cores in the machine.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.running.len()
    }

    /// Current virtual time in cycles.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Allocate a flag cell initialised to `value`.
    pub fn new_flag(&mut self, value: u64) -> FlagId {
        self.flags.push(Flag {
            value,
            waiters: Vec::new(),
        });
        FlagId(self.flags.len() - 1)
    }

    /// Current value of a flag.
    #[must_use]
    pub fn flag(&self, id: FlagId) -> u64 {
        self.flags[id.0].value
    }

    /// Spawn an actor as a runnable thread; returns its [`Tid`].
    pub fn spawn(&mut self, actor: Box<dyn Actor>) -> Tid {
        let tid = Tid(self.threads.len());
        let group = actor.group().to_string();
        self.threads.push(ThreadCb {
            actor,
            state: ThreadState::Runnable,
            pending: None,
            next_result: SyscallResult::Init,
            unpark_pending: false,
            busy_cycles: 0,
            idle_cycles: 0,
            segment_start: 0,
            group,
        });
        self.events.pos.push(UNARMED);
        self.live_threads += 1;
        self.runq.push_back(tid);
        tid
    }

    /// `(busy, idle)` cycles of `tid` so far. Busy counts the closed
    /// segments plus, for a thread on a core, the open one up to
    /// [`Kernel::now`]; idle counts closed sleeps and parks.
    #[must_use]
    pub fn thread_cycles(&self, tid: Tid) -> (u64, u64) {
        let t = &self.threads[tid.0];
        (self.busy(t), t.idle_cycles)
    }

    /// Sum of busy cycles (closed plus open segments) over all threads
    /// whose group name equals `group`.
    #[must_use]
    pub fn group_busy_cycles(&self, group: &str) -> u64 {
        self.threads
            .iter()
            .filter(|t| t.group == group)
            .map(|t| self.busy(t))
            .sum()
    }

    /// Total busy cycles (closed plus open segments) over all threads.
    #[must_use]
    pub fn total_busy_cycles(&self) -> u64 {
        self.threads.iter().map(|t| self.busy(t)).sum()
    }

    /// Busy cycles of `t`: its closed segments, plus the open one while
    /// it holds a core.
    fn busy(&self, t: &ThreadCb) -> u64 {
        match t.state {
            ThreadState::Running { .. } => t.busy_cycles + self.now.saturating_sub(t.segment_start),
            _ => t.busy_cycles,
        }
    }

    /// Number of threads not yet finished.
    #[must_use]
    pub fn live_threads(&self) -> usize {
        self.live_threads
    }

    /// Total actor steps executed (diagnostics / runaway detection).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Event slot of thread `tid` (slots below `cores` are quanta).
    fn slot(&self, tid: Tid) -> usize {
        self.running.len() + tid.0
    }

    /// Timestamp of the next event that can change the machine, if any —
    /// the machine-level `next_tick` of the discrete-event component
    /// interface. `None` once the machine is quiescent: no event is
    /// armed, or only quanta that would renew forever.
    #[must_use]
    pub fn next_tick(&self) -> Option<u64> {
        let &(time, _, slot) = self.events.heap.first()?;
        // Only a quantum can head a quiescent queue, so the check runs
        // once per quantum, never on the per-event path.
        if slot < self.running.len() && self.quiescent() {
            return None;
        }
        Some(time)
    }

    /// The run queue is empty and the only armed events are
    /// the quanta of the occupied cores (one each), so every thread on a
    /// core is an untimed spinner whose flag nobody is left to write.
    fn quiescent(&self) -> bool {
        let free: u32 = self.free_cores.iter().map(|w| w.count_ones()).sum();
        self.runq.is_empty() && self.events.heap.len() == self.running.len() - free as usize
    }

    /// Process exactly the next event (advancing virtual time to it) and
    /// everything it unblocks at that instant. Returns the new virtual
    /// time, or `None` when the machine is quiescent (see
    /// [`Kernel::next_tick`]).
    pub fn tick(&mut self) -> Option<u64> {
        self.dispatch();
        self.next_tick()?;
        // The event stays queued while it is handled: a handler that
        // re-arms its own slot moves the entry in place (one sift, not a
        // pop and a push), and one that does not retires it after.
        let (time, seq, slot) = self.events.heap[0];
        debug_assert!(time >= self.now);
        self.now = time;
        self.handle(slot);
        self.events.retire(slot, seq);
        self.dispatch();
        debug_assert!(
            self.events.heap.len() <= self.running.len() + self.threads.len(),
            "more than one armed event per core or thread"
        );
        Some(self.now)
    }

    /// Run until every thread finishes or virtual time reaches
    /// `deadline`. Returns the final virtual time.
    pub fn run_until(&mut self, deadline: u64) -> u64 {
        self.run_while(deadline, || true)
    }

    /// Run until every thread finishes, virtual time reaches `deadline`,
    /// or `keep_going` returns `false` (checked after each event).
    /// Returns the final virtual time.
    pub fn run_while(&mut self, deadline: u64, mut keep_going: impl FnMut() -> bool) -> u64 {
        self.dispatch();
        while self.live_threads > 0 {
            let Some(time) = self.next_tick() else {
                // Live threads but quiescent: everything is parked or
                // spins on a flag nobody will write. Stop at the last
                // live event rather than hang or idle to the deadline.
                break;
            };
            if time > deadline {
                self.now = deadline.max(self.now);
                break;
            }
            self.tick();
            if !keep_going() {
                break;
            }
        }
        self.now
    }

    /// Run to completion (no deadline).
    pub fn run(&mut self) -> u64 {
        self.run_until(u64::MAX)
    }

    /// Account the busy segment of a running thread up to `now` and
    /// restart the segment clock. Returns the segment length.
    fn account_running(&mut self, tid: Tid) -> u64 {
        let now = self.now;
        let t = &mut self.threads[tid.0];
        let seg = now.saturating_sub(t.segment_start);
        t.busy_cycles += seg;
        t.segment_start = now;
        seg
    }

    /// Handle the event of `slot`: a quantum check for a core
    /// slot; for a thread slot, its sleep timer if it is sleeping and its
    /// op completion (compute end, spin observation, spin timeout)
    /// otherwise.
    fn handle(&mut self, slot: usize) {
        let Some(t) = slot.checked_sub(self.running.len()) else {
            let core = slot;
            let tid = self.running[core].expect("a vacated core has no quantum");
            if self.runq.is_empty() {
                // Nobody waiting: renew the quantum in place without
                // touching the thread's op.
                self.arm_quantum(core);
            } else {
                self.preempt(tid, core);
            }
            return;
        };
        let tid = Tid(t);
        if self.threads[t].state == ThreadState::Sleeping {
            let now = self.now;
            let t = &mut self.threads[t];
            t.idle_cycles += now.saturating_sub(t.segment_start);
            t.state = ThreadState::Runnable;
            t.next_result = SyscallResult::Ok;
            t.pending = None;
            self.runq.push_back(tid);
            return;
        }
        // A spin op completing while its flag is still unequal to the
        // target is a timeout; everything else is success.
        let result = match self.threads[t].pending {
            Some(Pending::Spin { flag, target, .. })
                if !target.matches(self.flags[flag.0].value) =>
            {
                SyscallResult::TimedOut
            }
            _ => SyscallResult::Ok,
        };
        self.finish_op(tid, result);
    }

    /// Complete the current op of thread `tid`, which holds its core: it
    /// keeps the core (and quantum) and its actor is stepped in place.
    fn finish_op(&mut self, tid: Tid, result: SyscallResult) {
        self.account_running(tid);
        self.remove_spin_waiter(tid);
        self.threads[tid.0].pending = None;
        self.threads[tid.0].next_result = result;
        let state = self.threads[tid.0].state;
        let ThreadState::Running { core } = state else {
            unreachable!("finish_op on a thread with no op in state {state:?}");
        };
        self.step_thread_on_core(tid, core);
    }

    /// Take `tid` off `core` at a quantum boundary, shrinking its pending
    /// op by the progress made.
    fn preempt(&mut self, tid: Tid, core: usize) {
        let on_core = self.account_running(tid);
        match &mut self.threads[tid.0].pending {
            Some(Pending::Compute { remaining }) => {
                *remaining = remaining.saturating_sub(on_core);
            }
            Some(Pending::Spin {
                remaining_pauses: Some(p),
                ..
            }) => {
                *p = p.saturating_sub(on_core / self.pause_cycles);
            }
            _ => {}
        }
        self.threads[tid.0].state = ThreadState::Runnable;
        self.events.disarm(self.slot(tid));
        self.vacate(core);
        self.runq.push_back(tid);
    }

    /// Arm the completion event for the pending op of `tid` and start its
    /// busy segment. Touches neither its state nor the quantum.
    fn arm_op(&mut self, tid: Tid) {
        let now = self.now;
        self.threads[tid.0].segment_start = now;
        let at = match self.threads[tid.0].pending {
            Some(Pending::Compute { remaining }) => Some(now + remaining),
            Some(Pending::Spin {
                flag,
                target,
                remaining_pauses,
            }) => {
                if target.matches(self.flags[flag.0].value) {
                    // Condition already true: observed after one pause.
                    Some(now + self.pause_cycles)
                } else {
                    if !self.flags[flag.0].waiters.contains(&tid) {
                        self.flags[flag.0].waiters.push(tid);
                    }
                    // Without a timeout, only a flag write or preemption
                    // moves this thread.
                    remaining_pauses.map(|p| now + p.max(1) * self.pause_cycles)
                }
            }
            None => unreachable!("arm_op without a pending op"),
        };
        let slot = self.slot(tid);
        match at {
            Some(time) => self.events.arm(slot, time),
            None => self.events.disarm(slot),
        }
    }

    /// Remove `tid` from any flag waiter list.
    fn remove_spin_waiter(&mut self, tid: Tid) {
        if let Some(Pending::Spin { flag, .. }) = self.threads[tid.0].pending {
            self.flags[flag.0].waiters.retain(|&w| w != tid);
        }
    }

    /// Start a fresh quantum for the current occupancy of `core`,
    /// replacing any armed one.
    fn arm_quantum(&mut self, core: usize) {
        self.events.arm(core, self.now + self.quantum);
    }

    /// Pull threads from the run queue onto idle cores. Called twice per
    /// event and almost always with an empty run queue, so the check
    /// stays inline at the call site and the loop does not.
    #[inline]
    fn dispatch(&mut self) {
        if !self.runq.is_empty() {
            self.dispatch_runq();
        }
    }

    /// The body of [`Kernel::dispatch`]. Stepping may ready further
    /// threads (unparks) or free cores (blocks), so loop until one side
    /// is exhausted.
    fn dispatch_runq(&mut self) {
        while !self.runq.is_empty() {
            let Some(w) = self.free_cores.iter().position(|&w| w != 0) else {
                return;
            };
            let core = w * 64 + self.free_cores[w].trailing_zeros() as usize;
            self.free_cores[w] &= self.free_cores[w] - 1;
            let tid = self.runq.pop_front().expect("checked non-empty");
            // Fresh quantum for the new occupancy; the busy segment
            // starts now (arm_op refreshes it again for timed ops).
            self.threads[tid.0].segment_start = self.now;
            self.running[core] = Some(tid);
            self.arm_quantum(core);
            if self.threads[tid.0].pending.is_none() {
                self.step_thread_on_core(tid, core);
            } else {
                // A preempted op resumes where it left off.
                self.threads[tid.0].state = ThreadState::Running { core };
                self.arm_op(tid);
            }
        }
    }

    /// Step the actor of the thread owning `core`: apply the instant ops
    /// each step issues, and re-step at once after a returned instant
    /// syscall, until a time-consuming one is returned.
    fn step_thread_on_core(&mut self, tid: Tid, core: usize) {
        debug_assert_eq!(self.running[core], Some(tid));
        self.threads[tid.0].state = ThreadState::Running { core };
        loop {
            self.steps += 1;
            let res = self.threads[tid.0].next_result;
            self.threads[tid.0].next_result = SyscallResult::Ok;
            let now = self.now;
            let sys = self.threads[tid.0].actor.step(res, now, &mut self.cx);
            for i in 0..self.cx.ops.len() {
                self.instant(self.cx.ops[i]);
            }
            self.cx.ops.clear();
            match sys {
                Syscall::Compute(cycles) => {
                    // `arm_op` for a compute, inline: the common case.
                    let t = &mut self.threads[tid.0];
                    t.pending = Some(Pending::Compute { remaining: cycles });
                    t.segment_start = now;
                    self.events.arm(self.slot(tid), now + cycles);
                    return;
                }
                Syscall::SpinUntil {
                    flag,
                    target,
                    timeout_pauses,
                } => {
                    self.threads[tid.0].pending = Some(Pending::Spin {
                        flag,
                        target,
                        remaining_pauses: timeout_pauses,
                    });
                    self.arm_op(tid);
                    return;
                }
                Syscall::SetFlag { .. } | Syscall::Unpark(_) => self.instant(sys),
                Syscall::Sleep(cycles) => {
                    self.release_core(tid, core);
                    let now = self.now;
                    let t = &mut self.threads[tid.0];
                    t.state = ThreadState::Sleeping;
                    t.segment_start = now;
                    self.events.arm(self.slot(tid), now + cycles);
                    return;
                }
                Syscall::Park => {
                    if self.threads[tid.0].unpark_pending {
                        self.threads[tid.0].unpark_pending = false;
                        continue; // token available: return immediately
                    }
                    self.release_core(tid, core);
                    let now = self.now;
                    let t = &mut self.threads[tid.0];
                    t.state = ThreadState::Parked;
                    t.segment_start = now;
                    self.events.disarm(self.slot(tid));
                    return;
                }
                Syscall::Done => {
                    self.release_core(tid, core);
                    self.threads[tid.0].state = ThreadState::Finished;
                    self.events.disarm(self.slot(tid));
                    self.live_threads -= 1;
                    return;
                }
            }
        }
    }

    fn release_core(&mut self, tid: Tid, core: usize) {
        debug_assert_eq!(self.running[core], Some(tid));
        self.account_running(tid);
        self.threads[tid.0].pending = None;
        self.vacate(core);
    }

    /// `core` goes idle: disarm its quantum and return it to the free
    /// pool.
    fn vacate(&mut self, core: usize) {
        self.running[core] = None;
        self.events.disarm(core);
        self.free_cores[core / 64] |= 1 << (core % 64);
    }

    /// Apply an instant syscall, returned or issued through [`StepCx`].
    fn instant(&mut self, op: Syscall) {
        match op {
            Syscall::SetFlag { flag, value } => self.set_flag(flag, value),
            Syscall::Unpark(target) => self.unpark(target),
            other => unreachable!("{other:?} is not an instant syscall"),
        }
    }

    fn set_flag(&mut self, flag: FlagId, value: u64) {
        self.flags[flag.0].value = value;
        // Arming events never touches a waiter list, so walk it in place.
        for i in 0..self.flags[flag.0].waiters.len() {
            let tid = self.flags[flag.0].waiters[i];
            let Some(Pending::Spin { target, .. }) = self.threads[tid.0].pending else {
                continue;
            };
            if !target.matches(value) {
                continue;
            }
            if matches!(self.threads[tid.0].state, ThreadState::Running { .. }) {
                // Observed one pause later; replaces any armed timeout.
                self.events
                    .arm(self.slot(tid), self.now + self.pause_cycles);
            }
            // Runnable (preempted) spinners observe the value via arm_op
            // when next scheduled; sleeping/parked threads are never flag
            // waiters.
        }
    }

    fn unpark(&mut self, target: Tid) {
        let now = self.now;
        let t = &mut self.threads[target.0];
        match t.state {
            ThreadState::Parked => {
                t.idle_cycles += now.saturating_sub(t.segment_start);
                t.state = ThreadState::Runnable;
                t.next_result = SyscallResult::Ok;
                t.pending = None;
                self.runq.push_back(target);
            }
            ThreadState::Finished => {}
            _ => {
                t.unpark_pending = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Scripted actor: plays a fixed list of syscalls, recording results.
    struct Script {
        steps: Vec<Syscall>,
        i: usize,
        log: Rc<RefCell<Vec<(u64, SyscallResult)>>>,
    }

    impl Script {
        fn new(steps: Vec<Syscall>, log: Rc<RefCell<Vec<(u64, SyscallResult)>>>) -> Box<Self> {
            Box::new(Script { steps, i: 0, log })
        }
    }

    impl Actor for Script {
        fn step(&mut self, res: SyscallResult, now: u64, _cx: &mut StepCx) -> Syscall {
            self.log.borrow_mut().push((now, res));
            let s = self.steps.get(self.i).copied().unwrap_or(Syscall::Done);
            self.i += 1;
            s
        }
        fn group(&self) -> &str {
            "script"
        }
    }

    /// Kernel with a 1M-cycle quantum.
    fn kernel(cores: usize) -> Kernel {
        Kernel::new(cores, 1_000_000, 140)
    }

    // -----------------------------------------------------------------
    // Computes, spins, sleeps, parks, instant ops and accounting.
    // -----------------------------------------------------------------

    #[test]
    fn single_compute_finishes_at_exact_time() {
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        k.spawn(Script::new(vec![Syscall::Compute(5_000)], Rc::clone(&log)));
        let end = k.run();
        assert_eq!(end, 5_000);
        let log = log.borrow();
        assert_eq!(log[0], (0, SyscallResult::Init));
        assert_eq!(log[1], (5_000, SyscallResult::Ok));
    }

    #[test]
    fn two_threads_two_cores_parallelize() {
        let mut k = kernel(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        k.spawn(Script::new(
            vec![Syscall::Compute(300_000)],
            Rc::clone(&log),
        ));
        k.spawn(Script::new(
            vec![Syscall::Compute(300_000)],
            Rc::clone(&log),
        ));
        assert_eq!(k.run(), 300_000);
    }

    #[test]
    fn sleep_yields_the_core() {
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let sleeper = k.spawn(Script::new(
            vec![Syscall::Sleep(1_000_000)],
            Rc::clone(&log),
        ));
        let worker = k.spawn(Script::new(
            vec![Syscall::Compute(500_000)],
            Rc::clone(&log),
        ));
        let end = k.run();
        assert_eq!(end, 1_000_000, "sleep dominates");
        assert_eq!(k.thread_cycles(sleeper), (0, 1_000_000));
        assert_eq!(k.thread_cycles(worker).0, 500_000);
        // The worker's compute completed at 500k, while the sleeper
        // was off-core.
        assert!(log.borrow().contains(&(500_000, SyscallResult::Ok)));
    }

    #[test]
    fn spin_wakes_one_pause_after_flag_set() {
        let mut k = kernel(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        let flag = k.new_flag(0);
        k.spawn(Script::new(
            vec![Syscall::SpinUntil {
                flag,
                target: SpinTarget::Eq(1),
                timeout_pauses: None,
            }],
            Rc::clone(&log),
        ));
        k.spawn(Script::new(
            vec![
                Syscall::Compute(10_000),
                Syscall::SetFlag { flag, value: 1 },
            ],
            Rc::clone(&log),
        ));
        let end = k.run();
        assert_eq!(end, 10_000 + 140, "observed one pause after the set");
        assert_eq!(
            k.thread_cycles(Tid(0)).0,
            10_140,
            "spinner charged busy throughout the wait"
        );
    }

    #[test]
    fn spin_timeout_fires_after_budget() {
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let flag = k.new_flag(0);
        k.spawn(Script::new(
            vec![Syscall::SpinUntil {
                flag,
                target: SpinTarget::Eq(1),
                timeout_pauses: Some(100),
            }],
            Rc::clone(&log),
        ));
        let end = k.run();
        assert_eq!(end, 100 * 140);
        assert_eq!(log.borrow()[1], (14_000, SyscallResult::TimedOut));
    }

    #[test]
    fn spin_on_already_set_flag_returns_after_one_pause() {
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let flag = k.new_flag(7);
        k.spawn(Script::new(
            vec![Syscall::SpinUntil {
                flag,
                target: SpinTarget::Eq(7),
                timeout_pauses: Some(5),
            }],
            Rc::clone(&log),
        ));
        let end = k.run();
        assert_eq!(end, 140);
        assert_eq!(log.borrow()[1].1, SyscallResult::Ok);
    }

    #[test]
    fn park_and_unpark() {
        let mut k = kernel(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        let parked = k.spawn(Script::new(vec![Syscall::Park], Rc::clone(&log)));
        k.spawn(Script::new(
            vec![Syscall::Compute(50_000), Syscall::Unpark(parked)],
            Rc::clone(&log),
        ));
        let end = k.run();
        assert_eq!(end, 50_000);
        assert_eq!(k.thread_cycles(parked), (0, 50_000), "parked time is idle");
    }

    #[test]
    fn unpark_token_prevents_park() {
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        // Unparker runs first; the target parks later and must consume
        // the pending token without blocking.
        let target = Tid(1);
        k.spawn(Script::new(
            vec![Syscall::Unpark(target), Syscall::Compute(1_000)],
            Rc::clone(&log),
        ));
        k.spawn(Script::new(
            vec![Syscall::Park, Syscall::Compute(500)],
            Rc::clone(&log),
        ));
        let end = k.run();
        assert_eq!(end, 1_500, "park must not block with a pending token");
    }

    #[test]
    fn deadline_stops_the_clock() {
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        k.spawn(Script::new(
            vec![Syscall::Compute(u64::MAX / 2)],
            Rc::clone(&log),
        ));
        let end = k.run_until(1_000_000);
        assert_eq!(end, 1_000_000);
        assert_eq!(k.live_threads(), 1);
    }

    #[test]
    fn open_segments_count_and_both_policies_stop_at_the_last_event() {
        // An untimed spinner beside a 10 000-cycle compute, with a
        // deadline far past both. Nothing can wake the spinner after
        // 10 000, so its quantum must not renew to the deadline, and
        // its still-open spin counts as busy.
        let mut k = kernel(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        let flag = k.new_flag(0);
        let spinner = k.spawn(Script::new(
            vec![Syscall::SpinUntil {
                flag,
                target: SpinTarget::Eq(1),
                timeout_pauses: None,
            }],
            Rc::clone(&log),
        ));
        let worker = k.spawn(Script::new(vec![Syscall::Compute(10_000)], Rc::clone(&log)));
        assert_eq!(k.run_until(5_000_000), 10_000);
        assert_eq!(k.next_tick(), None);
        assert_eq!(k.tick(), None);
        assert_eq!(k.live_threads(), 1);
        assert_eq!(k.thread_cycles(spinner), (10_000, 0));
        assert_eq!(k.thread_cycles(worker), (10_000, 0));
        assert_eq!(k.group_busy_cycles("script"), 20_000);
        assert_eq!(k.total_busy_cycles(), 20_000);
    }

    #[test]
    fn group_accounting() {
        let mut k = kernel(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        k.spawn(Script::new(vec![Syscall::Compute(1_000)], Rc::clone(&log)));
        k.spawn(Script::new(vec![Syscall::Compute(2_000)], Rc::clone(&log)));
        k.run();
        assert_eq!(k.group_busy_cycles("script"), 3_000);
        assert_eq!(k.group_busy_cycles("other"), 0);
        assert_eq!(k.total_busy_cycles(), 3_000);
    }

    #[test]
    fn determinism_same_script_same_trace() {
        let run = |mut k: Kernel| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let flag = k.new_flag(0);
            for i in 0..4 {
                k.spawn(Script::new(
                    vec![
                        Syscall::Compute(1_000 * (i + 1)),
                        Syscall::SetFlag { flag, value: i },
                        Syscall::Compute(500),
                    ],
                    Rc::clone(&log),
                ));
            }
            k.run();
            let trace = log.borrow().clone();
            trace
        };
        assert_eq!(
            run(Kernel::new(2, 10_000, 140)),
            run(Kernel::new(2, 10_000, 140))
        );
    }

    #[test]
    fn zero_compute_is_instantaneous_but_valid() {
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        k.spawn(Script::new(
            vec![Syscall::Compute(0), Syscall::Compute(100)],
            Rc::clone(&log),
        ));
        assert_eq!(k.run(), 100);
    }

    #[test]
    fn flags_read_back() {
        let mut k = kernel(1);
        let f = k.new_flag(3);
        assert_eq!(k.flag(f), 3);
        let log = Rc::new(RefCell::new(Vec::new()));
        k.spawn(Script::new(
            vec![Syscall::SetFlag { flag: f, value: 9 }],
            Rc::clone(&log),
        ));
        k.run();
        assert_eq!(k.flag(f), 9);
    }

    #[test]
    fn all_parked_terminates_run() {
        // Parking vacates the core and disarms its quantum, so no event
        // is left: the run breaks at t = 0 with the parked thread live.
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        k.spawn(Script::new(vec![Syscall::Park], Rc::clone(&log)));
        assert_eq!(k.run_until(10_000), 0);
        assert_eq!(k.live_threads(), 1);
    }

    #[test]
    fn early_satisfied_spins_leave_no_timeout_behind() {
        // 2 000 doorbell round trips, each side spinning with a 20 000-pause
        // timeout (2.8 M cycles) that the other side satisfies within a
        // few hundred cycles. A superseded timeout must leave the queue.
        const ROUND_TRIPS: u64 = 2_000;
        let mut k = kernel(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        let (req, resp) = (k.new_flag(0), k.new_flag(0));
        let spin = |flag, i| Syscall::SpinUntil {
            flag,
            target: SpinTarget::Eq(i),
            timeout_pauses: Some(20_000),
        };
        let (mut caller, mut worker) = (Vec::new(), Vec::new());
        for i in 1..=ROUND_TRIPS {
            caller.extend([
                Syscall::SetFlag {
                    flag: req,
                    value: i,
                },
                spin(resp, i),
            ]);
            worker.extend([
                spin(req, i),
                Syscall::Compute(100),
                Syscall::SetFlag {
                    flag: resp,
                    value: i,
                },
            ]);
        }
        k.spawn(Script::new(caller, Rc::clone(&log)));
        k.spawn(Script::new(worker, Rc::clone(&log)));
        let bound = k.cores() + k.threads.len();
        while k.tick().is_some() {
            assert!(
                k.events.heap.len() <= bound,
                "{} events",
                k.events.heap.len()
            );
        }
        assert_eq!(k.live_threads(), 0);
        assert_eq!(k.flag(resp), ROUND_TRIPS);
        assert!(log
            .borrow()
            .iter()
            .all(|&(_, r)| r != SyscallResult::TimedOut));
    }

    /// Plays `(instant ops, syscall)` turns: each step issues its ops
    /// through the step context, then returns the syscall.
    struct Turns(std::vec::IntoIter<(Vec<Syscall>, Syscall)>);

    impl Actor for Turns {
        fn step(&mut self, _res: SyscallResult, _now: u64, cx: &mut StepCx) -> Syscall {
            let Some((ops, sys)) = self.0.next() else {
                return Syscall::Done;
            };
            for op in ops {
                match op {
                    Syscall::SetFlag { flag, value } => cx.set_flag(flag, value),
                    Syscall::Unpark(tid) => cx.unpark(tid),
                    other => unreachable!("{other:?} is not an instant op"),
                }
            }
            sys
        }
    }

    /// A [`Script`] whose steps also land, tagged with its thread, in
    /// one log shared by several threads: the log then shows the order
    /// in which same-instant events were handled.
    struct Tagged(
        usize,
        Box<Script>,
        Rc<RefCell<Vec<(usize, u64, SyscallResult)>>>,
    );

    impl Actor for Tagged {
        fn step(&mut self, res: SyscallResult, now: u64, cx: &mut StepCx) -> Syscall {
            self.2.borrow_mut().push((self.0, now, res));
            self.1.step(res, now, cx)
        }
    }

    #[test]
    fn ops_issued_in_a_step_act_like_one_op_steps() {
        // Thread 0 computes, then issues `a := 1`, unpark thread 2 and
        // `b := 1` before spinning on `c`, then unparks thread 4 before
        // a last compute — once as turns through the step context, once
        // as a script of one-op steps. Thread 2 ends its own compute at
        // the same instant, after thread 0, so the unpark reaches it as
        // a token before its `Park`; thread 4 is parked by then. Three
        // cores, five threads: threads 3 and 4 queue behind the
        // spinners.
        let run = |mut k: Kernel, batched: bool| {
            let (a, b, c) = (k.new_flag(0), k.new_flag(0), k.new_flag(0));
            let set = |flag| Syscall::SetFlag { flag, value: 1 };
            let spin = |flag, target, timeout_pauses| Syscall::SpinUntil {
                flag,
                target,
                timeout_pauses,
            };
            let turns = vec![
                (vec![], Syscall::Compute(1_000)),
                (
                    vec![set(a), Syscall::Unpark(Tid(2)), set(b)],
                    spin(c, SpinTarget::Eq(1), Some(100)),
                ),
                (vec![Syscall::Unpark(Tid(4))], Syscall::Compute(100)),
            ];
            if batched {
                k.spawn(Box::new(Turns(turns.into_iter())));
            } else {
                let steps = turns
                    .into_iter()
                    .flat_map(|(ops, sys)| ops.into_iter().chain([sys]));
                k.spawn(Script::new(steps.collect(), Rc::default()));
            }
            let log = Rc::new(RefCell::new(Vec::new()));
            for (t, steps) in [
                vec![
                    spin(a, SpinTarget::Eq(1), None),
                    Syscall::Compute(200),
                    set(c),
                ],
                vec![Syscall::Compute(1_000), Syscall::Park, Syscall::Compute(50)],
                vec![
                    spin(b, SpinTarget::Ne(0), Some(5_000)),
                    Syscall::Compute(10),
                ],
                vec![Syscall::Park, Syscall::Compute(30)],
            ]
            .into_iter()
            .enumerate()
            {
                let script = Script::new(steps, Rc::default());
                k.spawn(Box::new(Tagged(t + 1, script, Rc::clone(&log))));
            }
            let end = k.run();
            assert_eq!(k.live_threads(), 0);
            let cycles: Vec<_> = (0..5).map(|t| k.thread_cycles(Tid(t))).collect();
            let flags = [a, b, c].map(|f| k.flag(f));
            let log = log.borrow().clone();
            (end, log, cycles, flags)
        };
        let batched = run(kernel(3), true);
        assert_eq!(batched, run(kernel(3), false));
        let (_, _, cycles, flags) = batched;
        assert_eq!(flags, [1, 1, 1]);
        assert_eq!(cycles[2].1, 0, "thread 2 took the token, never parked");
        assert!(cycles[4].1 > 0, "thread 4 was parked until the unpark");
    }

    // -----------------------------------------------------------------
    // Threads > cores: preemption at quantum boundaries.
    // -----------------------------------------------------------------

    #[test]
    fn two_threads_one_core_serialize() {
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = k.spawn(Script::new(
            vec![Syscall::Compute(300_000)],
            Rc::clone(&log),
        ));
        let b = k.spawn(Script::new(
            vec![Syscall::Compute(300_000)],
            Rc::clone(&log),
        ));
        let end = k.run();
        assert_eq!(end, 600_000, "one core must serialize the work");
        assert_eq!(k.thread_cycles(a).0, 300_000);
        assert_eq!(k.thread_cycles(b).0, 300_000);
    }

    #[test]
    fn round_robin_interleaves_long_jobs() {
        // Quantum 1M: two 3M jobs on one core must alternate and finish
        // within one quantum of each other, not FIFO at 3M/6M.
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        k.spawn(Script::new(
            vec![Syscall::Compute(3_000_000)],
            Rc::clone(&log),
        ));
        k.spawn(Script::new(
            vec![Syscall::Compute(3_000_000)],
            Rc::clone(&log),
        ));
        let end = k.run();
        assert_eq!(end, 6_000_000, "total work is conserved under preemption");
        let finish_times: Vec<u64> = log
            .borrow()
            .iter()
            .filter(|(_, r)| *r == SyscallResult::Ok)
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(finish_times.len(), 2);
        assert!(
            finish_times[1] - finish_times[0] <= 1_000_000,
            "RR must interleave: finishes {finish_times:?}"
        );
    }

    #[test]
    fn preempted_spinner_observes_flag_when_rescheduled() {
        // One core, 10k quantum, untimed spinner. Timeline: spinner spins
        // 10k (quantum), setter computes 5k and sets the flag, spinner is
        // rescheduled and observes one pause later.
        let mut k = Kernel::new(1, 10_000, 140);
        let log = Rc::new(RefCell::new(Vec::new()));
        let flag = k.new_flag(0);
        k.spawn(Script::new(
            vec![Syscall::SpinUntil {
                flag,
                target: SpinTarget::Eq(1),
                timeout_pauses: None,
            }],
            Rc::clone(&log),
        ));
        k.spawn(Script::new(
            vec![Syscall::Compute(5_000), Syscall::SetFlag { flag, value: 1 }],
            Rc::clone(&log),
        ));
        let end = k.run();
        assert_eq!(end, 15_140);
    }

    #[test]
    fn preempted_compute_conserves_total_work() {
        // Three 1M jobs, one core, 100k quantum: heavy preemption, but
        // total busy time must equal total work and the clock must end at
        // exactly 3M.
        let mut k = Kernel::new(1, 100_000, 140);
        let log = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            k.spawn(Script::new(
                vec![Syscall::Compute(1_000_000)],
                Rc::clone(&log),
            ));
        }
        let end = k.run();
        assert_eq!(end, 3_000_000);
        assert_eq!(k.total_busy_cycles(), 3_000_000);
    }

    #[test]
    fn spin_timeout_budget_only_burns_on_cpu() {
        // One core, quantum 7k (50 pauses). Spinner A (timeout 100
        // pauses) shares the core with a long compute B. A's budget must
        // last 2 on-core stints (~100 pauses of CPU), so its timeout
        // fires after roughly twice the wall time of an uncontended spin.
        let mut k = Kernel::new(1, 7_000, 140);
        let log = Rc::new(RefCell::new(Vec::new()));
        let flag = k.new_flag(0);
        k.spawn(Script::new(
            vec![Syscall::SpinUntil {
                flag,
                target: SpinTarget::Eq(1),
                timeout_pauses: Some(100),
            }],
            Rc::clone(&log),
        ));
        k.spawn(Script::new(vec![Syscall::Compute(50_000)], Rc::clone(&log)));
        k.run();
        let timeout_at = log
            .borrow()
            .iter()
            .find(|(_, r)| *r == SyscallResult::TimedOut)
            .map(|(t, _)| *t)
            .expect("spinner must time out");
        assert!(
            timeout_at > 14_000,
            "budget must not burn while preempted (timed out at {timeout_at})"
        );
        // 100 pauses = 14k on-CPU; with ~7k quantum alternation the wall
        // time is ~21k plus rounding.
        assert!(timeout_at <= 30_000, "timed out too late: {timeout_at}");
    }

    // -----------------------------------------------------------------
    // Stepping, liveness and scale.
    // -----------------------------------------------------------------

    #[test]
    fn next_tick_and_tick_step_the_machine_event_by_event() {
        let mut k = kernel(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        k.spawn(Script::new(
            vec![Syscall::Compute(1_000), Syscall::Sleep(500)],
            Rc::clone(&log),
        ));
        // Seed the initial dispatch, then walk the event list manually.
        assert_eq!(k.tick(), Some(1_000), "first event: compute completes");
        assert_eq!(
            k.next_tick(),
            Some(1_500),
            "sleep timer is armed, the vacated core's quantum is not"
        );
        assert_eq!(k.tick(), Some(1_500));
        assert_eq!(k.next_tick(), None, "thread finished; no more events");
        assert_eq!(k.tick(), None);
        assert_eq!(k.live_threads(), 0);
    }

    #[test]
    fn oversubscription_stays_live_with_many_spinners() {
        // 200 spinner/setter pairs on 4 cores. The spinners take the
        // cores first and hold them, but every quantum hands each core
        // to the next queued thread, so every setter runs and every
        // pair completes.
        let mut k = kernel(4);
        let log = Rc::new(RefCell::new(Vec::new()));
        let flags: Vec<FlagId> = (0..200).map(|_| k.new_flag(0)).collect();
        for &flag in &flags {
            k.spawn(Script::new(
                vec![Syscall::SpinUntil {
                    flag,
                    target: SpinTarget::Eq(1),
                    timeout_pauses: None,
                }],
                Rc::clone(&log),
            ));
        }
        for &flag in &flags {
            k.spawn(Script::new(
                vec![Syscall::Compute(1_000), Syscall::SetFlag { flag, value: 1 }],
                Rc::clone(&log),
            ));
        }
        k.run();
        assert_eq!(k.live_threads(), 0, "no spinner may starve the machine");
        for &flag in &flags {
            assert_eq!(k.flag(flag), 1);
        }
    }

    #[test]
    fn lifted_core_cap_scales_past_128() {
        let mut k = kernel(256);
        let log = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..256 {
            k.spawn(Script::new(vec![Syscall::Compute(10_000)], Rc::clone(&log)));
        }
        assert_eq!(k.run(), 10_000, "256 computes run fully in parallel");
        assert_eq!(k.total_busy_cycles(), 256 * 10_000);
    }
}
