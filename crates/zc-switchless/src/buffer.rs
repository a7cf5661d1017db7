//! Per-worker shared buffers (paper §IV-B).
//!
//! Each worker owns a buffer with the four fields of the paper's design:
//! a preallocated untrusted memory pool, a slot for the most recent
//! switchless request, an atomic status word driving the
//! `UNUSED → RESERVED → PROCESSING → WAITING → UNUSED` state machine, and
//! a scheduler-communication word ([`SchedCommand`]).
//!
//! Both shared words live in *untrusted* memory, so every read is
//! validated by the trusted-side guard ([`SharedWordGuard`]): status and
//! command bytes decode total-function-style (garbage ⇒
//! [`GuardViolation`], never a panic) and transitions are checked against
//! the legality table of [`WorkerState::can_transition`] in release
//! builds — an illegal edge poisons the slot instead of asserting.

use crate::pool::RequestPool;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use switchless_core::{
    GuardViolation, OcallReply, OcallRequest, SharedWordGuard, TransitionLog, WorkerState,
};

/// Command word the scheduler writes into a worker's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SchedCommand {
    /// Keep running.
    Run = 0,
    /// Pause when idle (scheduler shrank the active set).
    Deactivate = 1,
    /// Terminate (program shutdown).
    Exit = 2,
}

impl SchedCommand {
    /// Fallible decode of a host-written command byte. The command word
    /// lives in untrusted memory, so an unknown byte is hostile input to
    /// reject, not a protocol bug to assert on.
    pub fn from_u8(v: u8) -> Option<SchedCommand> {
        match v {
            0 => Some(SchedCommand::Run),
            1 => Some(SchedCommand::Deactivate),
            2 => Some(SchedCommand::Exit),
            _ => None,
        }
    }
}

/// The request slot: what the caller hands to the worker and what the
/// worker hands back. Only the current owner (per the status word)
/// touches it, so the mutex is uncontended.
#[derive(Debug, Default)]
pub struct RequestSlot {
    /// The posted request.
    pub request: Option<OcallRequest>,
    /// Offset/length of the caller's payload inside the worker pool.
    pub payload_in: (usize, usize),
    /// Host-function output (untrusted side).
    pub payload_out: Vec<u8>,
    /// Completed reply.
    pub reply: OcallReply,
    /// Worker-measured host-function cycles for the last served call
    /// (phase profiling; advisory only — the caller clamps it to its
    /// own wait window, so a lying host cannot break conservation).
    pub exec_cycles: u64,
}

/// Emits a telemetry event for every successful status transition of
/// one buffer, attributed to the buffer's worker index (whichever
/// thread — caller, worker or scheduler — performed the CAS).
#[derive(Debug)]
pub struct TransitionTracer {
    telemetry: Arc<zc_telemetry::Telemetry>,
    clock: sgx_sim::CycleClock,
    worker: u32,
}

impl TransitionTracer {
    /// New tracer for worker buffer `worker`, stamping with `clock`.
    #[must_use]
    pub fn new(
        telemetry: Arc<zc_telemetry::Telemetry>,
        clock: sgx_sim::CycleClock,
        worker: u32,
    ) -> Self {
        TransitionTracer {
            telemetry,
            clock,
            worker,
        }
    }

    fn emit(&self, from: WorkerState, to: WorkerState) {
        self.telemetry.record(
            self.clock.now_cycles(),
            zc_telemetry::Origin::Worker(self.worker),
            zc_telemetry::Event::WorkerTransition {
                worker: self.worker,
                from,
                to,
            },
        );
    }
}

/// Shared buffer of one ZC worker.
#[derive(Debug)]
pub struct WorkerBuffer {
    status: AtomicU8,
    sched_cmd: AtomicU8,
    slot: Mutex<RequestSlot>,
    pool: Mutex<RequestPool>,
    thread: OnceLock<Thread>,
    poisoned: AtomicBool,
    recorder: OnceLock<Arc<TransitionLog>>,
    tracer: OnceLock<TransitionTracer>,
}

impl WorkerBuffer {
    /// New buffer in the `UNUSED` state with a pool of `pool_bytes`.
    #[must_use]
    pub fn new(pool_bytes: usize) -> Self {
        WorkerBuffer {
            status: AtomicU8::new(WorkerState::Unused.as_u8()),
            sched_cmd: AtomicU8::new(SchedCommand::Run as u8),
            slot: Mutex::new(RequestSlot::default()),
            pool: Mutex::new(RequestPool::new(pool_bytes)),
            thread: OnceLock::new(),
            poisoned: AtomicBool::new(false),
            recorder: OnceLock::new(),
            tracer: OnceLock::new(),
        }
    }

    /// Current worker state, validated by the trusted-side guard.
    ///
    /// # Errors
    ///
    /// [`GuardViolation`] (`BadStatusWord`) if the host scribbled a byte
    /// outside the state machine onto the status word.
    pub fn state(&self) -> Result<WorkerState, GuardViolation> {
        SharedWordGuard.decode_status(self.status.load(Ordering::Acquire))
    }

    /// Attempt the `from -> to` transition.
    ///
    /// Returns `true` on success. The edge is checked against the paper's
    /// legality table *in release builds*: an illegal edge — only
    /// reachable when untrusted state lied to the caller — poisons the
    /// slot and fails the transition instead of asserting.
    pub fn try_transition(&self, from: WorkerState, to: WorkerState) -> bool {
        if SharedWordGuard.check_transition(from, to).is_err() {
            self.poison();
            return false;
        }
        let ok = self
            .status
            .compare_exchange(
                from.as_u8(),
                to.as_u8(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if ok {
            if let Some(log) = self.recorder.get() {
                log.record(from, to);
            }
            if let Some(tracer) = self.tracer.get() {
                tracer.emit(from, to);
            }
        }
        ok
    }

    /// Mark this worker unusable: a fault (crash/hang) struck its thread.
    /// Poisoned workers are skipped by dispatch and by scheduler
    /// activation, and callers waiting on them re-route to the fallback.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// `true` once [`poison`](Self::poison) has been called.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Attach a [`TransitionLog`] recording every *successful* status
    /// transition (first caller wins; used by state-machine tests).
    pub fn set_recorder(&self, log: Arc<TransitionLog>) {
        let _ = self.recorder.set(log);
    }

    /// Attach a telemetry [`TransitionTracer`] emitting an event per
    /// successful status transition (first caller wins; installed by
    /// `ZcRuntime::start_with_telemetry`).
    pub fn set_tracer(&self, tracer: TransitionTracer) {
        let _ = self.tracer.set(tracer);
    }

    /// Scheduler command currently posted, validated by the guard.
    ///
    /// # Errors
    ///
    /// [`GuardViolation`] (`BadCommandWord`) if the host scribbled an
    /// unknown byte onto the command word.
    pub fn sched_command(&self) -> Result<SchedCommand, GuardViolation> {
        SharedWordGuard.decode_command(
            self.sched_cmd.load(Ordering::Acquire),
            SchedCommand::from_u8,
        )
    }

    /// Post a scheduler command.
    pub fn post_command(&self, cmd: SchedCommand) {
        self.sched_cmd.store(cmd as u8, Ordering::Release);
    }

    /// Byzantine test hook: the "host" writes an arbitrary byte straight
    /// onto the status word, bypassing the CAS protocol — exactly what a
    /// hostile OS can do to shared memory.
    pub fn host_write_status(&self, raw: u8) {
        self.status.store(raw, Ordering::Release);
    }

    /// Byzantine test hook: the "host" writes an arbitrary byte onto the
    /// scheduler-command word.
    pub fn host_write_sched_cmd(&self, raw: u8) {
        self.sched_cmd.store(raw, Ordering::Release);
    }

    /// Access the request slot. Callers/workers must hold ownership per
    /// the status word before touching it.
    pub fn with_slot<R>(&self, f: impl FnOnce(&mut RequestSlot) -> R) -> R {
        f(&mut self.slot.lock())
    }

    /// Access the untrusted request pool.
    pub fn with_pool<R>(&self, f: impl FnOnce(&mut RequestPool) -> R) -> R {
        f(&mut self.pool.lock())
    }

    /// Record the worker's thread handle (once, from the worker itself)
    /// so the scheduler can unpark it.
    pub fn set_thread(&self, t: Thread) {
        let _ = self.thread.set(t);
    }

    /// Unpark the worker thread, if registered.
    pub fn unpark(&self) {
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::FuncId;

    #[test]
    fn starts_unused_and_running() {
        let b = WorkerBuffer::new(1024);
        assert_eq!(b.state(), Ok(WorkerState::Unused));
        assert_eq!(b.sched_command(), Ok(SchedCommand::Run));
    }

    #[test]
    fn happy_path_transitions() {
        let b = WorkerBuffer::new(1024);
        assert!(b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        assert!(b.try_transition(WorkerState::Reserved, WorkerState::Processing));
        assert!(b.try_transition(WorkerState::Processing, WorkerState::Waiting));
        assert!(b.try_transition(WorkerState::Waiting, WorkerState::Unused));
        assert_eq!(b.state(), Ok(WorkerState::Unused));
    }

    #[test]
    fn failed_cas_leaves_state_untouched() {
        let b = WorkerBuffer::new(1024);
        assert!(b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        // Second claim must lose.
        assert!(!b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        assert_eq!(b.state(), Ok(WorkerState::Reserved));
    }

    #[test]
    fn commands_round_trip() {
        let b = WorkerBuffer::new(1024);
        b.post_command(SchedCommand::Deactivate);
        assert_eq!(b.sched_command(), Ok(SchedCommand::Deactivate));
        b.post_command(SchedCommand::Exit);
        assert_eq!(b.sched_command(), Ok(SchedCommand::Exit));
        b.post_command(SchedCommand::Run);
        assert_eq!(b.sched_command(), Ok(SchedCommand::Run));
    }

    #[test]
    fn slot_carries_request_and_reply() {
        let b = WorkerBuffer::new(1024);
        b.with_slot(|s| {
            s.request = Some(OcallRequest::new(FuncId(3), &[1]));
            s.payload_in = (0, 5);
            s.reply.ret = 9;
        });
        b.with_slot(|s| {
            assert_eq!(s.request.unwrap().func, FuncId(3));
            assert_eq!(s.payload_in, (0, 5));
            assert_eq!(s.reply.ret, 9);
        });
    }

    #[test]
    fn pool_is_per_buffer() {
        let b = WorkerBuffer::new(128);
        b.with_pool(|p| assert_eq!(p.capacity(), 128));
    }

    #[test]
    fn unpark_without_thread_is_noop() {
        let b = WorkerBuffer::new(64);
        b.unpark(); // must not panic
        b.set_thread(std::thread::current());
        b.unpark();
    }

    #[test]
    fn illegal_transition_poisons_in_release_too() {
        // The release-mode promotion of the old debug assertion: an
        // illegal edge never fires the CAS, quarantines the slot, and
        // leaves the status word untouched.
        let b = WorkerBuffer::new(64);
        assert!(!b.try_transition(WorkerState::Processing, WorkerState::Unused));
        assert!(b.is_poisoned());
        assert_eq!(b.state(), Ok(WorkerState::Unused));
    }

    #[test]
    fn host_scribbles_become_violations_not_panics() {
        use switchless_core::GuardKind;
        let b = WorkerBuffer::new(64);
        b.host_write_status(0xEE);
        assert_eq!(b.state().unwrap_err().kind, GuardKind::BadStatusWord);
        b.host_write_sched_cmd(0x7F);
        assert_eq!(
            b.sched_command().unwrap_err().kind,
            GuardKind::BadCommandWord
        );
        // Every byte decodes or rejects; none may panic.
        for raw in 0..=u8::MAX {
            b.host_write_status(raw);
            let _ = b.state();
            b.host_write_sched_cmd(raw);
            let _ = b.sched_command();
        }
    }

    #[test]
    fn poison_flag_latches() {
        let b = WorkerBuffer::new(64);
        assert!(!b.is_poisoned());
        b.poison();
        assert!(b.is_poisoned());
        b.poison(); // idempotent
        assert!(b.is_poisoned());
    }

    #[test]
    fn recorder_sees_successful_transitions_only() {
        let b = WorkerBuffer::new(64);
        let log = Arc::new(TransitionLog::new());
        b.set_recorder(Arc::clone(&log));
        assert!(b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        assert!(!b.try_transition(WorkerState::Unused, WorkerState::Reserved)); // lost CAS
        assert!(b.try_transition(WorkerState::Reserved, WorkerState::Processing));
        assert_eq!(
            log.edges(),
            vec![
                (WorkerState::Unused, WorkerState::Reserved),
                (WorkerState::Reserved, WorkerState::Processing),
            ]
        );
        assert!(log.illegal_edges().is_empty());
    }
}
