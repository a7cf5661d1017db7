//! Per-worker shared buffers (paper §IV-B).
//!
//! Each worker owns a buffer with the four fields of the paper's design:
//! an untrusted memory pool, a slot for the most recent
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
//!
//! The buffer is a **mailbox** (DESIGN.md §5): the status word, the
//! posted request, the inline window, the reply and the pool headers
//! sit in one 128-byte-aligned block that belongs to whoever the status
//! word names — the caller in `RESERVED`/`WAITING`, the worker in
//! `PROCESSING`. Ownership moves with the status CAS, so the slot and
//! the pool need no lock of their own. The block's first 64-byte line
//! holds the three shared words and everything a payload-free call with
//! up to three scalar arguments posts and gets back, so such a call
//! moves that one line to the worker and back, and nothing else. The
//! second line ends in a 39-byte inline window: a request payload that
//! fits rides there instead of in the pool, and so does a reply that
//! fits, so such a call moves two lines. Longer payloads go through the
//! pool and `payload_out`, whose headers share the third line. All
//! `unsafe` of the crate is in this file.

use crate::pool::RequestPool;
use parking_lot::Mutex;
use sgx_sim::tlibc::memcpy_zc;
use std::cell::UnsafeCell;
use std::mem::{align_of, offset_of, size_of};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use switchless_core::{
    FuncId, GuardViolation, OcallReply, OcallRequest, ReplyGuard, SharedWordGuard, WorkerState,
    MAX_OCALL_ARGS,
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

/// Which end of the hand-off is touching the mailbox. The status word
/// says whose turn it is; debug builds check the claim against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The enclave thread that claimed the worker: owns the mailbox in
    /// `RESERVED` (posting) and `WAITING` (collecting the reply).
    Caller,
    /// The worker thread serving the buffer: owns it in `PROCESSING`.
    Worker,
}

/// Scalar arguments that fit in the status word's line beside the rest
/// of a posted request and its reply (asserted below): a payload-free
/// call with at most this many moves one 64-byte line each way.
const LINE0_ARGS: usize = 3;

/// Bytes of the inline window, the end of line 1 (asserted below): a
/// request payload or a reply of at most this many rides there, beside
/// the posted request, instead of in the pool or `payload_out`.
pub(crate) const INLINE_BYTES: usize = 39;

/// `RequestSlot::mark` of a message whose payload is in the inline
/// window.
const INLINE: u8 = 1;

/// `RequestSlot::mark` of a message whose payload lies past the
/// mailbox's first two lines: a request's in the pool, a reply's in
/// `payload_out`.
const OUTBOARD: u8 = 2;

/// The request slot: what the caller hands to the worker and what the
/// worker hands back. Only the current owner (per the status word)
/// touches it.
///
/// Field order is the cache layout: everything a payload-free call with
/// at most [`LINE0_ARGS`] arguments writes comes first and shares the
/// status word's 64-byte line (asserted below); the inline window ends
/// line 1; `payload_out` and the pool header, which only payloads
/// longer than the window touch, are on line 2. A request is posted
/// field by field, not as an [`OcallRequest`]: the
/// caller-only deadline and idempotency are not posted at
/// all, and only the arguments up to the last non-zero one are
/// written. The worker
/// reads `nargs` of them and zero-fills the rest, so a shorter call
/// never sees the trailing arguments of a longer one. The reply's
/// return value comes back in `args[0]`; its length and sequence echo
/// have words of their own that no argument shares, so no request byte
/// can pose as either: a worker that never writes them leaves the
/// previous call's echo, which the stale-reply guard rejects. With a
/// telemetry hub the worker also returns its execute hint, in the
/// payload window's two words: the request is done with them once
/// taken, and every post writes them again.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct RequestSlot {
    func: FuncId,
    /// Arguments posted. Host-writable: clamped to [`MAX_OCALL_ARGS`]
    /// when read.
    nargs: u8,
    /// Where the payload of the message in the slot is: [`INLINE`] or
    /// [`OUTBOARD`]. A posted request always has one, so a
    /// `PROCESSING` slot without it was torn by the host; taking the
    /// request clears it. A reply with no bytes leaves it clear.
    mark: u8,
    /// Reply: payload bytes the worker declares.
    reply_len: u32,
    /// Request: the call's sequence tag.
    seq: u64,
    /// Reply: the worker's echo of `seq`.
    reply_seq: u64,
    /// Request: offset and length of the payload, in the worker pool or
    /// (offset 0) the inline window. Host-writable: clamped to the pool
    /// or the window when read. Reply, with a hub: the low and high
    /// words of the execute hint.
    payload_off: u32,
    payload_len: u32,
    /// Request: the scalar arguments. Reply: the return value, in
    /// `args[0]`.
    args: [u64; MAX_OCALL_ARGS],
    /// Reply: bytes of the inline window it fills. Host-writable:
    /// clamped to [`INLINE_BYTES`] when read.
    inline_len: u8,
    /// The inline window: the request payload or the reply bytes of a
    /// message marked [`INLINE`].
    inline: [u8; INLINE_BYTES],
    /// Reply bytes that do not fit the window (untrusted side).
    payload_out: Vec<u8>,
}

impl Default for RequestSlot {
    fn default() -> Self {
        RequestSlot {
            func: FuncId::default(),
            nargs: 0,
            mark: 0,
            reply_len: 0,
            seq: 0,
            reply_seq: 0,
            payload_off: 0,
            payload_len: 0,
            args: [0; MAX_OCALL_ARGS],
            inline_len: 0,
            inline: [0; INLINE_BYTES],
            payload_out: Vec::new(),
        }
    }
}

impl RequestSlot {
    /// Post `req` with its payload in the inline window (caller, in
    /// `RESERVED`): `payload` is at most [`INLINE_BYTES`] long, and an
    /// empty one writes nothing past line 0.
    pub(crate) fn post_inline(&mut self, req: &OcallRequest, payload: &[u8]) {
        self.post_header(req, INLINE, 0, payload.len());
        memcpy_zc(&mut self.inline[..payload.len()], payload);
    }

    /// Post `req` with its payload at `offset` in the worker pool
    /// (caller, in `RESERVED`). The window's length is at most
    /// `u32::MAX` ([`RequestPool::alloc`] refuses longer payloads).
    pub(crate) fn post(&mut self, req: &OcallRequest, offset: usize, len: usize) {
        debug_assert!(u32::try_from(len).is_ok(), "window longer than u32::MAX");
        self.post_header(req, OUTBOARD, offset, len);
    }

    fn post_header(&mut self, req: &OcallRequest, mark: u8, offset: usize, len: usize) {
        let nargs = req.args.iter().rposition(|&a| a != 0).map_or(0, |i| i + 1);
        self.func = req.func;
        self.nargs = nargs as u8;
        self.mark = mark;
        self.seq = req.seq;
        self.payload_off = offset as u32;
        self.payload_len = len as u32;
        self.args[..nargs].copy_from_slice(&req.args[..nargs]);
    }

    /// Take the posted request and its payload (worker, in
    /// `PROCESSING`); `None` if none is posted, which only host
    /// interference can cause. Returns the request as the worker needs
    /// it — function, arguments and sequence tag — and its payload, in
    /// the inline window or in `pool`.
    pub(crate) fn take<'a>(
        &'a mut self,
        pool: &'a RequestPool,
    ) -> Option<(OcallRequest, &'a [u8])> {
        let mark = std::mem::take(&mut self.mark);
        let len = self.payload_len as usize;
        let payload = match mark {
            INLINE => &self.inline[..len.min(INLINE_BYTES)],
            OUTBOARD => pool.slice(self.payload_off as usize, len),
            _ => return None,
        };
        let nargs = usize::from(self.nargs).min(MAX_OCALL_ARGS);
        let req = OcallRequest::new(self.func, &self.args[..nargs]).with_seq(self.seq);
        Some((req, payload))
    }

    /// Byzantine hook: the host overwrites the posted request while the
    /// worker owns the slot.
    pub(crate) fn tear(&mut self) {
        self.mark = 0;
    }

    /// Publish the worker-measured host-function cycles of the call
    /// just taken (worker, in `PROCESSING`, only with a hub), in the
    /// payload window's words.
    pub(crate) fn set_execute_hint(&mut self, cycles: u64) {
        self.payload_off = cycles as u32;
        self.payload_len = (cycles >> 32) as u32;
    }

    /// The execute hint (caller, in `WAITING`, only with a hub): phase
    /// profiling only, and advisory — the caller clamps it to its own
    /// wait window, so a lying host cannot break conservation.
    pub(crate) fn execute_hint(&self) -> u64 {
        u64::from(self.payload_len) << 32 | u64::from(self.payload_off)
    }

    /// Publish the reply bytes the host function wrote into the
    /// worker's own buffer `bytes` (worker, in `PROCESSING`, after
    /// taking the request), and return how many there are. Bytes that
    /// fit are copied into the inline window; longer ones are swapped
    /// into `payload_out`, and `bytes` gets the previous reply's buffer
    /// back to reuse. `payload_out` is written only for those, and
    /// nothing past line 0 for an empty reply.
    pub(crate) fn set_reply_bytes(&mut self, bytes: &mut Vec<u8>) -> u32 {
        let len = bytes.len();
        if len > INLINE_BYTES {
            std::mem::swap(bytes, &mut self.payload_out);
            self.mark = OUTBOARD;
        } else if len > 0 {
            self.inline[..len].copy_from_slice(bytes);
            self.inline_len = len as u8;
            self.mark = INLINE;
        }
        len as u32
    }

    /// Publish the reply (worker, in `PROCESSING`).
    pub(crate) fn set_reply(&mut self, reply: OcallReply) {
        self.args[0] = reply.ret as u64;
        self.reply_len = reply.payload_len;
        self.reply_seq = reply.seq;
    }

    /// The published reply as `guard` lets the caller accept it (in
    /// `WAITING`) for the call tagged `seq`: the return value, the reply
    /// bytes to copy out (cut to the guard's capacity) and whether they
    /// were cut. The sequence echo is checked first, then the declared
    /// length against the bytes present, which the mark places: the
    /// inline window up to its count (clamped to the window),
    /// `payload_out`, or none. Anything else is a lying host.
    pub(crate) fn checked_reply(
        &self,
        seq: u64,
        guard: ReplyGuard,
    ) -> Result<(i64, &[u8], bool), GuardViolation> {
        guard.check_sequence(seq, self.reply_seq)?;
        let bytes: &[u8] = match self.mark {
            INLINE => &self.inline[..usize::from(self.inline_len).min(INLINE_BYTES)],
            OUTBOARD => &self.payload_out,
            _ => &[],
        };
        let verdict = guard.check_reply(self.reply_len, bytes.len())?;
        Ok((
            self.args[0] as i64,
            &bytes[..verdict.copy_len],
            verdict.truncated,
        ))
    }
}

/// Emits a telemetry event for the status transitions of one buffer
/// that no call owns — into or out of `PAUSED` or `EXIT` — attributed
/// to the buffer's worker index (whichever thread performed the CAS).
/// The edges a call walks are implied by its `CallPhases` event and
/// cost the trace nothing.
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

/// Shared buffer of one ZC worker: the mailbox block first, then the
/// write-once worker-thread and tracer handles (read-only after start,
/// so they never take the hot lines with them).
#[derive(Debug)]
#[repr(C, align(128))]
pub struct WorkerBuffer {
    status: AtomicU8,
    sched_cmd: AtomicU8,
    poisoned: AtomicBool,
    slot: StatusOwned<RequestSlot>,
    pool: StatusOwned<RequestPool>,
    thread: OnceLock<Thread>,
    tracer: OnceLock<TransitionTracer>,
}

// Line 0 (bytes 0..64) is the whole hand-off of a payload-free call
// with at most `LINE0_ARGS` arguments: the three shared words, every
// field of the posted request and every field of the reply, the
// execute hint included. Line 1 holds the remaining arguments and then
// the inline window with its count, which a call whose payloads fit
// moves as well; line 2 the `payload_out` and pool headers, which only
// a longer payload moves; the write-once handles come last. Pinned
// field by field, so a later field cannot push one of them onto
// another line.
const _: () = {
    const fn on_line(line: usize, offset: usize, size: usize) -> bool {
        offset >= 64 * line && offset + size <= 64 * (line + 1)
    }
    let slot = offset_of!(WorkerBuffer, slot);
    assert!(align_of::<WorkerBuffer>() == 128);
    assert!(offset_of!(WorkerBuffer, status) == 0);
    assert!(on_line(0, offset_of!(WorkerBuffer, sched_cmd), 1));
    assert!(on_line(0, offset_of!(WorkerBuffer, poisoned), 1));
    assert!(on_line(0, slot + offset_of!(RequestSlot, func), 2));
    assert!(on_line(0, slot + offset_of!(RequestSlot, nargs), 1));
    assert!(on_line(0, slot + offset_of!(RequestSlot, mark), 1));
    assert!(on_line(0, slot + offset_of!(RequestSlot, reply_len), 4));
    assert!(on_line(0, slot + offset_of!(RequestSlot, seq), 8));
    assert!(on_line(0, slot + offset_of!(RequestSlot, reply_seq), 8));
    assert!(on_line(0, slot + offset_of!(RequestSlot, payload_off), 4));
    assert!(on_line(0, slot + offset_of!(RequestSlot, payload_len), 4));
    let args = slot + offset_of!(RequestSlot, args);
    assert!(on_line(0, args, 8 * LINE0_ARGS));
    assert!(on_line(
        1,
        args + 8 * LINE0_ARGS,
        8 * (MAX_OCALL_ARGS - LINE0_ARGS)
    ));
    // The window and its count fill the rest of line 1: at least 32
    // bytes, and a count byte that can name every one of them.
    assert!(INLINE_BYTES >= 32 && INLINE_BYTES <= u8::MAX as usize);
    assert!(on_line(1, slot + offset_of!(RequestSlot, inline_len), 1));
    let inline = slot + offset_of!(RequestSlot, inline);
    assert!(on_line(1, inline, INLINE_BYTES) && inline + INLINE_BYTES == 128);
    let payload_out = slot + offset_of!(RequestSlot, payload_out);
    assert!(on_line(2, payload_out, size_of::<Vec<u8>>()));
    assert!(on_line(
        2,
        offset_of!(WorkerBuffer, pool),
        size_of::<RequestPool>()
    ));
};

/// A mailbox cell: its content belongs to whoever the buffer's status
/// word names, and to nobody else.
#[derive(Debug)]
#[repr(transparent)]
struct StatusOwned<T>(UnsafeCell<T>);

// SAFETY: the cells are only reached through `with_slot` / `with_pool`,
// whose callers hold the buffer per the status word: the caller that
// won `UNUSED -> RESERVED` until its `RESERVED -> PROCESSING` CAS, the
// worker from observing `PROCESSING` (acquire) until its `PROCESSING ->
// WAITING` CAS, the caller again from observing `WAITING` until
// `WAITING -> UNUSED`. Every hand-off is an AcqRel CAS on `status`, so
// the two sides never overlap and each sees the other's writes. The
// content moves between threads with the ownership, hence `T: Send`.
unsafe impl<T: Send> Sync for StatusOwned<T> {}

impl WorkerBuffer {
    /// New buffer in the `UNUSED` state with an empty pool, which its
    /// payloads grow.
    #[must_use]
    pub(crate) fn new() -> Self {
        WorkerBuffer {
            status: AtomicU8::new(WorkerState::Unused.as_u8()),
            sched_cmd: AtomicU8::new(SchedCommand::Run as u8),
            poisoned: AtomicBool::new(false),
            slot: StatusOwned(UnsafeCell::new(RequestSlot::default())),
            pool: StatusOwned(UnsafeCell::new(RequestPool::default())),
            thread: OnceLock::new(),
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
    ///
    /// The telemetry tracer sees only the edges a call does not own
    /// (see [`TransitionTracer`]), so a call's five edges read no clock
    /// and push no event on either thread. Inlined: `from` and `to` are
    /// constants at every call site, so that choice is made at compile
    /// time.
    #[inline]
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
            let parked = |s| matches!(s, WorkerState::Paused | WorkerState::Exit);
            if parked(from) || parked(to) {
                if let Some(tracer) = self.tracer.get() {
                    tracer.emit(from, to);
                }
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

    /// Attach a telemetry [`TransitionTracer`] (first caller wins;
    /// installed by `ZcRuntime::start_with_telemetry`).
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

    /// Does the status word give the mailbox to `side` right now? A
    /// garbage word gives it to nobody.
    fn owned_by(&self, side: Side) -> bool {
        matches!(
            (side, self.state()),
            (
                Side::Caller,
                Ok(WorkerState::Reserved | WorkerState::Waiting)
            ) | (Side::Worker, Ok(WorkerState::Processing))
        )
    }

    /// Access the request slot as `side`, which must own the mailbox
    /// per the status word (checked in debug builds). Crate-private:
    /// the protocol in `caller.rs` / `worker.rs` is what makes the
    /// access exclusive.
    pub(crate) fn with_slot<R>(&self, side: Side, f: impl FnOnce(&mut RequestSlot) -> R) -> R {
        debug_assert!(
            self.owned_by(side),
            "{side:?} touched a slot it does not own"
        );
        // SAFETY: see `StatusOwned` — `side` holds the buffer, so this
        // is the only live reference into the cell.
        f(unsafe { &mut *self.slot.0.get() })
    }

    /// Access the untrusted request pool as `side`; same ownership rule
    /// as [`with_slot`](Self::with_slot).
    pub(crate) fn with_pool<R>(&self, side: Side, f: impl FnOnce(&mut RequestPool) -> R) -> R {
        debug_assert!(
            self.owned_by(side),
            "{side:?} touched a pool it does not own"
        );
        // SAFETY: as in `with_slot`; the pool is a separate cell, so a
        // worker may hold both at once.
        f(unsafe { &mut *self.pool.0.get() })
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

/// One worker slot of the runtime: the buffer callers currently claim,
/// swappable by a supervisor or enclave respawn while calls are in
/// flight on the one it replaces.
///
/// Readers pay one acquire load and no read-modify-write: a replaced
/// buffer is *retired*, not freed — the slot keeps every buffer it ever
/// published until it is dropped, so a caller that loaded the old
/// pointer just before a swap still dereferences live memory (and finds
/// it poisoned: only a quarantined buffer is ever replaced). The price
/// is one retired buffer (its pool included) per respawn for the life
/// of the runtime; the supervisor's backoff ladder bounds the respawn
/// rate.
#[derive(Debug)]
pub(crate) struct WorkerSlot {
    current: AtomicPtr<WorkerBuffer>,
    /// Every buffer published here, newest last. Never shrinks.
    published: Mutex<Vec<Arc<WorkerBuffer>>>,
}

impl WorkerSlot {
    /// Slot serving a fresh buffer.
    pub(crate) fn new() -> Self {
        let first = Arc::new(WorkerBuffer::new());
        WorkerSlot {
            current: AtomicPtr::new(Arc::as_ptr(&first).cast_mut()),
            published: Mutex::new(vec![first]),
        }
    }

    /// The buffer callers should claim now.
    #[inline]
    pub(crate) fn get(&self) -> &WorkerBuffer {
        // SAFETY: `current` always points into an `Arc` held by
        // `published`, which only grows while `self` is borrowed, so
        // the target outlives the returned reference. The acquire load
        // pairs with `replace_quarantined`'s release store: the buffer
        // is fully built before it is visible.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    /// Owning handle on the current buffer, for the worker thread that
    /// will serve it (cold path: start and respawn only).
    pub(crate) fn current(&self) -> Arc<WorkerBuffer> {
        let published = self.published.lock();
        Arc::clone(published.last().expect("a slot always has a buffer"))
    }

    /// Replace the current buffer, if it is quarantined, by the one
    /// `make` builds, and return that. Neither waits for nor blocks
    /// callers: those mid-call on the replaced buffer re-route off it.
    ///
    /// A healthy current buffer means another respawner (supervisor vs.
    /// enclave restart) got here first; replacing it too would strand
    /// the worker thread serving it, which nobody would tell to exit.
    pub(crate) fn replace_quarantined(
        &self,
        make: impl FnOnce() -> Arc<WorkerBuffer>,
    ) -> Option<Arc<WorkerBuffer>> {
        let mut published = self.published.lock();
        if !self.get().is_poisoned() {
            return None;
        }
        let fresh = make();
        self.current
            .store(Arc::as_ptr(&fresh).cast_mut(), Ordering::Release);
        published.push(Arc::clone(&fresh));
        Some(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolAlloc;
    use switchless_core::{FuncId, GuardKind};

    #[test]
    fn starts_unused_and_running() {
        let b = WorkerBuffer::new();
        assert_eq!(b.state(), Ok(WorkerState::Unused));
        assert_eq!(b.sched_command(), Ok(SchedCommand::Run));
    }

    #[test]
    fn happy_path_transitions() {
        let b = WorkerBuffer::new();
        assert!(b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        assert!(b.try_transition(WorkerState::Reserved, WorkerState::Processing));
        assert!(b.try_transition(WorkerState::Processing, WorkerState::Waiting));
        assert!(b.try_transition(WorkerState::Waiting, WorkerState::Unused));
        assert_eq!(b.state(), Ok(WorkerState::Unused));
    }

    #[test]
    fn failed_cas_leaves_state_untouched() {
        let b = WorkerBuffer::new();
        assert!(b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        // Second claim must lose.
        assert!(!b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        assert_eq!(b.state(), Ok(WorkerState::Reserved));
    }

    #[test]
    fn commands_round_trip() {
        let b = WorkerBuffer::new();
        b.post_command(SchedCommand::Deactivate);
        assert_eq!(b.sched_command(), Ok(SchedCommand::Deactivate));
        b.post_command(SchedCommand::Exit);
        assert_eq!(b.sched_command(), Ok(SchedCommand::Exit));
        b.post_command(SchedCommand::Run);
        assert_eq!(b.sched_command(), Ok(SchedCommand::Run));
    }

    impl WorkerBuffer {
        /// Claim this idle buffer for a moment and say whether its pool
        /// and `payload_out` are as new: no request went to the pool and
        /// no reply to `payload_out`.
        pub(crate) fn outboard_untouched(&self) -> bool {
            assert!(self.try_transition(WorkerState::Unused, WorkerState::Reserved));
            let untouched = self.with_pool(Side::Caller, |p| p.used() == 0 && p.reallocs() == 0)
                && self.with_slot(Side::Caller, |s| s.payload_out.capacity() == 0);
            assert!(self.try_transition(WorkerState::Reserved, WorkerState::Unused));
            untouched
        }
    }

    const W: usize = INLINE_BYTES;

    fn guard() -> ReplyGuard {
        ReplyGuard::new(switchless_core::config::MAX_REPLY_BYTES)
    }

    #[test]
    fn slot_carries_request_and_reply() {
        let b = WorkerBuffer::new();
        assert!(b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        let req = OcallRequest::new(FuncId(3), &[1]).with_seq(11);
        b.with_slot(Side::Caller, |s| s.post_inline(&req, b"hello"));
        assert!(b.try_transition(WorkerState::Reserved, WorkerState::Processing));
        b.with_pool(Side::Worker, |pool| {
            b.with_slot(Side::Worker, |s| {
                assert_eq!(s.take(pool), Some((req, &b"hello"[..])));
                assert_eq!(s.take(pool), None, "a request is taken once");
                let payload_len = s.set_reply_bytes(&mut b"ok".to_vec());
                s.set_reply(OcallReply {
                    ret: -9,
                    payload_len,
                    seq: 11,
                });
            });
        });
        assert!(b.try_transition(WorkerState::Processing, WorkerState::Waiting));
        b.with_slot(Side::Caller, |s| {
            assert_eq!(s.checked_reply(11, guard()), Ok((-9, &b"ok"[..], false)));
        });
    }

    #[test]
    fn only_what_the_worker_needs_is_posted() {
        let pool = RequestPool::default();
        let mut s = RequestSlot::default();
        let req = OcallRequest::new(FuncId(1), &[0, 5, 0])
            .with_seq(7)
            .with_deadline_at(99)
            .with_idempotent();
        s.post_inline(&req, &[]);
        // Trailing zero arguments are not posted; the worker restores
        // them, and never sees the caller-only fields.
        assert_eq!(s.nargs, 2);
        let expect = OcallRequest::new(FuncId(1), &[0, 5]).with_seq(7);
        assert_eq!(s.take(&pool), Some((expect, &[][..])));
    }

    #[test]
    fn a_six_arg_request_spills_past_line_0_and_round_trips() {
        let mut pool = RequestPool::default();
        let mut s = RequestSlot::default();
        let req = OcallRequest::new(FuncId(2), &[1, 2, 3, 4, 5, u64::MAX]).with_seq(3);
        pool.write_with(8, &[7; 16], <[u8]>::copy_from_slice);
        s.post(&req, 8, 16);
        assert_eq!(s.take(&pool), Some((req, &[7; 16][..])));
    }

    #[test]
    fn a_short_call_after_a_long_one_sees_zero_trailing_args() {
        let pool = RequestPool::default();
        let mut s = RequestSlot::default();
        s.post_inline(&OcallRequest::new(FuncId(0), &[9; 6]), &[]);
        let _ = s.take(&pool);
        s.set_reply(OcallReply {
            ret: -1,
            payload_len: 0,
            seq: 0,
        });
        s.post_inline(&OcallRequest::new(FuncId(0), &[4]).with_seq(2), &[]);
        let (req, _) = s.take(&pool).expect("posted");
        assert_eq!(req.args, [4, 0, 0, 0, 0, 0]);
        // Nor does a zero-argument call see the previous return value,
        // which shares `args[0]`.
        s.post_inline(&OcallRequest::new(FuncId(0), &[]), &[]);
        assert_eq!(s.take(&pool).expect("posted").0.args, [0; MAX_OCALL_ARGS]);
    }

    #[test]
    fn scribbled_arg_count_and_window_are_clamped_not_panics() {
        let pool = RequestPool::default();
        let mut s = RequestSlot::default();
        let req = OcallRequest::new(FuncId(0), &[1, 2, 3, 4, 5, 6]);
        for raw in 0..=u8::MAX {
            s.post_inline(&req, &[]);
            s.nargs = raw;
            let (got, _) = s.take(&pool).expect("posted");
            let n = usize::from(raw).min(MAX_OCALL_ARGS);
            assert_eq!(got.args[..n], req.args[..n]);
            assert!(got.args[n..].iter().all(|&a| a == 0));
        }
        for (off, len) in [(u32::MAX, u32::MAX), (0, u32::MAX), (60, 10), (u32::MAX, 0)] {
            s.post(&req, 0, 0);
            (s.payload_off, s.payload_len) = (off, len);
            let (_, payload) = s.take(&pool).expect("posted");
            let room = pool.capacity().saturating_sub(off as usize);
            assert_eq!(payload.len(), (len as usize).min(room));
            // An inline request's length is cut at the window.
            s.post_inline(&req, b"abc");
            (s.payload_off, s.payload_len) = (off, len);
            let (_, payload) = s.take(&pool).expect("posted");
            assert_eq!(payload.len(), (len as usize).min(W));
        }
    }

    #[test]
    fn a_torn_or_scribbled_request_mark_is_no_request() {
        let pool = RequestPool::default();
        let mut s = RequestSlot::default();
        let req = OcallRequest::new(FuncId(0), &[1]);
        s.post_inline(&req, b"key12345");
        s.tear();
        assert_eq!(s.take(&pool), None, "a torn inline request");
        for raw in 0..=u8::MAX {
            s.post_inline(&req, b"key12345");
            s.mark = raw;
            let taken = s.take(&pool).map(|(_, p)| p.len());
            match raw {
                INLINE => assert_eq!(taken, Some(8)),
                OUTBOARD => assert!(taken.is_some()),
                _ => assert_eq!(taken, None),
            }
        }
    }

    /// Payload lengths at and around the window's edge, for each side.
    const EDGES: [usize; 5] = [0, 1, W - 1, W, W + 1];

    #[test]
    fn payloads_up_to_the_window_ride_it_and_longer_ones_the_pool() {
        let mut pool = RequestPool::default();
        let mut s = RequestSlot::default();
        let mut reply = Vec::new();
        for (seq, len) in (1..).zip(EDGES) {
            let data: Vec<u8> = (0..len as u8).map(|i| i ^ 0x5A).collect();
            let req = OcallRequest::new(FuncId(0), &[]).with_seq(seq);
            if len <= W {
                s.post_inline(&req, &data);
            } else {
                let PoolAlloc::Fit { offset } = pool.alloc(len) else {
                    panic!("fits the 64-byte pool")
                };
                pool.write_with(offset, &data, <[u8]>::copy_from_slice);
                s.post(&req, offset, len);
            }
            let (got, payload_in) = s.take(&pool).expect("posted");
            assert_eq!((got.seq, payload_in), (seq, &data[..]));
            // The same bytes back as the reply.
            reply.clear();
            reply.extend_from_slice(&data);
            let payload_len = s.set_reply_bytes(&mut reply);
            s.set_reply(OcallReply {
                ret: 0,
                payload_len,
                seq,
            });
            let expect_mark = match len {
                0 => 0,
                n if n <= W => INLINE,
                _ => OUTBOARD,
            };
            assert_eq!(s.mark, expect_mark, "{len}-byte reply");
            assert_eq!(s.checked_reply(seq, guard()), Ok((0, &data[..], false)));
        }
        assert_eq!(pool.used(), W + 1, "only the longest request took the pool");
    }

    #[test]
    fn a_payload_free_call_writes_nothing_past_line_0() {
        let pool = RequestPool::default();
        let mut s = RequestSlot {
            inline_len: 0xAB,
            inline: [0xCD; W],
            ..RequestSlot::default()
        };
        s.post_inline(&OcallRequest::new(FuncId(0), &[1, 2, 3]).with_seq(4), &[]);
        let _ = s.take(&pool).expect("posted");
        assert_eq!(s.set_reply_bytes(&mut Vec::new()), 0);
        s.set_reply(OcallReply {
            ret: 0,
            payload_len: 0,
            seq: 4,
        });
        assert_eq!((s.inline_len, s.inline), (0xAB, [0xCD; W]));
        assert_eq!(s.payload_out.capacity(), 0);
        assert_eq!(s.checked_reply(4, guard()), Ok((0, &[][..], false)));
    }

    #[test]
    fn a_reply_that_fits_leaves_payload_out_alone_and_a_long_one_is_swapped_in() {
        let mut s = RequestSlot::default();
        let mut reply = vec![1; W];
        s.set_reply_bytes(&mut reply);
        assert_eq!(s.payload_out.capacity(), 0, "payload_out not written");
        let mut reply = vec![2; 4096];
        let long = reply.as_ptr();
        s.set_reply_bytes(&mut reply);
        // Swapped, not copied: the worker gets the old buffer back.
        assert_eq!(s.payload_out.as_ptr(), long);
        assert_eq!((reply.capacity(), s.mark), (0, OUTBOARD));
    }

    /// One call on a fresh slot whose earlier call (if `stale`) left a
    /// long reply in `payload_out`: an honest worker replies `bytes`,
    /// then `lie` rewrites the slot. What the caller accepts, or the
    /// kind of violation it sees.
    fn lied_reply(
        stale: bool,
        bytes: &[u8],
        lie: impl FnOnce(&mut RequestSlot),
    ) -> Result<Vec<u8>, GuardKind> {
        let pool = RequestPool::default();
        let mut s = RequestSlot::default();
        if stale {
            s.set_reply_bytes(&mut vec![0xEE; 100]);
        }
        s.post_inline(&OcallRequest::new(FuncId(0), &[]).with_seq(7), b"in");
        let _ = s.take(&pool).expect("posted");
        let payload_len = s.set_reply_bytes(&mut bytes.to_vec());
        s.set_reply(OcallReply {
            ret: 1,
            payload_len,
            seq: 7,
        });
        lie(&mut s);
        s.checked_reply(7, guard())
            .map(|(_, got, _)| got.to_vec())
            .map_err(|v| v.kind)
    }

    #[test]
    fn every_flipped_reply_mark_is_a_violation() {
        for stale in [false, true] {
            for len in [1, 8, W, W + 1, 4096] {
                let bytes = vec![0x11; len];
                let honest = if len <= W { INLINE } else { OUTBOARD };
                for raw in 0..=u8::MAX {
                    let got = lied_reply(stale, &bytes, |s| s.mark = raw);
                    if raw == honest {
                        assert_eq!(got, Ok(bytes.clone()));
                    } else {
                        assert!(got.is_err(), "mark {raw} on a {len}-byte reply: {got:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_lying_count_is_a_violation_and_never_reads_past_the_window() {
        for len in 1..=W {
            let bytes: Vec<u8> = (0..len as u8).collect();
            for count in 0..=u8::MAX {
                let got = lied_reply(true, &bytes, |s| s.inline_len = count);
                // Clamped to the window: a count past it names the
                // whole window, which an honest W-byte reply fills.
                let present = usize::from(count).min(W);
                let expect = match present.cmp(&len) {
                    std::cmp::Ordering::Equal => Ok(bytes.clone()),
                    std::cmp::Ordering::Less => Err(GuardKind::OversizedReply),
                    std::cmp::Ordering::Greater => Err(GuardKind::UndersizedReply),
                };
                assert_eq!(got, expect, "count {count} on a {len}-byte reply");
            }
        }
    }

    #[test]
    fn a_lying_length_or_stale_echo_on_an_inline_reply_is_a_violation() {
        for len in [0, 1, 8, W] {
            let bytes = vec![3; len];
            let over = lied_reply(false, &bytes, |s| s.reply_len += 1);
            assert_eq!(over, Err(GuardKind::OversizedReply));
            if len > 0 {
                let under = lied_reply(false, &bytes, |s| s.reply_len -= 1);
                assert_eq!(under, Err(GuardKind::UndersizedReply));
            }
            // The echo is checked first.
            let stale = lied_reply(false, &bytes, |s| {
                s.reply_seq -= 1;
                s.reply_len += 1;
            });
            assert_eq!(stale, Err(GuardKind::StaleSequence));
        }
    }

    #[test]
    fn pool_is_per_buffer() {
        let b = WorkerBuffer::new();
        assert!(b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        b.with_pool(Side::Caller, |p| assert_eq!(p.capacity(), 64));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn mailbox_access_out_of_turn_is_caught_in_debug_builds() {
        let touch = |b: &WorkerBuffer, side| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b.with_slot(side, |_| ());
                b.with_pool(side, |_| ());
            }))
            .is_ok()
        };
        let b = WorkerBuffer::new();
        // UNUSED: nobody's turn.
        assert!(!touch(&b, Side::Caller) && !touch(&b, Side::Worker));
        assert!(b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        assert!(touch(&b, Side::Caller) && !touch(&b, Side::Worker));
        assert!(b.try_transition(WorkerState::Reserved, WorkerState::Processing));
        assert!(!touch(&b, Side::Caller) && touch(&b, Side::Worker));
        assert!(b.try_transition(WorkerState::Processing, WorkerState::Waiting));
        assert!(touch(&b, Side::Caller) && !touch(&b, Side::Worker));
        // A scribbled status word gives the mailbox to nobody.
        b.host_write_status(0xEE);
        assert!(!touch(&b, Side::Caller) && !touch(&b, Side::Worker));
    }

    #[test]
    fn slot_swap_keeps_the_replaced_buffer_alive_for_stale_readers() {
        let fresh = || Arc::new(WorkerBuffer::new());
        let slot = WorkerSlot::new();
        let old = slot.get();
        assert!(std::ptr::eq(old, &*slot.current()));
        // A healthy buffer is never replaced (its worker would be
        // stranded); a quarantined one is, exactly once.
        assert!(slot.replace_quarantined(fresh).is_none());
        old.poison();
        let new = slot.replace_quarantined(fresh).expect("quarantined");
        assert!(slot.replace_quarantined(fresh).is_none());
        assert!(std::ptr::eq(slot.get(), &*new) && std::ptr::eq(&*new, &*slot.current()));
        // The reference taken before the swap still reads live memory.
        assert!(old.is_poisoned() && !std::ptr::eq(old, slot.get()));
    }

    #[test]
    fn unpark_without_thread_is_noop() {
        let b = WorkerBuffer::new();
        b.unpark(); // must not panic
        b.set_thread(std::thread::current());
        b.unpark();
    }

    #[test]
    fn illegal_transition_poisons_in_release_too() {
        // The release-mode promotion of the old debug assertion: an
        // illegal edge never fires the CAS, quarantines the slot, and
        // leaves the status word untouched.
        let b = WorkerBuffer::new();
        assert!(!b.try_transition(WorkerState::Processing, WorkerState::Unused));
        assert!(b.is_poisoned());
        assert_eq!(b.state(), Ok(WorkerState::Unused));
    }

    #[test]
    fn host_scribbles_become_violations_not_panics() {
        let b = WorkerBuffer::new();
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
        let b = WorkerBuffer::new();
        assert!(!b.is_poisoned());
        b.poison();
        assert!(b.is_poisoned());
        b.poison(); // idempotent
        assert!(b.is_poisoned());
    }

    #[test]
    fn a_lost_cas_leaves_the_word_to_the_winner() {
        let b = WorkerBuffer::new();
        assert!(b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        assert!(!b.try_transition(WorkerState::Unused, WorkerState::Reserved));
        assert_eq!(b.state(), Ok(WorkerState::Reserved));
        assert!(!b.is_poisoned(), "a lost race is not an illegal edge");
        assert!(b.try_transition(WorkerState::Reserved, WorkerState::Processing));
        assert_eq!(b.state(), Ok(WorkerState::Processing));
    }
}
