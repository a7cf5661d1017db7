//! The shared task pool of the Intel switchless mechanism.
//!
//! A fixed array of slots in (conceptually untrusted) shared memory.
//! Slot lifecycle:
//!
//! ```text
//! FREE --claim--> CLAIMED --submit--> SUBMITTED --accept--> ACCEPTED
//!   ^                                     |                    |
//!   |                                  cancel (rbf hit)      done
//!   +------- release (caller) <-------- DONE <----------------+
//! ```
//!
//! Callers claim/submit/cancel/release; workers accept/complete. All
//! state changes are CAS transitions on the slot's atomic state word, so
//! a submitted task is executed **exactly once**: either a worker wins
//! the `SUBMITTED -> ACCEPTED` CAS, or the caller wins
//! `SUBMITTED -> CLAIMED` (cancel) and falls back.
//!
//! The state word lives in untrusted shared memory, so the trusted side
//! treats every read and every CAS outcome as potentially hostile: an
//! unknown byte decodes to a [`GuardViolation`] instead of panicking,
//! and a CAS that the protocol guarantees (e.g. `CLAIMED -> SUBMITTED`
//! by the claiming caller) failing means the host flipped the word — the
//! slot is *poisoned* (permanently skipped) and the call degrades to the
//! regular-ocall fallback. So is a reply whose declared length does not
//! match the bytes the worker produced.
//!
//! A slot is a **mailbox** (DESIGN.md §5, "Intel task slot"): one
//! 128-byte-aligned block whose first 64-byte line holds the state word,
//! the poison flag, the slot's lock and everything a payload-free call
//! with up to three scalar arguments posts and gets back, so such a call
//! moves that one line to the worker and back. The remaining arguments,
//! the execute hint and the payload buffers live in a boxed cold part
//! that such a call reads but never writes.

use parking_lot::Mutex;
use std::mem::{align_of, offset_of, size_of};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use switchless_core::config::MAX_REPLY_BYTES;
use switchless_core::{
    FuncId, GuardKind, GuardViolation, OcallRequest, ReplyGuard, MAX_OCALL_ARGS,
};

/// State word of one task slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SlotState {
    /// Nobody owns the slot.
    Free = 0,
    /// A caller owns the slot and is writing its request.
    Claimed = 1,
    /// Request published; waiting for a worker to accept.
    Submitted = 2,
    /// A worker is executing the request.
    Accepted = 3,
    /// Results are published; waiting for the caller to collect.
    Done = 4,
}

impl SlotState {
    /// Fallible decode of a host-written state byte. Unknown bytes are
    /// hostile input to reject, not a protocol bug to assert on.
    pub fn from_u8(v: u8) -> Option<SlotState> {
        match v {
            0 => Some(SlotState::Free),
            1 => Some(SlotState::Claimed),
            2 => Some(SlotState::Submitted),
            3 => Some(SlotState::Accepted),
            4 => Some(SlotState::Done),
            _ => None,
        }
    }
}

/// Scalar arguments that share the state word's line with the rest of
/// a posted request and its reply (asserted below).
const LINE0_ARGS: usize = 3;

/// `SlotData::posted` while a request waits for its worker.
const POSTED: u8 = 1;

/// Request/response data carried by a slot: the request as the caller
/// posts it and the reply as the worker writes it back.
///
/// The mutex around it is never contended in steady state: the protocol
/// hands ownership back and forth via the atomic state word, and only
/// the current owner touches the data.
///
/// Field order is the cache layout: this part sits on the state word's
/// line (asserted below). A request is posted field by field, not as an
/// [`OcallRequest`]: the caller-only deadline and idempotency
/// are not posted at all, and only the arguments up to the last
/// non-zero one are written. The worker reads `nargs` of them and
/// zero-fills the rest, so a shorter call never sees the trailing
/// arguments of a longer one, nor the previous return value, which
/// comes back in `args[0]`.
#[derive(Debug, Default)]
#[repr(C)]
pub struct SlotData {
    func: FuncId,
    /// Arguments posted. Host-writable: clamped to [`MAX_OCALL_ARGS`]
    /// when read.
    nargs: u8,
    /// [`POSTED`] from the post until the worker takes the request, so
    /// an accepted slot without it was torn by the host.
    posted: u8,
    /// Reply: payload bytes the worker declares. Host-writable: checked
    /// against the bytes present before any copy-back.
    reply_len: u32,
    /// Request: the call's sequence tag.
    seq: u64,
    /// Request: the first scalar arguments. Reply: the return value, in
    /// `args[0]`.
    args: [u64; LINE0_ARGS],
    cold: Box<ColdData>,
}

/// The part of a slot that a payload-free call with at most
/// [`LINE0_ARGS`] arguments reads but never writes (without a hub), in
/// a block of its own so that no other slot's writes share its lines.
#[derive(Debug, Default)]
#[repr(C, align(64))]
struct ColdData {
    /// Caller-supplied payload (already in untrusted memory).
    payload_in: Vec<u8>,
    /// Worker-produced payload.
    payload_out: Vec<u8>,
    /// Host-function execution cycles measured by the worker, written
    /// and read only when a telemetry hub is attached. Advisory
    /// (host-writable): the caller clamps it to its own wait window
    /// before charging it to the execute phase.
    exec_cycles: u64,
    /// Request: the arguments past [`LINE0_ARGS`], written only for a
    /// call that has them.
    args: [u64; MAX_OCALL_ARGS - LINE0_ARGS],
}

impl SlotData {
    /// Post `req` and its payload (caller, in `CLAIMED`). Writes the
    /// cold part only for a payload or more than [`LINE0_ARGS`]
    /// arguments.
    fn post(&mut self, req: &OcallRequest, payload_in: &[u8]) {
        let nargs = req.args.iter().rposition(|&a| a != 0).map_or(0, |i| i + 1);
        let line0 = nargs.min(LINE0_ARGS);
        self.func = req.func;
        self.nargs = nargs as u8;
        self.posted = POSTED;
        self.seq = req.seq;
        self.args[..line0].copy_from_slice(&req.args[..line0]);
        if nargs > LINE0_ARGS {
            self.cold.args[..nargs - LINE0_ARGS].copy_from_slice(&req.args[LINE0_ARGS..nargs]);
        }
        if !(payload_in.is_empty() && self.cold.payload_in.is_empty()) {
            self.cold.payload_in.clear();
            self.cold.payload_in.extend_from_slice(payload_in);
        }
    }

    /// Take the posted request (worker, in `ACCEPTED`); `None` if none
    /// is posted, which only host interference can cause. Returns the
    /// request as the worker needs it: function, arguments and
    /// sequence tag.
    fn take_request(&mut self) -> Option<OcallRequest> {
        if self.posted != POSTED {
            return None;
        }
        self.posted = 0;
        let nargs = usize::from(self.nargs).min(MAX_OCALL_ARGS);
        let line0 = nargs.min(LINE0_ARGS);
        let mut args = [0; MAX_OCALL_ARGS];
        args[..line0].copy_from_slice(&self.args[..line0]);
        if nargs > LINE0_ARGS {
            args[LINE0_ARGS..nargs].copy_from_slice(&self.cold.args[..nargs - LINE0_ARGS]);
        }
        Some(OcallRequest::new(self.func, &args).with_seq(self.seq))
    }

    /// Worker, in `ACCEPTED`: run the posted request through `invoke`
    /// (request, payload in, emptied payload out) and write its reply.
    /// A slot without a posted request — a torn overwrite by the host —
    /// replies `-1` with no payload instead of calling `invoke`.
    pub fn serve(&mut self, invoke: impl FnOnce(&OcallRequest, &[u8], &mut Vec<u8>) -> i64) {
        let req = self.take_request();
        let cold = &mut *self.cold;
        if !cold.payload_out.is_empty() {
            cold.payload_out.clear();
        }
        let ret = req.map_or(-1, |req| {
            invoke(&req, &cold.payload_in, &mut cold.payload_out)
        });
        self.args[0] = ret as u64;
        self.reply_len = cold.payload_out.len() as u32;
    }

    /// Worker: record the host function's execution cycles (only with a
    /// hub; see [`execute_hint`](Self::execute_hint)).
    pub fn set_execute_hint(&mut self, cycles: u64) {
        self.cold.exec_cycles = cycles;
    }

    /// Caller, in `DONE`: the worker-measured execution cycles. Only
    /// meaningful when a hub is attached, since only then does the
    /// worker write them.
    #[must_use]
    pub fn execute_hint(&self) -> u64 {
        self.cold.exec_cycles
    }

    /// Caller, in `DONE`: copy the reply payload into `out` and return
    /// the host function's return value and whether the payload was
    /// truncated. The host-declared length must match the bytes present
    /// (an honest worker writes both); the copy is clamped to
    /// [`MAX_REPLY_BYTES`].
    ///
    /// # Errors
    ///
    /// [`GuardViolation`] (`OversizedReply` / `UndersizedReply`) if the
    /// declared length lies; `out` is left untouched.
    pub fn reply(&self, out: &mut Vec<u8>) -> Result<(i64, bool), GuardViolation> {
        let produced = &self.cold.payload_out;
        let verdict =
            ReplyGuard::new(MAX_REPLY_BYTES).check_reply(self.reply_len, produced.len())?;
        out.clear();
        out.extend_from_slice(&produced[..verdict.copy_len]);
        Ok((self.args[0] as i64, verdict.truncated))
    }
}

#[derive(Debug)]
#[repr(C, align(128))]
struct Slot {
    state: AtomicU8,
    /// Latched when a guard caught the host interfering with this slot;
    /// poisoned slots are skipped by claim/accept forever.
    poisoned: AtomicBool,
    data: Mutex<SlotData>,
}

// Line 0 (bytes 0..64) is the whole hand-off of a payload-free call
// with at most `LINE0_ARGS` arguments: the state word, the poison flag,
// the lock word and every field of the posted request and of the reply.
// The mutex wraps std's, whose layout is not `repr(C)` (its lock word
// may come before or after the data), so the whole mutex is pinned to
// the line rather than each field's offset in it.
const _: () = {
    assert!(align_of::<Slot>() == 128);
    assert!(size_of::<Slot>() == 128);
    assert!(offset_of!(Slot, state) == 0);
    assert!(offset_of!(Slot, poisoned) == 1);
    assert!(offset_of!(Slot, data) + size_of::<Mutex<SlotData>>() <= 64);
    assert!(size_of::<SlotData>() == 48);
};

/// Fixed-capacity pool of task slots.
#[derive(Debug)]
pub struct TaskPool {
    slots: Vec<Slot>,
}

/// Ticket identifying a claimed slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotIdx(usize);

impl SlotIdx {
    /// Construct a raw ticket (model-based tests only; production code
    /// must use tickets returned by the pool).
    #[doc(hidden)]
    #[must_use]
    pub fn from_raw(i: usize) -> Self {
        SlotIdx(i)
    }

    /// The slot's index in the pool (diagnostics / telemetry).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl TaskPool {
    /// Pool with `capacity` slots (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| Slot {
                state: AtomicU8::new(SlotState::Free as u8),
                poisoned: AtomicBool::new(false),
                data: Mutex::new(SlotData::default()),
            })
            .collect();
        TaskPool { slots }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// State of slot `idx`, validated by the trusted-side guard.
    ///
    /// # Errors
    ///
    /// [`GuardViolation`] (`BadStatusWord`) if the host scribbled an
    /// unknown byte onto the state word.
    pub fn state(&self, idx: SlotIdx) -> Result<SlotState, GuardViolation> {
        let raw = self.slots[idx.0].state.load(Ordering::Acquire);
        SlotState::from_u8(raw).ok_or_else(|| {
            GuardViolation::new(
                GuardKind::BadStatusWord,
                u64::from(raw),
                SlotState::Done as u64,
            )
        })
    }

    /// Quarantine slot `idx`: never claimed or accepted again.
    pub fn poison(&self, idx: SlotIdx) {
        self.slots[idx.0].poisoned.store(true, Ordering::Release);
    }

    /// `true` once [`poison`](Self::poison) latched for slot `idx`.
    #[must_use]
    pub fn is_poisoned(&self, idx: SlotIdx) -> bool {
        self.slots[idx.0].poisoned.load(Ordering::Acquire)
    }

    fn cas(&self, idx: usize, from: SlotState, to: SlotState) -> bool {
        self.slots[idx]
            .state
            .compare_exchange(from as u8, to as u8, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// A CAS the protocol *guarantees* (only this thread may own the
    /// slot in `from`) failed: the host flipped the state word under us.
    /// Poison the slot and report the violation — release-mode checked,
    /// unlike the `assert!` this replaces.
    fn guarded_cas(
        &self,
        idx: usize,
        from: SlotState,
        to: SlotState,
    ) -> Result<(), GuardViolation> {
        if self.cas(idx, from, to) {
            Ok(())
        } else {
            self.poison(SlotIdx(idx));
            let raw = self.slots[idx].state.load(Ordering::Acquire);
            Err(GuardViolation::new(
                GuardKind::IllegalTransition,
                u64::from(raw),
                from as u64,
            ))
        }
    }

    /// Caller: claim a free slot, if any. Poisoned slots are skipped.
    #[must_use]
    pub fn claim(&self) -> Option<SlotIdx> {
        (0..self.slots.len())
            .find(|&i| {
                !self.slots[i].poisoned.load(Ordering::Acquire)
                    && self.cas(i, SlotState::Free, SlotState::Claimed)
            })
            .map(SlotIdx)
    }

    /// Caller: post the request into a claimed slot and publish it.
    ///
    /// # Errors
    ///
    /// [`GuardViolation`] if the host flipped the state word away from
    /// `Claimed` while the caller owned the slot (the slot is poisoned;
    /// the caller must fall back).
    pub fn submit(
        &self,
        idx: SlotIdx,
        request: &OcallRequest,
        payload_in: &[u8],
    ) -> Result<(), GuardViolation> {
        self.slots[idx.0].data.lock().post(request, payload_in);
        self.guarded_cas(idx.0, SlotState::Claimed, SlotState::Submitted)
    }

    /// Caller: attempt to cancel a submitted task (rbf exhausted).
    /// Returns `true` if the cancel won (no worker accepted); the slot is
    /// released. Returns `false` if a worker already accepted — the
    /// caller must keep waiting for completion.
    pub fn cancel(&self, idx: SlotIdx) -> bool {
        if self.cas(idx.0, SlotState::Submitted, SlotState::Claimed) {
            self.release(idx);
            true
        } else {
            false
        }
    }

    /// Worker: scan for a submitted task and accept it. Poisoned slots
    /// are skipped.
    #[must_use]
    pub fn accept(&self) -> Option<SlotIdx> {
        (0..self.slots.len())
            .find(|&i| {
                !self.slots[i].poisoned.load(Ordering::Acquire)
                    && self.cas(i, SlotState::Submitted, SlotState::Accepted)
            })
            .map(SlotIdx)
    }

    /// Worker: run `f` on the accepted slot's data (normally
    /// [`SlotData::serve`]), then publish `Done`.
    ///
    /// # Errors
    ///
    /// [`GuardViolation`] if the host flipped the state word away from
    /// `Accepted` while the worker owned the slot (the slot is poisoned;
    /// the caller's guard sees the poison and falls back).
    pub fn complete(
        &self,
        idx: SlotIdx,
        f: impl FnOnce(&mut SlotData),
    ) -> Result<(), GuardViolation> {
        f(&mut self.slots[idx.0].data.lock());
        self.guarded_cas(idx.0, SlotState::Accepted, SlotState::Done)
    }

    /// Caller: is the task done?
    #[must_use]
    pub fn is_done(&self, idx: SlotIdx) -> bool {
        self.slots[idx.0].state.load(Ordering::Acquire) == SlotState::Done as u8
    }

    /// Caller: has a worker accepted (or finished) the task?
    #[must_use]
    pub fn is_accepted_or_done(&self, idx: SlotIdx) -> bool {
        let s = self.slots[idx.0].state.load(Ordering::Acquire);
        s == SlotState::Accepted as u8 || s == SlotState::Done as u8
    }

    /// Caller: read results out of a done slot with `f` (normally
    /// [`SlotData::reply`]), then free it.
    ///
    /// # Errors
    ///
    /// The [`GuardViolation`] `f` returns — the reply lied; the slot is
    /// poisoned and stays `Done` — or one for a host flip of the state
    /// word away from `Done` between the caller's readiness check and
    /// the collect (the slot is poisoned). Either way the results read
    /// by `f` must be discarded and the call re-routed through the
    /// fallback.
    pub fn collect<R>(
        &self,
        idx: SlotIdx,
        f: impl FnOnce(&SlotData) -> Result<R, GuardViolation>,
    ) -> Result<R, GuardViolation> {
        let r = f(&self.slots[idx.0].data.lock());
        if r.is_err() {
            self.poison(idx);
            return r;
        }
        self.guarded_cas(idx.0, SlotState::Done, SlotState::Free)?;
        r
    }

    /// Release a claimed slot without submitting (caller-side abort).
    /// A host-flipped state word poisons the slot instead of panicking.
    fn release(&self, idx: SlotIdx) {
        let mut data = self.slots[idx.0].data.lock();
        data.posted = 0;
        if !data.cold.payload_in.is_empty() {
            data.cold.payload_in.clear();
        }
        drop(data);
        let _ = self.guarded_cas(idx.0, SlotState::Claimed, SlotState::Free);
    }

    /// Any submitted-but-unaccepted tasks pending? (Worker fast check.)
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.slots
            .iter()
            .any(|s| s.state.load(Ordering::Acquire) == SlotState::Submitted as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> OcallRequest {
        OcallRequest::new(FuncId(1), &[11, 22])
    }

    impl TaskPool {
        /// The Byzantine "host" writes an arbitrary byte straight onto a
        /// slot's state word, bypassing the CAS protocol.
        fn host_write_state(&self, idx: SlotIdx, raw: u8) {
            self.slots[idx.0].state.store(raw, Ordering::Release);
        }

        /// Every slot's execute hint, as the last worker left it.
        pub(crate) fn execute_hints(&self) -> Vec<u64> {
            self.slots
                .iter()
                .map(|s| s.data.lock().execute_hint())
                .collect()
        }

        /// One whole call on slot 0 of an otherwise idle pool: the
        /// worker side runs `serve` with `invoke`; returns the reply.
        fn round_trip(
            &self,
            req: &OcallRequest,
            payload_in: &[u8],
            invoke: impl FnOnce(&OcallRequest, &[u8], &mut Vec<u8>) -> i64,
        ) -> (i64, Vec<u8>) {
            let idx = self.claim().unwrap();
            self.submit(idx, req, payload_in).unwrap();
            let w = self.accept().unwrap();
            self.complete(w, |d| d.serve(invoke)).unwrap();
            let mut out = Vec::new();
            let (ret, truncated) = self.collect(idx, |d| d.reply(&mut out)).unwrap();
            assert!(!truncated);
            (ret, out)
        }
    }

    #[test]
    fn claim_until_full() {
        let pool = TaskPool::new(2);
        let a = pool.claim().unwrap();
        let b = pool.claim().unwrap();
        assert_ne!(a, b);
        assert!(pool.claim().is_none(), "pool exhausted");
        assert_eq!(pool.capacity(), 2);
    }

    #[test]
    fn full_task_lifecycle() {
        let pool = TaskPool::new(1);
        let idx = pool.claim().unwrap();
        pool.submit(idx, &req(), b"in").unwrap();
        assert!(pool.has_pending());
        assert!(!pool.is_done(idx));

        let w = pool.accept().unwrap();
        assert_eq!(w, idx);
        assert!(pool.is_accepted_or_done(idx));
        pool.complete(w, |d| {
            d.serve(|r, pin, pout| {
                assert_eq!(*r, req());
                assert_eq!(pin, b"in");
                pout.extend_from_slice(b"out");
                7
            });
        })
        .unwrap();
        assert!(pool.is_done(idx));

        let mut out = Vec::new();
        let (ret, truncated) = pool.collect(idx, |d| d.reply(&mut out)).unwrap();
        assert_eq!((ret, truncated, &out[..]), (7, false, &b"out"[..]));
        // Slot reusable.
        assert!(pool.claim().is_some());
    }

    #[test]
    fn more_than_three_arguments_round_trip() {
        let pool = TaskPool::new(1);
        let six = OcallRequest::new(FuncId(2), &[1, 2, 3, 4, 5, 6]).with_seq(9);
        let (ret, _) = pool.round_trip(&six, &[], |r, _, _| {
            assert_eq!(*r, six, "function, all six arguments and the tag");
            r.args.iter().sum::<u64>() as i64
        });
        assert_eq!(ret, 21);
    }

    #[test]
    fn a_shorter_call_reads_zeros_past_its_arguments() {
        let pool = TaskPool::new(1);
        let (ret, _) = pool.round_trip(
            &OcallRequest::new(FuncId(2), &[1, 2, 3, 4, 5, 6]),
            &[],
            |_, _, _| 55,
        );
        assert_eq!(ret, 55);
        // `args[0]` now holds the return value and `args[1..6]` the old
        // arguments: a one-argument call must see none of them.
        let (ret, _) = pool.round_trip(&OcallRequest::new(FuncId(2), &[7]), &[], |r, _, _| {
            assert_eq!(r.args, [7, 0, 0, 0, 0, 0]);
            -3
        });
        assert_eq!(ret, -3);
        pool.round_trip(&OcallRequest::new(FuncId(2), &[]), &[], |r, _, _| {
            assert_eq!(r.args, [0; MAX_OCALL_ARGS], "not the previous return value");
            0
        });
    }

    #[test]
    fn a_payload_goes_in_and_comes_back_out() {
        let pool = TaskPool::new(1);
        let (ret, out) = pool.round_trip(&req(), b"ping", |_, pin, pout| {
            assert_eq!(pin, b"ping");
            pout.extend_from_slice(b"pong!");
            pin.len() as i64
        });
        assert_eq!((ret, &out[..]), (4, &b"pong!"[..]));
        // The next payload-free call sees neither payload.
        let (ret, out) = pool.round_trip(&req(), &[], |_, pin, pout| {
            assert!(pin.is_empty() && pout.is_empty());
            0
        });
        assert_eq!((ret, out.len()), (0, 0));
    }

    #[test]
    fn an_unposted_slot_replies_minus_one() {
        let pool = TaskPool::new(1);
        pool.round_trip(&req(), &[], |_, _, pout| {
            pout.extend_from_slice(b"old");
            0
        });
        let idx = pool.claim().unwrap();
        pool.submit(idx, &req(), b"in").unwrap();
        let w = pool.accept().unwrap();
        pool.complete(w, |d| {
            // The host overwrites the posted request while the worker
            // owns the slot.
            d.posted = 0;
            d.serve(|_, _, _| unreachable!("torn: no invoke"));
        })
        .unwrap();
        let mut out = Vec::new();
        let (ret, _) = pool.collect(idx, |d| d.reply(&mut out)).unwrap();
        assert_eq!((ret, out.len()), (-1, 0), "not the previous payload");
    }

    #[test]
    fn a_reply_length_lie_is_rejected_and_poisons_the_slot() {
        for (declared, kind) in [
            (2, GuardKind::UndersizedReply),
            (4, GuardKind::OversizedReply),
        ] {
            let pool = TaskPool::new(1);
            let idx = pool.claim().unwrap();
            pool.submit(idx, &req(), &[]).unwrap();
            let w = pool.accept().unwrap();
            pool.complete(w, |d| {
                d.serve(|_, _, pout| {
                    pout.extend_from_slice(b"abc");
                    0
                });
                // The host declares a length other than the bytes present.
                d.reply_len = declared;
            })
            .unwrap();
            let mut out = b"kept".to_vec();
            let v = pool.collect(idx, |d| d.reply(&mut out)).unwrap_err();
            assert_eq!((v.kind, v.got, v.want), (kind, u64::from(declared), 3));
            assert_eq!(out, b"kept", "nothing is copied from a lying reply");
            assert!(pool.is_poisoned(idx));
            assert_eq!(
                pool.state(idx),
                Ok(SlotState::Done),
                "quarantined, not freed"
            );
            assert!(pool.claim().is_none());
        }
    }

    #[test]
    fn an_oversized_reply_is_clamped_and_flagged() {
        let pool = TaskPool::new(1);
        let idx = pool.claim().unwrap();
        pool.submit(idx, &req(), &[]).unwrap();
        let w = pool.accept().unwrap();
        pool.complete(w, |d| {
            d.serve(|_, _, pout| {
                pout.resize(MAX_REPLY_BYTES + 1, 7);
                0
            });
        })
        .unwrap();
        let mut out = Vec::new();
        let (_, truncated) = pool.collect(idx, |d| d.reply(&mut out)).unwrap();
        assert!(truncated);
        assert_eq!(out.len(), MAX_REPLY_BYTES);
        assert_eq!(
            pool.state(idx),
            Ok(SlotState::Free),
            "an honest reply frees the slot"
        );
    }

    #[test]
    fn cancel_wins_when_unaccepted() {
        let pool = TaskPool::new(1);
        let idx = pool.claim().unwrap();
        pool.submit(idx, &req(), &[]).unwrap();
        assert!(pool.cancel(idx), "no worker accepted: cancel succeeds");
        assert_eq!(pool.state(idx), Ok(SlotState::Free));
    }

    #[test]
    fn cancel_loses_after_accept() {
        let pool = TaskPool::new(1);
        let idx = pool.claim().unwrap();
        pool.submit(idx, &req(), &[]).unwrap();
        let w = pool.accept().unwrap();
        assert!(!pool.cancel(idx), "worker already accepted");
        pool.complete(w, |_| {}).unwrap();
        assert!(pool.is_done(idx));
        pool.collect(idx, |_| Ok(())).unwrap();
    }

    #[test]
    fn host_flip_poisons_instead_of_panicking() {
        let pool = TaskPool::new(2);
        let idx = pool.claim().unwrap();
        // The host flips the state word while the caller owns the slot:
        // the guaranteed CLAIMED -> SUBMITTED CAS fails as a violation.
        pool.host_write_state(idx, SlotState::Done as u8);
        let v = pool.submit(idx, &req(), b"x").unwrap_err();
        assert_eq!(v.kind, GuardKind::IllegalTransition);
        assert!(pool.is_poisoned(idx));
        // Poisoned slots are never claimed or accepted again.
        pool.host_write_state(idx, SlotState::Free as u8);
        assert_eq!(pool.claim(), Some(SlotIdx(1)));
        pool.host_write_state(idx, SlotState::Submitted as u8);
        assert!(pool.accept().is_none());
    }

    #[test]
    fn garbage_state_bytes_decode_to_violations() {
        let pool = TaskPool::new(1);
        let idx = SlotIdx(0);
        for raw in 0..=u8::MAX {
            pool.host_write_state(idx, raw);
            match pool.state(idx) {
                Ok(s) => assert_eq!(s as u8, raw),
                Err(v) => {
                    assert_eq!(v.kind, GuardKind::BadStatusWord);
                    assert!(raw > SlotState::Done as u8);
                }
            }
        }
    }

    #[test]
    fn accept_on_empty_pool_is_none() {
        let pool = TaskPool::new(4);
        assert!(pool.accept().is_none());
        assert!(!pool.has_pending());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let pool = TaskPool::new(0);
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn concurrent_claims_are_disjoint() {
        use std::sync::Arc;
        let pool = Arc::new(TaskPool::new(8));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                (0..2)
                    .filter_map(|_| p.claim())
                    .map(|s| s.0)
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "no slot claimed twice");
        assert_eq!(n, 8, "all slots claimed exactly once");
    }

    #[test]
    fn exactly_once_under_racing_cancel_and_accept() {
        use std::sync::Arc;
        // Repeatedly race a canceller against an acceptor; exactly one
        // must win each round.
        let pool = Arc::new(TaskPool::new(1));
        for _ in 0..200 {
            let idx = pool.claim().unwrap();
            pool.submit(idx, &req(), &[]).unwrap();
            let p2 = Arc::clone(&pool);
            let acceptor = std::thread::spawn(move || p2.accept());
            let cancelled = pool.cancel(idx);
            let accepted = acceptor.join().unwrap();
            assert_ne!(
                cancelled,
                accepted.is_some(),
                "exactly one of cancel/accept must win"
            );
            if let Some(w) = accepted {
                pool.complete(w, |d| d.serve(|_, _, _| 1)).unwrap();
                pool.collect(idx, |_| Ok(())).unwrap();
            }
        }
    }
}
