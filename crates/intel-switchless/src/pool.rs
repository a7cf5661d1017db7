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
//! regular-ocall fallback.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use switchless_core::{GuardKind, GuardViolation, OcallReply, OcallRequest};

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

/// Request/response data carried by a slot.
///
/// The mutex is never contended in steady state: the protocol hands
/// ownership back and forth via the atomic state word, and only the
/// current owner touches the data.
#[derive(Debug, Default)]
pub struct SlotData {
    /// The pending request.
    pub request: Option<OcallRequest>,
    /// Caller-supplied payload (already in untrusted memory).
    pub payload_in: Vec<u8>,
    /// Worker-produced payload.
    pub payload_out: Vec<u8>,
    /// Completed reply.
    pub reply: OcallReply,
    /// Host-function execution cycles measured by the worker. Advisory
    /// (host-writable): the caller clamps it to its own wait window
    /// before charging it to the execute phase.
    pub exec_cycles: u64,
}

#[derive(Debug)]
struct Slot {
    state: AtomicU8,
    data: Mutex<SlotData>,
    /// Latched when a guard caught the host interfering with this slot's
    /// state word; poisoned slots are skipped by claim/accept forever.
    poisoned: AtomicBool,
}

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
                data: Mutex::new(SlotData::default()),
                poisoned: AtomicBool::new(false),
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

    /// Caller: write the request into a claimed slot and publish it.
    ///
    /// # Errors
    ///
    /// [`GuardViolation`] if the host flipped the state word away from
    /// `Claimed` while the caller owned the slot (the slot is poisoned;
    /// the caller must fall back).
    pub fn submit(
        &self,
        idx: SlotIdx,
        request: OcallRequest,
        payload_in: &[u8],
    ) -> Result<(), GuardViolation> {
        {
            let mut data = self.slots[idx.0].data.lock();
            data.request = Some(request);
            data.payload_in.clear();
            data.payload_in.extend_from_slice(payload_in);
            data.payload_out.clear();
            data.reply = OcallReply::default();
            data.exec_cycles = 0;
        }
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

    /// Worker: run `f` on the accepted slot's data, then publish `Done`.
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
        {
            let mut data = self.slots[idx.0].data.lock();
            f(&mut data);
        }
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

    /// Caller: read results out of a done slot with `f`, then free it.
    ///
    /// # Errors
    ///
    /// [`GuardViolation`] if the host flipped the state word away from
    /// `Done` between the caller's readiness check and the collect (the
    /// slot is poisoned; the results read by `f` must be discarded and
    /// the call re-routed through the fallback).
    pub fn collect<R>(
        &self,
        idx: SlotIdx,
        f: impl FnOnce(&mut SlotData) -> R,
    ) -> Result<R, GuardViolation> {
        let r = {
            let mut data = self.slots[idx.0].data.lock();
            f(&mut data)
        };
        self.guarded_cas(idx.0, SlotState::Done, SlotState::Free)?;
        Ok(r)
    }

    /// Release a claimed slot without submitting (caller-side abort).
    /// A host-flipped state word poisons the slot instead of panicking.
    fn release(&self, idx: SlotIdx) {
        let mut data = self.slots[idx.0].data.lock();
        data.request = None;
        data.payload_in.clear();
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
    use switchless_core::FuncId;

    fn req() -> OcallRequest {
        OcallRequest::new(FuncId(1), &[11, 22])
    }

    impl TaskPool {
        /// The Byzantine "host" writes an arbitrary byte straight onto a
        /// slot's state word, bypassing the CAS protocol.
        fn host_write_state(&self, idx: SlotIdx, raw: u8) {
            self.slots[idx.0].state.store(raw, Ordering::Release);
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
        pool.submit(idx, req(), b"in").unwrap();
        assert!(pool.has_pending());
        assert!(!pool.is_done(idx));

        let w = pool.accept().unwrap();
        assert_eq!(w, idx);
        assert!(pool.is_accepted_or_done(idx));
        pool.complete(w, |d| {
            assert_eq!(d.request.unwrap(), req());
            assert_eq!(d.payload_in, b"in");
            d.payload_out.extend_from_slice(b"out");
            d.reply.ret = 7;
        })
        .unwrap();
        assert!(pool.is_done(idx));

        let ret = pool
            .collect(idx, |d| {
                assert_eq!(d.payload_out, b"out");
                d.reply.ret
            })
            .unwrap();
        assert_eq!(ret, 7);
        // Slot reusable.
        assert!(pool.claim().is_some());
    }

    #[test]
    fn cancel_wins_when_unaccepted() {
        let pool = TaskPool::new(1);
        let idx = pool.claim().unwrap();
        pool.submit(idx, req(), &[]).unwrap();
        assert!(pool.cancel(idx), "no worker accepted: cancel succeeds");
        assert_eq!(pool.state(idx), Ok(SlotState::Free));
    }

    #[test]
    fn cancel_loses_after_accept() {
        let pool = TaskPool::new(1);
        let idx = pool.claim().unwrap();
        pool.submit(idx, req(), &[]).unwrap();
        let w = pool.accept().unwrap();
        assert!(!pool.cancel(idx), "worker already accepted");
        pool.complete(w, |_| {}).unwrap();
        assert!(pool.is_done(idx));
        pool.collect(idx, |_| {}).unwrap();
    }

    #[test]
    fn host_flip_poisons_instead_of_panicking() {
        use switchless_core::GuardKind;
        let pool = TaskPool::new(2);
        let idx = pool.claim().unwrap();
        // The host flips the state word while the caller owns the slot:
        // the guaranteed CLAIMED -> SUBMITTED CAS fails as a violation.
        pool.host_write_state(idx, SlotState::Done as u8);
        let v = pool.submit(idx, req(), b"x").unwrap_err();
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
        use switchless_core::GuardKind;
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
            pool.submit(idx, req(), &[]).unwrap();
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
                pool.complete(w, |d| d.reply.ret = 1).unwrap();
                pool.collect(idx, |_| {}).unwrap();
            }
        }
    }
}
