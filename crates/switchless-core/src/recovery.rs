//! Pure enclave-crash recovery policy: the per-call intent journal,
//! the reconciliation verdict lattice and the restart protocol.
//!
//! Everything before this module treats the enclave as immortal: the
//! supervisor ([`crate::supervise`]) respawns *worker slots*, the guard
//! ([`crate::guard`]) rejects *lying replies*, the overload plane
//! ([`crate::overload`]) sheds *excess* calls — but nothing models the
//! enclave process itself dying mid-call and coming back. This module
//! is the escalation tier above all of them (DESIGN.md §14):
//!
//! * **Intent journal** ([`CallJournal`]) — a fixed-slot ring in
//!   untrusted shared memory. Before a call is posted to the switchless
//!   machinery the dispatcher records an *intent* entry carrying the
//!   call's sequence tag ([`crate::OcallRequest::seq`]) and its
//!   [`IdempotencyClass`]; when the host function finishes, the entry is
//!   upgraded to *completed* (return value and reply length); when the
//!   reply is delivered into the enclave the entry retires. After a
//!   crash, the surviving entries are exactly the calls whose fate is
//!   unknown.
//! * **Reconciliation verdict lattice** ([`ReconcileVerdict`]) —
//!   `Redeliver < Replay < Refuse`, ordered by conservativeness. A
//!   completed-but-undelivered call is *redelivered* from the journal
//!   (zero re-execution); an intent-only idempotent call is *replayed*
//!   (re-executed once by its own caller, which still holds the
//!   payload); an intent-only non-idempotent call is *refused* with
//!   [`EnclaveLost`](crate::SwitchlessError::EnclaveLost), because
//!   neither completing nor re-executing it can be proven safe. The
//!   lattice join ([`ReconcileVerdict::join`]) resolves conflicting
//!   evidence toward the conservative end.
//! * **Restart protocol** ([`RecoveryPlane`]) — a `lost` flag and an
//!   `epoch` counter, moved by whichever caller observes the loss first:
//!   detect and fence ([`RecoveryPlane::begin_crash`]), rebuild, publish
//!   the new incarnation ([`RecoveryPlane::complete_restart`]), reopen
//!   ([`RecoveryPlane::resume`]). Journal entries are validated through
//!   the existing guard layer ([`ReplyGuard::check_sequence`]) before
//!   any replay decision: the journal lives in *untrusted* memory and a
//!   hostile host may tear it.
//!
//! Like every other policy module here, this one is thread-free in its
//! pure types and shared byte-for-byte between the real runtimes and
//! the discrete-event simulator; [`RecoveryPlane`] adds only the mutex
//! and the counters (mirroring [`crate::overload::OverloadPlane`]).
//!
//! With recovery enabled the conservation invariant extends to
//! `offered == completed + shed + abandoned + refused_non_idempotent`
//! — every offered call has exactly one fate, and no call is ever
//! executed twice ([`Ledger::conserves`](crate::Ledger::conserves)).

use crate::config::PAPER_QUANTUM_MS;
use crate::cpu::CpuSpec;
use crate::guard::{GuardViolation, ReplyGuard};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Whether a call may be safely re-executed after an enclave loss.
///
/// The class is declared by the caller per request (it is workload
/// semantics, not configuration): a read-like call is [`Idempotent`],
/// a side-effecting call whose single execution cannot be proven is
/// [`NonIdempotent`] and must be refused rather than guessed at.
///
/// [`Idempotent`]: IdempotencyClass::Idempotent
/// [`NonIdempotent`]: IdempotencyClass::NonIdempotent
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum IdempotencyClass {
    /// Re-executing the call is observably equivalent to executing it
    /// once: safe to replay after a crash.
    Idempotent,
    /// The call has effects that must happen exactly once; when its
    /// fate is unknown it is refused with a typed error (the default —
    /// correctness over availability).
    #[default]
    NonIdempotent,
}

impl IdempotencyClass {
    /// Stable lowercase name for exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IdempotencyClass::Idempotent => "idempotent",
            IdempotencyClass::NonIdempotent => "non_idempotent",
        }
    }
}

/// Reconciliation verdict for one in-flight call after an enclave
/// loss, ordered as a lattice by conservativeness:
/// `Redeliver < Replay < Refuse`.
///
/// * [`Redeliver`](ReconcileVerdict::Redeliver) — the journal proves
///   the host function already ran to completion; hand the recorded
///   result back without touching the host again.
/// * [`Replay`](ReconcileVerdict::Replay) — execution state unknown
///   but the call is idempotent; the caller re-executes it once.
/// * [`Refuse`](ReconcileVerdict::Refuse) — execution state unknown
///   and the call is not idempotent; surface
///   [`EnclaveLost`](crate::SwitchlessError::EnclaveLost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ReconcileVerdict {
    /// Deliver the journaled result; zero re-execution.
    Redeliver,
    /// Re-execute the (idempotent) call once via the regular path.
    Replay,
    /// Refuse with a typed error; the client decides what to do.
    Refuse,
}

impl ReconcileVerdict {
    /// All verdicts, least conservative first.
    pub const ALL: [ReconcileVerdict; 3] = [
        ReconcileVerdict::Redeliver,
        ReconcileVerdict::Replay,
        ReconcileVerdict::Refuse,
    ];

    /// Lattice join: when two evidence sources disagree about a call,
    /// take the more conservative verdict.
    #[must_use]
    pub fn join(self, other: ReconcileVerdict) -> ReconcileVerdict {
        self.max(other)
    }

    /// Stable lowercase name for exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReconcileVerdict::Redeliver => "redeliver",
            ReconcileVerdict::Replay => "replay",
            ReconcileVerdict::Refuse => "refuse",
        }
    }

    /// Verdict for a call whose execution state is unknown (intent
    /// only): replay if idempotent, refuse otherwise.
    #[must_use]
    pub fn for_unknown(class: IdempotencyClass) -> ReconcileVerdict {
        match class {
            IdempotencyClass::Idempotent => ReconcileVerdict::Replay,
            IdempotencyClass::NonIdempotent => ReconcileVerdict::Refuse,
        }
    }
}

/// Execution progress recorded for a journaled call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryState {
    /// The call was posted; whether the host function ran is unknown.
    Intent,
    /// The host function ran to completion; the result is recorded so
    /// the call can be redelivered without re-execution.
    Completed {
        /// Host function return value.
        ret: i64,
        /// Reply payload length in bytes (the payload itself stays in
        /// the caller's reply buffer; the journal records the length
        /// for cross-checking).
        payload_len: u32,
    },
}

/// One live journal entry: the call's sequence tag, its idempotency
/// class and how far it got.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The call's per-dispatch monotonic sequence tag.
    pub seq: u64,
    /// Caller-declared replay safety.
    pub class: IdempotencyClass,
    /// Progress at the time of the snapshot.
    pub state: EntryState,
}

impl JournalEntry {
    /// The reconciliation verdict this entry alone supports.
    #[must_use]
    pub fn verdict(&self) -> ReconcileVerdict {
        match self.state {
            EntryState::Completed { .. } => ReconcileVerdict::Redeliver,
            EntryState::Intent => ReconcileVerdict::for_unknown(self.class),
        }
    }
}

/// Fixed-slot intent journal: a ring of `capacity` slots indexed by
/// `seq % capacity`, modelling a preallocated region of untrusted
/// shared memory (no allocation on the call path, exactly like the
/// worker request pools).
///
/// A slot still occupied by a *different* live call refuses the new
/// intent ([`CallJournal::record_intent`] returns `false`): the call
/// proceeds without journal coverage and the miss is counted, rather
/// than silently evicting an in-flight entry.
#[derive(Debug, Clone)]
pub struct CallJournal {
    slots: Vec<Option<JournalEntry>>,
    dropped_full: u64,
}

impl CallJournal {
    /// Journal with `capacity` slots (clamped to ≥ 1), all empty.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        CallJournal {
            slots: vec![None; capacity.max(1)],
            dropped_full: 0,
        }
    }

    fn slot(&self, seq: u64) -> usize {
        (seq % self.slots.len() as u64) as usize
    }

    /// Record the intent to execute call `seq` with the given class.
    ///
    /// Returns `false` (and counts the miss) when the slot is occupied
    /// by a different live call — the caller proceeds uncovered.
    /// Re-recording the same `seq` is idempotent and preserves any
    /// completion already recorded.
    pub fn record_intent(&mut self, seq: u64, class: IdempotencyClass) -> bool {
        let idx = self.slot(seq);
        match &self.slots[idx] {
            Some(e) if e.seq != seq => {
                self.dropped_full += 1;
                false
            }
            Some(_) => true,
            None => {
                self.slots[idx] = Some(JournalEntry {
                    seq,
                    class,
                    state: EntryState::Intent,
                });
                true
            }
        }
    }

    /// Upgrade call `seq` to completed with its result. Returns `false`
    /// when the call holds no journal entry (uncovered call or already
    /// retired).
    pub fn record_completion(&mut self, seq: u64, ret: i64, payload_len: u32) -> bool {
        let idx = self.slot(seq);
        match &mut self.slots[idx] {
            Some(e) if e.seq == seq => {
                e.state = EntryState::Completed { ret, payload_len };
                true
            }
            _ => false,
        }
    }

    /// Retire call `seq` once its reply is delivered inside the
    /// enclave. Returns `false` when no entry matched.
    pub fn retire(&mut self, seq: u64) -> bool {
        let idx = self.slot(seq);
        if self.slots[idx].is_some_and(|e| e.seq == seq) {
            self.slots[idx] = None;
            true
        } else {
            false
        }
    }

    /// The live entry for call `seq`, if any.
    #[must_use]
    pub fn entry(&self, seq: u64) -> Option<&JournalEntry> {
        self.slots[self.slot(seq)].as_ref().filter(|e| e.seq == seq)
    }

    /// Live (unretired) entries — after a crash, exactly the calls
    /// whose fate must be reconciled.
    #[must_use]
    pub fn live(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Intents refused because their slot was occupied.
    #[must_use]
    pub fn dropped_full(&self) -> u64 {
        self.dropped_full
    }

    /// Reconcile in-flight call `seq` against the journal, validating
    /// the (untrusted) entry through the guard layer first: the stored
    /// tag must match the in-flight call's tag exactly, else the slot
    /// was torn or reused and the entry proves nothing.
    ///
    /// # Errors
    ///
    /// [`GuardKind::StaleSequence`](crate::guard::GuardKind::StaleSequence)
    /// when the slot is empty or carries another call's tag. The caller
    /// falls back to [`ReconcileVerdict::for_unknown`] with its own
    /// (trusted) idempotency knowledge.
    pub fn reconcile(&self, seq: u64) -> Result<ReconcileVerdict, GuardViolation> {
        let stored = self.slots[self.slot(seq)].map_or(0, |e| e.seq);
        // Only the tag is checked, and that check reads no capacity.
        ReplyGuard::new(0).check_sequence(seq, stored)?;
        Ok(self.slots[self.slot(seq)]
            .as_ref()
            .expect("tag matched a live entry")
            .verdict())
    }
}

/// Tunables of the recovery plane. Machine-derived like everything
/// else in [`crate::config`]: nothing here encodes workload knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryParams {
    /// Slots in the intent-journal ring. Bounds the in-flight calls
    /// the journal can cover at once; an occupied slot leaves the new
    /// call uncovered rather than evicting a live entry.
    pub journal_slots: usize,
    /// Modelled cycles a whole-enclave restart costs (fence, rebuild
    /// and first transition), charged on the virtual clock by whichever
    /// caller drives the restart.
    pub restart_cycles: u64,
}

impl RecoveryParams {
    /// Machine-derived defaults: 1024 journal slots (far above any
    /// plausible in-flight count on one machine) and one scheduling
    /// quantum (10 ms) of restart cost.
    #[must_use]
    pub fn for_cpu(cpu: CpuSpec) -> Self {
        RecoveryParams {
            journal_slots: 1024,
            restart_cycles: cpu.quantum_cycles(PAPER_QUANTUM_MS),
        }
    }

    /// Builder-style override of the journal capacity.
    #[must_use]
    pub fn with_journal_slots(mut self, slots: usize) -> Self {
        self.journal_slots = slots.max(1);
        self
    }

    /// Builder-style override of the modelled restart cost.
    #[must_use]
    pub fn with_restart_cycles(mut self, cycles: u64) -> Self {
        self.restart_cycles = cycles.max(1);
        self
    }
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams::for_cpu(CpuSpec::paper_machine())
    }
}

/// Consistent point-in-time read of the recovery plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySnapshot {
    /// Completed enclave restarts (each restart bumps the epoch).
    pub epoch: u64,
    /// Enclave losses observed.
    pub crashes: u64,
    /// Idempotent calls re-executed after a loss.
    pub replayed: u64,
    /// Completed-but-undelivered calls redelivered from the journal
    /// without re-execution.
    pub redelivered: u64,
    /// Non-idempotent calls refused with a typed error.
    pub refused_non_idempotent: u64,
    /// Live journal entries at snapshot time.
    pub journal_live: usize,
    /// Intents left uncovered because their slot was occupied.
    pub journal_dropped: u64,
}

/// Thread-safe recovery plane: the journal behind a mutex plus
/// lock-free epoch/lost/verdict accounting — the form the runtimes
/// embed, mirroring [`crate::overload::OverloadPlane`].
///
/// Protocol, distributed across callers (no recovery thread); the whole
/// restart state is the `lost` flag and the `epoch` counter:
///
/// 1. Every dispatch stamps a seq from [`next_seq`](Self::next_seq)
///    (or the runtime's own counter), records an intent, and captures
///    [`epoch`](Self::epoch) before blocking on the backend.
/// 2. A caller that observes the backend dead calls
///    [`begin_crash`](Self::begin_crash), which raises `lost`; exactly
///    one wins, fences and rebuilds the backend, publishes it with
///    [`complete_restart`](Self::complete_restart) (`epoch + 1`) and
///    lowers `lost` again with [`resume`](Self::resume). Losers wait
///    for the epoch to advance and the flag to drop.
/// 3. Every caller whose in-flight call straddled the crash asks
///    [`reconcile_with_class`](Self::reconcile_with_class) for a verdict
///    and executes it: redeliver the recorded result, replay through
///    the fallback path, or surface the typed refusal.
#[derive(Debug)]
pub struct RecoveryPlane {
    params: RecoveryParams,
    journal: Mutex<CallJournal>,
    seq: AtomicU64,
    epoch: AtomicU64,
    lost: AtomicBool,
    crashes: AtomicU64,
    replayed: AtomicU64,
    redelivered: AtomicU64,
    refused: AtomicU64,
}

impl RecoveryPlane {
    /// Plane at rest: empty journal, not lost, epoch 0.
    #[must_use]
    pub fn new(params: RecoveryParams) -> Self {
        RecoveryPlane {
            params,
            journal: Mutex::new(CallJournal::new(params.journal_slots)),
            seq: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            lost: AtomicBool::new(false),
            crashes: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            redelivered: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        }
    }

    /// The parameters the plane was built with.
    #[must_use]
    pub fn params(&self) -> &RecoveryParams {
        &self.params
    }

    fn journal_lock(&self) -> std::sync::MutexGuard<'_, CallJournal> {
        self.journal.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Next per-call sequence tag (starts at 1; 0 means untagged).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Completed restarts so far. Callers capture this before blocking
    /// and treat a change as "the backend I posted to is gone".
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Is the enclave currently fenced (between loss detection and
    /// resume)?
    #[must_use]
    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::Acquire)
    }

    /// Journal an intent for call `seq`. `false` = uncovered (slot
    /// occupied); the call proceeds without crash coverage.
    pub fn record_intent(&self, seq: u64, class: IdempotencyClass) -> bool {
        self.journal_lock().record_intent(seq, class)
    }

    /// Journal the completion of call `seq`.
    pub fn record_completion(&self, seq: u64, ret: i64, payload_len: u32) -> bool {
        self.journal_lock().record_completion(seq, ret, payload_len)
    }

    /// Retire call `seq` after its reply was delivered in-enclave.
    pub fn retire(&self, seq: u64) -> bool {
        self.journal_lock().retire(seq)
    }

    /// The live journal entry for call `seq`, by value.
    #[must_use]
    pub fn entry(&self, seq: u64) -> Option<JournalEntry> {
        self.journal_lock().entry(seq).copied()
    }

    /// Observe the enclave loss and fence new work away from it (the
    /// `lost` flag goes up). Exactly one caller wins (`true`) and must
    /// drive the restart; everyone else backs off and waits for the
    /// epoch to advance.
    pub fn begin_crash(&self) -> bool {
        let won = self
            .lost
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            self.crashes.fetch_add(1, Ordering::Relaxed);
        }
        won
    }

    /// The rebuild finished: bump the epoch. Callers blocked on the old
    /// incarnation see the change and reconcile.
    pub fn complete_restart(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Reopen normal dispatch (the `lost` flag goes down); the next
    /// loss is detectable again.
    pub fn resume(&self) {
        self.lost.store(false, Ordering::Release);
    }

    /// Reconcile in-flight call `seq`: guard-validate the journal
    /// entry, count the verdict, and return it. A torn or missing entry
    /// proves nothing, so the verdict is then the one the caller's own
    /// (trusted) idempotency knowledge supports.
    pub fn reconcile_with_class(&self, seq: u64, class: IdempotencyClass) -> ReconcileVerdict {
        let verdict = self
            .journal_lock()
            .reconcile(seq)
            .unwrap_or_else(|_| ReconcileVerdict::for_unknown(class));
        match verdict {
            ReconcileVerdict::Redeliver => self.redelivered.fetch_add(1, Ordering::Relaxed),
            ReconcileVerdict::Replay => self.replayed.fetch_add(1, Ordering::Relaxed),
            ReconcileVerdict::Refuse => self.refused.fetch_add(1, Ordering::Relaxed),
        };
        verdict
    }

    /// Counter snapshot for metrics and conservation checks.
    #[must_use]
    pub fn snapshot(&self) -> RecoverySnapshot {
        let (journal_live, journal_dropped) = {
            let j = self.journal_lock();
            (j.live(), j.dropped_full())
        };
        RecoverySnapshot {
            epoch: self.epoch.load(Ordering::Acquire),
            crashes: self.crashes.load(Ordering::Acquire),
            replayed: self.replayed.load(Ordering::Acquire),
            redelivered: self.redelivered.load(Ordering::Acquire),
            refused_non_idempotent: self.refused.load(Ordering::Acquire),
            journal_live,
            journal_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_lattice_laws_hold() {
        use ReconcileVerdict as V;
        // Total order: Redeliver < Replay < Refuse.
        assert!(V::Redeliver < V::Replay && V::Replay < V::Refuse);
        for a in V::ALL {
            // Idempotent.
            assert_eq!(a.join(a), a);
            for b in V::ALL {
                // Commutative.
                assert_eq!(a.join(b), b.join(a));
                // Join is an upper bound.
                assert!(a.join(b) >= a && a.join(b) >= b);
                for c in V::ALL {
                    // Associative.
                    assert_eq!(a.join(b).join(c), a.join(b.join(c)));
                }
            }
        }
        assert_eq!(V::Redeliver.join(V::Refuse), V::Refuse);
        assert_eq!(V::for_unknown(IdempotencyClass::Idempotent), V::Replay);
        assert_eq!(V::for_unknown(IdempotencyClass::NonIdempotent), V::Refuse);
    }

    #[test]
    fn journal_intent_complete_retire_round_trip() {
        let mut j = CallJournal::new(8);
        assert!(j.record_intent(1, IdempotencyClass::Idempotent));
        assert_eq!(j.live(), 1);
        assert_eq!(j.entry(1).unwrap().state, EntryState::Intent);
        assert!(j.record_completion(1, 42, 16));
        assert_eq!(
            j.entry(1).unwrap().state,
            EntryState::Completed {
                ret: 42,
                payload_len: 16
            }
        );
        assert!(j.retire(1));
        assert_eq!(j.live(), 0);
        assert!(j.entry(1).is_none());
        // Completion/retire without an entry are refused, not invented.
        assert!(!j.record_completion(2, 0, 0));
        assert!(!j.retire(2));
    }

    #[test]
    fn occupied_slot_refuses_new_intent_instead_of_evicting() {
        let mut j = CallJournal::new(4);
        assert!(j.record_intent(1, IdempotencyClass::NonIdempotent));
        // seq 5 maps to the same slot (5 % 4 == 1 % 4).
        assert!(!j.record_intent(5, IdempotencyClass::Idempotent));
        assert_eq!(j.dropped_full(), 1);
        // The original entry survives.
        assert_eq!(j.entry(1).unwrap().class, IdempotencyClass::NonIdempotent);
        assert!(j.entry(5).is_none());
        // Re-recording the live seq is idempotent and keeps progress.
        assert!(j.record_completion(1, 7, 0));
        assert!(j.record_intent(1, IdempotencyClass::NonIdempotent));
        assert!(matches!(
            j.entry(1).unwrap().state,
            EntryState::Completed { ret: 7, .. }
        ));
    }

    #[test]
    fn entry_verdicts_follow_the_lattice() {
        let intent_i = JournalEntry {
            seq: 1,
            class: IdempotencyClass::Idempotent,
            state: EntryState::Intent,
        };
        let intent_n = JournalEntry {
            class: IdempotencyClass::NonIdempotent,
            ..intent_i
        };
        let done = JournalEntry {
            state: EntryState::Completed {
                ret: 0,
                payload_len: 0,
            },
            ..intent_n
        };
        assert_eq!(intent_i.verdict(), ReconcileVerdict::Replay);
        assert_eq!(intent_n.verdict(), ReconcileVerdict::Refuse);
        // Completion dominates class: no re-execution, whatever the class.
        assert_eq!(done.verdict(), ReconcileVerdict::Redeliver);
    }

    #[test]
    fn reconcile_guard_validates_the_untrusted_slot() {
        let mut j = CallJournal::new(4);
        j.record_intent(1, IdempotencyClass::Idempotent);
        assert_eq!(j.reconcile(1), Ok(ReconcileVerdict::Replay));
        // Empty slot: the tag cannot validate.
        assert!(j.reconcile(2).is_err());
        // Slot holding another call's tag (ring collision): rejected.
        assert!(j.reconcile(5).is_err());
        j.record_completion(1, 9, 3);
        assert_eq!(j.reconcile(1), Ok(ReconcileVerdict::Redeliver));
    }

    #[test]
    fn params_derive_from_machine_model() {
        let p = RecoveryParams::for_cpu(CpuSpec::paper_machine());
        assert_eq!(p.journal_slots, 1024);
        assert_eq!(
            p.restart_cycles,
            CpuSpec::paper_machine().quantum_cycles(10)
        );
        let p = p.with_journal_slots(0).with_restart_cycles(0);
        assert_eq!((p.journal_slots, p.restart_cycles), (1, 1), "clamps");
        assert_eq!(
            RecoveryParams::default(),
            RecoveryParams::for_cpu(CpuSpec::paper_machine())
        );
    }

    #[test]
    fn plane_crash_cycle_has_one_winner_and_bumps_epoch() {
        let plane = RecoveryPlane::new(RecoveryParams::default());
        assert_eq!(plane.epoch(), 0);
        assert!(!plane.is_lost());
        assert!(plane.begin_crash(), "first detector wins");
        assert!(!plane.begin_crash(), "everyone else loses");
        assert!(plane.is_lost());
        assert_eq!(plane.epoch(), 0, "epoch holds until the rebuild lands");
        plane.complete_restart();
        assert_eq!(plane.epoch(), 1);
        assert!(plane.is_lost(), "fenced until resume");
        plane.resume();
        assert!(!plane.is_lost());
        assert_eq!(plane.epoch(), 1, "one restart, one epoch");
        // The next crash is detectable again.
        assert!(plane.begin_crash());
        assert_eq!(plane.snapshot().crashes, 2);
    }

    #[test]
    fn plane_seq_tags_start_at_one_and_are_unique() {
        let plane = RecoveryPlane::new(RecoveryParams::default());
        let a = plane.next_seq();
        let b = plane.next_seq();
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn plane_reconcile_counts_each_verdict() {
        let plane = RecoveryPlane::new(RecoveryParams::default().with_journal_slots(16));
        plane.record_intent(1, IdempotencyClass::Idempotent);
        plane.record_intent(2, IdempotencyClass::NonIdempotent);
        plane.record_intent(3, IdempotencyClass::NonIdempotent);
        plane.record_completion(3, 5, 0);
        // A validated entry decides alone: the class passed in is the
        // fallback for a torn slot and must not override it.
        use IdempotencyClass::{Idempotent, NonIdempotent};
        let verdict = |seq, class| plane.reconcile_with_class(seq, class);
        assert_eq!(verdict(1, NonIdempotent), ReconcileVerdict::Replay);
        assert_eq!(verdict(2, Idempotent), ReconcileVerdict::Refuse);
        assert_eq!(verdict(3, NonIdempotent), ReconcileVerdict::Redeliver);
        // Torn slot: trusted class drives the conservative fallback.
        assert_eq!(
            plane.reconcile_with_class(9, IdempotencyClass::NonIdempotent),
            ReconcileVerdict::Refuse
        );
        let snap = plane.snapshot();
        assert_eq!(snap.replayed, 1);
        assert_eq!(snap.redelivered, 1);
        assert_eq!(snap.refused_non_idempotent, 2);
        assert_eq!(snap.journal_live, 3);
    }

    #[test]
    fn replay_after_completion_becomes_redeliver_never_double_executes() {
        // The crash-during-replay scenario: the first recovery round
        // replays an idempotent call and records its completion; a
        // second crash before delivery must reconcile to Redeliver.
        let plane = RecoveryPlane::new(RecoveryParams::default());
        let class = IdempotencyClass::Idempotent;
        plane.record_intent(7, class);
        assert_eq!(
            plane.reconcile_with_class(7, class),
            ReconcileVerdict::Replay
        );
        // The caller re-executed and journaled the completion...
        plane.record_completion(7, 11, 4);
        // ...then the enclave died again before reply delivery.
        assert_eq!(
            plane.reconcile_with_class(7, class),
            ReconcileVerdict::Redeliver
        );
        assert_eq!(
            plane.entry(7).unwrap().state,
            EntryState::Completed {
                ret: 11,
                payload_len: 4
            }
        );
        let snap = plane.snapshot();
        assert_eq!((snap.replayed, snap.redelivered), (1, 1));
    }

    #[test]
    fn names_are_stable_lowercase() {
        assert_eq!(IdempotencyClass::Idempotent.name(), "idempotent");
        assert_eq!(IdempotencyClass::NonIdempotent.name(), "non_idempotent");
        assert_eq!(IdempotencyClass::default(), IdempotencyClass::NonIdempotent);
        for v in ReconcileVerdict::ALL {
            assert!(!v.name().is_empty());
            assert_eq!(v.name(), v.name().to_lowercase());
        }
    }
}
