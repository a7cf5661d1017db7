//! Property tests of the enclave-restart recovery plane: under
//! arbitrary crash/restart schedules the journal never authorises a
//! second execution of a completed call, reconciliation is
//! deterministic and idempotent, call accounting conserves
//! (`offered == completed + refused_non_idempotent`), and every restart
//! advances the epoch exactly once and leaves the plane open.

use proptest::prelude::*;
use switchless_core::recovery::{
    IdempotencyClass, ReconcileVerdict, RecoveryParams, RecoveryPlane,
};

/// When, relative to one call's lifetime, the enclave dies.
#[derive(Debug, Clone, Copy)]
enum CrashPoint {
    /// No crash: the call completes and retires normally.
    None,
    /// Crash after the intent is journaled but before execution.
    AfterIntent,
    /// Crash after `record_completion` but before the reply reaches
    /// the caller (the redelivery window).
    AfterCompletion,
    /// Crash after intent, then a *second* crash lands right after the
    /// replay's own `record_completion` — the crash-during-replay case.
    DuringReplay,
}

const CRASH_POINTS: [CrashPoint; 4] = [
    CrashPoint::None,
    CrashPoint::AfterIntent,
    CrashPoint::AfterCompletion,
    CrashPoint::DuringReplay,
];

fn crash_points(max_len: usize) -> impl Strategy<Value = Vec<(bool, usize)>> {
    prop::collection::vec((any::<bool>(), 0usize..CRASH_POINTS.len()), 1..max_len)
}

/// Drive one crash and restart on the plane, up to (not including) the
/// `resume` that reopens it.
fn crash_cycle(plane: &RecoveryPlane) {
    let epoch = plane.epoch();
    assert!(plane.begin_crash(), "single-threaded: CAS always wins");
    assert!(!plane.begin_crash(), "a second detector loses");
    plane.complete_restart();
    assert_eq!(plane.epoch(), epoch + 1, "one restart, one epoch");
    assert!(plane.is_lost(), "fenced until resume");
}

/// Reconcile `seq` after a crash and act on the verdict, returning the
/// number of (re)executions this step performed. Mirrors what a blocked
/// caller does in the runtimes: Replay re-executes via fallback and
/// journals the completion; Redeliver returns the recorded result;
/// Refuse surfaces `EnclaveLost` and retires the entry.
fn reconcile_and_act(plane: &RecoveryPlane, seq: u64, class: IdempotencyClass) -> u64 {
    let verdict = plane.reconcile_with_class(seq, class);
    match verdict {
        ReconcileVerdict::Replay => {
            // Re-execute exactly once, then journal the completion so a
            // further crash downgrades to Redeliver.
            plane.record_completion(seq, seq as i64, 0);
            1
        }
        ReconcileVerdict::Redeliver => {
            let entry = plane.entry(seq).expect("redeliverable entry exists");
            assert_eq!(
                entry.verdict(),
                ReconcileVerdict::Redeliver,
                "redelivery only from a Completed entry"
            );
            0
        }
        ReconcileVerdict::Refuse => 0,
    }
}

proptest! {
    /// For every crash schedule: each call executes at most once, every
    /// offered call is either completed or refused (conservation), and
    /// refusals only ever hit non-idempotent calls.
    #[test]
    fn crash_schedules_never_double_execute(calls in crash_points(40)) {
        let plane = RecoveryPlane::new(RecoveryParams::default().with_journal_slots(64));
        let mut completed = 0u64;
        let mut refused = 0u64;
        let offered = calls.len() as u64;

        for (idempotent, point_idx) in calls {
            let point = CRASH_POINTS[point_idx];
            let class = if idempotent {
                IdempotencyClass::Idempotent
            } else {
                IdempotencyClass::NonIdempotent
            };
            let seq = plane.next_seq();
            prop_assert!(plane.record_intent(seq, class));
            let mut executions = 0u64;

            match point {
                CrashPoint::None => {
                    executions += 1;
                    plane.record_completion(seq, seq as i64, 0);
                    completed += 1;
                }
                CrashPoint::AfterIntent => {
                    crash_cycle(&plane);
                    executions += reconcile_and_act(&plane, seq, class);
                    if executions > 0 {
                        completed += 1;
                    } else {
                        refused += 1;
                        prop_assert_eq!(class, IdempotencyClass::NonIdempotent);
                    }
                    plane.resume();
                }
                CrashPoint::AfterCompletion => {
                    executions += 1;
                    plane.record_completion(seq, seq as i64, 0);
                    crash_cycle(&plane);
                    executions += reconcile_and_act(&plane, seq, class);
                    completed += 1;
                    plane.resume();
                }
                CrashPoint::DuringReplay => {
                    crash_cycle(&plane);
                    let replayed = reconcile_and_act(&plane, seq, class);
                    executions += replayed;
                    plane.resume();
                    if replayed > 0 {
                        // Second crash right after the replay journaled
                        // its completion: must downgrade to Redeliver.
                        crash_cycle(&plane);
                        executions += reconcile_and_act(&plane, seq, class);
                        plane.resume();
                        completed += 1;
                    } else {
                        refused += 1;
                        prop_assert_eq!(class, IdempotencyClass::NonIdempotent);
                    }
                }
            }

            prop_assert!(executions <= 1, "seq {} executed {} times", seq, executions);
            plane.retire(seq);
        }

        prop_assert_eq!(offered, completed + refused, "call accounting conserves");
        let snap = plane.snapshot();
        prop_assert_eq!(snap.refused_non_idempotent, refused);
        prop_assert_eq!(snap.journal_live, 0, "every call retired");
        prop_assert!(!plane.is_lost(), "open again after the last resume");
        prop_assert_eq!(snap.epoch, snap.crashes, "one epoch per restart");
        prop_assert_eq!(plane.epoch(), snap.epoch);
    }

    /// Reconciliation is deterministic and idempotent: asking twice
    /// about the same entry yields the same verdict, and a Completed
    /// entry never regresses to Replay however many crashes follow.
    #[test]
    fn reconcile_is_idempotent(
        idempotent in any::<bool>(),
        complete_first in any::<bool>(),
        extra_crashes in 1usize..4,
    ) {
        let plane = RecoveryPlane::new(RecoveryParams::default().with_journal_slots(8));
        let class = if idempotent {
            IdempotencyClass::Idempotent
        } else {
            IdempotencyClass::NonIdempotent
        };
        let seq = plane.next_seq();
        plane.record_intent(seq, class);
        if complete_first {
            plane.record_completion(seq, 7, 0);
        }
        let mut verdicts = Vec::new();
        for _ in 0..extra_crashes {
            crash_cycle(&plane);
            let v = plane.reconcile_with_class(seq, class);
            if v == ReconcileVerdict::Replay {
                // A replay journals its completion; later crashes see
                // the Completed entry.
                plane.record_completion(seq, 7, 0);
            }
            verdicts.push(v);
            plane.resume();
        }
        let first = verdicts[0];
        for (i, v) in verdicts.iter().enumerate().skip(1) {
            if first == ReconcileVerdict::Replay {
                prop_assert_eq!(
                    *v,
                    ReconcileVerdict::Redeliver,
                    "crash {} after a journaled replay must redeliver",
                    i
                );
            } else {
                prop_assert_eq!(*v, first, "verdict flapped at crash {}", i);
            }
        }
        if complete_first {
            prop_assert_eq!(first, ReconcileVerdict::Redeliver);
        }
    }

    /// Slot collisions are refused, never silently overwritten: a live
    /// entry is immune to a colliding later sequence number.
    #[test]
    fn journal_never_overwrites_live_entries(slots in 1usize..8, laps in 1u64..5) {
        let plane = RecoveryPlane::new(RecoveryParams::default().with_journal_slots(slots));
        let first = plane.next_seq();
        plane.record_intent(first, IdempotencyClass::Idempotent);
        let collider = first + slots as u64 * laps;
        prop_assert!(!plane.record_intent(collider, IdempotencyClass::NonIdempotent));
        let entry = plane.entry(first).expect("original entry survives");
        prop_assert_eq!(entry.seq, first);
        prop_assert_eq!(entry.class, IdempotencyClass::Idempotent);
        prop_assert!(plane.snapshot().journal_dropped >= 1);
    }
}
