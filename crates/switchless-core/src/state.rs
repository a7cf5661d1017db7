//! The ZC-SWITCHLESS worker state machine (paper Fig. 6).
//!
//! Each worker owns a shared buffer whose `status` word holds one of the
//! states below. Callers and the scheduler drive transitions with atomic
//! compare-and-swap; [`WorkerState::can_transition`] encodes exactly which
//! edges are legal so runtimes (and property tests) can reject illegal
//! interleavings.

use serde::{Deserialize, Serialize};
use std::fmt;

/// State of a switchless worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum WorkerState {
    /// Idle and claimable by any enclave caller.
    Unused = 0,
    /// Claimed by a caller that is preparing a request.
    Reserved = 1,
    /// Request posted; the worker is (or will be) executing it.
    Processing = 2,
    /// Execution finished; results await collection by the caller.
    Waiting = 3,
    /// Deactivated by the scheduler; the thread is parked.
    Paused = 4,
    /// Terminating: final cleanup then thread exit.
    Exit = 5,
}

impl WorkerState {
    /// All states, in discriminant order.
    pub const ALL: [WorkerState; 6] = [
        WorkerState::Unused,
        WorkerState::Reserved,
        WorkerState::Processing,
        WorkerState::Waiting,
        WorkerState::Paused,
        WorkerState::Exit,
    ];

    /// Decode a raw status word.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<WorkerState> {
        WorkerState::ALL.get(v as usize).copied()
    }

    /// Encode for storage in an atomic status word.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Stable lowercase name used by the trace exporters (`Display`
    /// prints the paper's uppercase form).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkerState::Unused => "unused",
            WorkerState::Reserved => "reserved",
            WorkerState::Processing => "processing",
            WorkerState::Waiting => "waiting",
            WorkerState::Paused => "paused",
            WorkerState::Exit => "exit",
        }
    }

    /// Is `self -> to` a legal transition of the paper's state machine?
    ///
    /// Legal edges:
    ///
    /// * `Unused -> Reserved` — caller claims an idle worker;
    /// * `Reserved -> Processing` — caller posted its request;
    /// * `Reserved -> Unused` — caller aborts before posting (e.g. pool
    ///   allocation failed);
    /// * `Processing -> Waiting` — worker finished the host function;
    /// * `Waiting -> Unused` — caller collected the results;
    /// * `Unused -> Paused` — scheduler deactivates an idle worker;
    /// * `Paused -> Unused` — scheduler reactivates a worker;
    /// * `Unused -> Exit` and `Paused -> Exit` — program termination.
    #[must_use]
    pub fn can_transition(self, to: WorkerState) -> bool {
        use WorkerState::*;
        matches!(
            (self, to),
            (Unused, Reserved)
                | (Reserved, Processing)
                | (Reserved, Unused)
                | (Processing, Waiting)
                | (Waiting, Unused)
                | (Unused, Paused)
                | (Paused, Unused)
                | (Unused, Exit)
                | (Paused, Exit)
        )
    }
}

impl fmt::Display for WorkerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkerState::Unused => "UNUSED",
            WorkerState::Reserved => "RESERVED",
            WorkerState::Processing => "PROCESSING",
            WorkerState::Waiting => "WAITING",
            WorkerState::Paused => "PAUSED",
            WorkerState::Exit => "EXIT",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use WorkerState::*;

    #[test]
    fn roundtrip_u8() {
        for s in WorkerState::ALL {
            assert_eq!(WorkerState::from_u8(s.as_u8()), Some(s));
        }
        assert_eq!(WorkerState::from_u8(6), None);
        assert_eq!(WorkerState::from_u8(255), None);
    }

    #[test]
    fn happy_path_is_legal() {
        assert!(Unused.can_transition(Reserved));
        assert!(Reserved.can_transition(Processing));
        assert!(Processing.can_transition(Waiting));
        assert!(Waiting.can_transition(Unused));
    }

    #[test]
    fn scheduler_edges_are_legal() {
        assert!(Unused.can_transition(Paused));
        assert!(Paused.can_transition(Unused));
        assert!(Unused.can_transition(Exit));
        assert!(Paused.can_transition(Exit));
    }

    #[test]
    fn scheduler_cannot_pause_a_busy_worker() {
        for s in [Reserved, Processing, Waiting] {
            assert!(!s.can_transition(Paused), "{s} -> PAUSED must be illegal");
            assert!(!s.can_transition(Exit), "{s} -> EXIT must be illegal");
        }
    }

    #[test]
    fn exit_is_terminal() {
        for s in WorkerState::ALL {
            assert!(!Exit.can_transition(s), "EXIT -> {s} must be illegal");
        }
    }

    #[test]
    fn no_self_loops() {
        for s in WorkerState::ALL {
            assert!(!s.can_transition(s));
        }
    }

    #[test]
    fn exactly_nine_legal_edges() {
        let mut count = 0;
        for a in WorkerState::ALL {
            for b in WorkerState::ALL {
                if a.can_transition(b) {
                    count += 1;
                }
            }
        }
        assert_eq!(count, 9);
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(Unused.to_string(), "UNUSED");
        assert_eq!(Processing.to_string(), "PROCESSING");
    }
}
