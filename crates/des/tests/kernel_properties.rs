//! Property tests of the DES kernel: work conservation, determinism and
//! spin semantics under randomized workloads.

use proptest::prelude::*;
use zc_des::kernel::{Actor, Kernel, SpinTarget, StepCx, Syscall, SyscallResult, Tid};

/// Plays a fixed syscall script.
struct Script {
    steps: Vec<Syscall>,
    i: usize,
}

impl Actor for Script {
    fn step(&mut self, _res: SyscallResult, _now: u64, _cx: &mut StepCx) -> Syscall {
        let s = self.steps.get(self.i).copied().unwrap_or(Syscall::Done);
        self.i += 1;
        s
    }
}

proptest! {
    /// Total busy time equals total submitted compute regardless of core
    /// count, quantum or arrival order (work conservation).
    #[test]
    fn work_is_conserved(
        works in prop::collection::vec(1u64..2_000_000, 1..12),
        cores in 1usize..8,
        quantum in 1_000u64..5_000_000,
    ) {
        let mut k = Kernel::new(cores, quantum, 140);
        for &w in &works {
            k.spawn(Box::new(Script { steps: vec![Syscall::Compute(w)], i: 0 }));
        }
        let end = k.run();
        let total: u64 = works.iter().sum();
        prop_assert_eq!(k.total_busy_cycles(), total);
        // Makespan bounds: at least the critical path, at most the serial
        // sum.
        let max = *works.iter().max().unwrap();
        prop_assert!(end >= max.max(total / cores as u64));
        prop_assert!(end <= total);
    }

    /// Per-thread busy time equals that thread's own submitted compute.
    #[test]
    fn per_thread_accounting_is_exact(
        works in prop::collection::vec(1u64..500_000, 1..8),
        cores in 1usize..5,
    ) {
        let mut k = Kernel::new(cores, 100_000, 140);
        let tids: Vec<Tid> = works
            .iter()
            .map(|&w| {
                k.spawn(Box::new(Script {
                    steps: vec![Syscall::Compute(w), Syscall::Sleep(1_000), Syscall::Compute(w)],
                    i: 0,
                }))
            })
            .collect();
        k.run();
        for (tid, &w) in tids.iter().zip(&works) {
            let (busy, idle) = k.thread_cycles(*tid);
            prop_assert_eq!(busy, 2 * w, "busy mismatch for {:?}", tid);
            prop_assert_eq!(idle, 1_000);
        }
    }

    /// Identical random scripts yield identical end times and accounting
    /// (determinism).
    #[test]
    fn random_scripts_are_deterministic(
        seedwork in prop::collection::vec((1u64..100_000, 0u64..3), 1..10),
        cores in 1usize..4,
    ) {
        let build = || {
            let mut k = Kernel::new(cores, 50_000, 140);
            let flag = k.new_flag(0);
            for (i, &(w, kind)) in seedwork.iter().enumerate() {
                let steps = match kind {
                    0 => vec![Syscall::Compute(w)],
                    1 => vec![Syscall::Compute(w), Syscall::SetFlag { flag, value: i as u64 }],
                    _ => vec![
                        Syscall::Compute(w / 2),
                        Syscall::Sleep(w / 2 + 1),
                        Syscall::Compute(w / 2),
                    ],
                };
                k.spawn(Box::new(Script { steps, i: 0 }));
            }
            let end = k.run();
            (end, k.total_busy_cycles(), k.steps())
        };
        prop_assert_eq!(build(), build());
    }

    /// A spinner with a timeout always times out within
    /// `budget × pause` busy cycles of its own, regardless of contention.
    #[test]
    fn spin_timeout_budget_is_exact_in_busy_time(
        budget in 1u64..5_000,
        contenders in 0usize..4,
    ) {
        let mut k = Kernel::new(1, 10_000, 140);
        let flag = k.new_flag(0);
        let spinner = k.spawn(Box::new(Script {
            steps: vec![Syscall::SpinUntil {
                flag,
                target: SpinTarget::Eq(1),
                timeout_pauses: Some(budget),
            }],
            i: 0,
        }));
        for _ in 0..contenders {
            k.spawn(Box::new(Script { steps: vec![Syscall::Compute(30_000)], i: 0 }));
        }
        k.run();
        let (busy, _) = k.thread_cycles(spinner);
        // The spinner burns exactly its pause budget on-CPU (plus at most
        // one pause of scheduling slop per on-core stint).
        let expected = budget * 140;
        prop_assert!(
            busy >= expected && busy <= expected + 140 * (contenders as u64 + 2),
            "busy {} vs expected {}",
            busy,
            expected
        );
    }
}

/// Doorbell (Ne-target) spinners wake on any value change.
#[test]
fn ne_spinner_wakes_on_any_change() {
    let mut k = Kernel::new(2, 1_000_000, 140);
    let flag = k.new_flag(7);
    let spinner = k.spawn(Box::new(Script {
        steps: vec![Syscall::SpinUntil {
            flag,
            target: SpinTarget::Ne(7),
            timeout_pauses: None,
        }],
        i: 0,
    }));
    k.spawn(Box::new(Script {
        steps: vec![Syscall::Compute(5_000), Syscall::SetFlag { flag, value: 9 }],
        i: 0,
    }));
    let end = k.run();
    assert_eq!(end, 5_140, "wake one pause after the change");
    assert_eq!(k.thread_cycles(spinner).0, 5_140);
}
