//! Property tests of the DES kernel: work conservation, determinism and
//! spin semantics under randomized workloads.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use zc_des::kernel::{Actor, Bell, Kernel, StepCx, Syscall, SyscallResult, Tid};

/// One script entry: a ring, or the syscall that ends a step.
#[derive(Clone, Copy)]
enum Do {
    Ring(Bell),
    Sys(Syscall),
}

impl From<Syscall> for Do {
    fn from(sys: Syscall) -> Self {
        Do::Sys(sys)
    }
}

/// Plays a fixed script: each step rings the bells up to the script's
/// next syscall, then returns it (`Done` once the script runs out).
struct Script {
    steps: Vec<Do>,
    i: usize,
}

impl Script {
    fn new<D: Into<Do>>(steps: Vec<D>) -> Box<Self> {
        let steps = steps.into_iter().map(Into::into).collect();
        Box::new(Script { steps, i: 0 })
    }
}

impl Actor for Script {
    fn step(&mut self, _res: SyscallResult, _now: u64, cx: &mut StepCx) -> Syscall {
        while let Some(&entry) = self.steps.get(self.i) {
            self.i += 1;
            match entry {
                Do::Ring(bell) => cx.ring(bell),
                Do::Sys(sys) => return sys,
            }
        }
        Syscall::Done
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
            k.spawn(Script::new(vec![Syscall::Compute(w)]));
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
                k.spawn(Script::new(vec![
                    Syscall::Compute(w),
                    Syscall::Sleep(1_000),
                    Syscall::Compute(w),
                ]))
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
            let bell = k.bell();
            for &(w, kind) in &seedwork {
                let steps = match kind {
                    0 => vec![Do::Sys(Syscall::Compute(w))],
                    1 => vec![Do::Sys(Syscall::Compute(w)), Do::Ring(bell)],
                    _ => vec![
                        Do::Sys(Syscall::Compute(w / 2)),
                        Do::Sys(Syscall::Sleep(w / 2 + 1)),
                        Do::Sys(Syscall::Compute(w / 2)),
                    ],
                };
                k.spawn(Script::new(steps));
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
        let bell = k.bell();
        let spinner = k.spawn(Script::new(vec![Syscall::SpinUntil {
            bell,
            seen: 0,
            timeout_pauses: Some(budget),
        }]));
        for _ in 0..contenders {
            k.spawn(Script::new(vec![Syscall::Compute(30_000)]));
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

    /// No lost and no spurious wake-up. Ringers ring random bells between
    /// computes; each spinner computes, reads its bell's count, maybe
    /// computes on with that count (so the bell may move before the spin
    /// arms), then spins on it, with or without a pause budget. Quanta
    /// are short enough to preempt spinners. A spinner whose bell moved
    /// past its count finishes `Ok`, one pause after it is next on a
    /// core; one whose bell never moved past it times out (with a
    /// budget) or is still spinning when everything else is done.
    #[test]
    fn spinners_wake_exactly_when_their_bell_moves(
        cores in 1usize..5,
        quantum in 150u64..3_000,
        bells in 1usize..4,
        ringers in prop::collection::vec(
            prop::collection::vec((0u64..3_000, 0usize..3), 0..6),
            0..4,
        ),
        spinners in prop::collection::vec(
            (0usize..3, 0u64..4_000, (any::<bool>(), 1u64..2_000), (any::<bool>(), 1u64..80)),
            1..6,
        ),
    ) {
        const PAUSE: u64 = 140;
        const DEADLINE: u64 = 10_000_000;
        let mut k = Kernel::new(cores, quantum, PAUSE);
        let bell_ids: Vec<Bell> = (0..bells).map(|_| k.bell()).collect();
        let rings = Rc::new(RefCell::new(Vec::new()));
        let ringers_left = Rc::new(RefCell::new(ringers.len()));
        for plan in &ringers {
            let plan = plan.iter().map(|&(w, b)| (w, bell_ids[b % bells])).collect();
            k.spawn(Box::new(Ringer {
                plan,
                i: 0,
                rings: Rc::clone(&rings),
                left: Rc::clone(&ringers_left),
            }));
        }
        let outs: Vec<Rc<RefCell<Spin>>> = spinners
            .iter()
            .map(|&(b, _, _, (timed, budget))| {
                Rc::new(RefCell::new(Spin {
                    bell: bell_ids[b % bells],
                    budget: timed.then_some(budget),
                    seen: None,
                    armed_at: 0,
                    end: None,
                }))
            })
            .collect();
        let tids: Vec<Tid> = spinners
            .iter()
            .zip(&outs)
            .map(|(&(_, lead, (stale, lag), _), out)| {
                k.spawn(Box::new(Spinner {
                    lead,
                    lag: stale.then_some(lag),
                    stage: 0,
                    out: Rc::clone(out),
                }))
            })
            .collect();

        // Walk the machine event by event. Between two events nothing
        // changes, so a spinner held a core over an interval exactly when
        // its busy time grew by the interval's length: that yields its
        // on-core stints.
        let mut stints: Vec<Vec<(u64, u64)>> = vec![Vec::new(); tids.len()];
        let mut open: Vec<Option<u64>> = vec![None; tids.len()];
        let mut busy = vec![0u64; tids.len()];
        let (mut t0, mut settled) = (0u64, false);
        k.run_until(0);
        while let Some(t) = k.next_tick().filter(|&t| t <= DEADLINE) {
            k.tick();
            if t > t0 {
                for (i, &tid) in tids.iter().enumerate() {
                    let b = k.thread_cycles(tid).0;
                    if b - busy[i] == t - t0 {
                        open[i].get_or_insert(t0);
                    } else if let Some(start) = open[i].take() {
                        stints[i].push((start, t0));
                    }
                    busy[i] = b;
                }
                t0 = t;
            }
            // Done once every ringer is and every spinner has finished or
            // spins untimed on a count its bell still holds.
            let count = |bell: Bell| rings.borrow().iter().filter(|r| r.1 == bell).count() as u64;
            settled = *ringers_left.borrow() == 0
                && outs.iter().all(|o| {
                    let o = o.borrow();
                    o.end.is_some() || (o.budget.is_none() && o.seen == Some(count(o.bell)))
                });
            if settled {
                break;
            }
        }
        for (i, start) in open.iter().enumerate() {
            if let Some(start) = *start {
                stints[i].push((start, k.now()));
            }
        }
        prop_assert!(settled, "the machine stopped at {} with a wake-up outstanding", k.now());

        let rings = rings.borrow();
        for (i, out) in outs.iter().enumerate() {
            let o = out.borrow();
            let Some((end, res)) = o.end else {
                continue; // untimed, on a count its bell still holds
            };
            let seen = o.seen.expect("a finished spinner read its count");
            let bell_rings: Vec<u64> = rings.iter().filter(|r| r.1 == o.bell).map(|r| r.0).collect();
            // The ring that took the bell past `seen`, if any.
            let moved = bell_rings.get(seen as usize).copied();
            match res {
                SyscallResult::Ok => {
                    let Some(rung_at) = moved else {
                        return Err(TestCaseError::fail(format!("spinner {i} woke unrung at {end}")));
                    };
                    // A spinner armed before the ring joined the bell's
                    // waiter list; one armed after it never did. At the
                    // same instant either may have come first.
                    let from = rung_at.max(o.armed_at);
                    let joined = [o.armed_at < rung_at, o.armed_at <= rung_at];
                    let allowed: Vec<u64> = joined
                        .iter()
                        .flat_map(|&joined| observations(&stints[i], from, &bell_rings, joined, PAUSE, quantum))
                        .collect();
                    prop_assert!(
                        allowed.contains(&end),
                        "spinner {} rung at {} (armed at {}) observed at {}, not at one of {:?}; stints {:?}",
                        i, rung_at, o.armed_at, end, allowed, stints[i]
                    );
                }
                SyscallResult::TimedOut => {
                    let budget = o.budget.expect("only a budget times out");
                    prop_assert!(
                        moved.is_none_or(|at| at >= end),
                        "spinner {} timed out at {} though rung at {:?}",
                        i, end, moved
                    );
                    let on_core: u64 = stints[i]
                        .iter()
                        .map(|&(start, stop)| stop.min(end).saturating_sub(start.max(o.armed_at)))
                        .sum();
                    prop_assert!(on_core >= budget * PAUSE, "spinner {} timed out early", i);
                }
                SyscallResult::Init => unreachable!("a spin never ends in Init"),
            }
        }
    }
}

/// Every instant at which the kernel may report a spin observed. From
/// `from`, when the spinner is both armed and rung past its count, it
/// observes one pause into an on-core stint. A preemption restarts that
/// pause when the spinner is next on a core, and so does each later ring
/// of its bell while it sits on the bell's waiter list (`joined`). A
/// stint seen as one may hide a preemption and a re-dispatch at the same
/// instant, at any quantum boundary inside it, so each boundary forks;
/// so does any tie between events of one instant, which the kernel may
/// handle in either order.
fn observations(
    stints: &[(u64, u64)],
    from: u64,
    rings: &[u64],
    joined: bool,
    pause: u64,
    quantum: u64,
) -> Vec<u64> {
    let mut out = Vec::new();
    // (stint index, events up to here already applied, observation due).
    let mut work: Vec<(usize, u64, u64)> = stints
        .iter()
        .position(|s| s.1 > from)
        .map(|i| {
            let x = stints[i].0.max(from);
            (i, x, x + pause)
        })
        .into_iter()
        .collect();
    while let Some((i, after, due)) = work.pop() {
        let (start, stop) = stints[i];
        let ring = rings
            .iter()
            .copied()
            .find(|&r| joined && r > after && r <= due);
        let boundary = Some(start + ((after - start) / quantum + 1) * quantum)
            .filter(|&q| q <= due && q < stop);
        if let Some(r) = ring.filter(|&r| boundary.is_none_or(|q| r <= q)) {
            // A ring restarts the pause (at its end, it may come second).
            if r == due && due <= stop {
                out.push(due);
            }
            work.push((i, r, r + pause));
        } else if let Some(q) = boundary {
            // A quantum boundary: not preempted, or re-dispatched at once
            // (at the pause's end, it may come second).
            if q == due {
                out.push(due);
            } else {
                work.push((i, q, due));
            }
            work.push((i, q, q + pause));
        } else {
            if due <= stop {
                out.push(due);
            }
            // A stint that ends as the pause does may end in preemption.
            if due >= stop && i + 1 < stints.len() {
                let x = stints[i + 1].0;
                work.push((i + 1, x, x + pause));
            }
        }
    }
    out
}

/// Rings its planned bells, each after a compute, logging every ring.
struct Ringer {
    /// `(compute, bell)` per ring.
    plan: Vec<(u64, Bell)>,
    i: usize,
    /// `(time, bell)` of every ring, shared by all ringers.
    rings: Rc<RefCell<Vec<(u64, Bell)>>>,
    left: Rc<RefCell<usize>>,
}

impl Actor for Ringer {
    fn step(&mut self, _res: SyscallResult, now: u64, cx: &mut StepCx) -> Syscall {
        if self.i > 0 {
            let (_, bell) = self.plan[self.i - 1];
            cx.ring(bell);
            self.rings.borrow_mut().push((now, bell));
        }
        self.i += 1;
        match self.plan.get(self.i - 1) {
            Some(&(w, _)) => Syscall::Compute(w),
            None => {
                *self.left.borrow_mut() -= 1;
                Syscall::Done
            }
        }
    }
}

/// What one spinner read and how its spin ended.
struct Spin {
    bell: Bell,
    budget: Option<u64>,
    /// The count it read, once read.
    seen: Option<u64>,
    armed_at: u64,
    end: Option<(u64, SyscallResult)>,
}

/// Computes `lead`, reads the count of its [`Spin`]'s bell, computes
/// `lag` more if set, then spins on that count.
struct Spinner {
    lead: u64,
    lag: Option<u64>,
    stage: u8,
    out: Rc<RefCell<Spin>>,
}

impl Actor for Spinner {
    fn step(&mut self, res: SyscallResult, now: u64, cx: &mut StepCx) -> Syscall {
        let mut out = self.out.borrow_mut();
        self.stage += 1;
        match self.stage {
            1 => return Syscall::Compute(self.lead),
            2 => {
                out.seen = Some(cx.rung(out.bell));
                if let Some(lag) = self.lag {
                    return Syscall::Compute(lag);
                }
                self.stage += 1;
            }
            3 => {}
            _ => {
                out.end = Some((now, res));
                return Syscall::Done;
            }
        }
        out.armed_at = now;
        Syscall::SpinUntil {
            bell: out.bell,
            seen: out.seen.expect("read at stage 2"),
            timeout_pauses: out.budget,
        }
    }
}

/// A spinner wakes on any ring past the count it saw, whatever that
/// count was when the spin armed.
#[test]
fn ne_spinner_wakes_on_any_change() {
    let mut k = Kernel::new(2, 1_000_000, 140);
    let bell = k.bell();
    let spinner = k.spawn(Script::new(vec![
        Do::Ring(bell),
        Do::Sys(Syscall::SpinUntil {
            bell,
            seen: 1,
            timeout_pauses: None,
        }),
    ]));
    k.spawn(Script::new(vec![
        Do::Sys(Syscall::Compute(5_000)),
        Do::Ring(bell),
    ]));
    let end = k.run();
    assert_eq!(end, 5_140, "wake one pause after the change");
    assert_eq!(k.thread_cycles(spinner).0, 5_140);
}
