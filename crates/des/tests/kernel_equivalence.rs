//! Cross-policy equivalence suite: the event-driven scheduling policy of
//! the DES [`Kernel`] must agree with the cycle-accurate round-robin
//! policy wherever the two models coincide.
//!
//! The coincidence regime is *threads ≤ vCPUs*: round-robin never
//! preempts when its run queue is empty, so its schedule is exactly the
//! event-driven policy's cooperative one — spin observation one
//! pause after the flag write, timeouts after the full pause budget,
//! sleeps and parks to the cycle. Every scenario here stays in that
//! regime (the paper machine runs 8 threads on 8 logical CPUs) and
//! asserts **identical** call outcomes, conservation identities,
//! guard-violation and fault accounting, virtual durations and busy
//! cycles across the two policies — not approximately equal: equal.
//!
//! A property test over arbitrary small actor programs then pins the
//! kernel-level contract directly: same final flag values, same
//! per-thread busy/idle cycle totals, same step-by-step results.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use zc_des::ocall::hotcalls::HotcallsConfig;
use zc_des::ocall::intel::IntelSimConfig;
use zc_des::ocall::CallDesc;
use zc_des::{
    run, Actor, FlagId, Kernel, KernelMode, Mechanism, SimConfig, SimReport, SpinTarget, StepCx,
    Syscall, SyscallResult, Tid, WorkloadSpec, ZcSimFaults, ZcSimParams,
};

fn call(host: u64) -> CallDesc {
    CallDesc {
        host_cycles: host,
        payload_bytes: 64,
        ret_bytes: 8,
        ..CallDesc::default()
    }
}

fn closed(ops: u64, host: u64) -> WorkloadSpec {
    WorkloadSpec::ClosedLoop {
        pattern: vec![call(host)],
        total_ops: ops,
    }
}

/// Run the same experiment under both kernel policies.
fn run_both(make: impl Fn() -> SimConfig) -> (SimReport, SimReport) {
    let rr = run(&make().with_kernel_mode(KernelMode::CycleAccurate));
    let ev = run(&make().with_kernel_mode(KernelMode::EventDriven));
    (rr, ev)
}

/// The full equivalence contract: identical outcomes, not just close.
fn assert_equivalent(rr: &SimReport, ev: &SimReport, scenario: &str) {
    assert_eq!(
        rr.counters, ev.counters,
        "{scenario}: call outcome counters diverge"
    );
    assert_eq!(
        rr.fault_recovery, ev.fault_recovery,
        "{scenario}: fault/guard accounting diverges"
    );
    assert_eq!(
        rr.duration_cycles, ev.duration_cycles,
        "{scenario}: virtual duration diverges"
    );
    assert_eq!(
        rr.total_busy_cycles, ev.total_busy_cycles,
        "{scenario}: total busy cycles diverge"
    );
    assert_eq!(
        rr.caller_busy_cycles, ev.caller_busy_cycles,
        "{scenario}: caller busy cycles diverge"
    );
    assert_eq!(
        rr.worker_busy_cycles, ev.worker_busy_cycles,
        "{scenario}: worker busy cycles diverge"
    );
    assert_eq!(
        rr.mean_active_workers.to_bits(),
        ev.mean_active_workers.to_bits(),
        "{scenario}: worker residency diverges"
    );
}

#[test]
fn honest_zc_runs_are_identical_across_kernels() {
    let (rr, ev) = run_both(|| {
        SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(20_000, 500); 2],
            1,
        )
    });
    assert_eq!(rr.counters.total_calls(), 40_000, "conservation");
    assert_equivalent(&rr, &ev, "honest zc");
}

#[test]
fn no_sl_and_intel_and_hotcalls_are_identical_across_kernels() {
    let (rr, ev) = run_both(|| SimConfig::new(Mechanism::NoSl, vec![closed(2_000, 500); 3], 1));
    assert_eq!(rr.counters.regular, 6_000);
    assert_equivalent(&rr, &ev, "no_sl");

    let (rr, ev) = run_both(|| {
        SimConfig::new(
            Mechanism::Intel(IntelSimConfig::new(2, [0])),
            vec![closed(2_000, 500); 2],
            1,
        )
    });
    assert_eq!(rr.counters.total_calls(), 4_000);
    assert_equivalent(&rr, &ev, "intel");

    let (rr, ev) = run_both(|| {
        SimConfig::new(
            Mechanism::Hotcalls(HotcallsConfig::new(2, [0])),
            vec![closed(2_000, 500); 3],
            1,
        )
    });
    assert_eq!(rr.counters.switchless, 6_000, "hotcalls never falls back");
    assert_equivalent(&rr, &ev, "hotcalls");
}

#[test]
fn crash_hang_revive_schedule_is_identical_across_kernels() {
    // The chaos-soak schedule: 3 crashes + 2 hangs with revivals (slot 0
    // is hit twice). 2 callers + 4 workers + scheduler + supervisor = 8
    // threads on 8 vCPUs.
    let (rr, ev) = run_both(|| {
        SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(15_000, 500); 2],
            1,
        )
        .with_zc_faults(
            ZcSimFaults::new()
                .crash_at(1_000_000, 0)
                .crash_at(3_000_000, 1)
                .crash_at(5_000_000, 0)
                .hang_at(2_000_000, 2)
                .hang_at(4_000_000, 3)
                .with_respawn_delay(800_000)
                .with_watchdog_pauses(5_000),
        )
    });
    assert_eq!(
        rr.counters.total_calls(),
        30_000,
        "conservation under faults"
    );
    assert_eq!(rr.fault_recovery.crashes, 3);
    assert_eq!(rr.fault_recovery.hangs, 2);
    assert_eq!(rr.fault_recovery.dead_workers, 0);
    assert_equivalent(&rr, &ev, "crash/hang/revive");
}

/// Each of the six Byzantine corruption kinds as its own schedule, plus
/// the combined all-six schedule: guard-violation counts and recovery
/// must match exactly under both policies.
#[test]
fn all_six_byzantine_schedules_are_identical_across_kernels() {
    type Inject = fn(ZcSimFaults, u64, usize) -> ZcSimFaults;
    let kinds: [(&str, Inject); 6] = [
        ("flip_status", |f, t, w| f.flip_status_at(t, w)),
        ("garbage_command", |f, t, w| f.garbage_command_at(t, w)),
        ("oversize_reply", |f, t, w| f.oversize_reply_at(t, w)),
        ("undersize_reply", |f, t, w| f.undersize_reply_at(t, w)),
        ("stale_seq", |f, t, w| f.stale_seq_at(t, w)),
        ("torn_request", |f, t, w| f.torn_request_at(t, w)),
    ];
    for (name, inject) in kinds {
        let (rr, ev) = run_both(|| {
            SimConfig::new(
                Mechanism::Zc(ZcSimParams::default()),
                vec![closed(8_000, 500); 2],
                1,
            )
            .with_zc_faults(
                inject(ZcSimFaults::new(), 1_000_000, 0)
                    .with_respawn_delay(800_000)
                    .with_watchdog_pauses(5_000),
            )
        });
        assert_eq!(rr.counters.total_calls(), 16_000, "{name}: conservation");
        assert_eq!(
            rr.fault_recovery.guard_violations, 1,
            "{name}: corruption must be detected"
        );
        assert_equivalent(&rr, &ev, name);
    }

    // The combined schedule (all six kinds, two slots hit twice).
    let (rr, ev) = run_both(|| {
        SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(15_000, 500); 2],
            1,
        )
        .with_zc_faults(
            ZcSimFaults::new()
                .flip_status_at(1_000_000, 0)
                .garbage_command_at(2_000_000, 1)
                .oversize_reply_at(3_000_000, 2)
                .undersize_reply_at(4_000_000, 3)
                .stale_seq_at(5_000_000, 0)
                .torn_request_at(6_000_000, 1)
                .with_respawn_delay(800_000)
                .with_watchdog_pauses(5_000),
        )
    });
    assert_eq!(rr.counters.total_calls(), 30_000);
    assert_eq!(rr.fault_recovery.guard_violations, 6);
    assert_eq!(rr.fault_recovery.dead_workers, 0);
    assert_equivalent(&rr, &ev, "all six byzantine kinds");
}

#[test]
fn parameterized_vcpu_count_keeps_kernels_identical() {
    // 16 vCPUs → 8 ZC workers; 6 callers + 8 workers + scheduler = 15
    // threads ≤ 16 vCPUs keeps the run inside the coincidence regime.
    let (rr, ev) = run_both(|| {
        SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(4_000, 500); 6],
            1,
        )
        .with_vcpus(16)
    });
    assert_eq!(rr.counters.total_calls(), 24_000);
    assert_eq!(rr.cpu.logical_cpus, 16);
    assert_equivalent(&rr, &ev, "16 vCPUs");
}

#[test]
fn oversubscribed_machine_completes_every_call_under_both_policies() {
    // Outside the coincidence regime the policies may disagree on
    // timing, never on outcome. 256 callers of heavy 50k-cycle ocalls on
    // 128 vCPUs (2× oversubscribed), so callers spend their lifetime
    // spin-waiting on reply flags. Round-robin runs at a pause-granular
    // quantum: a preempted spinner re-observes its flag only at quantum
    // boundaries, so only a quantum of one pause resolves the wake —
    // at one scheduling event per core per pause, hence the few ops.
    for (mode, ops) in [
        (KernelMode::EventDriven, 40),
        (KernelMode::CycleAccurate, 2),
    ] {
        let heavy = CallDesc {
            host_cycles: 50_000,
            ret_bytes: 8,
            ..CallDesc::default()
        };
        let workload = WorkloadSpec::ClosedLoop {
            pattern: vec![heavy],
            total_ops: ops,
        };
        let mut cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![workload; 256],
            1,
        )
        .with_vcpus(128)
        .with_kernel_mode(mode);
        cfg.rr_quantum = 140;
        let r = run(&cfg);
        assert_eq!(r.counters.ops_per_caller, vec![ops; 256], "{mode:?}");
    }
}

// ---------------------------------------------------------------------
// Kernel-level property test: arbitrary small actor programs.
// ---------------------------------------------------------------------

/// Scripted actor: plays a fixed syscall list, logging every step.
struct Script {
    steps: Vec<Syscall>,
    i: usize,
    log: Rc<RefCell<Vec<(usize, u64, SyscallResult)>>>,
    id: usize,
}

impl Actor for Script {
    fn step(&mut self, res: SyscallResult, now: u64, _cx: &mut StepCx) -> Syscall {
        self.log.borrow_mut().push((self.id, now, res));
        let s = self.steps.get(self.i).copied().unwrap_or(Syscall::Done);
        self.i += 1;
        s
    }
    fn group(&self) -> &str {
        "script"
    }
}

const FLAGS: usize = 2;
const DEADLINE: u64 = 50_000_000;

/// One generated syscall; tids and flags are drawn within bounds. Spins
/// are over-weighted — they are where the two policies differ most.
fn random_syscall(rng: &mut TestRng, threads: usize) -> Syscall {
    match rng.below(7) {
        0 => Syscall::Compute(rng.below(50_000)),
        1 => Syscall::SetFlag {
            flag: FlagId(rng.below(FLAGS as u64) as usize),
            value: rng.below(3),
        },
        2 => Syscall::Sleep(rng.below(30_000)),
        3 | 4 => Syscall::SpinUntil {
            flag: FlagId(rng.below(FLAGS as u64) as usize),
            target: if rng.below(2) == 0 {
                SpinTarget::Eq(rng.below(3))
            } else {
                SpinTarget::Ne(rng.below(3))
            },
            timeout_pauses: (rng.below(2) == 0).then(|| 1 + rng.below(200)),
        },
        5 => Syscall::Park,
        _ => Syscall::Unpark(Tid(rng.below(threads as u64) as usize)),
    }
}

/// 1–4 threads, each playing a program of 0–5 syscalls.
struct ProgramsStrategy;

impl Strategy for ProgramsStrategy {
    type Value = Vec<Vec<Syscall>>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let threads = 1 + rng.below(4) as usize;
        (0..threads)
            .map(|_| {
                let len = rng.below(6) as usize;
                (0..len).map(|_| random_syscall(rng, threads)).collect()
            })
            .collect()
    }
}

/// Outcome of one kernel run: per-thread step logs, busy/idle totals,
/// final flag values and the time `run_until` returned.
type Outcome = (
    Vec<(usize, u64, SyscallResult)>,
    Vec<(u64, u64)>,
    Vec<u64>,
    u64,
);

fn run_programs(mut k: Kernel, programs: &[Vec<Syscall>]) -> Outcome {
    let log = Rc::new(RefCell::new(Vec::new()));
    let flags: Vec<_> = (0..FLAGS).map(|_| k.new_flag(0)).collect();
    for (id, p) in programs.iter().enumerate() {
        k.spawn(Box::new(Script {
            steps: p.clone(),
            i: 0,
            log: Rc::clone(&log),
            id,
        }));
    }
    let end = k.run_until(DEADLINE);
    let cycles = (0..programs.len())
        .map(|i| k.thread_cycles(Tid(i)))
        .collect();
    let values = flags.iter().map(|&f| k.flag(f)).collect();
    let steps = log.borrow().clone();
    (steps, cycles, values, end)
}

proptest! {
    /// With one core per thread, both policies must execute arbitrary
    /// actor programs identically: same interleaved step log (thread,
    /// time, result), same per-thread busy/idle cycle totals, same
    /// final flag values, and the same end of run.
    #[test]
    fn arbitrary_programs_agree_across_kernels(programs in ProgramsStrategy) {
        // Quantum far above any program's span: the run queue is empty in
        // the coincidence regime anyway, so the quantum never preempts.
        let rr = Kernel::new(programs.len(), 1_000_000, 140);
        let ev = Kernel::event_driven(programs.len(), 140);
        let (log_rr, cycles_rr, flags_rr, end_rr) = run_programs(rr, &programs);
        let (log_ev, cycles_ev, flags_ev, end_ev) = run_programs(ev, &programs);
        prop_assert_eq!(flags_rr, flags_ev, "final flag values diverge");
        prop_assert_eq!(cycles_rr, cycles_ev, "busy/idle totals diverge");
        prop_assert_eq!(log_rr, log_ev, "step logs diverge");
        prop_assert_eq!(end_rr, end_ev, "end of run diverges");
    }
}
