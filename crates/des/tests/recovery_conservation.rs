//! Property tests of the enclave-restart recovery plane: the extended
//! conservation identity must hold under *arbitrary* crash/restart
//! schedules, not just the hand-picked ones in the unit soaks.
//!
//! Each case builds a small closed-loop ZC sim with a proptest-generated
//! enclave-fault schedule (1–4 crashes at random dispatch sites, an
//! optional stall, an optional crash-during-replay) over a mixed
//! idempotent/non-idempotent call pattern, then audits:
//!
//! * `offered == completed + refused_non_idempotent` (nothing lost,
//!   nothing executed twice — [`SimCounters::conserves`] additionally
//!   folds in shed/abandoned, both zero in closed loops);
//! * every crash completes its restart (`epoch == crashes`);
//! * the intent journal drains to zero live entries;
//! * the world's ledger and the caller-side counters agree on refusals;
//! * the whole report is bit-identical on a same-schedule rerun.
//!
//! [`SimCounters::conserves`]: zc_des::metrics::SimCounters::conserves

use proptest::prelude::*;
use switchless_core::{Fault, FaultPlan, FaultSchedule};
use zc_des::sim::{run, Mechanism, SimConfig, SimReport, ZcSimParams};
use zc_des::{CallDesc, WorkloadSpec, ZcSimFaults};

/// Callers in every generated sim.
const CALLERS: usize = 2;

/// Closed-loop ops per caller; total offered = `CALLERS * OPS`.
const OPS: u64 = 200;

/// Mixed-idempotency call pattern: the repeating unit is one idempotent
/// call followed by one non-idempotent call, so any crash site has both
/// fates in reach.
fn mixed_pattern() -> Vec<CallDesc> {
    let idem = CallDesc {
        host_cycles: 400,
        payload_bytes: 64,
        ..CallDesc::default()
    };
    let nonidem = CallDesc {
        non_idempotent: true,
        ..idem
    };
    vec![idem, nonidem]
}

/// Assemble the sim for one generated fault schedule.
fn cfg_for(faults: ZcSimFaults) -> SimConfig {
    SimConfig::new(
        Mechanism::Zc(ZcSimParams::default()),
        vec![
            WorkloadSpec::ClosedLoop {
                pattern: mixed_pattern(),
                total_ops: OPS,
            };
            CALLERS
        ],
        1,
    )
    .with_vcpus(8)
    .with_zc_faults(faults)
}

/// Build the fault schedule from generated raw material. Crash sites
/// land anywhere in the offered-dispatch range; crashes scheduled while
/// a loss is already in progress fold into it, so the *observed* crash
/// count may be lower than the scheduled one — the properties assert
/// ledger consistency, not schedule arithmetic.
fn schedule(
    crash_sites: &[u64],
    stall: Option<(u64, u64)>,
    replay_crash: Option<u64>,
    restart_cycles: u64,
) -> ZcSimFaults {
    let mut plan = FaultPlan::new().inject(
        Fault::EnclaveCrash,
        FaultSchedule::at_each(crash_sites.iter().copied()),
    );
    if let Some((at, cycles)) = stall {
        plan = plan
            .inject(Fault::EnclaveStall, FaultSchedule::at(at))
            .cycles(Fault::EnclaveStall, cycles);
    }
    if let Some(r) = replay_crash {
        plan = plan.inject(Fault::EnclaveReplayCrash, FaultSchedule::at(r));
    }
    ZcSimFaults {
        enclave_faults: plan,
        ..ZcSimFaults::new().with_enclave_restart_cycles(restart_cycles)
    }
}

/// The shared audit: conservation, restart completion, journal drain,
/// ledger/counter agreement.
fn audit(r: &SimReport) {
    let offered = CALLERS as u64 * OPS;
    let f = &r.fault_recovery;
    assert!(
        r.counters.conserves(),
        "conservation violated: {:?} / {f:?}",
        r.counters
    );
    assert_eq!(
        r.counters.total_calls() + r.counters.refused_non_idempotent,
        offered,
        "offered calls must all complete or be refused: {:?} / {f:?}",
        r.counters
    );
    assert_eq!(
        f.enclave_restarts, f.enclave_crashes,
        "every crash must complete its restart: {f:?}"
    );
    assert_eq!(
        r.counters.refused_non_idempotent, f.refused_non_idempotent,
        "caller counters and recovery ledger must agree: {:?} / {f:?}",
        r.counters
    );
    assert_eq!(f.journal_live, 0, "journal must drain: {f:?}");
    assert_eq!(f.dead_workers, 0, "workers must all survive: {f:?}");
}

proptest! {
    /// Conservation holds for any crash/stall/replay-crash schedule.
    #[test]
    fn conservation_holds_under_arbitrary_crash_schedules(
        crash_sites in prop::collection::vec(0u64..(CALLERS as u64 * OPS), 1..5),
        stall_at in 0u64..(CALLERS as u64 * OPS),
        stall_cycles in 1_000u64..200_000,
        with_stall in 0u8..2,
        replay_crash in 0u64..3,
        with_replay_crash in 0u8..2,
        restart_cycles in 50_000u64..1_000_000,
    ) {
        let faults = schedule(
            &crash_sites,
            (with_stall == 1).then_some((stall_at, stall_cycles)),
            (with_replay_crash == 1).then_some(replay_crash),
            restart_cycles,
        );
        let r = run(&cfg_for(faults));
        audit(&r);
        prop_assert!(r.fault_recovery.enclave_crashes >= 1, "at least one scheduled crash must fire");
    }

    /// The same identity holds for a crash schedule alone, and the whole
    /// report is deterministic: rerunning the same schedule reproduces
    /// it bit for bit.
    #[test]
    fn event_kernel_recovery_is_conserved_and_deterministic(
        crash_sites in prop::collection::vec(0u64..(CALLERS as u64 * OPS), 1..4),
        restart_cycles in 50_000u64..1_000_000,
    ) {
        let faults = schedule(&crash_sites, None, None, restart_cycles);
        let cfg = cfg_for(faults);
        let a = run(&cfg);
        audit(&a);
        let b = run(&cfg);
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.duration_cycles, b.duration_cycles);
        prop_assert_eq!(a.fault_recovery, b.fault_recovery);
        prop_assert_eq!(a.recovery_latencies, b.recovery_latencies);
    }
}
