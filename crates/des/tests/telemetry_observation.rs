//! A telemetry hub observes a DES run and changes nothing in it.
//!
//! `observation_only`: each configuration below runs once without a hub
//! and once with one ([`SimConfig::with_telemetry`]), and the two
//! reports must be equal — counters, duration, busy cycles, kernel
//! steps, timeline, residency and the fault and recovery summaries. The
//! figure digests of `tests/figure_digests.rs` are measured without a
//! hub; this test is what lets them speak for traced runs too.
//!
//! `traced_run_matches_its_pinned_digest`: a cross-commit pin on the
//! trace itself. One traced ZC run, long enough to log scheduler
//! decisions and the recovery of a worker and enclave fault schedule,
//! must export ([`events_to_jsonl`], timestamps included) to the pinned
//! FNV-1a digest. A change that moves an event, a field or a virtual
//! timestamp fails here; a deliberate one re-pins from the digest the
//! test prints.

use std::sync::Arc;
use switchless_core::{Fault, FaultPlan, FaultSchedule};
use zc_des::ocall::hotcalls::HotcallsConfig;
use zc_des::ocall::intel::IntelSimConfig;
use zc_des::{
    run, ArrivalProcess, CallDesc, Mechanism, OpenLoad, ServiceDist, SimConfig, SimReport,
    WorkloadSpec, ZcSimFaults, ZcSimParams,
};
use zc_telemetry::export::events_to_jsonl;
use zc_telemetry::Telemetry;

/// FNV-1a 64 of the pinned run's `events_to_jsonl` export.
const TRACE_PIN: u64 = 0x9da1_3c18_b445_7211;

/// 64-bit FNV-1a, as in `tests/figure_digests.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn closed(callers: usize, ops: u64, host_cycles: u64) -> Vec<WorkloadSpec> {
    let call = CallDesc {
        host_cycles,
        payload_bytes: 64,
        ret_bytes: 8,
        ..CallDesc::default()
    };
    vec![
        WorkloadSpec::ClosedLoop {
            pattern: vec![call],
            total_ops: ops,
        };
        callers
    ]
}

fn zc() -> Mechanism {
    Mechanism::Zc(ZcSimParams::default())
}

/// Worker crashes, a hang and a status flip, each revived.
fn worker_faults() -> ZcSimFaults {
    ZcSimFaults::new()
        .crash_at(1_000_000, 0)
        .hang_at(2_000_000, 1)
        .flip_status_at(3_000_000, 2)
        .crash_at(4_000_000, 0)
        .with_respawn_delay(800_000)
        .with_watchdog_pauses(5_000)
}

/// Two enclave crashes, a crash during replay and a stall.
fn enclave_faults() -> ZcSimFaults {
    ZcSimFaults {
        enclave_faults: FaultPlan::new()
            .inject(Fault::EnclaveCrash, FaultSchedule::at_each([100, 3_000]))
            .inject(Fault::EnclaveReplayCrash, FaultSchedule::at(0))
            .inject(Fault::EnclaveStall, FaultSchedule::at(1_500))
            .cycles(Fault::EnclaveStall, 50_000),
        ..ZcSimFaults::new().with_enclave_restart_cycles(500_000)
    }
}

/// 8 open-loop callers of bursty MMPP traffic with a dispatch budget.
fn mmpp_open_loop() -> Vec<WorkloadSpec> {
    let load = OpenLoad::new(
        CallDesc {
            host_cycles: 500,
            payload_bytes: 64,
            ..CallDesc::default()
        },
        ArrivalProcess::Mmpp {
            calm_gap_cycles: 8_000,
            burst_gap_cycles: 1_000,
            calm_dwell_cycles: 200_000,
            burst_dwell_cycles: 100_000,
        },
        7,
        4_000_000,
    )
    .with_service(ServiceDist::Exponential { mean_cycles: 400 })
    .with_deadline_budget(100_000);
    vec![WorkloadSpec::Open(load); 8]
}

/// Every field of a report that a figure, a pin or a soak reads.
fn assert_same_run(name: &str, traced: &SimReport, plain: &SimReport) {
    assert_eq!(traced.counters, plain.counters, "{name}: counters");
    assert_eq!(
        traced.duration_cycles, plain.duration_cycles,
        "{name}: duration"
    );
    assert_eq!(
        (
            traced.total_busy_cycles,
            traced.caller_busy_cycles,
            traced.worker_busy_cycles
        ),
        (
            plain.total_busy_cycles,
            plain.caller_busy_cycles,
            plain.worker_busy_cycles
        ),
        "{name}: busy cycles"
    );
    assert_eq!(
        traced.kernel_steps, plain.kernel_steps,
        "{name}: kernel steps"
    );
    assert_eq!(traced.timeline, plain.timeline, "{name}: timeline");
    assert_eq!(traced.residency, plain.residency, "{name}: residency");
    assert_eq!(
        traced.mean_active_workers.to_bits(),
        plain.mean_active_workers.to_bits(),
        "{name}: mean active workers"
    );
    assert_eq!(
        traced.fault_recovery, plain.fault_recovery,
        "{name}: faults"
    );
    assert_eq!(
        traced.recovery_latencies, plain.recovery_latencies,
        "{name}: recovery latencies"
    );
}

#[test]
fn observation_only() {
    let configs = [
        (
            "no_sl",
            SimConfig::new(Mechanism::NoSl, closed(2, 2_000, 2_000), 1),
        ),
        (
            "intel",
            SimConfig::new(
                Mechanism::Intel(IntelSimConfig::new(2, [0])),
                closed(2, 2_000, 2_000),
                1,
            ),
        ),
        (
            "hotcalls",
            SimConfig::new(
                Mechanism::Hotcalls(HotcallsConfig::new(2, [0])),
                closed(2, 2_000, 2_000),
                1,
            ),
        ),
        (
            "zc",
            SimConfig::new(zc(), closed(2, 20_000, 2_000), 1).with_sampling(5_000_000),
        ),
        (
            "zc worker faults",
            SimConfig::new(zc(), closed(2, 5_000, 500), 1).with_zc_faults(worker_faults()),
        ),
        (
            "zc enclave faults",
            SimConfig::new(zc(), closed(2, 3_000, 500), 1).with_zc_faults(enclave_faults()),
        ),
        (
            "zc mmpp open loop, 32 vCPUs",
            SimConfig::new(zc(), mmpp_open_loop(), 1).with_vcpus(32),
        ),
    ];
    for (name, cfg) in configs {
        let plain = run(&cfg);
        let hub = Telemetry::new();
        let traced = run(&cfg.with_telemetry(Arc::clone(&hub)));
        assert!(
            !hub.tracer().drain().is_empty(),
            "{name}: the traced run must trace"
        );
        assert_same_run(name, &traced, &plain);
    }
}

#[test]
fn traced_run_matches_its_pinned_digest() {
    let faults = ZcSimFaults {
        enclave_faults: FaultPlan::new()
            .inject(Fault::EnclaveCrash, FaultSchedule::at(10_000))
            .inject(Fault::EnclaveReplayCrash, FaultSchedule::at(0)),
        ..worker_faults().with_enclave_restart_cycles(500_000)
    };
    let hub = Telemetry::new();
    let cfg = SimConfig::new(zc(), closed(2, 20_000, 2_000), 1)
        .with_zc_faults(faults)
        .with_telemetry(Arc::clone(&hub));
    let r = run(&cfg);
    assert!(r.counters.conserves());
    assert_eq!(
        hub.tracer().dropped(),
        0,
        "the ring must hold the whole run"
    );
    let trace = events_to_jsonl(&hub.tracer().drain());
    for kind in [
        "decision",
        "fault",
        "guard_violation",
        "worker_respawned",
        "enclave_crash",
        "journal_replay",
        "call_phases",
    ] {
        assert!(
            trace.contains(&format!("\"kind\":\"{kind}\"")),
            "the pinned run must trace a {kind} event"
        );
    }
    let digest = fnv1a(trace.as_bytes());
    eprintln!(
        "traced run: {} events, digest {digest:#018x}",
        trace.lines().count()
    );
    assert_eq!(
        digest, TRACE_PIN,
        "the pinned trace moved: it is now {digest:#018x}"
    );
}
