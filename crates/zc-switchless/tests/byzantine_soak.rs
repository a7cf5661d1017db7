//! Adversarial soak of the ZC runtime against a Byzantine (lying) host.
//!
//! A seeded corruption schedule drives all six corruption kinds through
//! one worker slot while a single caller keeps issuing checksummed
//! ocalls. The trusted-side guards must detect every lie, re-route the
//! affected call through the regular fallback (no call lost, no wrong
//! bytes returned), quarantine the slot for the supervisor to respawn —
//! and the whole run must be deterministic: the same schedule yields a
//! byte-identical canonical guard-violation trace on every run.

use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::{
    CallPath, CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, FaultSite, OcallDispatcher,
    OcallRequest, OcallTable, SuperviseParams, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;
use zc_telemetry::export::canonical_jsonl;
use zc_telemetry::Telemetry;

/// Two logical CPUs → exactly one ZC worker: every corruption lands on
/// slot 0 and every claim resolves to slot 0, so worker indices in the
/// trace cannot race across runs.
fn soak_cpu() -> CpuSpec {
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 2;
    cpu
}

/// A 10 s quantum keeps the scheduler effectively static for the whole
/// soak (its command-word writes would otherwise race the
/// `GarbageCommand` self-detection window); supervision respawns
/// quarantined slots on the next poll with no backoff, a poison
/// threshold high enough that the deliberately-hostile shapes are never
/// blacklisted, and a watchdog that cannot fire (guard detection, not
/// the deadline, must drive every recovery here).
fn soak_config() -> ZcConfig {
    let cpu = soak_cpu();
    ZcConfig::for_cpu(cpu)
        .with_quantum_ms(10_000)
        .with_supervise_params(
            SuperviseParams::for_cpu(cpu)
                .with_watchdog_cycles(u64::MAX / 2)
                .with_poison_threshold(1_000)
                .with_backoff_cycles(1, 1)
                .with_probation_cycles(1),
        )
}

/// One corruption of each kind, on six consecutive switchless
/// executions (site indices advance only when a worker actually
/// services a call).
fn seeded_plan() -> FaultPlan {
    FaultPlan::new()
        .inject(Fault::FlipStatus, FaultSchedule::at(0))
        .inject(Fault::GarbageCommand, FaultSchedule::at(1))
        .inject(Fault::OversizeReply, FaultSchedule::at(2))
        .inject(Fault::UndersizeReply, FaultSchedule::at(3))
        .inject(Fault::StaleSeq, FaultSchedule::at(4))
        .inject(Fault::TornRequest, FaultSchedule::at(5))
}

fn checksum_table() -> (Arc<OcallTable>, switchless_core::FuncId) {
    let mut t = OcallTable::new();
    let sum = t.register(
        "sum",
        |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
            let s: u64 = pin.iter().map(|&b| u64::from(b)).sum();
            pout.extend_from_slice(&s.to_le_bytes());
            s as i64
        },
    );
    (Arc::new(t), sum)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run the seeded soak once; returns the canonical (timestamp-free)
/// JSONL trace of its guard-violation events.
fn run_soak() -> String {
    let (table, sum) = checksum_table();
    let faults = Arc::new(FaultInjector::new(seeded_plan()));
    let hub = Telemetry::with_capacity(4096);
    let rt = ZcRuntime::start_with_telemetry(
        soak_config(),
        table,
        sgx_sim::Enclave::new(soak_cpu()),
        Arc::clone(&hub),
        Some(Arc::clone(&faults)),
    )
    .unwrap();

    // Calls 0-5 each eat one corruption site; 6-9 prove the recovered
    // slot serves honestly again. The first six re-route through the
    // fallback except `GarbageCommand` (call 1), whose reply is honest —
    // the lie is on the command word and the worker itself detects it
    // right after release.
    let expected_paths = [
        CallPath::Fallback,   // FlipStatus, caller-detected
        CallPath::Switchless, // GarbageCommand, worker-detected after release
        CallPath::Fallback,   // OversizeReplyLen
        CallPath::Fallback,   // UndersizeReplyLen
        CallPath::Fallback,   // StaleSeqReplay
        CallPath::Fallback,   // TornRequest, worker-detected mid-call
        CallPath::Switchless,
        CallPath::Switchless,
        CallPath::Switchless,
        CallPath::Switchless,
    ];
    let mut out = Vec::new();
    for (i, &expect_path) in expected_paths.iter().enumerate() {
        // Distinct payload lengths per call: corrupted shapes land in
        // different blacklist buckets and checksums differ call-to-call.
        let len = 1 << (i % 6);
        let byte = (i + 1) as u8;
        let payload = vec![byte; len];
        let expect: u64 = u64::from(byte) * len as u64;
        let (ret, path) = rt
            .dispatch(&OcallRequest::new(sum, &[]), &payload, &mut out)
            .unwrap();
        assert_eq!(ret, expect as i64, "call {i}: checksum corrupted");
        assert_eq!(out, expect.to_le_bytes(), "call {i}: reply bytes corrupted");
        assert_eq!(path, expect_path, "call {i}: unexpected routing");
        // Serialise the soak: every injected corruption must be
        // detected and its slot respawned before the next call, so both
        // the trace admission order and the claimed worker are
        // deterministic run-to-run.
        wait_until("corruption detected and slot respawned", || {
            rt.stats().snapshot().guard_violations == faults.counts().total(FaultSite::Publish)
                && rt.poisoned_workers() == 0
        });
    }

    let snap = rt.stats().snapshot();
    assert_eq!(snap.issued, 10);
    assert!(snap.is_conserved(), "calls lost under corruption: {snap:?}");
    assert_eq!(snap.guard_violations, 6, "{snap:?}");
    assert_eq!(snap.reply_truncations, 0, "{snap:?}");
    let counts = faults.counts();
    assert_eq!(counts.total(FaultSite::Publish), 6);
    assert_eq!(
        (
            counts[Fault::FlipStatus],
            counts[Fault::GarbageCommand],
            counts[Fault::OversizeReply]
        ),
        (1, 1, 1)
    );
    assert_eq!(
        (
            counts[Fault::UndersizeReply],
            counts[Fault::StaleSeq],
            counts[Fault::TornRequest]
        ),
        (1, 1, 1)
    );
    let sup = rt.supervisor_state().expect("supervision is on");
    assert!(sup.respawns() >= 6, "every quarantined slot must respawn");
    rt.shutdown();

    let events = hub.tracer().drain();
    canonical_jsonl(&events, |e| e.event.kind_name() == "guard_violation")
}

#[test]
fn seeded_byzantine_soak_detects_every_corruption_deterministically() {
    let trace = run_soak();
    // One violation event per injected corruption, in injection order.
    let guards: Vec<&str> = trace
        .lines()
        .map(|l| {
            let start = l.find("\"guard\":\"").expect("guard field") + 9;
            &l[start..start + l[start..].find('"').expect("closing quote")]
        })
        .collect();
    assert_eq!(
        guards,
        vec![
            "bad_status_word",
            "bad_command_word",
            "oversized_reply",
            "undersized_reply",
            "stale_sequence",
            "torn_request",
        ],
        "full trace:\n{trace}"
    );
    // Same seed, same trace: a second full run must be byte-identical.
    let rerun = run_soak();
    assert_eq!(trace, rerun, "canonical guard trace must be reproducible");
}
