//! Seeded chaos-soak harness for the self-healing runtimes.
//!
//! The acceptance scenario of the supervision subsystem: a scripted
//! multi-fault schedule (≥3 worker crashes and ≥2 worker hangs) is
//! soaked against a supervised [`ZcRuntime`] on the **virtual clock**
//! and against the DES fault model, and an invariant checker is run
//! over the resulting telemetry trace:
//!
//! * **conservation** — no call is lost or double-completed:
//!   `issued == switchless + fallback + regular + cancelled`
//!   (`CallStatsSnapshot::is_conserved`);
//! * **recovery** — every failed slot is respawned and heals: the
//!   supervisor ends with zero quarantined slots and a full serving
//!   pool, and the trace carries exactly one `worker_respawned` per
//!   recovery and one `worker_abandoned` per thread wedged at drain;
//! * **determinism** — two executions of the same seeded schedule
//!   produce byte-identical traces: the DES soak is identical
//!   including timestamps, the wall-thread runtime soak under its
//!   causal projection ([`canonical_jsonl`]).
//!
//! Edge legality is not checked here, because it cannot fail:
//! `WorkerBuffer::try_transition` refuses an edge the paper's state
//! machine forbids *before* its CAS and poisons the slot instead
//! (`buffer::tests::illegal_transition_poisons_in_release_too`). What
//! nothing checks is a host that writes a *valid but wrong* state word.
//!
//! A property test closes the loop: *any* legal fault schedule leaves
//! [`CallStats`] conserved on the virtual clock. And the blacklist is
//! followed to its end: a request shape that keeps killing workers is
//! pinned to the regular path, other shapes are not.
//!
//! [`canonical_jsonl`]: zc_telemetry::export::canonical_jsonl

use proptest::prelude::*;
use sgx_sim::Enclave;
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::{
    CallPath, CpuSpec, DrainReport, Fault, FaultInjector, FaultPlan, FaultSchedule,
    OcallDispatcher, OcallRequest, OcallTable, PoisonKey, SuperviseParams, Supervisor, ZcConfig,
    MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;
use zc_telemetry::export::{canonical_jsonl, events_to_jsonl};
use zc_telemetry::{Event, RecordedEvent, Telemetry};

/// Failure backstop for bounded polls (never slept on).
const BACKSTOP: Duration = Duration::from_secs(60);

fn table() -> (Arc<OcallTable>, switchless_core::FuncId) {
    let mut t = OcallTable::new();
    let echo = t.register(
        "echo",
        |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
            pout.extend_from_slice(pin);
            pin.len() as i64
        },
    );
    (Arc::new(t), echo)
}

/// Supervised small machine: 4 logical CPUs -> 2 workers, aggressive
/// probation so heals happen within a short soak, and an effectively
/// disabled watchdog (idle pause-spinners race the virtual clock
/// forward, so a finite deadline would fire spuriously).
fn supervised_config() -> ZcConfig {
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 4;
    // The chaos workload reuses one request shape for every call, so
    // the poison blacklist must tolerate more same-shape failures than
    // the whole schedule injects, or it would (correctly) pin the
    // shape to the regular path mid-soak and freeze the fault sites.
    let params = SuperviseParams::for_cpu(cpu)
        .with_backoff_cycles(1_000, 8_000)
        .with_probation_cycles(1_000)
        .with_poison_threshold(32)
        .with_watchdog_cycles(u64::MAX / 2);
    ZcConfig::for_cpu(cpu)
        .with_quantum_ms(10)
        .with_initial_workers(2)
        .with_supervise_params(params)
}

/// The seed of the soak: 3 crashes and 2 hangs at fixed serviced-call
/// indices. Virtual-clock runs of this plan are what the acceptance
/// criteria quantify over.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .inject(Fault::WorkerCrash, FaultSchedule::at_each([2, 12, 24]))
        .inject(Fault::WorkerHang, FaultSchedule::at_each([6, 18]))
}

/// Trace-level invariant checker for a supervised chaos run.
///
/// Cross-checks the drained telemetry events against the supervisor's
/// final policy state and the drain report; panics with the offending
/// events on violation.
fn check_trace_invariants(events: &[RecordedEvent], sup: &Supervisor, report: &DrainReport) {
    let count = |f: &dyn Fn(&Event) -> bool| events.iter().filter(|ev| f(&ev.event)).count() as u64;
    let crashes = count(&|e| {
        matches!(
            e,
            Event::Fault {
                kind: Fault::WorkerCrash
            }
        )
    });
    let hangs = count(&|e| {
        matches!(
            e,
            Event::Fault {
                kind: Fault::WorkerHang
            }
        )
    });
    let respawns = count(&|e| matches!(e, Event::WorkerRespawned { .. }));
    let heals = count(&|e| matches!(e, Event::WorkerHealed { .. }));
    let abandoned = count(&|e| matches!(e, Event::WorkerAbandoned { .. }));
    assert_eq!(crashes, 3, "all scheduled crashes must be traced");
    assert_eq!(hangs, 2, "all scheduled hangs must be traced");
    assert_eq!(
        respawns,
        sup.respawns(),
        "one worker_respawned event per supervisor respawn"
    );
    assert_eq!(heals, sup.heals(), "one worker_healed event per heal");
    assert_eq!(
        abandoned, report.abandoned as u64,
        "one worker_abandoned event per wedged thread"
    );
}

/// Tentpole acceptance run: the seeded chaos soak on the supervised
/// runtime heals every fault, conserves every call, and recovers the
/// serving pool.
#[test]
fn zc_chaos_soak_self_heals_and_conserves_calls() {
    let hub = Telemetry::new();
    let (t, echo) = table();
    let cfg = supervised_config();
    let faults = Arc::new(FaultInjector::new(chaos_plan()));
    let rt = ZcRuntime::start_with_telemetry(
        cfg,
        t,
        Enclave::new_virtual(cfg.cpu),
        Arc::clone(&hub),
        Some(Arc::clone(&faults)),
    )
    .expect("zc runtime must start");

    // Soak until every scheduled fault has fired and the supervisor has
    // recovered: one respawn per fault, quarantine empty, full pool.
    let deadline = Instant::now() + BACKSTOP;
    let mut out = Vec::new();
    let mut i = 0u64;
    loop {
        let payload = vec![(i % 251) as u8; 32];
        let (ret, _) = rt
            .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
            .expect("chaos calls still complete");
        assert_eq!(ret, 32, "call {i} returned wrong length");
        assert_eq!(out, payload, "call {i} corrupted payload");
        i += 1;
        let c = faults.counts();
        let sup = rt.supervisor_state().expect("supervision is on");
        if c[Fault::WorkerCrash] >= 3
            && c[Fault::WorkerHang] >= 2
            && sup.respawns() >= 5
            && sup.heals() >= 1
            && rt.poisoned_workers() == 0
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "soak never converged: faults={c:?} respawns={} heals={} poisoned={} active={} stats={:?}",
            sup.respawns(),
            sup.heals(),
            rt.poisoned_workers(),
            rt.active_workers(),
            rt.stats().snapshot()
        );
    }

    // Recovery: the full pool serves again. (Don't assert on the
    // instantaneous active-worker count: the scheduler probes
    // `0..=max_workers` each configuration phase and legitimately picks
    // zero once the load stops, so that read races the policy. Serving
    // one more call proves the recovered pool still handles work.)
    let payload = vec![7u8; 32];
    let (ret, _) = rt
        .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
        .expect("recovered pool must still serve");
    assert_eq!(ret, 32, "post-recovery call corrupted");
    assert_eq!(out, payload, "post-recovery payload corrupted");
    i += 1;
    let sup = rt.supervisor_state().expect("supervision is on");
    assert_eq!(
        sup.serving_workers(),
        rt.config().max_workers(),
        "every slot must be healthy again"
    );
    assert!(
        sup.blacklisted().is_empty(),
        "echo is not a poison shape; distinct workers died: {:?}",
        sup.blacklisted()
    );

    // Conservation: no call lost or double-completed.
    let snap = rt.stats().snapshot();
    assert!(snap.is_conserved(), "stats not conserved: {snap:?}");
    assert_eq!(snap.issued, i, "every dispatched call was issued once");
    assert_eq!(
        snap.switchless + snap.fallback + snap.regular + snap.cancelled,
        i,
        "every dispatched call completed exactly once: {snap:?}"
    );
    assert!(snap.switchless > 0, "no call went switchless: {snap:?}");

    // Drain: exactly the two hang-wedged threads are abandoned (they
    // marked themselves); the respawned generations join.
    let report = rt.shutdown_with_timeout(BACKSTOP);
    assert_eq!(
        report.abandoned, 2,
        "both hung threads abandoned: {report:?}"
    );

    // Re-snapshot the ledger now that shutdown has joined the
    // supervisor thread: heals landing between the recovery snapshot
    // above and the drain would otherwise race the trace comparison.
    let sup = rt.supervisor_state().expect("supervision is on");
    drop(rt);
    check_trace_invariants(&hub.tracer().drain(), &sup, &report);
}

/// The poison blacklist end to end: a request shape whose calls keep
/// killing workers is traced as `blacklisted` and from then on takes
/// the regular path without touching a worker; a shape in another
/// payload-size bucket keeps going switchless.
#[test]
fn poison_shape_is_pinned_to_the_regular_path_and_others_are_not() {
    let hub = Telemetry::new();
    let (t, echo) = table();
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 2; // one slot takes every crash
    let params = SuperviseParams::for_cpu(cpu)
        .with_backoff_cycles(1_000, 8_000)
        .with_probation_cycles(1_000)
        .with_watchdog_cycles(u64::MAX / 2);
    let threshold = u64::from(params.poison_threshold);
    let cfg = ZcConfig::for_cpu(cpu)
        .with_quantum_ms(10)
        .with_supervise_params(params);
    // The first `threshold` calls a worker serves kill it.
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::WorkerCrash, FaultSchedule::at_each(0..threshold)),
    ));
    let rt = ZcRuntime::start_with_telemetry(
        cfg,
        t,
        Enclave::new_virtual(cpu),
        Arc::clone(&hub),
        Some(Arc::clone(&faults)),
    )
    .expect("zc runtime must start");
    let blacklist = || {
        rt.supervisor_state()
            .expect("supervision is on")
            .blacklisted()
            .to_vec()
    };

    let poison = [1u8; 100];
    let deadline = Instant::now() + BACKSTOP;
    let mut out = Vec::new();
    let mut calls = 0u64;
    while blacklist().is_empty() {
        assert!(
            Instant::now() < deadline,
            "never blacklisted: {:?}",
            faults.counts()
        );
        let (ret, path) = rt
            .dispatch(&OcallRequest::new(echo, &[]), &poison, &mut out)
            .expect("a call that kills its worker re-routes");
        assert_eq!((ret, out.as_slice()), (100, &poison[..]));
        assert_ne!(path, CallPath::Regular, "not pinned yet");
        calls += 1;
    }
    let key = PoisonKey::new(echo, poison.len());
    assert_eq!(blacklist(), [key]);
    assert_eq!(faults.counts()[Fault::WorkerCrash], threshold);

    // Pinned: the very next call of that shape, and every later one.
    for _ in 0..3 {
        let (ret, path) = rt
            .dispatch(&OcallRequest::new(echo, &[]), &poison, &mut out)
            .expect("pinned calls complete");
        assert_eq!((ret, path), (100, CallPath::Regular));
        calls += 1;
    }
    // Another size bucket of the same function is not: once the slot
    // is back it goes switchless again.
    let benign = [2u8; 8];
    assert_ne!(PoisonKey::new(echo, benign.len()), key);
    loop {
        assert!(Instant::now() < deadline, "benign shape never switchless");
        let (ret, path) = rt
            .dispatch(&OcallRequest::new(echo, &[]), &benign, &mut out)
            .expect("benign calls complete");
        assert_eq!(ret, 8);
        assert_ne!(path, CallPath::Regular, "only the poison shape is pinned");
        calls += 1;
        if path == CallPath::Switchless {
            break;
        }
    }

    let stats = rt.stats().snapshot();
    assert!(stats.is_conserved(), "{stats:?}");
    assert_eq!((stats.issued, stats.regular), (calls, 3));
    rt.shutdown();
    let traced: Vec<_> = hub
        .tracer()
        .drain()
        .into_iter()
        .filter_map(|ev| match ev.event {
            Event::Blacklisted { func, shape } => Some((func, shape)),
            _ => None,
        })
        .collect();
    assert_eq!(
        traced,
        [(echo.0, key.shape)],
        "one event, carrying the shape"
    );
}

/// One single-worker chaos run projected to its causal fault/drain
/// trace. With one worker every fault lands on slot 0 at a scripted
/// serviced-call index, so the projection is seed-determined.
fn seeded_soak_projection() -> String {
    let hub = Telemetry::new();
    let (t, echo) = table();
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 2; // max_workers = 1
    let params = SuperviseParams::for_cpu(cpu)
        .with_backoff_cycles(1_000, 8_000)
        .with_probation_cycles(1_000)
        .with_poison_threshold(32)
        .with_watchdog_cycles(u64::MAX / 2);
    let cfg = ZcConfig::for_cpu(cpu)
        .with_quantum_ms(10)
        .with_supervise_params(params);
    // Supervision keeps reviving slot 0, so later faults on the same
    // slot can fire: crash, crash, hang across the soak.
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new()
            .inject(Fault::WorkerCrash, FaultSchedule::at_each([1, 4]))
            .inject(Fault::WorkerHang, FaultSchedule::at(8)),
    ));
    let rt = ZcRuntime::start_with_telemetry(
        cfg,
        t,
        Enclave::new_virtual(cpu),
        Arc::clone(&hub),
        Some(Arc::clone(&faults)),
    )
    .expect("zc runtime must start");
    let mut out = Vec::new();
    let deadline = Instant::now() + BACKSTOP;
    loop {
        rt.dispatch(&OcallRequest::new(echo, &[7]), b"seeded", &mut out)
            .expect("chaos calls still complete");
        let c = faults.counts();
        // Quiesce on the supervisor too: the drain event counts joined
        // thread generations, so whether the hung slot's respawn landed
        // before shutdown must not be left to the OS scheduler.
        let respawns = rt.supervisor_state().map_or(0, |s| s.respawns());
        if c[Fault::WorkerCrash] >= 2 && c[Fault::WorkerHang] >= 1 && respawns >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "faults never fired: {c:?} respawns={respawns}"
        );
    }
    assert!(rt.stats().snapshot().is_conserved());
    let report = rt.shutdown_with_timeout(BACKSTOP);
    assert_eq!(report.abandoned, 1, "the hung generation is abandoned");
    drop(rt);
    canonical_jsonl(&hub.tracer().drain(), |ev| {
        matches!(ev.event, Event::Fault { .. } | Event::Drain { .. })
    })
}

#[test]
fn zc_chaos_soak_projection_is_byte_identical_across_runs() {
    let first = seeded_soak_projection();
    assert!(
        first.contains(r#""fault":"worker_crash""#) && first.contains(r#""fault":"worker_hang""#),
        "projection must carry the seeded faults:\n{first}"
    );
    assert_eq!(
        first,
        seeded_soak_projection(),
        "same seed must yield a byte-identical causal trace"
    );
}

/// One DES chaos soak parameterized over machine scale: `vcpus`
/// logical CPUs, `callers` closed-loop callers of `ops` calls each,
/// on either kernel ([`zc_des::KernelMode`]). Returns the full
/// timestamped JSONL trace.
fn des_soak(vcpus: usize, callers: usize, ops: u64, mode: zc_des::KernelMode) -> String {
    use zc_des::ocall::CallDesc;
    use zc_des::workload::WorkloadSpec;
    use zc_des::{run, Mechanism, SimConfig, ZcSimFaults, ZcSimParams};

    let hub = Telemetry::new();
    let call = CallDesc {
        host_cycles: 500,
        ..CallDesc::default()
    };
    // At vcpus = 8: 2 callers + 4 workers + scheduler + supervisor = 8
    // threads on the paper machine's 8 cores, so supervisor timers fire
    // on time. Larger shapes oversubscribe and ride the event kernel.
    let faults = ZcSimFaults::new()
        .crash_at(1_000_000, 0)
        .crash_at(3_000_000, 1)
        .crash_at(5_000_000, 0)
        .hang_at(2_000_000, 2)
        .hang_at(4_000_000, 3)
        .with_respawn_delay(800_000)
        .with_watchdog_pauses(5_000);
    let cfg = SimConfig::new(
        Mechanism::Zc(ZcSimParams::default()),
        vec![
            WorkloadSpec::ClosedLoop {
                pattern: vec![call],
                total_ops: ops,
            };
            callers
        ],
        1,
    )
    .with_vcpus(vcpus)
    .with_kernel_mode(mode)
    .with_zc_faults(faults)
    .with_telemetry(Arc::clone(&hub));
    let r = run(&cfg);
    // Conservation on virtual time: every issued op completes once,
    // watchdog-cancelled calls re-complete on the regular path.
    assert_eq!(r.counters.total_calls(), ops * callers as u64);
    assert_eq!(r.counters.ops_per_caller, vec![ops; callers]);
    assert!(r.counters.cancelled <= r.counters.fallback);
    // Recovery: all five faults applied, every slot revived.
    assert_eq!(r.fault_recovery.crashes, 3, "{:?}", r.fault_recovery);
    assert_eq!(r.fault_recovery.hangs, 2, "{:?}", r.fault_recovery);
    assert!(r.fault_recovery.respawns >= 5, "{:?}", r.fault_recovery);
    assert_eq!(r.fault_recovery.dead_workers, 0, "{:?}", r.fault_recovery);
    events_to_jsonl(&hub.tracer().drain())
}

/// DES half of the acceptance run: the same crash/hang density against
/// the simulated machine, where even the timestamped full trace is
/// byte-identical run to run.
#[test]
fn des_chaos_soak_recovers_and_is_byte_identical() {
    let soak = || des_soak(8, 2, 20_000, zc_des::KernelMode::CycleAccurate);
    let first = soak();
    assert!(
        first.contains(r#""fault":"worker_crash""#) && first.contains(r#""fault":"worker_hang""#),
        "DES trace must carry the injected faults"
    );
    assert!(
        first.contains(r#""kind":"worker_respawned""#),
        "DES trace must carry the revivals"
    );
    assert_eq!(
        first,
        soak(),
        "DES soak must be byte-identical including timestamps"
    );
}

/// The 128-vCPU soak variant: the same fault schedule against a
/// 64-worker pool with 32 callers on the event-driven kernel. Recovery
/// and trace determinism must be scale-invariant.
#[test]
fn des_chaos_soak_recovers_at_128_vcpus_and_is_byte_identical() {
    let soak = || des_soak(128, 32, 10_000, zc_des::KernelMode::EventDriven);
    let first = soak();
    assert!(
        first.contains(r#""fault":"worker_crash""#) && first.contains(r#""fault":"worker_hang""#),
        "128-vCPU DES trace must carry the injected faults"
    );
    assert_eq!(
        first,
        soak(),
        "128-vCPU DES soak must be byte-identical including timestamps"
    );
}

proptest! {
    /// Satellite invariant: *any* legal fault schedule — crashes, hangs,
    /// stalls, pool exhaustion, transition failures, in any density the
    /// plan builders can express — leaves `CallStats` conserved on the
    /// virtual clock: `issued == switchless + fallback + regular +
    /// cancelled`, with every call completing exactly once.
    #[test]
    fn any_fault_schedule_conserves_call_stats(
        crash_ixs in prop::collection::vec(0u64..24, 0..3),
        hang_ixs in prop::collection::vec(0u64..24, 0..2),
        crash_stride in 0u64..13,
        stall_at in 0u64..24,
        stall_cycles in 0u64..600_000,
        exhaust in 0u64..5,
        trans_fail in 0u64..3,
        supervised in any::<bool>(),
        calls in 30u64..70,
    ) {
        let mut plan = FaultPlan::new()
            .inject(Fault::WorkerCrash, FaultSchedule::at_each(crash_ixs))
            .inject(Fault::WorkerHang, FaultSchedule::at_each(hang_ixs))
            .inject(Fault::PoolExhaustion, FaultSchedule::first(exhaust))
            .inject(Fault::TransitionFailure, FaultSchedule::first(trans_fail));
        // Sub-range encodings of optional schedule entries: small
        // strides / cycle counts mean "absent".
        if crash_stride >= 5 {
            plan = plan.inject(Fault::WorkerCrash, FaultSchedule::every(crash_stride));
        }
        if stall_cycles >= 100_000 {
            plan = plan
                .inject(Fault::WorkerStall, FaultSchedule::at(stall_at))
                .cycles(Fault::WorkerStall, stall_cycles);
        }
        let (t, echo) = table();
        let cfg = if supervised {
            supervised_config()
        } else {
            let mut cpu = CpuSpec::paper_machine();
            cpu.logical_cpus = 4;
            ZcConfig::for_cpu(cpu).with_quantum_ms(10).with_initial_workers(2)
        };
        let rt = ZcRuntime::start_with_faults(
            cfg,
            t,
            Enclave::new_virtual(cfg.cpu),
            Arc::new(FaultInjector::new(plan)),
        )
        .unwrap();
        let mut out = Vec::new();
        for i in 0..calls {
            let payload = vec![(i % 251) as u8; 16];
            // `trans_fail < 4` stays inside the retry budget, so every
            // call completes (switchlessly or via fallback).
            let (ret, _) = rt
                .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
                .unwrap();
            prop_assert_eq!(ret, 16);
            prop_assert_eq!(&out, &payload);
        }
        let snap = rt.stats().snapshot();
        prop_assert!(snap.is_conserved(), "not conserved: {:?}", snap);
        prop_assert_eq!(snap.issued, calls);
        prop_assert_eq!(
            snap.switchless + snap.fallback + snap.regular + snap.cancelled,
            calls,
            "lost or double-completed calls: {:?}",
            snap
        );
        // Hung threads are wedged and say so; everything else joins.
        rt.shutdown_with_timeout(BACKSTOP);
    }
}
