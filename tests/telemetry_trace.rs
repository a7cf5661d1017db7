//! Telemetry tier-1 suite: trace determinism under fault injection and
//! end-to-end export validation.
//!
//! The determinism contract (DESIGN.md §8): full traces interleave
//! per-thread streams nondeterministically, and cycle timestamps vary
//! run to run even on a virtual clock — but the *causally ordered*
//! projection (fault injections, pool reallocations, drain outcomes,
//! with timestamps stripped) of a single-caller scripted-fault scenario
//! is byte-identical across same-seed runs. That is what
//! [`canonical_jsonl`] exports and what this suite pins down.
//!
//! [`canonical_jsonl`]: zc_telemetry::export::canonical_jsonl

use intel_switchless::IntelSwitchless;
use sgx_sim::Enclave;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::overload::OverloadParams;
use switchless_core::{
    CallPath, CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, IntelConfig,
    OcallDispatcher, OcallRequest, OcallTable, ShedReason, SuperviseParams, SwitchlessError,
    WorkerState, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;
use zc_telemetry::export::{canonical_jsonl, events_to_jsonl, to_chrome_trace};
use zc_telemetry::{Event, Phase, RecordedEvent, Telemetry};

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

/// The status edges a trace carries.
fn traced_edges(events: &[RecordedEvent]) -> Vec<(WorkerState, WorkerState)> {
    events
        .iter()
        .filter_map(|e| match e.event {
            Event::WorkerTransition { from, to, .. } => Some((from, to)),
            _ => None,
        })
        .collect()
}

/// `PAUSED` and `EXIT`: the two states no call ever puts a worker in.
fn parked(s: WorkerState) -> bool {
    matches!(s, WorkerState::Paused | WorkerState::Exit)
}

/// Asserts that `events` hold exactly one `CallPhases` per completed
/// call, `calls` of them, under distinct non-zero ids, and no status
/// edge that a call owns.
fn assert_one_event_per_call(events: &[RecordedEvent], calls: usize) {
    let mut ids: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::CallPhases { call, .. } => Some(call),
            _ => None,
        })
        .collect();
    assert_eq!(ids.len(), calls, "one call_phases per completed call");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), calls, "call ids must be distinct");
    assert_ne!(ids[0], 0, "0 means untagged");
    let owned: Vec<_> = traced_edges(events)
        .into_iter()
        .filter(|(from, to)| !parked(*from) && !parked(*to))
        .collect();
    assert!(owned.is_empty(), "call-owned edges traced: {owned:?}");
}

/// The all-planes configuration of the benchmark's `zc_planes`, on a
/// one-worker machine: supervision (with a watchdog no free-running
/// virtual clock can reach by itself), recovery, overload admission
/// with a bucket that never runs dry. The scheduler steps through
/// virtual time as fast as the host lets it, one event a step; a long
/// quantum (2 000 clock jumps a step) keeps that to a trickle the ring
/// cannot overflow with, however the test's threads are scheduled.
fn all_planes_config() -> ZcConfig {
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 2;
    ZcConfig::for_cpu(cpu)
        .with_quantum_ms(10_000)
        .with_supervise_params(
            SuperviseParams::for_cpu(cpu)
                .with_backoff_cycles(1_000, 8_000)
                .with_probation_cycles(1_000)
                .with_watchdog_cycles(WATCHDOG),
        )
        .with_recovery()
        .with_overload_params(OverloadParams::for_cpu(&cpu).with_bucket(1 << 20, 1))
}

/// Watchdog of [`all_planes_config`]: 2^56 cycles, years of virtual
/// time, yet far enough from `u64::MAX` to jump past it once.
const WATCHDOG: u64 = 1 << 56;

/// Keep only the causally-deterministic event kinds.
fn causal(ev: &RecordedEvent) -> bool {
    matches!(
        ev.event,
        Event::Fault { .. } | Event::Drain { .. } | Event::PoolRealloc { .. }
    )
}

/// One scripted fault scenario: a single caller on a 1-worker machine
/// (2 logical CPUs), first 2 pool allocations forced to exhaustion and
/// the 3rd serviced call crashing the worker. Returns the canonical
/// trace projection.
fn faulted_run() -> String {
    let hub = Telemetry::new();
    let (t, echo) = table();
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 2; // max_workers = 1: all worker events are Worker(0)
    let cfg = ZcConfig::for_cpu(cpu).with_quantum_ms(10);
    let plan = FaultPlan::new()
        .inject(Fault::WorkerCrash, FaultSchedule::at(3))
        .inject(Fault::PoolExhaustion, FaultSchedule::first(2));
    let faults = Arc::new(FaultInjector::new(plan));
    let zc = ZcRuntime::start_with_telemetry(
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
        zc.dispatch(&OcallRequest::new(echo, &[1]), b"payload", &mut out)
            .expect("faulted calls still complete via fallback");
        let c = faults.counts();
        if c[Fault::WorkerCrash] >= 1 && c[Fault::PoolExhaustion] >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "faults never fired: {c:?}");
    }
    let report = zc.shutdown_with_timeout(Duration::from_secs(5));
    assert_eq!(report.abandoned, 0, "no worker should be wedged");
    drop(zc);
    canonical_jsonl(&hub.tracer().drain(), causal)
}

#[test]
fn faulted_trace_is_byte_identical_across_runs() {
    let first = faulted_run();
    let second = faulted_run();
    assert!(
        first.contains(r#""kind":"fault""#),
        "canonical trace must contain injected faults:\n{first}"
    );
    assert!(
        first.contains(r#""fault":"worker_crash""#),
        "worker crash must be traced:\n{first}"
    );
    assert!(
        first.contains(r#""fault":"pool_exhaustion""#),
        "pool exhaustion must be traced:\n{first}"
    );
    assert!(
        first.contains(r#""kind":"drain""#),
        "drain outcome must be traced:\n{first}"
    );
    assert!(
        !first.contains(r#""t":"#),
        "canonical projection strips timestamps:\n{first}"
    );
    assert_eq!(
        first, second,
        "same scripted scenario must yield a byte-identical canonical trace"
    );
}

#[test]
fn runtime_trace_exports_decisions_transitions_and_all_formats() {
    let hub = Telemetry::new();
    let (t, echo) = table();
    let cpu = CpuSpec::paper_machine();
    // Short quantum: several configuration phases complete quickly.
    let cfg = ZcConfig::for_cpu(cpu).with_quantum_ms(1);
    let zc = ZcRuntime::start_with_telemetry(cfg, t, Enclave::new_virtual(cpu), hub.clone(), None)
        .expect("zc runtime must start");

    let mut out = Vec::new();
    let mut calls = 0;
    let deadline = Instant::now() + BACKSTOP;
    while zc.scheduler_decisions() < 3 {
        zc.dispatch(&OcallRequest::new(echo, &[1]), b"x", &mut out)
            .expect("call must complete");
        calls += 1;
        assert!(Instant::now() < deadline, "scheduler never decided");
    }
    zc.shutdown();

    let events = hub.tracer().drain();
    let decision = events
        .iter()
        .find_map(|e| match &e.event {
            Event::Decision { decision } => Some(decision.clone()),
            _ => None,
        })
        .expect("at least one completed configuration phase is traced");
    assert!(
        !decision.probes.is_empty(),
        "decision must carry the measured F_i"
    );
    assert_eq!(
        decision.probes.len(),
        decision.costs.len(),
        "one derived U_i per probed F_i"
    );
    assert!(
        decision.chosen_workers <= zc.config().max_workers(),
        "argmin stays within the worker budget"
    );
    // A completed call is one event; the only status edges on the
    // trace are the ones no call owns — here at least every worker's
    // way into EXIT at shutdown.
    assert_one_event_per_call(&events, calls);
    let exits = traced_edges(&events)
        .iter()
        .filter(|(_, to)| *to == WorkerState::Exit)
        .count();
    assert_eq!(exits, zc.config().max_workers(), "every worker's exit");

    // JSONL: one object per line, every line carries kind + timestamp.
    let jsonl = events_to_jsonl(&events);
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
        assert!(line.contains(r#""kind":"#), "line lacks kind: {line}");
        assert!(line.contains(r#""t":"#), "line lacks timestamp: {line}");
    }

    // Typed counts: the runtime's one stats block accounts for every
    // dispatched call, each resolved to exactly one terminal path.
    let stats = zc.stats().snapshot();
    assert_eq!(stats.total_calls(), calls as u64, "{stats:?}");
    assert!(stats.is_conserved(), "{stats:?}");

    // Chrome trace_event JSON: named threads, spans, counters.
    let trace = to_chrome_trace(&events, cpu.freq_hz);
    assert!(trace.starts_with(r#"{"traceEvents":["#), "{trace}");
    assert!(trace.contains(r#""ph":"M""#), "thread metadata: {trace}");
    assert_eq!(
        trace.matches(r#""ph":"X""#).count(),
        calls,
        "one span per call, derived from its call_phases"
    );
    assert!(trace.contains(r#""ph":"C""#), "worker counter missing");
}

#[test]
fn des_full_trace_is_deterministic_including_timestamps() {
    use zc_des::ocall::CallDesc;
    use zc_des::{run, Mechanism, SimConfig, WorkloadSpec, ZcSimParams};

    let sim_trace = || {
        let hub = Telemetry::new();
        let call = CallDesc {
            host_cycles: 2_000,
            ret_bytes: 8,
            ..CallDesc::default()
        };
        let cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![
                WorkloadSpec::ClosedLoop {
                    pattern: vec![call],
                    total_ops: 20_000,
                };
                2
            ],
            1,
        )
        .with_telemetry(Arc::clone(&hub));
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 40_000);
        events_to_jsonl(&hub.tracer().drain())
    };
    let first = sim_trace();
    assert!(
        first.contains(r#""kind":"decision""#),
        "sim scheduler decisions must be traced:\n{}",
        &first[..first.len().min(2_000)]
    );
    assert!(first.contains(r#""kind":"phase_start""#));
    // The DES kernel is single-threaded and fully virtual: even the
    // timestamped full trace is byte-identical run to run.
    assert_eq!(first, sim_trace(), "DES trace must be fully deterministic");
}

/// Same-seed virtual-clock runs must yield a byte-identical SLO report
/// (DESIGN.md §12): the phase profiler feeds off kernel virtual time
/// only, so the JSONL exporter — fixed-precision floats included — is
/// pinned byte-for-byte, and phase cycles conserve against whole-call
/// cycles within 1%.
#[test]
fn des_slo_report_jsonl_is_byte_identical_across_runs() {
    use switchless_core::CallPath;
    use zc_des::ocall::CallDesc;
    use zc_des::{run, Mechanism, SimConfig, WorkloadSpec, ZcSimParams};

    let slo_jsonl = || {
        let hub = Telemetry::new();
        let call = CallDesc {
            host_cycles: 2_000,
            payload_bytes: 128,
            ret_bytes: 8,
            ..CallDesc::default()
        };
        let cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![
                WorkloadSpec::ClosedLoop {
                    pattern: vec![call],
                    total_ops: 5_000,
                };
                2
            ],
            1,
        )
        .with_telemetry(Arc::clone(&hub));
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 10_000);
        let slo = r.slo_report(&hub, "des_zc");
        let sw = slo
            .path(CallPath::Switchless)
            .expect("switchless traffic expected");
        assert!(sw.calls > 0);
        assert!(
            slo.max_conservation_error() <= 0.01,
            "phase cycles must conserve: {}",
            slo.max_conservation_error()
        );
        let phases_traced = hub
            .tracer()
            .drain()
            .iter()
            .filter(|e| matches!(e.event, Event::CallPhases { .. }))
            .count();
        assert!(phases_traced > 0, "per-call phase spans must be traced");
        slo.to_jsonl()
    };
    let first = slo_jsonl();
    assert!(first.contains(r#""kind":"slo_report""#), "{first}");
    assert!(first.contains(r#""path":"switchless""#), "{first}");
    assert!(first.contains(r#""phase":"reserve""#), "{first}");
    assert_eq!(
        first,
        slo_jsonl(),
        "same-seed virtual-clock runs must emit byte-identical SLO JSONL"
    );
}

/// One deterministic overload scenario: a token bucket of 2 with a
/// refill period far beyond the test (no deadline, breaker untouched),
/// so of 10 sequential calls exactly the first 2 complete and the
/// remaining 8 shed as `rate_limited`. Returns the canonical projection
/// of the shed and breaker events.
fn overloaded_run() -> String {
    let hub = Telemetry::new();
    let (t, echo) = table();
    let cpu = CpuSpec::paper_machine();
    let cfg = ZcConfig::for_cpu(cpu)
        .with_overload_params(OverloadParams::for_cpu(&cpu).with_bucket(2, 1 << 40));
    let zc = ZcRuntime::start_with_telemetry(cfg, t, Enclave::new_virtual(cpu), hub.clone(), None)
        .expect("zc runtime must start");
    let mut out = Vec::new();
    let (mut completed, mut shed) = (0, 0);
    for _ in 0..10 {
        match zc.dispatch(&OcallRequest::new(echo, &[1]), b"x", &mut out) {
            Ok(_) => completed += 1,
            Err(SwitchlessError::Overloaded { reason }) => {
                assert_eq!(reason, ShedReason::RateLimited);
                shed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!((completed, shed), (2, 8), "2 bucket tokens, 8 sheds");
    let usage = zc.usage();
    assert!(usage.conserves(), "{usage:?}");
    zc.shutdown();
    canonical_jsonl(&hub.tracer().drain(), |ev| {
        matches!(
            ev.event,
            Event::CallShed { .. } | Event::BreakerTransition { .. }
        )
    })
}

/// The overload shed sequence is causally deterministic even on the
/// real (wall-clock) runtime: admission depends only on the token count,
/// not on timing, so the canonical shed trace is byte-identical across
/// runs (the overload-plane analogue of the fault-trace pin above).
#[test]
fn overload_shed_trace_is_byte_identical_across_runs() {
    let first = overloaded_run();
    let second = overloaded_run();
    assert_eq!(
        first.lines().count(),
        8,
        "one canonical line per shed call:\n{first}"
    );
    assert!(
        first.contains(r#""kind":"call_shed""#),
        "sheds must be traced:\n{first}"
    );
    assert!(
        first.contains(r#""reason":"rate_limited""#),
        "shed reason must be attributed:\n{first}"
    );
    assert!(
        !first.contains(r#""t":"#),
        "canonical projection strips timestamps:\n{first}"
    );
    assert_eq!(
        first, second,
        "same overload scenario must yield a byte-identical canonical trace"
    );
}

/// Seeded open-loop MMPP overload traffic on the DES: the full
/// timestamped trace — scheduler decisions included — is byte-identical
/// across same-seed runs, and the client-side shed accounting conserves
/// offered load exactly (DESIGN.md §13).
#[test]
fn des_mmpp_overload_trace_is_byte_identical_and_conserves() {
    use zc_des::ocall::CallDesc;
    use zc_des::{
        run, ArrivalProcess, Mechanism, OpenLoad, ServiceDist, SimConfig, WorkloadSpec, ZcSimParams,
    };

    let sim_trace = || {
        let hub = Telemetry::new();
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
            0xdecaf,
            8_000_000,
        )
        .with_service(ServiceDist::Exponential { mean_cycles: 400 })
        .with_deadline_budget(100_000);
        // 1 ms quanta so the 8M-cycle window spans two scheduler
        // configuration phases and traces their decisions.
        let params = ZcSimParams {
            quantum_ms: 1,
            ..ZcSimParams::default()
        };
        let cfg = SimConfig::new(Mechanism::Zc(params), vec![WorkloadSpec::Open(load); 4], 1)
            .with_telemetry(Arc::clone(&hub));
        let r = run(&cfg);
        let c = &r.counters;
        assert!(c.offered > 0 && c.ops_shed > 0, "bursts must shed: {c:?}");
        assert!(
            c.conserves(),
            "offered {} != completed {} + shed {} + abandoned {}",
            c.offered,
            c.total_calls(),
            c.ops_shed,
            c.ops_abandoned
        );
        events_to_jsonl(&hub.tracer().drain())
    };
    let first = sim_trace();
    assert!(
        first.contains(r#""kind":"decision""#),
        "the scheduler must decide under open-loop load:\n{}",
        &first[..first.len().min(2_000)]
    );
    assert_eq!(
        first,
        sim_trace(),
        "same-seed MMPP overload trace must be byte-identical"
    );
}

/// One scripted enclave-crash scenario on the real runtime: a single
/// caller with recovery on, three whole-enclave crashes at fixed
/// dispatch sites, all calls idempotent. Returns the canonical
/// projection of the recovery events (crash/replay/redeliver/refuse).
fn recovery_run() -> String {
    let hub = Telemetry::new();
    let (t, echo) = table();
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 2;
    let cfg = ZcConfig::for_cpu(cpu).with_quantum_ms(10).with_recovery();
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::EnclaveCrash, FaultSchedule::at_each([2, 5, 8])),
    ));
    let zc = ZcRuntime::start_with_telemetry(
        cfg,
        t,
        Enclave::new_virtual(cpu),
        Arc::clone(&hub),
        Some(Arc::clone(&faults)),
    )
    .expect("zc runtime must start");
    let mut out = Vec::new();
    for i in 0..20u8 {
        let req = OcallRequest::new(echo, &[]).with_idempotent();
        let (ret, _) = zc
            .dispatch(&req, b"pin", &mut out)
            .expect("idempotent calls must survive the crashes");
        assert_eq!(ret, 3, "call {i}");
    }
    let snap = zc.recovery_snapshot().expect("recovery is on");
    assert_eq!(snap.crashes, 3, "all scripted crashes must fire: {snap:?}");
    assert_eq!(snap.journal_live, 0, "journal must drain: {snap:?}");
    zc.shutdown();
    canonical_jsonl(&hub.tracer().drain(), |ev| {
        matches!(
            ev.event,
            Event::EnclaveCrash { .. }
                | Event::JournalReplay { .. }
                | Event::CallRedelivered { .. }
                | Event::CallRefused { .. }
        )
    })
}

/// The recovery-plane trace pin: crash detection and reconciliation
/// depend only on the scripted dispatch sites and the journal contents,
/// so the canonical recovery trace is byte-identical across runs — the
/// crash-recovery analogue of the worker-fault pin above.
#[test]
fn recovery_trace_is_byte_identical_across_runs() {
    let first = recovery_run();
    let second = recovery_run();
    assert_eq!(
        first.matches(r#""kind":"enclave_crash""#).count(),
        3,
        "one canonical line per enclave crash:\n{first}"
    );
    assert_eq!(
        first.matches(r#""kind":"journal_replay""#).count(),
        3,
        "each crash replays its idempotent in-flight call:\n{first}"
    );
    assert!(
        !first.contains(r#""kind":"call_refused""#),
        "idempotent-only traffic must never be refused:\n{first}"
    );
    assert!(
        !first.contains(r#""t":"#),
        "canonical projection strips timestamps:\n{first}"
    );
    assert_eq!(
        first, second,
        "same crash schedule must yield a byte-identical canonical trace"
    );
}

/// The DES recovery soak obeys the full determinism contract: the
/// timestamped trace of a multi-crash run — including the replay of a
/// call interrupted by a second crash mid-replay — is byte-identical
/// across same-seed runs (the trace pinned for ISSUE 9's acceptance).
#[test]
fn des_recovery_trace_is_byte_identical_across_runs() {
    use zc_des::ocall::CallDesc;
    use zc_des::{run, Mechanism, SimConfig, WorkloadSpec, ZcSimFaults, ZcSimParams};

    let sim_trace = || {
        let hub = Telemetry::new();
        let call = CallDesc {
            host_cycles: 2_000,
            payload_bytes: 64,
            ret_bytes: 8,
            ..CallDesc::default()
        };
        let cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![
                WorkloadSpec::ClosedLoop {
                    pattern: vec![call],
                    total_ops: 5_000,
                };
                2
            ],
            1,
        )
        .with_zc_faults(ZcSimFaults {
            enclave_faults: FaultPlan::new()
                .inject(Fault::EnclaveCrash, FaultSchedule::at_each([100, 5_000]))
                .inject(Fault::EnclaveReplayCrash, FaultSchedule::at(0)),
            ..ZcSimFaults::new().with_enclave_restart_cycles(500_000)
        })
        .with_telemetry(Arc::clone(&hub));
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 10_000);
        assert!(r.counters.conserves());
        assert_eq!(
            r.fault_recovery.enclave_crashes, 3,
            "two scripted + one during replay"
        );
        assert_eq!(r.fault_recovery.journal_live, 0);
        events_to_jsonl(&hub.tracer().drain())
    };
    let first = sim_trace();
    assert!(
        first.contains(r#""kind":"enclave_crash""#),
        "crashes must be traced:\n{}",
        &first[..first.len().min(2_000)]
    );
    assert!(
        first.contains(r#""kind":"journal_replay""#),
        "replays must be traced"
    );
    assert!(
        first.contains(r#""kind":"call_redelivered""#),
        "the replay interrupted by the second crash must be redelivered"
    );
    assert_eq!(
        first,
        sim_trace(),
        "same-seed recovery trace must be byte-identical"
    );
}

/// The events-per-call pin (DESIGN.md §8): with every plane on, a
/// healthy call still costs the trace exactly one event, and the edges
/// no call owns — the scheduler pausing and resuming the one worker,
/// its exit at shutdown — are still traced.
#[test]
fn a_healthy_call_is_one_event_with_every_plane_on() {
    let hub = Telemetry::new();
    let (t, echo) = table();
    let cfg = all_planes_config();
    let zc =
        ZcRuntime::start_with_telemetry(cfg, t, Enclave::new_virtual(cfg.cpu), hub.clone(), None)
            .expect("zc runtime must start");
    // Calls in batches until a configuration phase (which probes 0 and
    // 1 workers) has been seen to pause and resume the worker; the
    // scheduler's own events are drained and let go as the run goes.
    let seen = |events: &[RecordedEvent], edge| traced_edges(events).contains(&edge);
    let (mut events, mut out, mut calls) = (Vec::new(), Vec::new(), 0);
    let deadline = Instant::now() + BACKSTOP;
    while !(seen(&events, (WorkerState::Unused, WorkerState::Paused))
        && seen(&events, (WorkerState::Paused, WorkerState::Unused)))
    {
        assert!(Instant::now() < deadline, "worker never paused and resumed");
        for _ in 0..64 {
            let (ret, _) = zc
                .dispatch(&OcallRequest::new(echo, &[]), &[], &mut out)
                .expect("healthy calls complete");
            assert_eq!(ret, 0);
            calls += 1;
        }
        events.extend(hub.tracer().drain().into_iter().filter(|e| {
            matches!(
                e.event,
                Event::WorkerTransition { .. } | Event::Drain { .. }
            ) || e.event.call_id().is_some()
        }));
    }
    zc.shutdown();
    events.extend(hub.tracer().drain());
    assert_eq!(hub.tracer().dropped(), 0);

    assert_one_event_per_call(&events, calls);
    let per_call = events.iter().filter(|e| e.event.call_id().is_some());
    assert_eq!(per_call.count(), calls, "nothing but call_phases per call");
    assert!(
        traced_edges(&events)
            .iter()
            .any(|(_, to)| *to == WorkerState::Exit),
        "the worker's exit is traced"
    );
    let stats = zc.stats().snapshot();
    assert!(stats.is_conserved() && zc.usage().conserves());
    assert_eq!((stats.issued, stats.cancelled), (calls as u64, 0));
    let profiled: u64 = hub
        .profile()
        .snapshot()
        .paths
        .iter()
        .map(|p| p.total.count)
        .sum();
    assert_eq!(profiled, calls as u64, "the profiler saw every call");
}

/// The join test (DESIGN.md §16): whatever happens to a call — replayed
/// after an enclave crash, shed, rejected by the reply guard, cancelled
/// by the watchdog — every caller-side event it leaves carries its id,
/// so the drained trace groups into one timeline per offered call.
#[test]
fn per_call_events_join_into_one_timeline_per_offered_call() {
    // `echo`, and `park`: on a worker thread it raises `entered` and
    // stays in the host until `open`; anywhere else (the caller's
    // regular-path re-route) it returns at once.
    let (entered, open) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let mut t = OcallTable::new();
    let echo = t.register(
        "echo",
        |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
            pout.extend_from_slice(pin);
            pin.len() as i64
        },
    );
    let (e, o) = (Arc::clone(&entered), Arc::clone(&open));
    let park = t.register(
        "park",
        move |_: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("zc-worker"));
            if on_worker {
                e.store(true, Ordering::Release);
                while !o.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            7
        },
    );

    let hub = Telemetry::new();
    let cfg = all_planes_config();
    // The enclave dies under the first call; the first reply a worker
    // writes echoes a stale sequence tag.
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new()
            .inject(Fault::EnclaveCrash, FaultSchedule::at(0))
            .inject(Fault::StaleSeq, FaultSchedule::at(0)),
    ));
    let enclave = Enclave::new_virtual(cfg.cpu);
    let clock = enclave.clock();
    let zc = ZcRuntime::start_with_telemetry(
        cfg,
        Arc::new(t),
        enclave,
        hub.clone(),
        Some(Arc::clone(&faults)),
    )
    .expect("zc runtime must start");
    let mut out = Vec::new();
    let mut offered = 0u64;
    let deadline = Instant::now() + BACKSTOP;

    // 1. Replayed: an idempotent call loses the enclave.
    let (ret, path) = zc
        .dispatch(
            &OcallRequest::new(echo, &[]).with_idempotent(),
            b"one",
            &mut out,
        )
        .expect("replayed from the journal");
    assert_eq!((ret, path), (3, CallPath::Fallback));
    offered += 1;
    // 2. Shed: its deadline passed long ago (the restart moved the
    // virtual clock).
    let late = OcallRequest::new(echo, &[]).with_deadline_at(1);
    assert_eq!(
        zc.dispatch(&late, b"two", &mut out).unwrap_err(),
        SwitchlessError::Overloaded {
            reason: ShedReason::DeadlineExpired
        }
    );
    offered += 1;
    // 3. Guard violation: calls until a worker has served one (and
    // lied about it).
    while faults.counts()[Fault::StaleSeq] == 0 {
        assert!(Instant::now() < deadline, "no call reached a worker");
        let (ret, _) = zc
            .dispatch(&OcallRequest::new(echo, &[]), b"three", &mut out)
            .expect("a rejected reply re-routes");
        assert_eq!((ret, out.as_slice()), (5, &b"three"[..]));
        offered += 1;
    }
    // 4. Watchdog cancel: `park` calls until one is served by a worker
    // (the slot must be respawned first); a helper then jumps the
    // clock past the watchdog and, once the cancel is counted, lets
    // the parked worker go.
    std::thread::scope(|s| {
        s.spawn(|| {
            while !entered.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::yield_now();
            }
            clock.advance_cycles(2 * WATCHDOG);
            while zc.stats().snapshot().cancelled == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            open.store(true, Ordering::Release);
        });
        while zc.stats().snapshot().cancelled == 0 {
            assert!(Instant::now() < deadline, "no park call was cancelled");
            let (ret, _) = zc
                .dispatch(&OcallRequest::new(park, &[]), &[], &mut out)
                .expect("a cancelled call still completes");
            assert_eq!(ret, 7);
            offered += 1;
        }
    });
    zc.shutdown();

    // `CallStats` books the shed call as issued and nothing else; the
    // front door's ledger row has the column for it.
    let (usage, stats) = (zc.usage(), zc.stats().snapshot());
    assert!(usage.conserves(), "{usage:?}");
    assert_eq!(
        (usage.offered, usage.completed, usage.shed),
        (offered, offered - 1, 1)
    );
    assert_eq!(stats.issued, stats.total_calls() + usage.shed);
    assert_eq!((stats.guard_violations, stats.cancelled), (1, 1));

    // One timeline per offered call, none under id 0.
    let mut timelines: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
    for ev in hub.tracer().drain() {
        if let Some(call) = ev.event.call_id() {
            timelines
                .entry(call)
                .or_default()
                .push(ev.event.kind_name());
        }
    }
    assert_eq!(hub.tracer().dropped(), 0);
    assert_eq!(timelines.len() as u64, offered);
    assert!(!timelines.contains_key(&0), "{:?}", timelines[&0]);
    let with = |kinds: &[&str]| timelines.values().filter(|t| t.as_slice() == kinds).count();
    assert_eq!(with(&["journal_replay", "call_phases"]), 1);
    assert_eq!(with(&["call_shed"]), 1);
    assert_eq!(with(&["guard_violation", "call_phases"]), 1);
    assert_eq!(with(&["watchdog_cancel", "call_phases"]), 1);
    assert_eq!(with(&["call_phases"]) as u64, offered - 4, "{timelines:?}");
}

/// A hub that is *not* attached to a runtime must stay silent: the
/// profiler records nothing and the trace stays empty — instrumentation
/// is pay-for-what-you-attach.
#[test]
fn unattached_hub_sees_no_profile_activity() {
    let hub = Telemetry::new();
    let (t, echo) = table();
    let cpu = CpuSpec::paper_machine();
    let zc = ZcRuntime::start(ZcConfig::for_cpu(cpu), t, Enclave::new_virtual(cpu))
        .expect("zc runtime must start");
    let mut out = Vec::new();
    for _ in 0..100 {
        zc.dispatch(&OcallRequest::new(echo, &[1]), b"payload", &mut out)
            .expect("call must complete");
    }
    zc.shutdown();
    let snap = hub.profile().snapshot();
    for path in &snap.paths {
        assert_eq!(path.total.count, 0, "unattached profiler must stay empty");
        assert_eq!(path.phase_sum(), 0);
    }
    assert!(hub.tracer().drain().is_empty(), "no events without a hub");
}

/// The Intel worker brackets the host function with clock reads only
/// for an attached hub. With one, every call's execute phase carries
/// the `N` cycles its host function spends; a hub the runtime was not
/// handed sees nothing. (That a hub-less worker never writes the slot's
/// hint is checked inside the crate, where the slot is visible.)
#[test]
fn intel_worker_times_the_host_function_only_for_a_hub() {
    const N: u64 = 1_000_000;
    const CALLS: u64 = 50;
    let hub = Telemetry::new();
    for attached in [true, false] {
        let cpu = CpuSpec::paper_machine();
        let enclave = Enclave::new_virtual(cpu);
        let clock = enclave.clock();
        let mut t = OcallTable::new();
        let slow = t.register(
            "slow",
            move |_: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| {
                // On a worker, first wait for the spinning caller to move
                // the virtual clock: it is then past its `signal` mark, so
                // all of `N` lands in its wait window, which is what the
                // worker's hint is carved out of.
                let on_worker = std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("intel-uworker"));
                let entry = clock.now_cycles();
                while on_worker && clock.now_cycles() == entry {
                    std::thread::yield_now();
                }
                clock.advance_cycles(N);
                0
            },
        );
        let cfg = IntelConfig::new(1, [slow]);
        let t = Arc::new(t);
        let rt = if attached {
            IntelSwitchless::start_with_telemetry(cfg, t, enclave, hub.clone(), None)
        } else {
            IntelSwitchless::start(cfg, t, enclave)
        }
        .expect("intel runtime must start");
        let mut out = Vec::new();
        for _ in 0..CALLS {
            rt.dispatch(&OcallRequest::new(slow, &[]), &[], &mut out)
                .expect("call must complete");
        }
        rt.shutdown();
        let snap = hub.profile().snapshot();
        let profiled: u64 = snap.paths.iter().map(|p| p.total.count).sum();
        assert_eq!(profiled, CALLS, "only the attached run is profiled");
        for path in &snap.paths {
            let execute = &path.phases[Phase::Execute.index()];
            assert!(
                execute.sum >= N * path.total.count,
                "{:?}: {} calls, execute {} cycles",
                path.path,
                path.total.count,
                execute.sum
            );
        }
    }
    let switchless = hub
        .profile()
        .snapshot()
        .path(CallPath::Switchless)
        .total
        .count;
    assert!(switchless > 0, "no call went switchless");
}

/// The determinism contract at both machine scales: the full timestamped
/// trace is byte-identical across same-seed runs, at the paper's 8 vCPUs
/// and at the lifted 128-vCPU scale (DESIGN.md §11).
#[test]
fn des_event_kernel_trace_is_deterministic_at_8_and_128_vcpus() {
    use zc_des::ocall::CallDesc;
    use zc_des::{run, Mechanism, SimConfig, WorkloadSpec, ZcSimParams};

    let sim_trace = |vcpus: usize, callers: usize, ops: u64| {
        let hub = Telemetry::new();
        let call = CallDesc {
            host_cycles: 2_000,
            ret_bytes: 8,
            ..CallDesc::default()
        };
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
        .with_telemetry(Arc::clone(&hub));
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), ops * callers as u64);
        events_to_jsonl(&hub.tracer().drain())
    };

    // Call counts are sized so each run outlasts the initial 38M-cycle
    // schedule quantum *and* the probe sweep (0..=N/2 workers at 380k
    // cycles each — ~25M cycles at 128 vCPUs) and traces a decision.
    for (vcpus, callers, ops) in [(8, 2, 20_000u64), (128, 32, 40_000)] {
        let first = sim_trace(vcpus, callers, ops);
        assert!(
            first.contains(r#""kind":"decision""#),
            "sim at {vcpus} vCPUs must trace decisions:\n{}",
            &first[..first.len().min(2_000)]
        );
        assert_eq!(
            first,
            sim_trace(vcpus, callers, ops),
            "trace at {vcpus} vCPUs must be fully deterministic"
        );
    }
}
