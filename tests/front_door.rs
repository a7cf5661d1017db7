//! The call front door (`sgx_sim::frontdoor`) is one pipeline behind
//! two transports. These tests hold the two runtimes to it: the same
//! admission/stop contract on both, and — under one seeded fault plan
//! on the virtual clock — the same recovery ledger and the same
//! caller-side trace.

use intel_switchless::IntelSwitchless;
use sgx_sim::Enclave;
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::{
    CallStatsSnapshot, CpuSpec, FaultInjector, FaultPlan, FuncId, IntelConfig, OcallDispatcher,
    OcallRequest, OcallTable, OverloadParams, OverloadSnapshot, RecoverySnapshot, ShedReason,
    SwitchlessError, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;
use zc_telemetry::{Origin, Telemetry};

/// Wall-clock backstop for loops that wait on a scheduled fault.
const BACKSTOP: Duration = Duration::from_secs(60);

fn table() -> (Arc<OcallTable>, FuncId) {
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

fn cpu() -> CpuSpec {
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 4; // zc: max 2 workers
    cpu
}

/// What the shared checks read from a runtime besides dispatching.
trait Runtime: OcallDispatcher {
    fn call_stats(&self) -> CallStatsSnapshot;
    fn overload(&self) -> OverloadSnapshot;
    fn recovery(&self) -> RecoverySnapshot;
    fn stop(&self) -> switchless_core::DrainReport;
}

impl Runtime for ZcRuntime {
    fn call_stats(&self) -> CallStatsSnapshot {
        self.stats().snapshot()
    }
    fn overload(&self) -> OverloadSnapshot {
        self.overload_snapshot().expect("overload is on")
    }
    fn recovery(&self) -> RecoverySnapshot {
        self.recovery_snapshot().expect("recovery is on")
    }
    fn stop(&self) -> switchless_core::DrainReport {
        self.shutdown_with_timeout(BACKSTOP)
    }
}

impl Runtime for IntelSwitchless {
    fn call_stats(&self) -> CallStatsSnapshot {
        self.stats().snapshot()
    }
    fn overload(&self) -> OverloadSnapshot {
        self.overload_snapshot().expect("overload is on")
    }
    fn recovery(&self) -> RecoverySnapshot {
        self.recovery_snapshot().expect("recovery is on")
    }
    fn stop(&self) -> switchless_core::DrainReport {
        self.shutdown_with_timeout(BACKSTOP)
    }
}

/// Real clock: an already-expired deadline needs time to have passed.
fn start_zc(overload: Option<OverloadParams>) -> (ZcRuntime, FuncId) {
    let (t, echo) = table();
    let mut cfg = ZcConfig::for_cpu(cpu())
        .with_quantum_ms(1000)
        .with_initial_workers(1);
    cfg.overload = overload;
    (ZcRuntime::start(cfg, t, Enclave::new(cpu())).unwrap(), echo)
}

fn start_intel(overload: Option<OverloadParams>) -> (IntelSwitchless, FuncId) {
    let (t, echo) = table();
    let mut cfg = IntelConfig::new(1, [echo]);
    cfg.overload = overload;
    (
        IntelSwitchless::start(cfg, t, Enclave::new(cpu())).unwrap(),
        echo,
    )
}

/// Admission sheds typed and conserves, an expired deadline sheds
/// before any work, and a stopped runtime refuses — whichever transport
/// sits behind the front door.
fn admission_and_stop_contract<R: Runtime>(start: impl Fn(Option<OverloadParams>) -> (R, FuncId)) {
    let mut out = Vec::new();

    // Two burst tokens, a refill period far beyond the test's span: the
    // third call on must shed RateLimited before any transport traffic.
    let (rt, echo) = start(Some(
        OverloadParams::for_cpu(&cpu()).with_bucket(2, 1 << 40),
    ));
    let (mut completed, mut shed) = (0u64, 0u64);
    for _ in 0..10 {
        match rt.dispatch(&OcallRequest::new(echo, &[]), b"x", &mut out) {
            Ok(_) => completed += 1,
            Err(SwitchlessError::Overloaded { reason }) => {
                assert_eq!(reason, ShedReason::RateLimited);
                shed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(completed, 2, "exactly the two burst tokens complete");
    assert_eq!(shed, 8);
    let snap = rt.overload();
    assert_eq!(snap.offered, 10);
    assert_eq!(snap.admitted, 2);
    assert_eq!(snap.shed_for(ShedReason::RateLimited), 8);
    assert_eq!(snap.inflight, 0, "all guards released");
    assert!(snap.conserves(rt.call_stats().total_calls()));
    rt.stop();

    // A deadline already in the past on arrival is shed, first. (Cycle
    // 1, not 0: deadline_cycles == 0 means "no deadline".)
    let (rt, echo) = start(Some(OverloadParams::for_cpu(&cpu())));
    let late = OcallRequest::new(echo, &[]).with_deadline_at(1);
    assert_eq!(
        rt.dispatch(&late, b"late", &mut out).unwrap_err(),
        SwitchlessError::Overloaded {
            reason: ShedReason::DeadlineExpired
        }
    );
    assert_eq!(rt.call_stats().total_calls(), 0, "no work performed");
    let live = OcallRequest::new(echo, &[]).with_deadline_at(u64::MAX);
    rt.dispatch(&live, b"ok", &mut out).unwrap();
    rt.stop();

    let (rt, echo) = start(None);
    rt.stop();
    assert_eq!(
        rt.dispatch(&OcallRequest::new(echo, &[]), &[], &mut out)
            .unwrap_err(),
        SwitchlessError::RuntimeStopped
    );
}

#[test]
fn admission_and_stop_contract_holds_on_both_transports() {
    admission_and_stop_contract(start_zc);
    admission_and_stop_contract(start_intel);
}

/// The seeded plan of the parity run. Over eight calls: the enclave
/// dies under call 2 (idempotent: replayed), again while that replay is
/// being delivered (redelivered, not re-executed), and under call 5
/// (non-idempotent: refused); call 7 sees the one dispatch clock skew.
/// The first worker-serviced call wedges its worker.
fn parity_plan() -> FaultPlan {
    FaultPlan::new()
        .crash_enclave_at_each([2, 5])
        .crash_enclave_during_replay_at(0)
        .skew_clock(8, 1_000)
        .hang_worker_at(0)
}

/// Drive the parity plan through `rt`; returns the recovery ledger, the
/// caller-origin event kinds of the eight scripted calls, and the
/// caller-origin event kinds of the shutdown.
fn parity_run<R: Runtime>(
    start: impl FnOnce(Arc<Telemetry>, Arc<FaultInjector>) -> (R, FuncId),
) -> (RecoverySnapshot, Vec<&'static str>, Vec<&'static str>) {
    let hub = Telemetry::new();
    let faults = Arc::new(FaultInjector::new(parity_plan()));
    let (rt, echo) = start(Arc::clone(&hub), Arc::clone(&faults));
    let caller_kinds = |hub: &Telemetry| -> Vec<&'static str> {
        hub.tracer()
            .drain()
            .iter()
            .filter(|ev| matches!(ev.origin, Origin::Caller(_)))
            .map(|ev| ev.event.kind_name())
            .collect()
    };
    let mut out = Vec::new();
    for i in 0..8u64 {
        let req = OcallRequest::new(echo, &[]);
        let req = if i == 5 { req } else { req.with_idempotent() };
        match rt.dispatch(&req, b"parity", &mut out) {
            Ok((ret, _)) => {
                assert_ne!(i, 5, "the non-idempotent in-flight call is refused");
                assert_eq!((ret, out.as_slice()), (6, &b"parity"[..]), "call {i}");
            }
            Err(e) => {
                assert_eq!(i, 5, "only call 5 may fail: {e}");
                assert!(matches!(e, SwitchlessError::EnclaveLost { .. }), "{e}");
            }
        }
    }
    let ledger = rt.recovery();
    let calls = caller_kinds(&hub);
    assert_eq!(faults.counts().clock_skews, 1);
    // The wedge needs a worker-serviced call; which call that is
    // depends on the transport (and, for zc, on the free-running
    // scheduler), so it is driven outside the compared window.
    let deadline = Instant::now() + BACKSTOP;
    while faults.counts().hangs == 0 {
        assert!(Instant::now() < deadline, "hang never fired");
        rt.dispatch(&OcallRequest::new(echo, &[]), b"parity", &mut out)
            .unwrap();
    }
    let _ = hub.tracer().drain();
    let report = rt.stop();
    assert_eq!(report.abandoned, 1, "exactly the wedged worker: {report:?}");
    (ledger, calls, caller_kinds(&hub))
}

#[test]
fn same_fault_plan_yields_same_ledger_and_caller_trace_on_both_transports() {
    let zc = parity_run(|hub, faults| {
        let (t, echo) = table();
        let cfg = ZcConfig::for_cpu(cpu()).with_quantum_ms(10).with_recovery();
        let rt =
            ZcRuntime::start_with_telemetry(cfg, t, Enclave::new_virtual(cpu()), hub, Some(faults))
                .unwrap();
        (rt, echo)
    });
    let intel = parity_run(|hub, faults| {
        let (t, echo) = table();
        let cfg = IntelConfig::new(1, [echo]).with_recovery();
        let rt = IntelSwitchless::start_with_telemetry(
            cfg,
            t,
            Enclave::new_virtual(cpu()),
            hub,
            Some(faults),
        )
        .unwrap();
        (rt, echo)
    });
    assert_eq!(zc.0, intel.0, "recovery ledgers diverge");
    assert_eq!(
        (zc.0.crashes, zc.0.replayed, zc.0.redelivered),
        (3, 1, 1),
        "{:?}",
        zc.0
    );
    assert_eq!((zc.0.refused_non_idempotent, zc.0.journal_live), (1, 0));
    assert_eq!(zc.1, intel.1, "caller-origin event kinds diverge");
    let routed = |kinds: &[&str]| kinds.iter().filter(|k| **k == "call_routed").count();
    assert_eq!(routed(&zc.1), 7, "seven calls complete: {:?}", zc.1);
    for kind in [
        "enclave_crash",
        "journal_replay",
        "call_redelivered",
        "call_refused",
        "fault",
    ] {
        assert!(zc.1.contains(&kind), "{kind} missing from {:?}", zc.1);
    }
    assert_eq!(zc.2, intel.2, "shutdown traces diverge");
    assert_eq!(zc.2, ["worker_abandoned", "drain"]);
}
