//! The call front door (`sgx_sim::frontdoor`) is one pipeline behind
//! two transports. These tests hold the two runtimes to it: the same
//! admission/stop contract on both, and — under one seeded fault plan
//! on the virtual clock — the same recovery and conservation ledgers
//! and the same caller-side trace; and a watchdog-cancelled call to the
//! ledger row the front door assembles.

use intel_switchless::IntelSwitchless;
use sgx_sim::Enclave;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::{
    CallStatsSnapshot, CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, FleetSnapshot,
    FuncId, IntelConfig, OcallDispatcher, OcallRequest, OcallTable, OverloadParams,
    OverloadSnapshot, RecoverySnapshot, ShedReason, SuperviseParams, SwitchlessError, TenantUsage,
    ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;
use zc_telemetry::{Origin, Telemetry};

/// Wall-clock backstop for loops that wait on a scheduled fault.
const BACKSTOP: Duration = Duration::from_secs(60);

/// State of the `park` host function: it raises `entered`, then stays
/// inside the host until the test raises `open`.
#[derive(Debug, Default)]
struct Gate {
    entered: AtomicBool,
    open: AtomicBool,
}

/// A host table serving `echo` and `park`, with the latter's gate.
fn gated_table() -> (Arc<OcallTable>, FuncId, FuncId, Arc<Gate>) {
    let mut t = OcallTable::new();
    let echo = t.register(
        "echo",
        |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
            pout.extend_from_slice(pin);
            pin.len() as i64
        },
    );
    let gate = Arc::new(Gate::default());
    let g = Arc::clone(&gate);
    let park = t.register(
        "park",
        move |_: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| {
            g.entered.store(true, Ordering::Release);
            while !g.open.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            0
        },
    );
    (Arc::new(t), echo, park, gate)
}

fn table() -> (Arc<OcallTable>, FuncId) {
    let (t, echo, ..) = gated_table();
    (t, echo)
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
    fn ledger(&self) -> TenantUsage;
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
    fn ledger(&self) -> TenantUsage {
        self.usage()
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
    fn ledger(&self) -> TenantUsage {
        self.usage()
    }
    fn stop(&self) -> switchless_core::DrainReport {
        self.shutdown_with_timeout(BACKSTOP)
    }
}

/// A runtime under the admission contract, with its host functions.
struct Started<R> {
    rt: R,
    echo: FuncId,
    park: FuncId,
    gate: Arc<Gate>,
}

/// Real clock: an already-expired deadline needs time to have passed.
fn start_zc(overload: Option<OverloadParams>) -> Started<ZcRuntime> {
    let (t, echo, park, gate) = gated_table();
    let mut cfg = ZcConfig::for_cpu(cpu())
        .with_quantum_ms(1000)
        .with_initial_workers(1);
    cfg.overload = overload;
    let rt = ZcRuntime::start(cfg, t, Enclave::new(cpu())).unwrap();
    Started {
        rt,
        echo,
        park,
        gate,
    }
}

fn start_intel(overload: Option<OverloadParams>) -> Started<IntelSwitchless> {
    let (t, echo, park, gate) = gated_table();
    let mut cfg = IntelConfig::new(1, [echo]);
    cfg.overload = overload;
    let rt = IntelSwitchless::start(cfg, t, Enclave::new(cpu())).unwrap();
    Started {
        rt,
        echo,
        park,
        gate,
    }
}

/// Admission sheds typed and conserves, an expired deadline sheds
/// before any work, a full queue gate sheds until a call returns its
/// token, and a stopped runtime refuses — whichever transport sits
/// behind the front door.
fn admission_and_stop_contract<R: Runtime>(start: impl Fn(Option<OverloadParams>) -> Started<R>) {
    let mut out = Vec::new();

    // Two burst tokens, a refill period far beyond the test's span: the
    // third call on must shed RateLimited before any transport traffic.
    let Started { rt, echo, .. } = start(Some(
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
    let Started { rt, echo, .. } = start(Some(OverloadParams::for_cpu(&cpu())));
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

    // A one-call queue gate, held by a call parked inside the host: the
    // next call is shed QueueFull, and once the parked call returns its
    // token a call runs again.
    let started = start(Some(OverloadParams::for_cpu(&cpu()).with_max_inflight(1)));
    let Started {
        rt,
        echo,
        park,
        gate,
    } = &started;
    std::thread::scope(|s| {
        let parked = s.spawn(|| {
            rt.dispatch(&OcallRequest::new(*park, &[]), &[], &mut Vec::new())
                .map(|(ret, _)| ret)
        });
        let backstop = Instant::now() + BACKSTOP;
        while !gate.entered.load(Ordering::Acquire) {
            assert!(Instant::now() < backstop, "park never reached the host");
            std::thread::yield_now();
        }
        let full = rt.dispatch(&OcallRequest::new(*echo, &[]), b"full", &mut out);
        // Open the gate before asserting, so a failure cannot strand the
        // parked thread.
        gate.open.store(true, Ordering::Release);
        assert_eq!(
            full.unwrap_err(),
            SwitchlessError::Overloaded {
                reason: ShedReason::QueueFull
            }
        );
        assert_eq!(parked.join().unwrap(), Ok(0));
    });
    let (ret, _) = rt
        .dispatch(&OcallRequest::new(*echo, &[]), b"ok", &mut out)
        .unwrap();
    assert_eq!(ret, 2, "the returned token admits the next call");
    let snap = rt.overload();
    assert_eq!(snap.shed_for(ShedReason::QueueFull), 1);
    assert_eq!((snap.offered, snap.admitted, snap.inflight), (3, 2, 0));
    assert!(snap.conserves(rt.call_stats().total_calls()));
    rt.stop();

    let Started { rt, echo, .. } = start(None);
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

/// The machine-derived overload defaults admit a healthy closed-loop
/// caller in full. The default burst (one quantum of the machine's issue
/// rate, 271 428 tokens on two CPUs) alone outlasts the run, so the
/// outcome does not depend on how fast the host refills it.
#[test]
fn default_overload_params_never_rate_limit_a_closed_loop_caller() {
    let cpu = CpuSpec::paper_machine().with_logical_cpus(2);
    let (t, echo) = table();
    let cfg = ZcConfig::for_cpu(cpu).with_overload_params(OverloadParams::for_cpu(&cpu));
    let rt = ZcRuntime::start(cfg, t, Enclave::new(cpu)).unwrap();
    let mut out = Vec::new();
    for _ in 0..50_000 {
        match rt.dispatch(&OcallRequest::new(echo, &[]), &[], &mut out) {
            Ok(_) | Err(SwitchlessError::Overloaded { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let snap = rt.overload();
    assert_eq!(snap.offered, 50_000);
    assert_eq!(snap.shed_for(ShedReason::RateLimited), 0);
    assert!(snap.conserves(rt.call_stats().total_calls()), "{snap:?}");
    rt.stop();
}

/// A watchdog-cancelled call is re-routed and returns its result to the
/// caller: the runtime's `FrontDoor::usage` row books it as completed —
/// as the DES does — not as "abandoned un-issued".
#[test]
fn watchdog_cancelled_calls_are_booked_as_completed() {
    const WATCHDOG: u64 = 1_000_000;
    let cpu = CpuSpec::paper_machine();
    let (t, echo) = table();
    let config = ZcConfig::for_cpu(cpu)
        .with_supervise_params(SuperviseParams::for_cpu(cpu).with_watchdog_cycles(WATCHDOG));
    // Every worker-serviced call stalls far past the watchdog; the first
    // stalled worker to lose the race against its caller's watchdog gets
    // its call cancelled.
    let stalls = FaultPlan::new()
        .inject(Fault::WorkerStall, FaultSchedule::every(1))
        .cycles(Fault::WorkerStall, 10 * WATCHDOG);
    let faults = Arc::new(FaultInjector::new(stalls));
    let rt = ZcRuntime::start_with_faults(config, t, Enclave::new_virtual(cpu), faults).unwrap();
    let backstop = Instant::now() + BACKSTOP;
    let mut out = Vec::new();
    while rt.stats().snapshot().cancelled == 0 {
        assert!(Instant::now() < backstop, "no stalled call was cancelled");
        let (ret, _) = rt
            .dispatch(&OcallRequest::new(echo, &[]), b"zz", &mut out)
            .expect("a cancelled call still completes");
        assert_eq!(ret, 2);
    }
    rt.shutdown();
    let row = rt.usage();
    assert_eq!(row.completed, row.offered, "{row:?}");
    assert_eq!(row.abandoned, 0);
    FleetSnapshot::from_tenants(vec![row])
        .check()
        .expect("per-tenant conservation");
}

/// The seeded plan of the parity run. Over eight calls: the enclave
/// dies under call 2 (idempotent: replayed), again while that replay is
/// being delivered (redelivered, not re-executed), and under call 5
/// (non-idempotent: refused); call 7 sees the one dispatch clock skew.
/// The first worker-serviced call wedges its worker.
fn parity_plan() -> FaultPlan {
    FaultPlan::new()
        .inject(Fault::EnclaveCrash, FaultSchedule::at_each([2, 5]))
        .inject(Fault::EnclaveReplayCrash, FaultSchedule::at(0))
        .inject(Fault::ClockSkew, FaultSchedule::every(8))
        .cycles(Fault::ClockSkew, 1_000)
        .inject(Fault::WorkerHang, FaultSchedule::at(0))
}

/// Drive the parity plan through `rt`; returns the recovery and
/// conservation ledgers and the caller-origin event kinds of the eight
/// scripted calls, and the caller-origin event kinds of the shutdown.
fn parity_run<R: Runtime>(
    start: impl FnOnce(Arc<Telemetry>, Arc<FaultInjector>) -> (R, FuncId),
) -> (
    (RecoverySnapshot, TenantUsage),
    Vec<&'static str>,
    Vec<&'static str>,
) {
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
    let ledger = (rt.recovery(), rt.ledger());
    let calls = caller_kinds(&hub);
    assert_eq!(faults.counts()[Fault::ClockSkew], 1);
    // The wedge needs a worker-serviced call; which call that is
    // depends on the transport (and, for zc, on the free-running
    // scheduler), so it is driven outside the compared window.
    let deadline = Instant::now() + BACKSTOP;
    while faults.counts()[Fault::WorkerHang] == 0 {
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
    assert_eq!(zc.0, intel.0, "ledgers diverge");
    let (recovery, usage) = zc.0;
    assert_eq!(
        (recovery.crashes, recovery.replayed, recovery.redelivered),
        (3, 1, 1),
        "{recovery:?}"
    );
    assert_eq!(
        (recovery.refused_non_idempotent, recovery.journal_live),
        (1, 0)
    );
    assert!(usage.conserves(), "{usage:?}");
    assert_eq!((usage.offered, usage.completed, usage.refused), (8, 7, 1));
    assert_eq!(zc.1, intel.1, "caller-origin event kinds diverge");
    let completed = zc.1.iter().filter(|k| **k == "call_phases").count();
    assert_eq!(completed, 7, "one event per completed call: {:?}", zc.1);
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

/// One fault scenario, two hosts: the plan that scripts enclave
/// crashes for the real runtimes is the plan the DES reads. One
/// sequential caller issues ten idempotent calls; the enclave dies
/// under dispatches 3 and 7 and again once the first replay has
/// journaled its completion. The real leg is the Intel runtime on the
/// virtual clock, the simulated leg the DES's ZC model. Both conserve
/// and agree on crashes, redeliveries and refusals; they disagree by
/// one replay (DESIGN.md §11, "crash during replay"), and each host's
/// ledger is pinned so a change to either shows.
#[test]
fn one_fault_plan_drives_the_des_and_the_intel_runtime() {
    use zc_des::{run, CallDesc, Mechanism, SimConfig, WorkloadSpec, ZcSimFaults, ZcSimParams};
    const CALLS: u64 = 10;
    let plan = FaultPlan::new()
        .inject(Fault::EnclaveCrash, FaultSchedule::at_each([3, 7]))
        .inject(Fault::EnclaveReplayCrash, FaultSchedule::at(0));

    let (t, echo) = table();
    let cfg = IntelConfig::new(1, [echo]).with_recovery();
    let faults = Arc::new(FaultInjector::new(plan.clone()));
    let rt =
        IntelSwitchless::start_with_faults(cfg, t, Enclave::new_virtual(cpu()), faults).unwrap();
    let mut out = Vec::new();
    for i in 0..CALLS {
        let req = OcallRequest::new(echo, &[]).with_idempotent();
        let (ret, _) = rt.dispatch(&req, b"plan", &mut out).unwrap();
        assert_eq!((ret, out.as_slice()), (4, &b"plan"[..]), "call {i}");
    }
    let (real, usage) = (rt.recovery(), rt.ledger());
    rt.stop();
    assert!(usage.conserves(), "{usage:?}");
    assert_eq!((usage.offered, usage.completed), (CALLS, CALLS));

    let call = CallDesc {
        host_cycles: 2_000,
        payload_bytes: 4,
        ret_bytes: 4,
        ..CallDesc::default()
    };
    let workload = WorkloadSpec::ClosedLoop {
        pattern: vec![call],
        total_ops: CALLS,
    };
    let sim = run(
        &SimConfig::new(Mechanism::Zc(ZcSimParams::default()), vec![workload], 1).with_zc_faults(
            ZcSimFaults {
                enclave_faults: plan,
                ..ZcSimFaults::new()
            },
        ),
    );
    assert!(sim.counters.conserves(), "{:?}", sim.counters);
    assert_eq!(sim.counters.total_calls(), CALLS);
    let des = &sim.fault_recovery;

    // (crashes, replays, redeliveries, refusals, live journal entries)
    let real = (
        real.crashes,
        real.replayed,
        real.redelivered,
        real.refused_non_idempotent,
        real.journal_live,
    );
    let des = (
        des.enclave_crashes,
        des.journal_replays,
        des.call_redeliveries,
        des.refused_non_idempotent,
        des.journal_live,
    );
    assert_eq!(real, (3, 2, 1, 0, 0), "Intel runtime");
    // The replaying caller reconciles against the first restart's epoch
    // before the second restart begins, so the call after it straddles
    // the second loss and is replayed too.
    assert_eq!(des, (3, 3, 1, 0, 0), "DES");
}
