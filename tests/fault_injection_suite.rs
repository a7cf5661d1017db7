//! Deterministic fault-injection suite for the switchless runtimes.
//!
//! Every test here runs on a **virtual clock** ([`Enclave::new_virtual`]):
//! scheduler quanta, cost-injection spins, retry backoffs and drain
//! timeouts all advance logical time instantly, so no test sleeps
//! wall-clock time and every failure is provoked at a scripted call
//! index ([`FaultPlan`]) rather than by racing timers. (The occasional
//! `Instant` deadline below is a *failure backstop* for a wedged run —
//! it is polled, never slept on.)
//!
//! Because the ZC scheduler free-runs through its quanta on virtual
//! time, tests do not assume a fixed scheduler phase: fault sites fire
//! on the n-th *serviced* call, so assertions key off the injector's
//! observability counters rather than absolute dispatch indices.
//!
//! Covered degradation paths:
//!
//! * ZC worker **crash** → buffer poisoned, caller re-routed to a
//!   regular ocall, worker quarantined for the rest of the run;
//! * ZC worker **stall** → call still completes switchlessly;
//! * forced **pool exhaustion** → bounded retry, then fallback;
//! * forced **transition failure** → bounded retry-with-backoff, then
//!   success or [`SwitchlessError::TransitionFailed`];
//! * **shutdown under load** → drain-with-timeout joins live workers;
//! * **hung worker** → drain timeout abandons exactly the wedged thread;
//! * Intel worker **crash** → rbf timeout cancels the submission and
//!   falls back;
//! * **clock skew** at dispatch → calls still complete, skew visible on
//!   the shared clock.

use sgx_sim::Enclave;
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::{
    CallPath, CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, IntelConfig,
    OcallDispatcher, OcallRequest, OcallTable, SwitchlessError, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;

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

/// Small machine: 4 logical CPUs -> 2 workers max.
fn zc_config() -> ZcConfig {
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 4;
    ZcConfig::for_cpu(cpu)
        .with_quantum_ms(10)
        .with_initial_workers(2)
}

fn start_zc(plan: FaultPlan) -> (ZcRuntime, Arc<FaultInjector>, switchless_core::FuncId) {
    let (t, echo) = table();
    let cfg = zc_config();
    let faults = Arc::new(FaultInjector::new(plan));
    let rt =
        ZcRuntime::start_with_faults(cfg, t, Enclave::new_virtual(cfg.cpu), Arc::clone(&faults))
            .expect("zc runtime must start");
    (rt, faults, echo)
}

/// Dispatch `echo` calls until `stop` says the fault state of interest
/// has been reached, asserting every call round-trips its payload.
/// Returns the path of the final (triggering) call.
fn drive_until(
    rt: &ZcRuntime,
    echo: switchless_core::FuncId,
    what: &str,
    mut stop: impl FnMut() -> bool,
) -> CallPath {
    let deadline = Instant::now() + BACKSTOP;
    let mut out = Vec::new();
    let mut i = 0u64;
    loop {
        assert!(
            Instant::now() < deadline,
            "backstop expired waiting for {what}"
        );
        let payload = vec![i as u8; 16];
        let (ret, path) = rt
            .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
            .unwrap();
        assert_eq!(ret, 16, "call {i} returned wrong length");
        assert_eq!(out, payload, "call {i} corrupted payload");
        i += 1;
        if stop() {
            return path;
        }
    }
}

#[test]
fn zc_worker_crash_is_quarantined_and_calls_complete() {
    // Crash the worker servicing the first *serviced* switchless call.
    let (rt, faults, echo) =
        start_zc(FaultPlan::new().inject(Fault::WorkerCrash, FaultSchedule::at(0)));
    let path = drive_until(&rt, echo, "injected crash", || {
        faults.counts()[Fault::WorkerCrash] == 1
    });
    assert_eq!(
        path,
        CallPath::Fallback,
        "the crash victim must be re-routed to a regular ocall"
    );
    assert_eq!(
        rt.poisoned_workers(),
        1,
        "crashed worker must be quarantined"
    );
    // The surviving worker keeps serving switchless calls afterwards.
    let switchless_before = rt.stats().snapshot().switchless;
    drive_until(&rt, echo, "a post-crash switchless call", || {
        rt.stats().snapshot().switchless > switchless_before
    });
    assert_eq!(rt.poisoned_workers(), 1, "no further quarantine");
    let report = rt.shutdown_with_timeout(Duration::from_secs(5));
    // The crashed worker's thread exited on its own: nothing is abandoned.
    assert!(
        report.is_clean(),
        "crashed (exited) worker must not block drain: {report:?}"
    );
}

#[test]
fn zc_worker_stall_delays_but_completes_switchlessly() {
    // Stall the first serviced call for a full modelled second.
    const STALL: u64 = 3_800_000_000;
    let (rt, faults, echo) = start_zc(
        FaultPlan::new()
            .inject(Fault::WorkerStall, FaultSchedule::at(0))
            .cycles(Fault::WorkerStall, STALL),
    );
    let clock = rt.clock();
    let before = clock.now_cycles();
    let path = drive_until(&rt, echo, "injected stall", || {
        faults.counts()[Fault::WorkerStall] == 1
    });
    assert_eq!(
        path,
        CallPath::Switchless,
        "a stall is a delay, not a failure"
    );
    assert!(
        clock.now_cycles() - before >= STALL,
        "the stall must be charged to the modelled clock"
    );
    assert_eq!(rt.poisoned_workers(), 0, "stalls do not poison workers");
    rt.shutdown();
}

#[test]
fn zc_pool_exhaustion_retries_then_falls_back() {
    // First 2 allocations fail: the first *claimed* call's bounded retry
    // (budget 3) absorbs both and the call still goes switchless.
    let (rt, faults, echo) =
        start_zc(FaultPlan::new().inject(Fault::PoolExhaustion, FaultSchedule::first(2)));
    let path = drive_until(&rt, echo, "both injected exhaustions", || {
        faults.counts()[Fault::PoolExhaustion] == 2
    });
    assert_eq!(
        path,
        CallPath::Switchless,
        "2 failures fit inside the retry budget"
    );
    rt.shutdown();
}

#[test]
fn zc_persistent_pool_exhaustion_degrades_to_fallback() {
    // A large exhaustion window: the first claimed call burns its whole
    // retry budget (1 attempt + 3 retries) and degrades to a regular
    // ocall; later calls keep completing.
    let (rt, faults, echo) =
        start_zc(FaultPlan::new().inject(Fault::PoolExhaustion, FaultSchedule::first(100)));
    let path = drive_until(&rt, echo, "a burnt retry budget", || {
        faults.counts()[Fault::PoolExhaustion] >= 4
    });
    assert_eq!(
        faults.counts()[Fault::PoolExhaustion],
        4,
        "one claimed call consumes exactly 1 + 3 forced allocations"
    );
    assert_eq!(
        path,
        CallPath::Fallback,
        "persistent exhaustion must degrade, not hang"
    );
    // Keep going: the runtime stays usable while the window drains.
    drive_until(&rt, echo, "the exhaustion window to drain", || {
        faults.counts()[Fault::PoolExhaustion] == 100
    });
    rt.shutdown();
}

/// Forced pool allocations that send one claimed call down the
/// regular path: the first attempt plus its three retries.
const EXHAUST_ONE_CALL: u64 = 4;

#[test]
fn zc_transition_failures_recover_within_retry_budget() {
    // Fail the first 2 transitions; force the fallback path by
    // exhausting the pool for the whole retry budget of the call (or it
    // finds no idle worker, also a fallback). The very first dispatch
    // is the first transition anywhere in the runtime.
    let (rt, faults, echo) = start_zc(
        FaultPlan::new()
            .inject(Fault::TransitionFailure, FaultSchedule::first(2))
            .inject(
                Fault::PoolExhaustion,
                FaultSchedule::first(EXHAUST_ONE_CALL),
            ),
    );
    let big = vec![9u8; 4096];
    let mut out = Vec::new();
    let (ret, path) = rt
        .dispatch(&OcallRequest::new(echo, &[]), &big, &mut out)
        .unwrap();
    assert_eq!(ret, big.len() as i64);
    assert_eq!(out, big);
    assert_eq!(path, CallPath::Fallback);
    assert_eq!(
        faults.counts()[Fault::TransitionFailure],
        2,
        "both injected failures absorbed by the retry budget"
    );
    rt.shutdown();
}

#[test]
fn zc_exhausted_transition_retries_surface_as_error() {
    // More failures than any retry budget: the fallback path must give up
    // with TransitionFailed instead of retrying forever.
    let (rt, _faults, echo) = start_zc(
        FaultPlan::new()
            .inject(Fault::TransitionFailure, FaultSchedule::first(1_000))
            .inject(
                Fault::PoolExhaustion,
                FaultSchedule::first(EXHAUST_ONE_CALL),
            ),
    );
    let big = vec![7u8; 4096];
    let mut out = Vec::new();
    let err = rt
        .dispatch(&OcallRequest::new(echo, &[]), &big, &mut out)
        .unwrap_err();
    assert_eq!(err, SwitchlessError::TransitionFailed { attempts: 4 });
    rt.shutdown();
}

#[test]
fn zc_shutdown_under_load_drains_cleanly() {
    let (rt, _faults, echo) = start_zc(FaultPlan::new());
    let rt = Arc::new(rt);
    // Four caller threads hammer the runtime while the main thread shuts
    // it down mid-load.
    let mut handles = Vec::new();
    let started = Arc::new(std::sync::atomic::AtomicU32::new(0));
    for c in 0..4u8 {
        let rt = Arc::clone(&rt);
        let started = Arc::clone(&started);
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut completed = 0u32;
            for i in 0..2_000u32 {
                let payload = vec![c.wrapping_add(i as u8); 8];
                match rt.dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out) {
                    Ok((ret, _)) => {
                        assert_eq!(ret, 8);
                        assert_eq!(out, payload);
                        completed += 1;
                        if completed == 1 {
                            started.fetch_add(1, std::sync::atomic::Ordering::Release);
                        }
                    }
                    Err(SwitchlessError::RuntimeStopped) => break,
                    Err(e) => panic!("unexpected dispatch error under shutdown: {e}"),
                }
            }
            completed
        }));
    }
    // Let some calls land — at least one per caller, whenever the OS
    // gets round to scheduling it — then pull the plug while callers
    // are active.
    let deadline = Instant::now() + BACKSTOP;
    while rt.stats().snapshot().total_calls() < 50
        || started.load(std::sync::atomic::Ordering::Acquire) < 4
    {
        assert!(Instant::now() < deadline, "no load built up");
        std::thread::yield_now();
    }
    let report = rt.shutdown_with_timeout(Duration::from_secs(10));
    assert!(report.is_clean(), "healthy workers must drain: {report:?}");
    assert_eq!(report.drained, rt.config().max_workers());
    for h in handles {
        let completed = h.join().unwrap();
        assert!(
            completed > 0,
            "every caller must have completed calls before the stop"
        );
    }
}

#[test]
fn zc_hung_worker_is_abandoned_by_drain_timeout() {
    // Wedge the worker servicing the first serviced call forever. The
    // caller is re-routed (a hang poisons the buffer before parking);
    // shutdown's drain must abandon exactly that thread and join the
    // healthy one — and say so on the telemetry trace, not just in the
    // drain report.
    let (t, echo) = table();
    let cfg = zc_config();
    let hub = zc_telemetry::Telemetry::new();
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::WorkerHang, FaultSchedule::at(0)),
    ));
    let rt = ZcRuntime::start_with_telemetry(
        cfg,
        t,
        Enclave::new_virtual(cfg.cpu),
        Arc::clone(&hub),
        Some(Arc::clone(&faults)),
    )
    .expect("zc runtime must start");
    let path = drive_until(&rt, echo, "injected hang", || {
        faults.counts()[Fault::WorkerHang] == 1
    });
    assert_eq!(
        path,
        CallPath::Fallback,
        "caller of the hung worker must be re-routed"
    );
    assert_eq!(rt.poisoned_workers(), 1);
    // The wedged thread marked itself, so the drain ends when every
    // other worker has exited; the argument only bounds a silent wedge.
    let report = rt.shutdown_with_timeout(BACKSTOP);
    assert_eq!(
        report.abandoned, 1,
        "exactly the wedged thread is abandoned"
    );
    assert_eq!(report.drained, rt.config().max_workers() - 1);
    let abandoned: Vec<_> = hub
        .tracer()
        .drain()
        .into_iter()
        .filter(|ev| matches!(ev.event, zc_telemetry::Event::WorkerAbandoned { .. }))
        .collect();
    assert_eq!(
        abandoned.len(),
        1,
        "exactly one worker_abandoned event must be traced: {abandoned:?}"
    );
}

#[test]
fn intel_worker_crash_degrades_to_fallback() {
    use intel_switchless::IntelSwitchless;
    let (t, echo) = table();
    // One worker, finite rbf: the only worker dies before accepting the
    // first submission, so the caller's rbf window expires, the
    // submission is cancelled and the call falls back. Every later call
    // degrades the same way — the runtime never hangs.
    let cfg = IntelConfig::new(1, [echo]).with_retries_before_fallback(64);
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::WorkerCrash, FaultSchedule::at(0)),
    ));
    let rt = IntelSwitchless::start_with_faults(
        cfg,
        t,
        Enclave::new_virtual(CpuSpec::paper_machine()),
        Arc::clone(&faults),
    )
    .unwrap();
    let mut out = Vec::new();
    // Ten calls at least, and on until the worker thread has run far
    // enough to hit its crash site: on a busy host every rbf window of
    // the first ten can expire before the OS first schedules it.
    let mut i = 0u32;
    while i < 10 || faults.counts()[Fault::WorkerCrash] == 0 {
        assert!(i < 1_000_000, "the worker never reached its crash site");
        let payload = vec![i as u8; 12];
        let (ret, path) = rt
            .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
            .unwrap();
        assert_eq!(ret, 12);
        assert_eq!(out, payload);
        assert_eq!(
            path,
            CallPath::Fallback,
            "call {i}: dead worker means fallback"
        );
        i += 1;
    }
    assert_eq!(faults.counts()[Fault::WorkerCrash], 1);
    let report = rt.shutdown_with_timeout(Duration::from_secs(5));
    assert!(
        report.is_clean(),
        "crashed (exited) worker must not block drain: {report:?}"
    );
}

#[test]
fn intel_worker_stall_still_completes_switchlessly() {
    use intel_switchless::IntelSwitchless;
    let (t, echo) = table();
    let cfg = IntelConfig::new(1, [echo]).with_retries_before_fallback(u32::MAX);
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new()
            .inject(Fault::WorkerStall, FaultSchedule::at(0))
            .cycles(Fault::WorkerStall, 1_000_000),
    ));
    let rt = IntelSwitchless::start_with_faults(
        cfg,
        t,
        Enclave::new_virtual(CpuSpec::paper_machine()),
        Arc::clone(&faults),
    )
    .unwrap();
    let mut out = Vec::new();
    let (ret, path) = rt
        .dispatch(&OcallRequest::new(echo, &[]), b"slow", &mut out)
        .unwrap();
    assert_eq!(ret, 4);
    assert_eq!(out, b"slow");
    assert_eq!(
        path,
        CallPath::Switchless,
        "a stalled worker still serves the call"
    );
    assert_eq!(faults.counts()[Fault::WorkerStall], 1);
    rt.shutdown();
}

#[test]
fn clock_skew_does_not_break_dispatch() {
    // Skew the clock forward ~1 modelled second on every dispatch; calls
    // must still complete and the skew must be visible on the clock.
    const SKEW: u64 = 3_800_000_000;
    let (rt, faults, echo) = start_zc(
        FaultPlan::new()
            .inject(Fault::ClockSkew, FaultSchedule::every(1))
            .cycles(Fault::ClockSkew, SKEW),
    );
    let clock = rt.clock();
    let before = clock.now_cycles();
    let mut out = Vec::new();
    for i in 0..10u8 {
        let payload = vec![i; 16];
        let (ret, _) = rt
            .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
            .unwrap();
        assert_eq!(ret, 16);
        assert_eq!(out, payload);
    }
    assert_eq!(faults.counts()[Fault::ClockSkew], 10);
    assert!(
        clock.now_cycles() - before >= 10 * SKEW,
        "injected skew must move the shared clock"
    );
    // Statistics stayed coherent despite the skew.
    assert_eq!(rt.stats().snapshot().total_calls(), 10);
    rt.shutdown();
}

#[test]
fn virtual_clock_steps_scheduler_quanta_instantly() {
    // A 10 ms quantum with its configuration micro-quanta takes ~10+ ms
    // of *modelled* time per decision; on the virtual clock dozens of
    // decisions complete in well under a second of wall time.
    let (t, echo) = table();
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 4;
    let cfg = ZcConfig::for_cpu(cpu)
        .with_quantum_ms(10)
        .with_initial_workers(1);
    let rt = ZcRuntime::start(cfg, t, Enclave::new_virtual(cpu)).unwrap();
    let mut out = Vec::new();
    let deadline = Instant::now() + BACKSTOP;
    while rt.scheduler_decisions() < 10 {
        assert!(
            Instant::now() < deadline,
            "scheduler failed to step virtually"
        );
        let _ = rt
            .dispatch(&OcallRequest::new(echo, &[]), b"tick", &mut out)
            .unwrap();
    }
    assert!(rt.scheduler_decisions() >= 10);
    // 10 decisions require at least 10 quanta of modelled time.
    assert!(
        rt.clock().now_secs() >= 0.1,
        "modelled time must have advanced"
    );
    rt.shutdown();
}
