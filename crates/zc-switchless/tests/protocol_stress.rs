//! Stress and adversarial-interleaving tests of the ZC runtime: many
//! callers, scheduler churn and payload-integrity under concurrency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::rand::SplitMix64;
use switchless_core::{
    CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, OcallDispatcher, OcallRequest,
    OcallTable, SuperviseParams, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;

fn test_cpu() -> CpuSpec {
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 4;
    cpu
}

fn checksum_table() -> (Arc<OcallTable>, switchless_core::FuncId) {
    let mut t = OcallTable::new();
    // Returns a checksum of the payload so cross-caller corruption is
    // detectable even when lengths collide.
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

#[test]
fn many_callers_with_scheduler_churn_never_corrupt_payloads() {
    let (table, sum) = checksum_table();
    // 1 ms quantum: the scheduler reconfigures constantly under load.
    let cfg = ZcConfig::for_cpu(test_cpu()).with_quantum_ms(1);
    let rt = Arc::new(ZcRuntime::start(cfg, table, sgx_sim::Enclave::new(test_cpu())).unwrap());
    let total = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for c in 0..6u64 {
            let rt = Arc::clone(&rt);
            let total = Arc::clone(&total);
            s.spawn(move || {
                let mut out = Vec::new();
                // At least 150 ops each, and on until the scheduler has
                // reconfigured under this load: a fast host finishes
                // 900 ops inside the first quantum.
                let mut i = 0u64;
                while i < 150 || rt.scheduler_decisions() < 1 {
                    assert!(i < 10_000_000, "caller {c}: no scheduler decision");
                    let len = ((c * 37 + i * 11) % 300 + 1) as usize;
                    let byte = ((c * 13 + i) % 251) as u8;
                    let payload = vec![byte; len];
                    let expect: u64 = u64::from(byte) * len as u64;
                    let (ret, _) = rt
                        .dispatch(&OcallRequest::new(sum, &[]), &payload, &mut out)
                        .unwrap();
                    assert_eq!(ret, expect as i64, "caller {c} op {i}: checksum mismatch");
                    assert_eq!(
                        out,
                        expect.to_le_bytes(),
                        "caller {c} op {i}: returned payload corrupted"
                    );
                    total.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
    });
    let total = total.load(Ordering::Relaxed);
    assert!(total >= 900);
    let snap = rt.stats().snapshot();
    assert_eq!(snap.total_calls(), total);
    rt.shutdown();
}

#[test]
fn rapid_start_shutdown_cycles_are_clean() {
    let (table, sum) = checksum_table();
    for round in 0..10 {
        let cfg = ZcConfig::for_cpu(test_cpu()).with_quantum_ms(1);
        let rt =
            ZcRuntime::start(cfg, Arc::clone(&table), sgx_sim::Enclave::new(test_cpu())).unwrap();
        let mut out = Vec::new();
        let (ret, _) = rt
            .dispatch(&OcallRequest::new(sum, &[]), &[1, 2, 3], &mut out)
            .unwrap();
        assert_eq!(ret, 6, "round {round}");
        rt.shutdown();
    }
}

#[test]
fn residency_accumulates_under_load() {
    let (table, sum) = checksum_table();
    let cfg = ZcConfig::for_cpu(test_cpu()).with_quantum_ms(2);
    // Virtual clock: scheduler quanta elapse in logical time, so
    // residency accumulates after a handful of dispatches instead of
    // 80 ms of wall-clock hammering.
    let rt = ZcRuntime::start(cfg, table, sgx_sim::Enclave::new_virtual(test_cpu())).unwrap();
    let mut out = Vec::new();
    let backstop = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while rt.residency().total_cycles() == 0 {
        assert!(
            std::time::Instant::now() < backstop,
            "residency never accumulated on the virtual clock"
        );
        rt.dispatch(&OcallRequest::new(sum, &[]), b"load", &mut out)
            .unwrap();
    }
    let res = rt.residency();
    assert!(res.total_cycles() > 0);
    let fr = res.fractions();
    let s: f64 = fr.iter().sum();
    assert!((s - 1.0).abs() < 1e-9, "fractions must sum to 1, got {s}");
    assert!(res.mean_workers() <= rt.config().max_workers() as f64);
    rt.shutdown();
}

#[test]
fn zero_length_payloads_and_replies_are_fine() {
    let mut t = OcallTable::new();
    let nop = t.register(
        "nop",
        |_: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| 0,
    );
    let cfg = ZcConfig::for_cpu(test_cpu()).with_quantum_ms(5);
    let rt = ZcRuntime::start(cfg, Arc::new(t), sgx_sim::Enclave::new(test_cpu())).unwrap();
    let mut out = vec![9u8; 16];
    let (ret, _) = rt
        .dispatch(&OcallRequest::new(nop, &[]), &[], &mut out)
        .unwrap();
    assert_eq!(ret, 0);
    assert!(out.is_empty(), "stale output must be cleared");
    rt.shutdown();
}

/// Callers of the mailbox load tests (over the two workers of
/// [`test_cpu`]).
const LOAD_CALLERS: u64 = 4;

/// Largest echoed payload: a quarter of the 64 KiB pool, so reallocs
/// happen every few calls.
const LOAD_MAX_PAYLOAD: u64 = 16 * 1024;

fn echo_table() -> (Arc<OcallTable>, switchless_core::FuncId) {
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

/// One seeded echo of 0 B–16 KiB, every reply byte checked. The fill is
/// a per-call byte stream, so a reply that carries another call's (or
/// an earlier call's) bytes cannot pass.
fn echo_once(
    rt: &ZcRuntime,
    echo: switchless_core::FuncId,
    rng: &mut SplitMix64,
    payload: &mut Vec<u8>,
    out: &mut Vec<u8>,
    who: (u64, u64),
) {
    let len = rng.next_below(LOAD_MAX_PAYLOAD + 1) as usize;
    let mut fill = rng.fork();
    payload.clear();
    payload.extend((0..len).map(|_| fill.next_u64() as u8));
    let req = OcallRequest::new(echo, &[]).with_idempotent();
    let (ret, _) = rt
        .dispatch(&req, payload, out)
        .unwrap_or_else(|e| panic!("caller {} op {}: {e}", who.0, who.1));
    assert_eq!(ret, len as i64, "caller {} op {}: length", who.0, who.1);
    assert!(out == payload, "caller {} op {}: reply bytes", who.0, who.1);
}

/// Run `LOAD_CALLERS` threads of `body(caller)` to completion. A caller
/// that never returns is the failure the mailbox tests exist to catch,
/// so it is reported (wall-clock backstop only) instead of hanging the
/// suite.
fn run_callers(body: impl Fn(u64) + Send + Sync + 'static) {
    let body = Arc::new(body);
    let handles: Vec<_> = (0..LOAD_CALLERS)
        .map(|c| {
            let body = Arc::clone(&body);
            std::thread::spawn(move || body(c))
        })
        .collect();
    let backstop = Instant::now() + Duration::from_secs(300);
    for (c, h) in handles.into_iter().enumerate() {
        while !h.is_finished() {
            assert!(Instant::now() < backstop, "caller {c} is stranded");
            std::thread::sleep(Duration::from_millis(1));
        }
        h.join().unwrap_or_else(|_| panic!("caller {c} failed"));
    }
}

#[test]
fn mailbox_echo_load_is_byte_exact_legal_and_conserved() {
    let (table, echo) = echo_table();
    let cfg = ZcConfig::for_cpu(test_cpu())
        .with_quantum_ms(1)
        .with_initial_workers(2);
    let rt = Arc::new(ZcRuntime::start(cfg, table, sgx_sim::Enclave::new(test_cpu())).unwrap());
    let calls = 300u64;
    let rt2 = Arc::clone(&rt);
    run_callers(move |c| {
        let mut rng = SplitMix64::new(0x3a11_b0c5 ^ c);
        let (mut payload, mut out) = (Vec::new(), Vec::new());
        for i in 0..calls {
            echo_once(&rt2, echo, &mut rng, &mut payload, &mut out, (c, i));
        }
    });
    let snap = rt.stats().snapshot();
    assert_eq!(snap.total_calls(), LOAD_CALLERS * calls);
    assert!(snap.is_conserved(), "{snap:?}");
    assert!(
        snap.switchless > 0,
        "the load never went switchless: {snap:?}"
    );
    assert_eq!(snap.guard_violations, 0, "{snap:?}");
    // `try_transition` poisons a slot rather than take an illegal edge.
    assert_eq!(rt.poisoned_workers(), 0, "a slot was quarantined");
    rt.shutdown();
}

#[test]
fn slot_respawns_under_load_never_strand_or_block_a_caller() {
    // Worker crashes respawn single slots (supervisor), the enclave
    // crash fences and respawns every slot at once; all of it happens
    // under the same seeded echo load, on buffers callers are claiming
    // and spinning on. Every call must still complete byte-exact (the
    // echo is idempotent, so the in-flight calls of the restart are
    // replayed) and every caller must return.
    const WORKER_CRASHES: u64 = 4;
    const MIN_CALLS: u64 = 200;
    const MAX_CALLS: u64 = 200_000;
    let (table, echo) = echo_table();
    let cpu = test_cpu();
    let cfg = ZcConfig::for_cpu(cpu)
        .with_quantum_ms(1)
        .with_initial_workers(2)
        .with_recovery()
        .with_supervise_params(
            // Respawn at the next poll; never blacklist the echo shape
            // and never let the watchdog take a descheduled worker for
            // a hung one — the injected faults are the only failures.
            SuperviseParams::for_cpu(cpu)
                .with_watchdog_cycles(u64::MAX / 2)
                .with_poison_threshold(1_000)
                .with_backoff_cycles(1, 1)
                .with_probation_cycles(1),
        );
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new()
            .inject(
                Fault::WorkerCrash,
                FaultSchedule::at_each([20, 90, 200, 260]),
            )
            .inject(Fault::EnclaveCrash, FaultSchedule::at(400)),
    ));
    let rt = Arc::new(
        ZcRuntime::start_with_faults(cfg, table, sgx_sim::Enclave::new(cpu), Arc::clone(&faults))
            .unwrap(),
    );
    let (rt2, faults2) = (Arc::clone(&rt), Arc::clone(&faults));
    run_callers(move |c| {
        let mut rng = SplitMix64::new(0x5e5b_a57e ^ c);
        let (mut payload, mut out) = (Vec::new(), Vec::new());
        // Fault sites count serviced calls, not issued ones: keep the
        // load up until every scripted fault has fired.
        let all_fired = || {
            let n = faults2.counts();
            n[Fault::WorkerCrash] == WORKER_CRASHES && n[Fault::EnclaveCrash] == 1
        };
        let mut i = 0;
        while i < MIN_CALLS || !all_fired() {
            assert!(i < MAX_CALLS, "caller {c}: the scripted faults never fired");
            echo_once(&rt2, echo, &mut rng, &mut payload, &mut out, (c, i));
            i += 1;
        }
    });
    // The last crash may still be waiting for its respawn.
    let backstop = Instant::now() + Duration::from_secs(60);
    while rt.poisoned_workers() > 0 {
        assert!(
            Instant::now() < backstop,
            "a crashed slot was never respawned"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = rt.stats().snapshot();
    assert!(snap.is_conserved(), "{snap:?}");
    assert_eq!(snap.guard_violations, 0, "{snap:?}");
    let recovery = rt.recovery_snapshot().expect("recovery is on");
    assert_eq!((recovery.crashes, recovery.epoch), (1, 1), "{recovery:?}");
    assert_eq!(recovery.refused_non_idempotent, 0, "{recovery:?}");
    assert_eq!(recovery.journal_live, 0, "{recovery:?}");
    let sup = rt.supervisor_state().expect("supervision is on");
    assert!(sup.respawns() >= 1, "no slot was ever respawned");
    let report = rt.shutdown_with_timeout(Duration::from_secs(30));
    assert_eq!(report.abandoned, 0, "crashed workers exit and join");
}
