//! Seeded enclave crash/restart recovery soaks for both runtimes.
//!
//! Each soak drives a scripted multi-crash schedule ([`FaultPlan`],
//! ≥3 whole-enclave crash/restart cycles) through thousands of calls
//! and then audits the recovery plane's exactly-once ledger:
//!
//! * every idempotent in-flight call is **replayed** once and its
//!   payload round-trips intact;
//! * every non-idempotent in-flight call is **refused** with the typed
//!   [`SwitchlessError::EnclaveLost`] error, never re-executed;
//! * 100% call accounting holds across all cycles:
//!   `offered == completed + refused_non_idempotent`;
//! * the intent journal drains to zero live entries — nothing leaks.
//!
//! Everything runs on a virtual clock (`Enclave::new_virtual`), so the
//! soaks are deterministic and sleep no wall-clock time. Payload sizes
//! are drawn from a seeded SplitMix64 stream so reruns exercise the
//! byte-identical call sequence.

use sgx_sim::Enclave;
use std::sync::Arc;
use switchless_core::{
    CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, IntelConfig, OcallDispatcher,
    OcallRequest, OcallTable, SwitchlessError, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;

/// Calls per soak — enough to straddle every scripted crash site.
const SOAK_CALLS: u64 = 1_500;

/// Dispatch-site indices of the three scripted enclave crashes.
const CRASH_SITES: [u64; 3] = [5, 400, 1_100];

/// Seed of the payload-size stream.
const SOAK_SEED: u64 = 0x5eed_0e11_c1a5_00e5;

/// SplitMix64 step: the repo-standard seeded generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

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

fn zc_config() -> ZcConfig {
    let mut cpu = CpuSpec::paper_machine();
    cpu.logical_cpus = 4;
    ZcConfig::for_cpu(cpu)
        .with_quantum_ms(10)
        .with_initial_workers(2)
        .with_recovery()
}

/// Drive `SOAK_CALLS` idempotent calls through a 3-crash schedule and
/// audit the recovery ledger. Shared by both runtime soaks.
fn soak_idempotent(
    dispatch: impl Fn(&OcallRequest, &[u8], &mut Vec<u8>) -> Result<i64, SwitchlessError>,
    echo: switchless_core::FuncId,
) {
    let mut rng = SOAK_SEED;
    let mut out = Vec::new();
    for i in 0..SOAK_CALLS {
        let len = (splitmix(&mut rng) % 64 + 1) as usize;
        let payload = vec![(i % 251) as u8; len];
        let req = OcallRequest::new(echo, &[]).with_idempotent();
        let ret = dispatch(&req, &payload, &mut out)
            .unwrap_or_else(|e| panic!("idempotent call {i} must survive the crash: {e}"));
        assert_eq!(ret, len as i64, "call {i} returned the wrong length");
        assert_eq!(out, payload, "call {i} corrupted its payload");
    }
}

#[test]
fn zc_recovery_soak_replays_across_three_crash_cycles() {
    let (t, echo) = table();
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::EnclaveCrash, FaultSchedule::at_each(CRASH_SITES)),
    ));
    let cfg = zc_config();
    let rt = ZcRuntime::start_with_faults(cfg, t, Enclave::new_virtual(cfg.cpu), faults).unwrap();
    soak_idempotent(
        |req, pin, out| rt.dispatch(req, pin, out).map(|(r, _)| r),
        echo,
    );
    let snap = rt.recovery_snapshot().expect("recovery is on");
    assert_eq!(snap.crashes, 3, "all three scripted crashes must fire");
    assert_eq!(snap.epoch, 3, "every crash must complete a restart");
    assert!(
        snap.replayed >= 3,
        "each crash had one idempotent in-flight call to replay: {snap:?}"
    );
    assert_eq!(snap.refused_non_idempotent, 0);
    assert_eq!(snap.journal_live, 0, "journal must drain: {snap:?}");
    assert_eq!(
        rt.stats().snapshot().total_calls(),
        SOAK_CALLS,
        "100% accounting: every offered call completed"
    );
    rt.shutdown();
}

#[test]
fn zc_recovery_soak_accounts_for_non_idempotent_refusals() {
    let (t, echo) = table();
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::EnclaveCrash, FaultSchedule::at_each(CRASH_SITES)),
    ));
    let cfg = zc_config();
    let rt = ZcRuntime::start_with_faults(cfg, t, Enclave::new_virtual(cfg.cpu), faults).unwrap();
    let mut out = Vec::new();
    let mut completed = 0u64;
    let mut refused = 0u64;
    for i in 0..SOAK_CALLS {
        // Conservatively non-idempotent (the default): a crash while the
        // call is in flight must surface as a typed refusal.
        match rt.dispatch(&OcallRequest::new(echo, &[]), b"soak", &mut out) {
            Ok((ret, _)) => {
                assert_eq!(ret, 4, "call {i} returned the wrong length");
                completed += 1;
            }
            Err(SwitchlessError::EnclaveLost { in_flight_seq }) => {
                assert!(in_flight_seq > 0, "refusal must carry the journal seq");
                refused += 1;
            }
            Err(e) => panic!("call {i}: unexpected error {e}"),
        }
    }
    let snap = rt.recovery_snapshot().expect("recovery is on");
    assert_eq!(snap.crashes, 3);
    assert_eq!(snap.epoch, 3);
    assert_eq!(refused, 3, "each crash refuses exactly its in-flight call");
    assert_eq!(snap.refused_non_idempotent, refused);
    assert_eq!(snap.replayed, 0, "non-idempotent calls never replay");
    assert_eq!(snap.journal_live, 0);
    assert_eq!(
        completed + refused,
        SOAK_CALLS,
        "conservation: offered == completed + refused"
    );
    assert_eq!(rt.stats().snapshot().total_calls(), completed);
    rt.shutdown();
}

#[test]
fn zc_recovery_soak_survives_crash_during_replay() {
    // Crash #2 fires while the replay of crash #1's in-flight call is
    // executing: the journaled completion must be redelivered, not
    // re-executed, and the run still drains cleanly.
    let (t, echo) = table();
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new()
            .inject(Fault::EnclaveCrash, FaultSchedule::at_each([5, 900]))
            .inject(Fault::EnclaveReplayCrash, FaultSchedule::at(0)),
    ));
    let cfg = zc_config();
    let rt = ZcRuntime::start_with_faults(cfg, t, Enclave::new_virtual(cfg.cpu), faults).unwrap();
    soak_idempotent(
        |req, pin, out| rt.dispatch(req, pin, out).map(|(r, _)| r),
        echo,
    );
    let snap = rt.recovery_snapshot().expect("recovery is on");
    assert_eq!(snap.crashes, 3, "two scripted + one during replay");
    assert_eq!(snap.epoch, 3);
    assert!(
        snap.redelivered >= 1,
        "replay crash must redeliver: {snap:?}"
    );
    assert_eq!(snap.journal_live, 0);
    assert_eq!(rt.stats().snapshot().total_calls(), SOAK_CALLS);
    rt.shutdown();
}

#[test]
fn intel_recovery_soak_replays_across_three_crash_cycles() {
    use intel_switchless::IntelSwitchless;
    let (t, echo) = table();
    let cfg = IntelConfig::new(2, [echo]).with_recovery();
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::EnclaveCrash, FaultSchedule::at_each(CRASH_SITES)),
    ));
    let rt = IntelSwitchless::start_with_faults(
        cfg,
        t,
        Enclave::new_virtual(CpuSpec::paper_machine()),
        faults,
    )
    .unwrap();
    soak_idempotent(
        |req, pin, out| rt.dispatch(req, pin, out).map(|(r, _)| r),
        echo,
    );
    let snap = rt.recovery_snapshot().expect("recovery is on");
    assert_eq!(snap.crashes, 3);
    assert_eq!(snap.epoch, 3);
    assert!(snap.replayed >= 3, "one replay per crash cycle: {snap:?}");
    assert_eq!(snap.refused_non_idempotent, 0);
    assert_eq!(snap.journal_live, 0);
    assert_eq!(rt.stats().snapshot().total_calls(), SOAK_CALLS);
    rt.shutdown();
}

#[test]
fn intel_recovery_soak_accounts_for_non_idempotent_refusals() {
    use intel_switchless::IntelSwitchless;
    let (t, echo) = table();
    let cfg = IntelConfig::new(2, [echo]).with_recovery();
    let faults = Arc::new(FaultInjector::new(
        FaultPlan::new().inject(Fault::EnclaveCrash, FaultSchedule::at_each(CRASH_SITES)),
    ));
    let rt = IntelSwitchless::start_with_faults(
        cfg,
        t,
        Enclave::new_virtual(CpuSpec::paper_machine()),
        faults,
    )
    .unwrap();
    let mut out = Vec::new();
    let mut completed = 0u64;
    let mut refused = 0u64;
    for i in 0..SOAK_CALLS {
        match rt.dispatch(&OcallRequest::new(echo, &[]), b"soak", &mut out) {
            Ok((ret, _)) => {
                assert_eq!(ret, 4, "call {i} returned the wrong length");
                completed += 1;
            }
            Err(SwitchlessError::EnclaveLost { in_flight_seq }) => {
                assert!(in_flight_seq > 0);
                refused += 1;
            }
            Err(e) => panic!("call {i}: unexpected error {e}"),
        }
    }
    let snap = rt.recovery_snapshot().expect("recovery is on");
    assert_eq!(snap.crashes, 3);
    assert_eq!(refused, 3);
    assert_eq!(snap.refused_non_idempotent, 3);
    assert_eq!(snap.journal_live, 0);
    assert_eq!(completed + refused, SOAK_CALLS);
    rt.shutdown();
}
