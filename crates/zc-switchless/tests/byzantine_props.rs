//! Property test: under *arbitrary* Byzantine corruption schedules the
//! ZC runtime never panics, never returns corrupted results, and never
//! loses a call — every rejected switchless attempt completes through
//! the fallback path, so the call ledger stays conserved.

use proptest::prelude::*;
use std::sync::Arc;
use switchless_core::{
    CpuSpec, Fault, FaultInjector, FaultPlan, FaultSchedule, FaultSite, OcallDispatcher,
    OcallRequest, OcallTable, ZcConfig, MAX_OCALL_ARGS,
};
use zc_switchless::ZcRuntime;

const CALLS: usize = 40;

/// Build a plan from `(site, kind)` pairs; `kind` indexes the six
/// corruption behaviours. Later entries for the same site lose to the
/// earlier one via the injector's fixed precedence, which is fine — the
/// property is about survival, not exact counts.
fn plan_from(schedule: &[(u64, usize)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(site, kind) in schedule {
        plan = match kind {
            0 => plan.inject(Fault::FlipStatus, FaultSchedule::at(site)),
            1 => plan.inject(Fault::GarbageCommand, FaultSchedule::at(site)),
            2 => plan.inject(Fault::OversizeReply, FaultSchedule::at(site)),
            3 => plan.inject(Fault::UndersizeReply, FaultSchedule::at(site)),
            4 => plan.inject(Fault::StaleSeq, FaultSchedule::at(site)),
            _ => plan.inject(Fault::TornRequest, FaultSchedule::at(site)),
        };
    }
    plan
}

proptest! {
    /// Forty checksummed calls against a host lying per an arbitrary
    /// schedule: every call returns the honest checksum and the stats
    /// ledger conserves (`issued == switchless + fallback + regular +
    /// cancelled`). Corrupted slots are quarantined, not respawned
    /// (supervision stays off), so the run also exercises the
    /// all-workers-poisoned degraded mode.
    #[test]
    fn arbitrary_corruption_never_loses_or_corrupts_calls(
        schedule in prop::collection::vec((0u64..30, 0usize..6), 0..12),
    ) {
        let mut cpu = CpuSpec::paper_machine();
        cpu.logical_cpus = 4;
        let mut table = OcallTable::new();
        let sum = table.register(
            "sum",
            |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
                let s: u64 = pin.iter().map(|&b| u64::from(b)).sum();
                pout.extend_from_slice(&s.to_le_bytes());
                s as i64
            },
        );
        let faults = Arc::new(FaultInjector::new(plan_from(&schedule)));
        let rt = ZcRuntime::start_with_faults(
            ZcConfig::for_cpu(cpu),
            Arc::new(table),
            sgx_sim::Enclave::new(cpu),
            Arc::clone(&faults),
        )
        .unwrap();

        let mut out = Vec::new();
        for i in 0..CALLS {
            let byte = (i % 251 + 1) as u8;
            let len = 1 + i % 17;
            let payload = vec![byte; len];
            let expect = u64::from(byte) * len as u64;
            let (ret, _path) = rt
                .dispatch(&OcallRequest::new(sum, &[]), &payload, &mut out)
                .unwrap();
            prop_assert_eq!(ret, expect as i64, "call {} returned a corrupted checksum", i);
            prop_assert_eq!(&out[..], &expect.to_le_bytes()[..], "call {} reply bytes", i);
        }

        let snap = rt.stats().snapshot();
        prop_assert_eq!(snap.issued, CALLS as u64);
        prop_assert!(
            snap.is_conserved(),
            "call ledger lost calls under corruption: {:?}",
            snap
        );
        // Every *detected* lie must have routed somewhere countable:
        // violations never exceed the corruptions actually injected.
        prop_assert!(snap.guard_violations <= faults.counts().total(FaultSite::Publish));
        rt.shutdown();
    }
}

/// Each lie the fault plan can tell, told once on a call whose request
/// and reply both ride the mailbox's inline window (8 bytes in, an
/// 8-byte checksum back, as kissdb's `fread`/`fwrite` carry): a torn
/// inline request, an oversize, undersize or stale inline reply, a
/// flipped status word. Each ends in exactly one guard violation, and
/// the call it struck still returns the honest result, through the
/// fallback. (A flipped inline marker and a lying count byte are host
/// scribbles no plan variant makes; `buffer.rs` pins the guard's
/// verdict on every value of either byte.)
#[test]
fn each_lie_on_an_inline_call_is_one_violation_and_one_fallback() {
    use std::time::{Duration, Instant};
    use switchless_core::CallPath;
    let lies = [
        Fault::TornRequest,
        Fault::OversizeReply,
        Fault::UndersizeReply,
        Fault::StaleSeq,
        Fault::FlipStatus,
    ];
    for fault in lies {
        let mut cpu = CpuSpec::paper_machine();
        cpu.logical_cpus = 4;
        let mut table = OcallTable::new();
        let sum = table.register(
            "sum",
            |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
                let s: u64 = pin.iter().map(|&b| u64::from(b)).sum();
                pout.extend_from_slice(&s.to_le_bytes());
                s as i64
            },
        );
        let plan = FaultPlan::new().inject(fault, FaultSchedule::at(0));
        let faults = Arc::new(FaultInjector::new(plan));
        let rt = ZcRuntime::start_with_faults(
            ZcConfig::for_cpu(cpu),
            Arc::new(table),
            sgx_sim::Enclave::new(cpu),
            Arc::clone(&faults),
        )
        .unwrap();
        let mut out = Vec::new();
        let mut call = |i: u8| {
            let payload = [i; 8];
            let expect = u64::from(i) * 8;
            let (ret, path) = rt
                .dispatch(&OcallRequest::new(sum, &[]), &payload, &mut out)
                .unwrap();
            assert_eq!(ret, expect as i64, "{fault:?}: corrupted checksum");
            assert_eq!(out, expect.to_le_bytes(), "{fault:?}: reply bytes");
            path
        };
        // Call until the lie has been told (wall time is only the
        // backstop): the call it struck went through the fallback.
        let backstop = Instant::now() + Duration::from_secs(30);
        let mut i = 0u8;
        let struck = loop {
            i = i.wrapping_add(1);
            let path = call(i);
            if faults.counts()[fault] == 1 {
                break path;
            }
            assert!(Instant::now() < backstop, "{fault:?} was never told");
        };
        assert_eq!(struck, CallPath::Fallback, "{fault:?}");
        // A torn request is reported by the worker, after it poisons
        // the buffer the caller re-routes off: wait for the count.
        while rt.stats().snapshot().guard_violations == 0 {
            assert!(Instant::now() < backstop, "{fault:?} was never reported");
            std::thread::yield_now();
        }
        for _ in 0..20 {
            i = i.wrapping_add(1);
            call(i);
        }
        let snap = rt.stats().snapshot();
        assert_eq!(snap.guard_violations, 1, "{fault:?}: {snap:?}");
        assert!(snap.is_conserved(), "{fault:?}: {snap:?}");
        rt.shutdown();
    }
}
