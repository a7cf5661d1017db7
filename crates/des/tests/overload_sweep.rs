//! Overload sweep: admission, shedding and goodput as offered load is
//! swept through the machine's *measured* saturation point.
//!
//! A closed-loop probe measures the capacity of the ZC mechanism on the
//! 128-vCPU machine; seeded open-loop MMPP traffic
//! (DESIGN.md §13) is then offered at 50 %, 100 % and 200 % of it, with
//! a client-side dispatch budget shedding stale arrivals. Everything is
//! virtual time, so every number below is exact.

use switchless_core::Ledger;
use zc_des::{
    run, ArrivalProcess, CallDesc, Mechanism, OpenLoad, ServiceDist, SimConfig, WorkloadSpec,
    ZcSimParams,
};

const CALLERS: usize = 32;
const VCPUS: usize = 128;
const SERVICE_MEAN_CYCLES: u64 = 400;
/// Client-side dispatch budget: arrivals older than this shed un-issued.
const BUDGET_CYCLES: u64 = 100_000;
/// Open-loop window of every sweep point.
const WINDOW_CYCLES: u64 = 4_000_000;
/// p99 sojourn ceiling at 2×: the budget, the service tail and the
/// histogram's bucket granularity all fit under half a megacycle.
const P99_CEILING_CYCLES: u64 = 1 << 19;
/// Base seed; each sweep point perturbs it so points are independent.
const SEED: u64 = 0x0515_c41e_55c0_11f1;

fn call_template() -> CallDesc {
    CallDesc {
        host_cycles: SERVICE_MEAN_CYCLES,
        payload_bytes: 256,
        ret_bytes: 64,
        ..CallDesc::default()
    }
}

fn machine(workloads: Vec<WorkloadSpec>) -> SimConfig {
    SimConfig::new(Mechanism::Zc(ZcSimParams::default()), workloads, 1).with_vcpus(VCPUS)
}

/// Closed-loop saturation probe: every caller issues back to back.
fn saturation_config(ops: u64) -> SimConfig {
    machine(vec![
        WorkloadSpec::ClosedLoop {
            pattern: vec![call_template()],
            total_ops: ops,
        };
        CALLERS
    ])
}

/// MMPP with an 8:1 burst/calm rate split and equal dwells, rescaled so
/// its dwell-weighted mean gap (`mean_gap_cycles`) lands on the target.
fn mmpp_at(target_gap_cycles: u64) -> ArrivalProcess {
    let shaped = |scale: f64| ArrivalProcess::Mmpp {
        calm_gap_cycles: (((target_gap_cycles * 4) as f64 * scale) as u64).max(1),
        burst_gap_cycles: (((target_gap_cycles / 2).max(1) as f64 * scale) as u64).max(1),
        calm_dwell_cycles: 200_000,
        burst_dwell_cycles: 200_000,
    };
    let effective = shaped(1.0).mean_gap_cycles().max(1);
    shaped(target_gap_cycles as f64 / effective as f64)
}

/// Open-loop sweep point: offered rate = `pct` % of `capacity_rate`
/// (ops/cycle machine-wide), split evenly across the callers.
fn overload_config(pct: u64, capacity_rate: f64) -> SimConfig {
    let per_caller_rate = capacity_rate * (pct as f64 / 100.0) / CALLERS as f64;
    let target_gap = (1.0 / per_caller_rate).max(1.0) as u64;
    let load = OpenLoad::new(
        call_template(),
        mmpp_at(target_gap),
        SEED ^ pct,
        WINDOW_CYCLES,
    )
    .with_service(ServiceDist::Exponential {
        mean_cycles: SERVICE_MEAN_CYCLES,
    })
    .with_deadline_budget(BUDGET_CYCLES);
    machine(vec![WorkloadSpec::Open(load); CALLERS])
}

#[test]
fn mmpp_axis_hits_its_target_rate() {
    for target in [1_000u64, 5_000, 40_000] {
        let got = mmpp_at(target).mean_gap_cycles();
        let err = got.abs_diff(target) as f64 / target as f64;
        assert!(err < 0.25, "target {target}, effective {got}");
    }
}

#[test]
fn sweep_through_measured_saturation_conserves_sheds_and_holds_goodput() {
    let sat = run(&saturation_config(500));
    let capacity_rate = sat.counters.total_calls() as f64 / sat.duration_cycles as f64;

    let sweep = [50, 100, 200].map(|pct| (pct, run(&overload_config(pct, capacity_rate))));
    for (pct, r) in &sweep {
        assert!(r.counters.offered > 0, "{pct}%: generator offered nothing");
        assert!(r.counters.conserves(), "{pct}%: {:?}", r.counters.ledger());
    }

    // At 2× sustained overload shedding protects goodput rather than
    // collapsing it, and admitted calls stay within the budget's reach.
    let (_, top) = &sweep[2];
    let c = &top.counters;
    assert!(c.ops_shed > 0, "2x overload must shed");
    let goodput_rate = c.total_calls() as f64 / top.duration_cycles as f64;
    assert!(
        goodput_rate >= 0.70 * capacity_rate,
        "goodput {goodput_rate:.6} ops/cycle under 70% of capacity {capacity_rate:.6}"
    );
    let p99 = c.sojourn_quantile_cycles(99);
    assert!(p99 > 0 && p99 <= P99_CEILING_CYCLES, "p99 sojourn {p99}");

    // Pinned digest of the 2× point. A PR that deliberately changes the
    // model re-pins it once and says so.
    assert_eq!(
        (c.ledger(), top.duration_cycles),
        (
            Ledger {
                offered: 149_870,
                completed: 66_648,
                shed: 80_766,
                abandoned: 2_456,
                refused: 0,
            },
            4_007_532
        )
    );
}
