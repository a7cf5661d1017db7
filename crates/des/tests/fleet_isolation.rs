//! Noisy-neighbour isolation soak (the tentpole acceptance gate): a
//! well-behaved tenant shares one machine and one global worker budget
//! with three misbehaving neighbours —
//!
//! * a **hog** at ~4× its shard's saturation point, storming the
//!   fallback path and shedding on client-side deadlines;
//! * a **crash-looper** whose enclave is lost and restarted repeatedly;
//! * a **Byzantine** tenant whose host scribbles all six corruption
//!   kinds over its shard's shared state.
//!
//! Bulkheads must hold: the well-behaved tenant keeps ≥90% of its solo
//! goodput and its p99 sojourn within 2× of its solo baseline, every
//! tenant's ledger conserves exactly (per tenant and globally), and no
//! guard violation is ever charged to an innocent shard. Pinned to an
//! exact digest, and byte-identical across same-seed reruns.
//!
//! The run lasts three scheduler quanta (`Q` = 38 M cycles): shard
//! schedulers read their fleet cap at the first step boundary and
//! configuration-phase probes reach the fleet argmin from ≈ 46 M
//! cycles on. Anything shorter than one quantum decides once at
//! `t = 0`, before a single call is offered, and exercises no fleet
//! plane at all.

use switchless_core::fleet::TenantVerdict;
use switchless_core::Ledger;
use zc_des::arrival::{ArrivalProcess, ServiceDist};
use zc_des::fleet::{run_fleet, FleetReport, FleetSpec, TenantSimSpec};
use zc_des::ocall::CallDesc;
use zc_des::workload::{OpenLoad, WorkloadSpec};
use zc_des::ZcSimFaults;

const RUN_CYCLES: u64 = 120_000_000;
const CRASHLOOP_OPS: u64 = 24_000;
const BYZANTINE_OPS: u64 = 32_000;

fn call(host: u64) -> CallDesc {
    CallDesc {
        host_cycles: host,
        payload_bytes: 64,
        ret_bytes: 0,
        ..CallDesc::default()
    }
}

/// The well-behaved tenant: two open-loop callers at a comfortable
/// utilisation, generous deadline budget (it never sheds on its own).
fn good_tenant(seed: u64) -> TenantSimSpec {
    let load = OpenLoad::new(
        call(2_000),
        ArrivalProcess::Poisson {
            mean_gap_cycles: 60_000,
        },
        seed,
        RUN_CYCLES,
    )
    .with_service(ServiceDist::Exponential { mean_cycles: 1_500 })
    .with_deadline_budget(10_000_000);
    TenantSimSpec::new("good", vec![WorkloadSpec::Open(load); 2])
}

/// The hog: four open-loop callers whose arrivals outrun service by
/// roughly 4×, with a tight deadline budget — more concurrent callers
/// than the shard's fair-share worker cap, so it rides the fallback
/// path hard while shedding the queue it can never drain.
fn hog_tenant(seed: u64) -> TenantSimSpec {
    let load = OpenLoad::new(
        call(500),
        ArrivalProcess::Poisson {
            mean_gap_cycles: 1_500,
        },
        seed,
        RUN_CYCLES,
    )
    .with_service(ServiceDist::Exponential { mean_cycles: 2_000 })
    .with_deadline_budget(100_000);
    TenantSimSpec::new("hog", vec![WorkloadSpec::Open(load); 4])
}

/// The crash-looper: a closed-loop caller whose enclave is crashed and
/// restarted three times across the run.
fn crashloop_tenant() -> TenantSimSpec {
    TenantSimSpec::new(
        "crashloop",
        vec![WorkloadSpec::ClosedLoop {
            pattern: vec![call(500)],
            total_ops: CRASHLOOP_OPS,
        }],
    )
    .with_faults(
        ZcSimFaults::new()
            .crash_enclave_at_call(400)
            .crash_enclave_at_call(8_000)
            .crash_enclave_at_call(16_000)
            .with_enclave_restart_cycles(500_000),
    )
}

/// The Byzantine tenant: all six corruption kinds against its own
/// shard's shared words.
fn byzantine_tenant() -> TenantSimSpec {
    TenantSimSpec::new(
        "byzantine",
        vec![WorkloadSpec::ClosedLoop {
            pattern: vec![call(500)],
            total_ops: BYZANTINE_OPS,
        }],
    )
    .with_faults(
        ZcSimFaults::new()
            .flip_status_at(1_000_000, 0)
            .garbage_command_at(2_000_000, 1)
            .oversize_reply_at(3_000_000, 2)
            .undersize_reply_at(4_000_000, 3)
            .stale_seq_at(5_000_000, 0)
            .torn_request_at(6_000_000, 1)
            .with_respawn_delay(800_000)
            .with_watchdog_pauses(5_000),
    )
}

fn fleet_of(tenants: Vec<TenantSimSpec>) -> FleetSpec {
    FleetSpec::new(tenants, 1)
        .with_vcpus(40)
        .with_budget(8)
        .with_deadline(RUN_CYCLES * 4)
        // Re-divide the budget eight times per run so the soak exercises
        // repeated quiesce-and-migrate, not just the initial decision.
        .with_rebalance_interval(RUN_CYCLES / 8)
}

fn assert_isolated(solo: &FleetReport, noisy: &FleetReport) {
    // Exact conservation, per tenant and globally, in both runs.
    solo.snapshot().check().expect("solo conservation");
    noisy.snapshot().check().expect("noisy conservation");

    // The well-behaved tenant is tenant 0 in both runs.
    let g_solo = &solo.tenants[0].counters;
    let g_noisy = &noisy.tenants[0].counters;
    assert!(g_solo.offered > 500, "baseline must offer real load");

    // Goodput ≥ 90% of the solo baseline.
    let solo_ratio = g_solo.goodput_ratio();
    let noisy_ratio = g_noisy.goodput_ratio();
    assert!(
        noisy_ratio >= 0.9 * solo_ratio,
        "goodput collapsed under noisy neighbours: solo {solo_ratio:.3}, noisy {noisy_ratio:.3}"
    );

    // p99 sojourn within 2× of the solo baseline.
    let p99_solo = g_solo.sojourn_quantile_cycles(99);
    let p99_noisy = g_noisy.sojourn_quantile_cycles(99);
    assert!(p99_solo > 0, "baseline must record sojourns");
    assert!(
        p99_noisy <= 2 * p99_solo,
        "p99 sojourn blew past 2x baseline: solo {p99_solo}, noisy {p99_noisy}"
    );

    // Blast-radius: no guard violation charged to an innocent shard.
    assert_eq!(
        noisy.tenants[0].fault_recovery.guard_violations, 0,
        "good tenant charged with a neighbour's violations"
    );
    assert_eq!(noisy.tenants[1].fault_recovery.guard_violations, 0);
    assert_eq!(
        noisy.tenants[3].fault_recovery.guard_violations, 6,
        "all six Byzantine injections must be detected on the offending shard"
    );

    // The crash-looper crashed and recovered inside its own bulkhead.
    let crash = &noisy.tenants[2].fault_recovery;
    assert_eq!(crash.enclave_crashes, 3, "{crash:?}");
    assert_eq!(crash.enclave_restarts, 3, "{crash:?}");
    assert_eq!(crash.journal_live, 0, "{crash:?}");
    assert_eq!(
        noisy.tenants[0].fault_recovery.enclave_crashes, 0,
        "crash loop leaked out of its shard"
    );

    // Closed-loop neighbours still finish every call (contained ≠ starved).
    assert_eq!(noisy.tenants[2].counters.total_calls(), CRASHLOOP_OPS);
    assert_eq!(noisy.tenants[3].counters.total_calls(), BYZANTINE_OPS);

    // The allocator kept deciding after the shards' schedulers started
    // reading its caps, and judged each neighbour by its worst interval.
    assert!(solo.decisions >= 8, "solo: {} decisions", solo.decisions);
    assert!(noisy.decisions >= 8, "noisy: {} decisions", noisy.decisions);
    let verdicts: Vec<_> = noisy.tenants.iter().map(|t| t.worst_verdict).collect();
    assert_eq!(verdicts[0], TenantVerdict::Healthy, "{verdicts:?}");
    assert_eq!(verdicts[1], TenantVerdict::Healthy, "{verdicts:?}");
    assert_eq!(verdicts[2], TenantVerdict::Suspect, "{verdicts:?}");
    assert_eq!(verdicts[3], TenantVerdict::Faulty, "{verdicts:?}");
    // The hog never showed a curve that pays for more or fewer workers,
    // so it keeps its seed share of the budget, 8 / 4 tenants: a shard
    // without a decision of its own is not cut to the floor.
    assert_eq!(noisy.tenants[1].final_cap, 2, "hog");
}

/// Pinned digest: `(ledger, duration)` of the good tenant and the hog.
/// Virtual time only, so exact; a PR that deliberately changes the model
/// re-pins it once and says so.
fn assert_digest(noisy: &FleetReport, good: Ledger, hog: Ledger, duration_cycles: u64) {
    assert_eq!(noisy.tenants[0].counters.ledger(), good, "good tenant");
    assert_eq!(noisy.tenants[1].counters.ledger(), hog, "hog");
    assert_eq!(noisy.duration_cycles, duration_cycles);
}

fn run_scenario() -> (FleetReport, FleetReport) {
    let solo = run_fleet(&fleet_of(vec![good_tenant(11)]));
    let noisy = run_fleet(&fleet_of(vec![
        good_tenant(11),
        hog_tenant(22),
        crashloop_tenant(),
        byzantine_tenant(),
    ]));
    (solo, noisy)
}

#[test]
fn noisy_neighbours_cannot_break_isolation_on_cycle_accurate_kernel() {
    let (solo, noisy) = run_scenario();
    assert_isolated(&solo, &noisy);
    // The hog really is misbehaving: sheds heavily under its budget.
    assert!(
        noisy.tenants[1].counters.ops_shed > 0,
        "hog must shed: {:?}",
        noisy.tenants[1].counters.offered
    );
    assert_digest(
        &noisy,
        Ledger {
            offered: 4_063,
            completed: 4_063,
            shed: 0,
            abandoned: 0,
            refused: 0,
        },
        Ledger {
            offered: 320_407,
            completed: 89_951,
            shed: 230_205,
            abandoned: 251,
            refused: 0,
        },
        120_009_214,
    );
    assert_eq!(
        noisy.tenants[0].counters.sojourn_quantile_cycles(99),
        16_383
    );
}

#[test]
fn noisy_neighbour_soak_is_byte_identical_across_reruns() {
    let (_, a) = run_scenario();
    let (_, b) = run_scenario();
    assert_eq!(a.duration_cycles, b.duration_cycles);
    assert_eq!(a.decisions, b.decisions);
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.counters, tb.counters, "tenant {} diverged", ta.name);
        assert_eq!(ta.fault_recovery, tb.fault_recovery);
        assert_eq!(ta.final_cap, tb.final_cap);
        assert_eq!(ta.worst_verdict, tb.worst_verdict);
    }
}
