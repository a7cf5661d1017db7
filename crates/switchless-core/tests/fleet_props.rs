//! Property tests of the fleet allocator's fairness invariants: for
//! arbitrary tenant weights, traffic mixes, probe vectors and verdicts,
//! no tenant with nonzero offered load is ever allocated below its
//! floor (budget permitting), the budget is never exceeded, and
//! decisions are a deterministic function of the inputs — through the
//! pure allocator and through the [`FleetController`] the DES fleet
//! host runs (every shard at weight 1), which must also hand out every
//! lower before any raise.

use proptest::prelude::*;
use switchless_core::cpu::CpuSpec;
use switchless_core::fleet::allocate;
use switchless_core::policy::{DecisionRecord, MicroQuantumReport, PolicyParams};
use switchless_core::{
    CapChange, FleetAllocator, FleetController, FleetDecision, FleetParams, ShardEvidence,
    ShardTotals, TenantDemand, TenantVerdict,
};

fn fleet_params(budget: usize) -> FleetParams {
    FleetParams::new(PolicyParams::from_cpu(&CpuSpec::paper_machine()), budget)
}

/// Raw generated tenant: (weight, offered, probes, verdict index).
type RawTenant = (u64, u64, Vec<u64>, u8);

fn arb_fleet() -> impl Strategy<Value = Vec<RawTenant>> {
    prop::collection::vec(
        (
            1u64..1_000,
            0u64..1_000_000,
            prop::collection::vec(0u64..1_000_000, 0..8),
            0u8..3,
        ),
        1..8,
    )
}

fn demands_from(raw: &[RawTenant]) -> Vec<TenantDemand> {
    raw.iter()
        .map(|(weight, offered, probes, v)| {
            TenantDemand::new(*weight, *offered, probes.clone())
                .with_verdict(TenantVerdict::ALL[*v as usize % TenantVerdict::ALL.len()])
        })
        .collect()
}

/// A shard scheduler's decision that measured `fallbacks[m]` fallbacks
/// per micro-quantum at `m` workers.
fn measured(fallbacks: &[u64]) -> DecisionRecord {
    DecisionRecord {
        chosen_workers: 0,
        probes: fallbacks
            .iter()
            .enumerate()
            .map(|(workers, &fallbacks)| MicroQuantumReport { workers, fallbacks })
            .collect(),
        costs: Vec::new(),
    }
}

/// The same generated fleet as first-interval evidence: the probe
/// vector as the shard's measured curve, the verdict as the signal that
/// produces it.
fn evidence_from(raw: &[RawTenant]) -> Vec<ShardEvidence> {
    raw.iter()
        .map(|(_, offered, probes, v)| {
            let verdict = TenantVerdict::ALL[*v as usize % TenantVerdict::ALL.len()];
            ShardEvidence {
                totals: ShardTotals {
                    offered: *offered,
                    guard_violations: u64::from(verdict == TenantVerdict::Faulty),
                    enclave_crashes: u64::from(verdict == TenantVerdict::Suspect),
                    ..ShardTotals::default()
                },
                last_decision: Some(measured(probes)),
                cap: 1,
            }
        })
        .collect()
}

/// One controller decision over `raw`: the decision, the lowers in the
/// order they were handed out, and the raises.
fn controller_decide(
    raw: &[RawTenant],
    budget: usize,
) -> (FleetDecision, Vec<CapChange>, Vec<CapChange>) {
    let mut controller = FleetController::new(fleet_params(budget), raw.len());
    let (mut lowers, mut raises) = (Vec::new(), Vec::new());
    let (decision, pending) = controller.decide(&evidence_from(raw), |c| lowers.push(c));
    pending.raise(|c| raises.push(c));
    (decision, lowers, raises)
}

/// Two controller decisions over scripted shard evidence: every change
/// is judged on its own interval, lowers are handed out before the
/// raises exist, and applying the changes in hand-out order never lifts
/// the fleet's summed caps above where the decision ends up.
#[test]
fn controller_hands_out_every_lower_before_any_raise() {
    let hungry = measured(&[500, 300, 150, 50, 0]);
    let sated = measured(&[0; 5]);
    let mut controller = FleetController::new(fleet_params(8), 3);
    let mut caps = controller.seed_caps();
    assert_eq!(caps, [2, 2, 2]);
    let shard = |offered, guard_violations, curve: &DecisionRecord, cap| ShardEvidence {
        totals: ShardTotals {
            offered,
            guard_violations,
            ..ShardTotals::default()
        },
        last_decision: Some(curve.clone()),
        cap,
    };
    // (verdict of shard 2, shards lowered, shards raised) per decision:
    // first the Byzantine shard 2 and the sated shard 1 give way to the
    // hungry shard 0, then shard 0 — sated now — gives way to shard 2,
    // whose three guard violations are an interval old.
    let script = [
        (
            [&hungry, &sated, &hungry],
            TenantVerdict::Faulty,
            vec![1, 2],
            vec![0],
        ),
        (
            [&sated, &sated, &hungry],
            TenantVerdict::Healthy,
            vec![0],
            vec![2],
        ),
    ];
    for (round, (curves, verdict, lowered, raised)) in script.into_iter().enumerate() {
        let offered = 1_000 * (round as u64 + 1);
        let evidence: Vec<ShardEvidence> = (0..3)
            .map(|t| shard(offered, if t == 2 { 3 } else { 0 }, curves[t], caps[t]))
            .collect();
        let mut log = Vec::new();
        let (decision, pending) = controller.decide(&evidence, |c| log.push(c));
        assert_eq!(decision.verdicts[2], verdict, "round {round}");
        assert_eq!(log.iter().map(|c| c.shard).collect::<Vec<_>>(), lowered);
        assert!(log.iter().all(|c| c.to < c.from), "{log:?}");
        assert_eq!(pending.is_empty(), raised.is_empty());
        pending.raise(|c| log.push(c));
        assert_eq!(
            log[lowered.len()..]
                .iter()
                .map(|c| c.shard)
                .collect::<Vec<_>>(),
            raised
        );
        let ceiling = caps
            .iter()
            .sum::<usize>()
            .max(decision.assigned.iter().map(|m| (*m).max(1)).sum());
        for c in log {
            assert_eq!(caps[c.shard], c.from);
            caps[c.shard] = c.to;
            assert!(caps.iter().sum::<usize>() <= ceiling, "{caps:?}");
        }
    }
    assert_eq!(controller.decisions(), 2);
}

proptest! {
    /// The assignment never exceeds the budget, never exceeds the
    /// per-shard ceiling, and never lifts a Byzantine tenant above the
    /// containment floor.
    #[test]
    fn budget_and_caps_always_hold(raw in arb_fleet(), budget in 1usize..16) {
        let demands = demands_from(&raw);
        let p = fleet_params(budget);
        let a = allocate(&demands, &p);
        prop_assert_eq!(a.len(), demands.len());
        prop_assert!(a.iter().sum::<usize>() <= p.budget);
        for (t, d) in demands.iter().enumerate() {
            prop_assert!(a[t] <= p.policy.max_workers);
            if d.verdict == TenantVerdict::Faulty {
                prop_assert!(a[t] <= usize::from(d.offered > 0),
                    "faulty tenant {} above floor: {:?}", t, a);
            }
        }
        let (decision, lowers, raises) = controller_decide(&raw, budget);
        prop_assert!(decision.assigned.iter().sum::<usize>() <= p.budget);
        for (t, d) in demands.iter().enumerate() {
            prop_assert_eq!(decision.verdicts[t], d.verdict);
            prop_assert!(decision.assigned[t] <= decision.caps[t]);
            prop_assert!(decision.caps[t] <= p.policy.max_workers);
        }
        // Every shard started at cap 1 and none is ever handed less.
        prop_assert!(lowers.is_empty(), "{:?}", lowers);
        for c in &raises {
            prop_assert_eq!(c.to, decision.assigned[c.shard]);
        }
    }

    /// Fairness floor: when the budget covers every tenant with
    /// nonzero offered load, each such tenant is allocated at least
    /// one worker — regardless of its weight, its neighbours' demand
    /// or anyone's verdict.
    #[test]
    fn floor_never_violated_under_sufficient_budget(raw in arb_fleet()) {
        let demands = demands_from(&raw);
        let eligible = demands.iter().filter(|d| d.offered > 0).count();
        let p = fleet_params(eligible.max(1));
        let a = allocate(&demands, &p);
        for (t, d) in demands.iter().enumerate() {
            if d.offered > 0 {
                prop_assert!(a[t] >= 1, "tenant {} starved below floor: {:?}", t, a);
            }
        }
        let (decision, ..) = controller_decide(&raw, p.budget);
        for (t, d) in demands.iter().enumerate() {
            if d.offered > 0 {
                prop_assert!(decision.assigned[t] >= 1,
                    "tenant {} starved by the controller: {:?}", t, decision.assigned);
            }
        }
    }

    /// Same input ⇒ same assignment: the pure allocator and a fresh
    /// stateful allocator agree with themselves across repeated calls
    /// on identical snapshots.
    #[test]
    fn allocation_is_deterministic(raw in arb_fleet(), budget in 1usize..16) {
        let demands = demands_from(&raw);
        let p = fleet_params(budget);
        let a = allocate(&demands, &p);
        for _ in 0..3 {
            prop_assert_eq!(allocate(&demands, &p), a.clone());
        }
        let d1 = FleetAllocator::new(p, demands.len()).decide(&demands);
        let d2 = FleetAllocator::new(p, demands.len()).decide(&demands);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(controller_decide(&raw, budget), controller_decide(&raw, budget));
    }

    /// A misbehaving tenant's verdict cap never changes what a
    /// well-behaved tenant would have received had the offender simply
    /// demanded nothing beyond its cap — containment is charged to the
    /// offending shard only.
    #[test]
    fn containment_charges_only_the_offender(raw in arb_fleet(), budget in 2usize..16) {
        if raw.len() < 2 {
            return Ok(());
        }
        let mut demands = demands_from(&raw);
        let p = fleet_params(budget);
        // Make tenant 0 Byzantine with nonzero demand.
        demands[0].verdict = TenantVerdict::Faulty;
        demands[0].offered = demands[0].offered.max(1);
        let capped = allocate(&demands, &p);
        // Replace the offender with a tenant that demands exactly the
        // floor it was contained to.
        let mut quiet = demands.clone();
        quiet[0] = TenantDemand::new(demands[0].weight, demands[0].offered, vec![0]);
        let solo = allocate(&quiet, &p);
        prop_assert_eq!(&capped[1..], &solo[1..],
            "honest tenants' allocations changed under containment");
    }
}
