//! Property tests of the fleet's cap rule: for arbitrary fleets of
//! verdicts, decided flags and current caps, no shard's cap is ever
//! below one worker or above the shard ceiling, a decided fleet's caps
//! fit the budget whenever the budget covers one worker per shard,
//! decisions are a deterministic function of the inputs, and a `Faulty`
//! verdict moves no cap but the offender's — through the pure
//! [`FleetAllocator`] and through the [`FleetController`] the DES fleet
//! host runs, which must also hand out every lower before any raise.

use proptest::prelude::*;
use switchless_core::cpu::CpuSpec;
use switchless_core::policy::PolicyParams;
use switchless_core::{
    FleetAllocator, FleetController, FleetDecision, FleetParams, ShardEvidence, ShardTotals,
    TenantDemand, TenantVerdict,
};

fn fleet_params(budget: usize) -> FleetParams {
    FleetParams::new(PolicyParams::from_cpu(&CpuSpec::paper_machine()), budget)
}

/// Raw generated shard: (verdict index, decided, current cap).
type RawShard = (u8, bool, usize);

fn arb_fleet() -> impl Strategy<Value = Vec<RawShard>> {
    prop::collection::vec((0u8..3, any::<bool>(), 1usize..8), 1..8)
}

fn verdict_of(v: u8) -> TenantVerdict {
    TenantVerdict::ALL[v as usize % TenantVerdict::ALL.len()]
}

fn demands_from(raw: &[RawShard]) -> Vec<TenantDemand> {
    raw.iter()
        .map(|&(v, ..)| TenantDemand {
            verdict: verdict_of(v),
        })
        .collect()
}

/// The same generated fleet as first-interval evidence: the verdict as
/// the signal that produces it.
fn evidence_from(raw: &[RawShard]) -> Vec<ShardEvidence> {
    raw.iter()
        .map(|&(v, decided, cap)| {
            let verdict = verdict_of(v);
            ShardEvidence {
                totals: ShardTotals {
                    guard_violations: u64::from(verdict == TenantVerdict::Faulty),
                    enclave_crashes: u64::from(verdict == TenantVerdict::Suspect),
                    ..ShardTotals::default()
                },
                decided,
                cap,
            }
        })
        .collect()
}

/// One controller decision over `raw`: the decision and the caps after
/// its lowers and raises.
fn controller_decide(raw: &[RawShard], budget: usize) -> (FleetDecision, Vec<usize>) {
    let mut controller = FleetController::new(fleet_params(budget), raw.len());
    let mut caps: Vec<usize> = raw.iter().map(|&(_, _, cap)| cap).collect();
    let (decision, pending) = controller.decide(&evidence_from(raw), |c| caps[c.shard] = c.to);
    pending.raise(|c| caps[c.shard] = c.to);
    (decision, caps)
}

/// Two controller decisions over scripted shard evidence: a
/// guard-violation interval lowers the Byzantine shard to one worker,
/// the clean interval after it raises the shard back to its share, and
/// applying the changes in hand-out order never lifts the fleet's
/// summed caps above the budget.
#[test]
fn controller_hands_out_every_lower_before_any_raise() {
    let mut controller = FleetController::new(fleet_params(8), 3);
    let mut caps = controller.seed_caps();
    assert_eq!(caps, [2, 2, 2]);
    // (shard 2's cumulative guard violations, its verdict, shards
    // lowered, shards raised) per decision: the second reading repeats
    // the first's three violations, so its interval is clean.
    let script = [
        (3, TenantVerdict::Faulty, vec![2], vec![]),
        (3, TenantVerdict::Healthy, vec![], vec![2]),
    ];
    for (round, (violations, verdict, lowered, raised)) in script.into_iter().enumerate() {
        let evidence: Vec<ShardEvidence> = (0..3)
            .map(|t| ShardEvidence {
                totals: ShardTotals {
                    guard_violations: if t == 2 { violations } else { 0 },
                    ..ShardTotals::default()
                },
                decided: true,
                cap: caps[t],
            })
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
        for c in log {
            assert_eq!(caps[c.shard], c.from);
            caps[c.shard] = c.to;
            assert!(caps.iter().sum::<usize>() <= 8, "{caps:?}");
        }
        assert_eq!(caps, decision.caps, "round {round}");
    }
    assert_eq!(caps, [2, 2, 2]);
    assert_eq!(controller.decisions(), 2);
}

proptest! {
    /// Every cap lies between the one-worker floor and the shard
    /// ceiling; a `Faulty` tenant's cap is the floor; and when the budget
    /// covers one worker per tenant, the caps fit the budget. Through the
    /// controller, a decided shard ends at its decision's cap and an
    /// undecided one where it started.
    #[test]
    fn floor_ceiling_and_budget_always_hold(raw in arb_fleet(), budget in 1usize..32) {
        let demands = demands_from(&raw);
        let p = fleet_params(budget);
        let d = FleetAllocator::new(p, 0).decide(&demands);
        prop_assert_eq!(d.caps.len(), demands.len());
        for (t, dm) in demands.iter().enumerate() {
            prop_assert!((1..=p.policy.max_workers).contains(&d.caps[t]), "{:?}", d.caps);
            prop_assert_eq!(d.verdicts[t], dm.verdict);
            if dm.verdict == TenantVerdict::Faulty {
                prop_assert_eq!(d.caps[t], 1);
            }
        }
        if budget >= demands.len() {
            prop_assert!(d.caps.iter().sum::<usize>() <= budget, "{:?}", d.caps);
        }
        let (decision, caps) = controller_decide(&raw, budget);
        prop_assert_eq!(&decision, &d);
        for (t, &(_, decided, cap)) in raw.iter().enumerate() {
            prop_assert_eq!(caps[t], if decided { d.caps[t] } else { cap });
        }
    }

    /// Same input ⇒ same decision, from the pure allocator and from a
    /// fresh controller.
    #[test]
    fn decisions_are_deterministic(raw in arb_fleet(), budget in 1usize..32) {
        let demands = demands_from(&raw);
        let p = fleet_params(budget);
        let a = FleetAllocator::new(p, 0).decide(&demands);
        for _ in 0..3 {
            prop_assert_eq!(&FleetAllocator::new(p, 0).decide(&demands), &a);
        }
        prop_assert_eq!(controller_decide(&raw, budget), controller_decide(&raw, budget));
    }

    /// Judging tenant 0 `Faulty` changes no other tenant's cap:
    /// containment is charged to the offending shard only.
    #[test]
    fn containment_charges_only_the_offender(raw in arb_fleet(), budget in 1usize..32) {
        let mut byzantine = raw.clone();
        byzantine[0].0 = 2;
        let mut clean = raw;
        clean[0].0 = 0;
        let (contained, contained_caps) = controller_decide(&byzantine, budget);
        let (free, free_caps) = controller_decide(&clean, budget);
        prop_assert_eq!(contained.verdicts[0], TenantVerdict::Faulty);
        prop_assert_eq!(&contained.caps[1..], &free.caps[1..]);
        prop_assert_eq!(&contained_caps[1..], &free_caps[1..]);
    }
}
