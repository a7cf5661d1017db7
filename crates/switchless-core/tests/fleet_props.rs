//! Property tests of the fleet's cap rule: for arbitrary fleets of
//! verdicts and current caps, no shard's cap is ever below one worker or
//! above the shard ceiling, the caps fit the budget whenever the budget
//! covers one worker per shard — after every single cap change the
//! [`FleetController`] hands out, in whatever order a host applies them
//! — decisions are a deterministic function of the inputs, and a
//! `Faulty` verdict moves no cap but the offender's.

use proptest::prelude::*;
use switchless_core::cpu::CpuSpec;
use switchless_core::policy::PolicyParams;
use switchless_core::{
    CapChange, FleetAllocator, FleetController, FleetDecision, FleetParams, ShardEvidence,
    ShardTotals, SplitMix64, TenantDemand, TenantVerdict,
};

fn fleet_params(budget: usize) -> FleetParams {
    FleetParams::new(PolicyParams::from_cpu(&CpuSpec::paper_machine()), budget)
}

/// Raw generated shard: (verdict index, current cap).
type RawShard = (u8, usize);

fn arb_fleet() -> impl Strategy<Value = Vec<RawShard>> {
    prop::collection::vec((0u8..3, 1usize..8), 1..8)
}

fn verdict_of(v: u8) -> TenantVerdict {
    TenantVerdict::ALL[v as usize % TenantVerdict::ALL.len()]
}

/// Cumulative shard counters after one more interval judged `verdict`.
fn judged(mut totals: ShardTotals, verdict: TenantVerdict) -> ShardTotals {
    totals.guard_violations += u64::from(verdict == TenantVerdict::Faulty);
    totals.enclave_crashes += u64::from(verdict == TenantVerdict::Suspect);
    totals
}

fn demands_from(raw: &[RawShard]) -> Vec<TenantDemand> {
    raw.iter()
        .map(|&(v, _)| TenantDemand {
            verdict: verdict_of(v),
        })
        .collect()
}

/// The same generated fleet as first-interval evidence: the verdict as
/// the signal that produces it.
fn evidence_from(raw: &[RawShard]) -> Vec<ShardEvidence> {
    raw.iter()
        .map(|&(v, cap)| ShardEvidence {
            totals: judged(ShardTotals::default(), verdict_of(v)),
            cap,
        })
        .collect()
}

/// One controller decision over `raw`: the decision and the caps after
/// its changes.
fn controller_decide(raw: &[RawShard], budget: usize) -> (FleetDecision, Vec<usize>) {
    let mut controller = FleetController::new(fleet_params(budget), raw.len());
    let mut caps: Vec<usize> = raw.iter().map(|&(_, cap)| cap).collect();
    let decision = controller.decide(&evidence_from(raw), |c| caps[c.shard] = c.to);
    (decision, caps)
}

proptest! {
    /// Every cap lies between the one-worker floor and the shard
    /// ceiling; a `Faulty` tenant's cap is the floor; and when the budget
    /// covers one worker per tenant, the caps fit the budget. Through the
    /// controller, every shard ends at its decision's cap, wherever it
    /// started.
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
        prop_assert_eq!(&caps, &d.caps);
    }

    /// Over any run of intervals, the controller's cap changes can be
    /// applied one at a time in any order: after each one, every cap is 1
    /// or the fair share and the caps sum to at most the budget, so a
    /// host needs no quiesce between lowering one shard and raising
    /// another.
    #[test]
    fn caps_fit_the_budget_after_every_change_in_any_order(
        rounds in prop::collection::vec(prop::collection::vec(0u8..3, 8..9), 1..8),
        shards in 1usize..9,
        spare in 0usize..24,
        order_seed in any::<u64>(),
    ) {
        let budget = shards + spare;
        let mut controller = FleetController::new(fleet_params(budget), shards);
        let mut caps = controller.seed_caps();
        let share = caps[0];
        let mut totals = vec![ShardTotals::default(); shards];
        let mut order = SplitMix64::new(order_seed);
        for verdicts in rounds {
            let evidence: Vec<ShardEvidence> = (0..shards)
                .map(|t| {
                    totals[t] = judged(totals[t], verdict_of(verdicts[t]));
                    ShardEvidence { totals: totals[t], cap: caps[t] }
                })
                .collect();
            let mut changes: Vec<CapChange> = Vec::new();
            let decision = controller.decide(&evidence, |c| changes.push(c));
            // Fisher–Yates: any order a host might apply them in.
            for i in (1..changes.len()).rev() {
                changes.swap(i, order.next_below(i as u64 + 1) as usize);
            }
            for c in changes {
                prop_assert_eq!(caps[c.shard], c.from);
                caps[c.shard] = c.to;
                prop_assert!(caps.iter().all(|&cap| cap == 1 || cap == share), "{:?}", caps);
                prop_assert!(caps.iter().sum::<usize>() <= budget, "{:?} > {}", caps, budget);
            }
            prop_assert_eq!(&caps, &decision.caps);
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
        prop_assert_eq!(contained_caps[0], 1);
        prop_assert_eq!(&contained.caps[1..], &free.caps[1..]);
        prop_assert_eq!(&contained_caps[1..], &free_caps[1..]);
    }
}
