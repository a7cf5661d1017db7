//! Pure multi-enclave fleet scheduling: one worker budget, M tenants.
//!
//! The fleet is this repository's extension of the paper's one-enclave
//! runtime to M enclaves (*tenants*) sharing one untrusted worker
//! budget. Each tenant is a **bulkhead fault domain**: it keeps its own
//! supervisor, guards, overload gate, recovery journal and scheduler —
//! the paper's wasted-cycle argmin `U = F·T_es + M·T` runs once per
//! shard, inside its enclave, and picks how many of the shard's capped
//! workers to run. This module only sets those caps, by three rules:
//!
//! * **Fair share** — every shard is seeded with `budget / M` workers
//!   (at least 1, at most the shard ceiling `policy.max_workers`), so a
//!   noisy neighbour can never annex another shard's workers.
//! * **Containment** — a [`TenantVerdict`] lattice folds one interval of
//!   a shard's supervision/guard/recovery signals into one ordered
//!   judgement. A [`TenantVerdict::Faulty`] shard is held to one worker
//!   while its interval's verdict is `Faulty` and gets its share back
//!   after a clean one. No other shard's cap depends on that verdict:
//!   containment charges the offender only.
//! * **No decision, no move** — a shard whose scheduler has not decided
//!   yet keeps the cap it has.
//!
//! [`FleetSnapshot`] extends the runtime conservation contracts
//! (`offered == completed + shed + abandoned + refused`) to the fleet:
//! it checks the identity on every tenant's own books, which is also
//! what makes the fleet-wide totals balance.

use crate::policy::PolicyParams;
use crate::stats::Ledger;
use serde::{Deserialize, Serialize};

/// Worker crashes in one interval that mark a tenant
/// [`TenantVerdict::Suspect`].
pub const CRASH_SUSPECT_THRESHOLD: u64 = 3;

/// Parameters of the fleet allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetParams {
    /// Shared machine constants; the fleet reads the per-shard worker
    /// ceiling `max_workers`. One machine hosts the whole fleet, so these
    /// are fleet-wide.
    pub policy: PolicyParams,
    /// Global worker budget shared by all shards (the machine's
    /// busy-wait capacity, e.g. `N/2` cores).
    pub budget: usize,
}

impl FleetParams {
    /// Fleet parameters for a machine (`budget` workers shared by all
    /// tenants).
    #[must_use]
    pub fn new(policy: PolicyParams, budget: usize) -> Self {
        FleetParams {
            policy,
            budget: budget.max(1),
        }
    }

    /// Each of `tenants` shards' fair share of the budget: `budget /
    /// tenants`, at least 1, at most the shard ceiling.
    fn share(&self, tenants: usize) -> usize {
        (self.budget / tenants.max(1)).clamp(1, self.policy.max_workers.max(1))
    }
}

/// Ordered verdict on one tenant's behaviour, derived from its shard's
/// robustness planes. Forms a join-semilattice under
/// [`TenantVerdict::join`] (worst evidence wins), so independent signal
/// sources can be combined without ordering concerns.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum TenantVerdict {
    /// No adverse signals.
    #[default]
    Healthy,
    /// Crash-looping (workers or whole enclave): reported; its cap stays
    /// the fair share, which already bounds what respawn churn can take.
    Suspect,
    /// Byzantine evidence (guard violations): held to one worker —
    /// blast-radius containment while its shard-local guards and
    /// supervisor deal with the hostile host.
    Faulty,
}

impl TenantVerdict {
    /// All verdicts in lattice order.
    pub const ALL: [TenantVerdict; 3] = [
        TenantVerdict::Healthy,
        TenantVerdict::Suspect,
        TenantVerdict::Faulty,
    ];

    /// Least upper bound: the worse of the two verdicts.
    #[must_use]
    pub fn join(self, other: TenantVerdict) -> TenantVerdict {
        self.max(other)
    }
}

/// Per-interval robustness signals from one tenant's shard, gathered
/// from its supervisor, guards and recovery plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSignals {
    /// Trusted-side guard violations (Byzantine evidence).
    pub guard_violations: u64,
    /// Worker crashes/hangs charged by the shard supervisor.
    pub worker_crashes: u64,
    /// Whole-enclave losses handled by the recovery plane.
    pub enclave_crashes: u64,
}

impl TenantSignals {
    /// Fold the signals into one verdict (worst evidence wins).
    #[must_use]
    pub fn verdict(&self) -> TenantVerdict {
        let mut v = TenantVerdict::Healthy;
        if self.enclave_crashes > 0 || self.worker_crashes >= CRASH_SUSPECT_THRESHOLD {
            v = v.join(TenantVerdict::Suspect);
        }
        if self.guard_violations > 0 {
            v = v.join(TenantVerdict::Faulty);
        }
        v
    }
}

/// One tenant as the allocator sees it at a decision point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantDemand {
    /// The tenant's verdict for the interval.
    pub verdict: TenantVerdict,
}

impl TenantDemand {
    /// A healthy tenant. All three arguments are ignored: a shim for the
    /// frozen `benchmark/src/layers.rs` (weight, offered load and demand
    /// curve fed the fleet-level argmin, which is gone).
    #[must_use]
    pub fn new(_weight: u64, _offered: u64, _probes: Vec<u64>) -> Self {
        TenantDemand::default()
    }
}

/// The record of one fleet decision: caps and verdicts, kept for
/// observability (mirrors the per-shard `DecisionRecord`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetDecision {
    /// Per-tenant caps: the fair share, or 1 for a `Faulty` tenant.
    pub caps: Vec<usize>,
    /// Verdict each tenant was judged under.
    pub verdicts: Vec<TenantVerdict>,
}

/// The fleet's cap rule as one call per scheduling interval: every
/// tenant's cap is its fair share of the budget, or 1 while its verdict
/// is [`TenantVerdict::Faulty`].
#[derive(Debug, Clone)]
pub struct FleetAllocator {
    params: FleetParams,
    decisions: u64,
}

impl FleetAllocator {
    /// Allocator under `params`. The tenant count is ignored — each
    /// decision divides the budget among `demands.len()` tenants — a
    /// shim for the frozen `benchmark/src/layers.rs`.
    #[must_use]
    pub fn new(params: FleetParams, _tenants: usize) -> Self {
        FleetAllocator {
            params,
            decisions: 0,
        }
    }

    /// Run one fleet decision over the tenants' verdicts.
    pub fn decide(&mut self, demands: &[TenantDemand]) -> FleetDecision {
        let share = self.params.share(demands.len());
        self.decisions += 1;
        FleetDecision {
            caps: demands
                .iter()
                .map(|d| match d.verdict {
                    TenantVerdict::Faulty => 1,
                    TenantVerdict::Healthy | TenantVerdict::Suspect => share,
                })
                .collect(),
            verdicts: demands.iter().map(|d| d.verdict).collect(),
        }
    }
}

/// Cumulative counters a fleet host reads off one shard at a rebalance.
/// The controller judges the *interval* since the previous reading: a
/// tenant that was Byzantine an hour ago is judged on its clean present.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTotals {
    /// Trusted-side guard violations.
    pub guard_violations: u64,
    /// Worker crashes and hangs the shard's supervision dealt with.
    pub worker_faults: u64,
    /// Whole-enclave losses.
    pub enclave_crashes: u64,
}

/// What the [`FleetController`] reads off one shard at a rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEvidence {
    /// The shard's cumulative counters as of now.
    pub totals: ShardTotals,
    /// Whether the shard's scheduler has completed a decision yet.
    pub decided: bool,
    /// The worker cap the shard currently runs under.
    pub cap: usize,
}

/// One shard's cap moving as the result of a fleet decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapChange {
    /// Shard (tenant) index.
    pub shard: usize,
    /// Cap before the decision.
    pub from: usize,
    /// Cap to apply.
    pub to: usize,
}

/// The caps that grow in a rebalance. The value only exists once every
/// shrinking cap has been handed out ([`FleetController::decide`]); the
/// host applies it after its donors have quiesced, so a moving worker
/// never counts against two shards and `Σ running ≤ budget` holds
/// mid-migration.
#[derive(Debug)]
#[must_use = "receivers keep their old caps until `raise` is called"]
pub struct PendingRaises(Vec<CapChange>);

impl PendingRaises {
    /// No cap grows in this rebalance.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Hand out the raises, in shard order.
    pub fn raise(self, apply: impl FnMut(CapChange)) {
        self.0.into_iter().for_each(apply);
    }
}

/// The fleet's control loop, hosted by the DES allocator actor: seed
/// caps, per-shard interval baselines, evidence → [`TenantSignals`] →
/// [`FleetAllocator::decide`], and the cap changes in
/// quiesce-and-migrate order. A host only reads its shards' counters,
/// applies caps and waits in its own notion of time.
#[derive(Debug, Clone)]
pub struct FleetController {
    allocator: FleetAllocator,
    /// Each shard's totals at the previous decision.
    seen: Vec<ShardTotals>,
}

impl FleetController {
    /// Controller for `shards` shards.
    #[must_use]
    pub fn new(params: FleetParams, shards: usize) -> Self {
        FleetController {
            allocator: FleetAllocator::new(params, shards),
            seen: vec![ShardTotals::default(); shards],
        }
    }

    /// Decisions taken so far.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.allocator.decisions
    }

    /// Caps to start the shards under: each shard's fair share.
    #[must_use]
    pub fn seed_caps(&self) -> Vec<usize> {
        let shards = self.seen.len();
        vec![self.allocator.params.share(shards); shards]
    }

    /// Run one fleet decision over the shards' `evidence` (in shard
    /// order). A shard that has decided moves to its
    /// [`FleetDecision::caps`] entry; one that has not keeps its cap.
    /// Caps that shrink are handed to `lower` before this returns; the
    /// caps that grow come back as [`PendingRaises`].
    pub fn decide(
        &mut self,
        evidence: &[ShardEvidence],
        lower: impl FnMut(CapChange),
    ) -> (FleetDecision, PendingRaises) {
        let demands: Vec<TenantDemand> = evidence
            .iter()
            .zip(&mut self.seen)
            .map(|(e, seen)| {
                let (now, was) = (e.totals, std::mem::replace(seen, e.totals));
                let signals = TenantSignals {
                    guard_violations: now.guard_violations.saturating_sub(was.guard_violations),
                    worker_crashes: now.worker_faults.saturating_sub(was.worker_faults),
                    enclave_crashes: now.enclave_crashes.saturating_sub(was.enclave_crashes),
                };
                TenantDemand {
                    verdict: signals.verdict(),
                }
            })
            .collect();
        let decision = self.allocator.decide(&demands);
        let (lowers, raises): (Vec<CapChange>, Vec<CapChange>) = evidence
            .iter()
            .zip(&decision.caps)
            .enumerate()
            .map(|(shard, (e, &cap))| CapChange {
                shard,
                from: e.cap,
                to: if e.decided { cap } else { e.cap },
            })
            .filter(|c| c.to != c.from)
            .partition(|c| c.to < c.from);
        lowers.into_iter().for_each(lower);
        (decision, PendingRaises(raises))
    }
}

/// A fleet-accounting violation found by [`FleetSnapshot::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAccountingError {
    /// One tenant's own books do not balance.
    TenantImbalance {
        /// Offending tenant index.
        tenant: usize,
        /// Its offered count.
        offered: u64,
        /// `completed + shed + abandoned + refused`.
        accounted: u64,
    },
}

impl std::fmt::Display for FleetAccountingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let FleetAccountingError::TenantImbalance {
            tenant,
            offered,
            accounted,
        } = self;
        write!(
            f,
            "tenant {tenant} books do not balance: offered {offered} != accounted {accounted}"
        )
    }
}

/// The fleet-wide conservation snapshot: every tenant's own books, as
/// each shard counted them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// One ledger row per tenant, by tenant index.
    pub tenants: Vec<Ledger>,
}

impl FleetSnapshot {
    /// Snapshot of the given per-tenant books.
    #[must_use]
    pub fn from_tenants(tenants: Vec<Ledger>) -> Self {
        FleetSnapshot { tenants }
    }

    /// The first tenant whose [`Ledger::conserves`] fails; kept for the frozen `benchmark/src/des.rs`.
    /// Balanced rows sum to a balanced fleet row; a call booked in full on
    /// the wrong tenant is invisible here (each shard counts only its own).
    pub fn check(&self) -> Result<(), FleetAccountingError> {
        match self
            .tenants
            .iter()
            .enumerate()
            .find(|(_, t)| !t.conserves())
        {
            None => Ok(()),
            Some((tenant, t)) => Err(FleetAccountingError::TenantImbalance {
                tenant,
                offered: t.offered,
                accounted: t.accounted(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuSpec;

    fn params(budget: usize) -> FleetParams {
        FleetParams::new(PolicyParams::from_cpu(&CpuSpec::paper_machine()), budget)
    }

    fn judged(verdicts: &[TenantVerdict]) -> Vec<TenantDemand> {
        verdicts
            .iter()
            .map(|&verdict| TenantDemand { verdict })
            .collect()
    }

    #[test]
    fn verdict_lattice_is_ordered_join() {
        use TenantVerdict::*;
        assert!(Healthy < Suspect && Suspect < Faulty);
        for a in TenantVerdict::ALL {
            for b in TenantVerdict::ALL {
                assert_eq!(a.join(b), b.join(a), "commutative");
                assert_eq!(a.join(a), a, "idempotent");
                assert!(a.join(b) >= a && a.join(b) >= b, "upper bound");
            }
        }
    }

    #[test]
    fn signals_fold_to_worst_evidence() {
        let mut s = TenantSignals::default();
        assert_eq!(s.verdict(), TenantVerdict::Healthy);
        s.enclave_crashes = 1;
        assert_eq!(s.verdict(), TenantVerdict::Suspect);
        s.guard_violations = 1;
        assert_eq!(s.verdict(), TenantVerdict::Faulty);
    }

    #[test]
    fn share_is_budget_over_tenants_within_floor_and_ceiling() {
        let p = params(8);
        let ceiling = p.policy.max_workers;
        assert_eq!(p.share(4), 2);
        assert_eq!(p.share(3), 2, "rounded down");
        assert_eq!(p.share(16), 1, "never below one worker");
        assert_eq!(params(1_000).share(1), ceiling, "never above the ceiling");
        let demands = vec![TenantDemand::new(7, 0, vec![9, 8]); 4];
        assert!(demands.iter().all(|d| d.verdict == TenantVerdict::Healthy));
        assert_eq!(FleetAllocator::new(p, 99).decide(&demands).caps, [2; 4]);
    }

    #[test]
    fn only_a_faulty_tenant_is_held_to_one_worker() {
        use TenantVerdict::*;
        let mut alloc = FleetAllocator::new(params(12), 3);
        let d = alloc.decide(&judged(&[Faulty, Healthy, Suspect]));
        assert_eq!(d.caps, [1, 4, 4]);
        assert_eq!(d.verdicts, [Faulty, Healthy, Suspect]);
        let clean = alloc.decide(&judged(&[Healthy; 3]));
        assert_eq!(clean.caps, [4; 3], "a clean interval restores the share");
        assert_eq!(alloc.decisions, 2);
    }

    #[test]
    fn snapshot_balances_and_names_the_unbalanced_tenant() {
        let t0 = Ledger {
            offered: 100,
            completed: 90,
            shed: 6,
            abandoned: 3,
            refused: 1,
        };
        let t1 = Ledger {
            offered: 50,
            completed: 50,
            ..Ledger::default()
        };
        let snap = FleetSnapshot::from_tenants(vec![t0, t1]);
        assert_eq!(snap.check(), Ok(()));

        // A tenant whose books do not balance.
        let mut bad = snap.clone();
        bad.tenants[1].completed -= 1;
        assert_eq!(
            bad.check(),
            Err(FleetAccountingError::TenantImbalance {
                tenant: 1,
                offered: 50,
                accounted: 49,
            })
        );
    }
}
