//! Pure multi-enclave fleet scheduling: one worker budget, M tenants.
//!
//! ROADMAP item 4 generalises the single-enclave runtime to M enclaves
//! (*tenants*) sharing one untrusted worker budget. Each tenant is a
//! **bulkhead fault domain**: it keeps its own supervisor, guards,
//! overload gate and recovery journal, and this module decides — purely,
//! deterministically — how many workers each tenant's shard may run.
//!
//! The allocator extends the paper's wasted-cycle objective across
//! pools. For an assignment `(m_1, …, m_M)` the global waste is
//!
//! ```text
//! U = Σ_t w_t · F_t(m_t) · T_es  +  (Σ_t m_t) · T
//! ```
//!
//! where `F_t(m)` is tenant `t`'s observed fallback count at `m`
//! workers (its shard's configuration-phase probe vector), `w_t` its
//! provisioned weight, and `T` the scheduling interval. [`allocate`]
//! minimises this greedily: starting from the fairness floor it gives
//! each next worker to the tenant whose marginal fallback saving most
//! exceeds the worker's interval cost. Because each additional worker
//! can only reduce a tenant's fallbacks by a diminishing amount in the
//! probe vectors the paper's scheduler produces, the greedy choice is
//! exact for concave savings and never worse than one worker per tenant
//! otherwise.
//!
//! Three robustness rules sit on top of the argmin:
//!
//! * **Fairness floor** — every tenant with nonzero offered load gets at
//!   least one worker (bounded by the budget), however noisy its
//!   neighbours: a starved shard would otherwise pay `T_es` on *every*
//!   call forever.
//! * **Verdict caps** — a [`TenantVerdict`] lattice folds each shard's
//!   supervision/guard/recovery signals into one ordered
//!   judgement; misbehaving tenants are capped (fair share when
//!   [`TenantVerdict::Suspect`], the floor when
//!   [`TenantVerdict::Faulty`]) so their demand cannot pull budget away
//!   from well-behaved shards. The cap charges the *offending* shard
//!   only — other tenants' allocations are computed as if the faulty
//!   tenant simply demanded less.
//! * **Anti-starvation escalation** — a stateful [`FleetAllocator`]
//!   watches for tenants pinned at the floor with unmet demand for
//!   [`DEFAULT_STARVATION_INTERVALS`] consecutive decisions and
//!   escalates their effective weight (doubling per escalation) until
//!   the argmin lifts them above the floor, so a low-weight tenant can
//!   be delayed but never starved indefinitely.
//!
//! [`FleetSnapshot`] extends the runtime conservation contracts
//! (`offered == completed + shed + abandoned + refused`) to the fleet:
//! it checks the identity on every tenant's own books, which is also
//! what makes the fleet-wide totals balance.

use crate::policy::{DecisionRecord, PolicyParams};
use serde::{Deserialize, Serialize};

/// Consecutive floor-pinned intervals before anti-starvation escalation
/// kicks in.
pub const DEFAULT_STARVATION_INTERVALS: u32 = 3;

/// Worker crashes in one interval that mark a tenant
/// [`TenantVerdict::Suspect`].
pub const CRASH_SUSPECT_THRESHOLD: u64 = 3;

/// Cap on anti-starvation weight doublings (2^16 ≫ any sane weight
/// ratio; the cap only bounds the shift).
const MAX_ESCALATION: u32 = 16;

/// Parameters of the fleet allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetParams {
    /// Shared machine constants (`T_es`, interval `T = quantum_cycles`,
    /// per-shard worker ceiling, fallback weight). One machine hosts
    /// the whole fleet, so these are fleet-wide.
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
}

/// Ordered verdict on one tenant's behaviour, derived from its shard's
/// robustness planes. Forms a join-semilattice under
/// [`TenantVerdict::join`] (worst evidence wins), so independent signal
/// sources can be combined without ordering concerns.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum TenantVerdict {
    /// No adverse signals; full access to the shared budget.
    #[default]
    Healthy,
    /// Crash-looping (workers or whole enclave): capped at its weighted
    /// fair share so respawn churn cannot annex surplus budget.
    Suspect,
    /// Byzantine evidence (guard violations): capped at the floor —
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

/// One tenant's demand as seen by the allocator at a decision point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantDemand {
    /// Provisioned weight (≥ 1; scales the tenant's fallback pain in
    /// the global objective).
    pub weight: u64,
    /// Calls the tenant offered in the last interval. A tenant with
    /// zero offered load has no floor claim and receives workers only
    /// if its probe vector still shows fallback savings.
    pub offered: u64,
    /// Observed fallback counts `F_t(m)` by worker count `m` (index),
    /// from the shard's latest configuration-phase probes. Missing
    /// entries extend with the last value (more workers cannot save
    /// more than the last probe showed).
    pub probes: Vec<u64>,
    /// The tenant's current behaviour verdict.
    pub verdict: TenantVerdict,
}

impl TenantDemand {
    /// Demand for a healthy tenant.
    #[must_use]
    pub fn new(weight: u64, offered: u64, probes: Vec<u64>) -> Self {
        TenantDemand {
            weight: weight.max(1),
            offered,
            probes,
            verdict: TenantVerdict::Healthy,
        }
    }

    /// Weight-1 demand measured by a shard's own scheduler: the
    /// fallbacks its latest configuration phase observed at each worker
    /// count during one micro-quantum, scaled up to the full quantum so
    /// the fleet objective weighs them against `T = quantum_cycles`.
    /// Before the first decision there is no probe data, and the
    /// interval's fallback count stands in as a flat curve — one that
    /// demands nothing beyond the fairness floor.
    #[must_use]
    pub fn from_probes(
        offered: u64,
        policy: &PolicyParams,
        last_decision: Option<&DecisionRecord>,
        interval_fallbacks: u64,
    ) -> Self {
        let probes = match last_decision {
            Some(d) => {
                let scale = (policy.quantum_cycles / policy.micro_quantum_cycles()).max(1);
                let mut curve = vec![0u64; policy.max_workers + 1];
                for p in &d.probes {
                    if let Some(slot) = curve.get_mut(p.workers) {
                        *slot = p.fallbacks.saturating_mul(scale);
                    }
                }
                curve
            }
            None => vec![interval_fallbacks],
        };
        TenantDemand::new(1, offered, probes)
    }

    /// Builder-style verdict override.
    #[must_use]
    pub fn with_verdict(mut self, verdict: TenantVerdict) -> Self {
        self.verdict = verdict;
        self
    }

    /// `F_t(m)`: fallbacks expected at `m` workers (probe vector with
    /// last-value extension; 0 when no probes exist).
    #[must_use]
    pub fn fallbacks_at(&self, m: usize) -> u64 {
        self.probes
            .get(m)
            .or(self.probes.last())
            .copied()
            .unwrap_or(0)
    }
}

/// The record of one fleet decision: assignment, caps and verdicts,
/// kept for observability (mirrors the per-shard `DecisionRecord`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetDecision {
    /// Workers assigned per tenant.
    pub assigned: Vec<usize>,
    /// Effective per-tenant caps after verdict containment.
    pub caps: Vec<usize>,
    /// Verdict each tenant was judged under.
    pub verdicts: Vec<TenantVerdict>,
}

/// A tenant's weighted fair share of the budget, `budget · weight /
/// Σ weights` (rounded down): the cap every shard is seeded with before
/// any demand is known, and the cap a `Suspect` tenant is held to.
fn fair_share(budget: usize, weight: u64, weight_sum: u64) -> usize {
    let share = (budget as u64).saturating_mul(weight) / weight_sum.max(1);
    usize::try_from(share).unwrap_or(usize::MAX)
}

/// Effective worker cap for one tenant under its verdict.
///
/// `Faulty` tenants are contained at the floor (1 if they offered load,
/// else 0); `Suspect` tenants at their weighted fair share; everyone
/// else at the shard ceiling (`policy.max_workers`).
#[must_use]
pub fn verdict_cap(demand: &TenantDemand, weight_sum: u64, params: &FleetParams) -> usize {
    let floor = usize::from(demand.offered > 0);
    let shard_max = params.policy.max_workers.max(1);
    match demand.verdict {
        TenantVerdict::Faulty => floor.min(shard_max),
        TenantVerdict::Suspect => fair_share(params.budget, demand.weight, weight_sum)
            .max(floor)
            .min(shard_max),
        TenantVerdict::Healthy => shard_max,
    }
}

/// Deterministic global worker assignment.
///
/// Guarantees, for any input:
///
/// * `Σ assigned ≤ params.budget` and `assigned[t] ≤ cap(t)` always;
/// * **floor**: if the budget covers every tenant with nonzero offered
///   load, each such tenant gets ≥ 1 worker (with a short budget, the
///   floors go to the lowest tenant ids — deterministic, and the fleet
///   runtimes size budgets ≥ tenant count);
/// * **determinism**: the output is a pure function of the inputs; ties
///   break towards the lower tenant id.
#[must_use]
pub fn allocate(demands: &[TenantDemand], params: &FleetParams) -> Vec<usize> {
    let n = demands.len();
    let mut assigned = vec![0usize; n];
    if n == 0 {
        return assigned;
    }
    let weight_sum: u64 = demands.iter().map(|d| d.weight.max(1)).sum();
    let caps: Vec<usize> = demands
        .iter()
        .map(|d| verdict_cap(d, weight_sum, params))
        .collect();

    // Fairness floors first, in tenant-id order while the budget lasts.
    let mut left = params.budget;
    for (t, d) in demands.iter().enumerate() {
        if d.offered > 0 && caps[t] > 0 && left > 0 {
            assigned[t] = 1;
            left -= 1;
        }
    }

    // Greedy argmin: hand each remaining worker to the tenant whose
    // marginal fallback saving most exceeds the worker's interval cost.
    let fw = params.policy.fallback_weight.max(1);
    while left > 0 {
        let mut best: Option<(u64, usize)> = None; // (net gain, tenant)
        for (t, d) in demands.iter().enumerate() {
            if assigned[t] >= caps[t] {
                continue;
            }
            let saved = d
                .fallbacks_at(assigned[t])
                .saturating_sub(d.fallbacks_at(assigned[t] + 1));
            let benefit = d
                .weight
                .saturating_mul(fw)
                .saturating_mul(saved)
                .saturating_mul(params.policy.t_es_cycles);
            let Some(net) = benefit.checked_sub(params.policy.quantum_cycles) else {
                continue; // the worker costs more than it saves
            };
            if net == 0 {
                continue;
            }
            // Strict improvement only; ties break to the lower id by
            // visiting tenants in id order and requiring a strict win.
            if best.is_none_or(|(g, _)| net > g) {
                best = Some((net, t));
            }
        }
        match best {
            Some((_, t)) => {
                assigned[t] += 1;
                left -= 1;
            }
            None => break, // no worker pays for itself any more
        }
    }
    assigned
}

/// Stateful allocator adding the anti-starvation escalation rule on top
/// of [`allocate`]. One instance per fleet; call
/// [`FleetAllocator::decide`] once per scheduling interval.
#[derive(Debug, Clone)]
pub struct FleetAllocator {
    params: FleetParams,
    /// Consecutive intervals each tenant sat at the floor with unmet
    /// demand.
    starved: Vec<u32>,
    /// Current escalation level per tenant (weight is scaled by
    /// `2^level`).
    escalation: Vec<u32>,
    decisions: u64,
}

impl FleetAllocator {
    /// Allocator for `tenants` tenants.
    #[must_use]
    pub fn new(params: FleetParams, tenants: usize) -> Self {
        FleetAllocator {
            params,
            starved: vec![0; tenants],
            escalation: vec![0; tenants],
            decisions: 0,
        }
    }

    /// The fleet parameters this allocator runs under.
    #[must_use]
    pub fn params(&self) -> &FleetParams {
        &self.params
    }

    /// Decisions taken so far.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Run one fleet decision over the tenants' current demands.
    ///
    /// `demands.len()` must equal the tenant count given at
    /// construction (excess state is ignored, missing state grows).
    pub fn decide(&mut self, demands: &[TenantDemand]) -> FleetDecision {
        let n = demands.len();
        self.starved.resize(n, 0);
        self.escalation.resize(n, 0);

        // Apply escalation boosts to the effective weights.
        let boosted: Vec<TenantDemand> = demands
            .iter()
            .zip(&self.escalation)
            .map(|(d, &e)| {
                let mut b = d.clone();
                b.weight = d
                    .weight
                    .max(1)
                    .saturating_mul(1u64 << e.min(MAX_ESCALATION));
                b
            })
            .collect();
        let assigned = allocate(&boosted, &self.params);

        // Update starvation ledgers: a tenant is starving when it is
        // pinned at its floor while its probe vector says more workers
        // would still save fallbacks. Faulty tenants are contained, not
        // starved — containment must not escalate into extra budget.
        let weight_sum: u64 = boosted.iter().map(|d| d.weight.max(1)).sum();
        for (t, d) in demands.iter().enumerate() {
            let floor = usize::from(d.offered > 0);
            let unmet = d.fallbacks_at(assigned[t]) > d.fallbacks_at(assigned[t] + 1)
                || (assigned[t] == 0 && d.offered > 0);
            let starving =
                d.verdict < TenantVerdict::Faulty && d.offered > 0 && assigned[t] <= floor && unmet;
            if starving {
                self.starved[t] = self.starved[t].saturating_add(1);
                if self.starved[t] >= DEFAULT_STARVATION_INTERVALS {
                    self.escalation[t] = (self.escalation[t] + 1).min(MAX_ESCALATION);
                    self.starved[t] = 0;
                }
            } else {
                self.starved[t] = 0;
                // Gradual decay avoids hard oscillation between the
                // boosted and unboosted assignments.
                self.escalation[t] = self.escalation[t].saturating_sub(1);
            }
        }

        let decision = FleetDecision {
            caps: boosted
                .iter()
                .map(|d| verdict_cap(d, weight_sum, &self.params))
                .collect(),
            verdicts: demands.iter().map(|d| d.verdict).collect(),
            assigned,
        };
        self.decisions += 1;
        decision
    }
}

/// Cumulative counters a fleet host reads off one shard at a rebalance.
/// The controller judges the *interval* since the previous reading: a
/// tenant that was Byzantine an hour ago is judged on its clean present
/// (the allocator's escalation state carries the longer memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTotals {
    /// Calls the shard's workload put on offer.
    pub offered: u64,
    /// Calls that fell back to a regular transition.
    pub fallbacks: u64,
    /// Trusted-side guard violations.
    pub guard_violations: u64,
    /// Worker crashes and hangs the shard's supervision dealt with.
    pub worker_faults: u64,
    /// Whole-enclave losses.
    pub enclave_crashes: u64,
}

/// What the [`FleetController`] reads off one shard at a rebalance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEvidence {
    /// The shard's cumulative counters as of now.
    pub totals: ShardTotals,
    /// The shard scheduler's latest decision: its measured demand curve.
    pub last_decision: Option<DecisionRecord>,
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
/// [`TenantDemand`] → [`FleetAllocator::decide`], and the cap changes in
/// quiesce-and-migrate order. Every shard has weight 1. A host only
/// reads its shards' counters, applies caps and waits in its own notion
/// of time.
#[derive(Debug, Clone)]
pub struct FleetController {
    allocator: FleetAllocator,
    /// Each shard's totals at the previous decision.
    seen: Vec<ShardTotals>,
}

impl FleetController {
    /// Controller for `shards` equally weighted shards.
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
        self.allocator.decisions()
    }

    /// Caps to start the shards under, before any demand is known: the
    /// fair share of the budget, every tenant ≥ 1.
    #[must_use]
    pub fn seed_caps(&self) -> Vec<usize> {
        let shards = self.seen.len();
        let share = fair_share(self.allocator.params().budget, 1, shards as u64).max(1);
        vec![share; shards]
    }

    /// Run one fleet decision over the shards' `evidence` (in shard
    /// order). Caps that shrink are handed to `lower` before this
    /// returns; the caps that grow come back as [`PendingRaises`]. No
    /// shard is left below the one-worker floor.
    pub fn decide(
        &mut self,
        evidence: &[ShardEvidence],
        lower: impl FnMut(CapChange),
    ) -> (FleetDecision, PendingRaises) {
        let params = *self.allocator.params();
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
                TenantDemand::from_probes(
                    now.offered.saturating_sub(was.offered),
                    &params.policy,
                    e.last_decision.as_ref(),
                    now.fallbacks.saturating_sub(was.fallbacks),
                )
                .with_verdict(signals.verdict())
            })
            .collect();
        let decision = self.allocator.decide(&demands);
        let (lowers, raises): (Vec<CapChange>, Vec<CapChange>) = evidence
            .iter()
            .enumerate()
            .map(|(shard, e)| CapChange {
                shard,
                from: e.cap,
                to: decision.assigned[shard].max(1),
            })
            .filter(|c| c.to != c.from)
            .partition(|c| c.to < c.from);
        lowers.into_iter().for_each(lower);
        (decision, PendingRaises(raises))
    }
}

/// One tenant's call accounting, in the vocabulary of the runtime
/// conservation contracts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantUsage {
    /// Calls the tenant's workload put on offer.
    pub offered: u64,
    /// Calls that completed on some path.
    pub completed: u64,
    /// Calls shed by admission control or client-side deadlines.
    pub shed: u64,
    /// Offered calls abandoned un-issued.
    pub abandoned: u64,
    /// Non-idempotent calls refused by post-crash reconciliation.
    pub refused: u64,
    /// Guard violations charged to this tenant's shard.
    pub guard_violations: u64,
}

impl TenantUsage {
    /// Exact per-tenant conservation:
    /// `offered == completed + shed + abandoned + refused`.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.offered == self.accounted()
    }

    /// The fates the tenant's calls met:
    /// `completed + shed + abandoned + refused`.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        self.completed + self.shed + self.abandoned + self.refused
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
    /// One usage record per tenant, by tenant index.
    pub tenants: Vec<TenantUsage>,
}

impl FleetSnapshot {
    /// Snapshot of the given per-tenant books.
    #[must_use]
    pub fn from_tenants(tenants: Vec<TenantUsage>) -> Self {
        FleetSnapshot { tenants }
    }

    /// Check per-tenant conservation, returning the first tenant whose
    /// books do not balance. Balanced rows sum to a balanced fleet row,
    /// so this is also fleet-wide conservation; what it cannot see is a
    /// call booked in full on the wrong tenant — each shard counts only
    /// its own calls, there is no second ledger to compare against.
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

    /// Global waste `U = Σ_t w_t·fw·F_t(m_t)·T_es + (Σ m_t)·T` of an
    /// assignment (`fw` = the policy fallback weight; saturating).
    fn fleet_cost(demands: &[TenantDemand], assigned: &[usize], params: &FleetParams) -> u64 {
        let mut u = 0u64;
        let mut total_workers = 0u64;
        for (t, d) in demands.iter().enumerate() {
            let m = assigned.get(t).copied().unwrap_or(0);
            total_workers += m as u64;
            u = u.saturating_add(
                d.weight
                    .saturating_mul(params.policy.fallback_weight.max(1))
                    .saturating_mul(d.fallbacks_at(m))
                    .saturating_mul(params.policy.t_es_cycles),
            );
        }
        u.saturating_add(total_workers.saturating_mul(params.policy.quantum_cycles))
    }

    /// A probe vector where each worker saves `saving` fallbacks until
    /// the count hits zero.
    fn linear_probes(start: u64, saving: u64, len: usize) -> Vec<u64> {
        (0..len as u64)
            .map(|m| start.saturating_sub(m * saving))
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
    fn floor_holds_for_every_offered_tenant() {
        // Tenant 1 has overwhelming demand; tenant 0 still gets one.
        let demands = vec![
            TenantDemand::new(1, 10, vec![1, 0]),
            TenantDemand::new(100, 1_000_000, linear_probes(100_000, 20_000, 5)),
        ];
        let a = allocate(&demands, &params(4));
        assert!(a[0] >= 1, "floored tenant starved: {a:?}");
        assert!(a[1] >= 1);
        assert!(a.iter().sum::<usize>() <= 4);
    }

    #[test]
    fn idle_tenants_release_their_floor() {
        let demands = vec![
            TenantDemand::new(1, 0, vec![]),
            TenantDemand::new(1, 100, linear_probes(10_000, 5_000, 3)),
        ];
        let a = allocate(&demands, &params(2));
        assert_eq!(a[0], 0, "no offered load, no floor claim");
        assert!(a[1] >= 1);
    }

    #[test]
    fn greedy_matches_brute_force_on_small_fleets() {
        // Exhaustive check: concave savings, 2 tenants, budget 4.
        let p = params(4);
        let demands = vec![
            TenantDemand::new(2, 500, linear_probes(6_000, 2_500, 5)),
            TenantDemand::new(1, 500, linear_probes(9_000, 3_000, 5)),
        ];
        let greedy = allocate(&demands, &p);
        let mut best = (u64::MAX, vec![]);
        for m0 in 0..=4usize {
            for m1 in 0..=(4 - m0) {
                // Respect the floor the greedy allocator guarantees.
                if m0 == 0 || m1 == 0 {
                    continue;
                }
                let cost = fleet_cost(&demands, &[m0, m1], &p);
                if cost < best.0 {
                    best = (cost, vec![m0, m1]);
                }
            }
        }
        assert_eq!(
            fleet_cost(&demands, &greedy, &p),
            best.0,
            "greedy {greedy:?} vs brute {best:?}"
        );
    }

    #[test]
    fn faulty_tenant_is_contained_at_floor() {
        let storm = linear_probes(1_000_000, 100_000, 5);
        let honest = linear_probes(1_000, 400, 5);
        let p = params(4);
        let byz = vec![
            TenantDemand::new(1, 1_000_000, storm.clone()).with_verdict(TenantVerdict::Faulty),
            TenantDemand::new(1, 1_000, honest.clone()),
        ];
        let a = allocate(&byz, &p);
        assert_eq!(a[0], 1, "faulty tenant pinned to the floor");
        // The honest tenant's allocation matches what it would get if
        // the faulty tenant simply demanded nothing beyond its floor.
        let solo = vec![
            TenantDemand::new(1, 1_000_000, vec![0]),
            TenantDemand::new(1, 1_000, honest),
        ];
        assert_eq!(
            a[1],
            allocate(&solo, &p)[1],
            "containment charges only the offender"
        );
    }

    #[test]
    fn suspect_tenant_capped_at_fair_share() {
        let p = params(4);
        let demands = vec![
            TenantDemand::new(1, 100_000, linear_probes(1_000_000, 100_000, 5))
                .with_verdict(TenantVerdict::Suspect),
            TenantDemand::new(1, 100_000, linear_probes(1_000_000, 100_000, 5)),
        ];
        let a = allocate(&demands, &p);
        assert!(a[0] <= 2, "suspect capped at fair share (4·1/2): {a:?}");
    }

    #[test]
    fn allocation_is_deterministic() {
        let demands = vec![
            TenantDemand::new(3, 500, linear_probes(700, 300, 5)),
            TenantDemand::new(2, 400, linear_probes(700, 300, 5)),
            TenantDemand::new(1, 300, linear_probes(700, 300, 5)),
        ];
        let p = params(4);
        let a = allocate(&demands, &p);
        for _ in 0..10 {
            assert_eq!(allocate(&demands, &p), a);
        }
        // Exact ties break towards the lower tenant id.
        let tied = vec![
            TenantDemand::new(1, 100, linear_probes(700, 300, 5)),
            TenantDemand::new(1, 100, linear_probes(700, 300, 5)),
        ];
        let t = allocate(&tied, &params(3));
        assert!(t[0] >= t[1], "tie must favour the lower id: {t:?}");
    }

    #[test]
    fn starved_tenant_escalates_and_recovers() {
        // Tenant 1's weight dwarfs tenant 0's, and the budget holds the
        // floors plus one surplus worker; without escalation tenant 0
        // would sit at the floor forever while its probes keep showing
        // unmet savings.
        let mut alloc = FleetAllocator::new(params(3), 2);
        let demands = vec![
            TenantDemand::new(1, 10_000, linear_probes(5_000, 2_000, 3)),
            TenantDemand::new(64, 10_000, linear_probes(5_000, 2_000, 3)),
        ];
        let first = alloc.decide(&demands);
        assert_eq!(
            first.assigned,
            vec![1, 2],
            "surplus goes to the heavy tenant"
        );
        // Same demands, different assignment: only the allocator's
        // escalation state can have moved it.
        let lifted_after = (1..=32u32)
            .find(|_| alloc.decide(&demands).assigned[0] > 1)
            .expect("anti-starvation never lifted tenant 0");
        assert!(
            lifted_after > DEFAULT_STARVATION_INTERVALS,
            "{lifted_after}"
        );
        // Lifted, tenant 0 is not starving any more: its boost decays and
        // the surplus goes back to the heavy tenant.
        let decayed = (0..8).any(|_| alloc.decide(&demands).assigned == [1, 2]);
        assert!(decayed, "escalation never decayed");
    }

    #[test]
    fn allocator_reports_decision_metadata() {
        let mut alloc = FleetAllocator::new(params(4), 2);
        let demands = vec![
            TenantDemand::new(1, 100, linear_probes(700, 300, 5)),
            TenantDemand::new(1, 0, vec![]).with_verdict(TenantVerdict::Faulty),
        ];
        let d = alloc.decide(&demands);
        assert_eq!(d.assigned.len(), 2);
        assert_eq!(d.verdicts[1], TenantVerdict::Faulty);
        assert_eq!(d.caps[1], 0, "faulty + idle = no workers at all");
        assert_eq!(alloc.decisions(), 1);
    }

    #[test]
    fn snapshot_balances_and_names_the_unbalanced_tenant() {
        let t0 = TenantUsage {
            offered: 100,
            completed: 90,
            shed: 6,
            abandoned: 3,
            refused: 1,
            guard_violations: 0,
        };
        let t1 = TenantUsage {
            offered: 50,
            completed: 50,
            ..TenantUsage::default()
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

    #[test]
    fn budget_is_never_exceeded() {
        for budget in 1..8usize {
            let demands: Vec<TenantDemand> = (0..5)
                .map(|i| TenantDemand::new(i + 1, 1_000, linear_probes(10_000, 3_000, 4)))
                .collect();
            let a = allocate(&demands, &params(budget));
            assert!(a.iter().sum::<usize>() <= budget, "budget {budget}: {a:?}");
        }
    }
}
