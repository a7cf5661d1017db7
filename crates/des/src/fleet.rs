//! Multi-tenant fleet simulation: M ZC shard stacks as bulkhead fault
//! domains inside **one** DES kernel, under one global worker budget.
//!
//! Each tenant gets the full shard stack the single-tenant simulation
//! builds — its own [`ZcWorld`], worker actors, adaptive scheduler,
//! optional fault supervisor and enclave-lifecycle actor, and its own
//! [`SimCounters`] — so a crashing, Byzantine or overloaded tenant can
//! corrupt nothing beyond its own shard. One extra actor, the
//! [`FleetAllocatorActor`], periodically gathers every shard's measured
//! demand curve (its configuration-phase probes), folds its behaviour
//! evidence into a [`TenantVerdict`], runs the global wasted-cycle
//! argmin from [`switchless_core::fleet`], and applies the result as
//! per-shard worker-count caps with the quiesce-and-migrate protocol:
//! donors shrink one quantum before receivers grow, so the sum of
//! running workers never exceeds the budget mid-migration.

use crate::kernel::{Actor, Syscall, SyscallResult, DEFAULT_RR_QUANTUM};
use crate::metrics::SimCounters;
use crate::ocall::zc::{ZcSimFaults, ZcWorld};
use crate::ocall::CostModel;
use crate::sim::{spawn_zc_shard, FaultRecovery, KernelMode, ZcShardSpec, ZcSimParams};
use crate::workload::WorkloadSpec;
use std::cell::RefCell;
use std::rc::Rc;
use switchless_core::cpu::CpuSpec;
use switchless_core::fleet::{
    FleetAllocator, FleetParams, FleetSnapshot, TenantDemand, TenantSignals, TenantUsage,
    TenantVerdict,
};
use switchless_core::policy::PolicyParams;

/// One tenant of a simulated fleet: its workloads, ZC parameters,
/// fairness weight and (optionally) a shard-scoped fault schedule.
#[derive(Debug, Clone)]
pub struct TenantSimSpec {
    /// Human-readable tenant label (reports).
    pub name: String,
    /// Fairness weight for the global allocator (≥1).
    pub weight: u64,
    /// One workload per caller thread of this tenant.
    pub workloads: Vec<WorkloadSpec>,
    /// Shard-local ZC parameters (worker ceiling, quantum, pool).
    pub zc: ZcSimParams,
    /// Deterministic fault schedule scoped to this shard, if any.
    pub faults: Option<ZcSimFaults>,
}

impl TenantSimSpec {
    /// Tenant with weight 1, default ZC parameters and no faults.
    #[must_use]
    pub fn new(name: impl Into<String>, workloads: Vec<WorkloadSpec>) -> Self {
        TenantSimSpec {
            name: name.into(),
            weight: 1,
            workloads,
            zc: ZcSimParams::default(),
            faults: None,
        }
    }

    /// Set the fairness weight (clamped to ≥1).
    #[must_use]
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Override the shard's ZC parameters.
    #[must_use]
    pub fn with_zc(mut self, zc: ZcSimParams) -> Self {
        self.zc = zc;
        self
    }

    /// Attach a deterministic fault schedule to this shard.
    #[must_use]
    pub fn with_faults(mut self, faults: ZcSimFaults) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Full multi-tenant experiment description.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Machine model (one machine hosts the whole fleet).
    pub cpu: CpuSpec,
    /// Which kernel scheduling policy drives the run.
    pub kernel_mode: KernelMode,
    /// OS round-robin quantum in cycles (cycle-accurate mode only).
    pub rr_quantum: u64,
    /// Boundary cost model.
    pub costs: CostModel,
    /// Global worker budget shared by all shards (must be ≥ the number
    /// of tenants, so every tenant's fairness floor is honourable).
    pub budget: usize,
    /// The tenants.
    pub tenants: Vec<TenantSimSpec>,
    /// Number of call classes used by the workloads.
    pub classes: usize,
    /// Hard stop in cycles (safety net for open-loop runs).
    pub deadline_cycles: u64,
    /// Allocator cadence in cycles (default: 4 quanta). Each rebalance
    /// costs one quantum of quiesce lag before receivers grow.
    pub rebalance_interval_cycles: u64,
}

impl FleetSpec {
    /// Fleet on the paper machine: default costs, a 120-virtual-second
    /// deadline, budget `N/2`, rebalance every 4 quanta.
    #[must_use]
    pub fn new(tenants: Vec<TenantSimSpec>, classes: usize) -> Self {
        let cpu = CpuSpec::paper_machine();
        FleetSpec {
            cpu,
            kernel_mode: KernelMode::default(),
            rr_quantum: DEFAULT_RR_QUANTUM,
            costs: CostModel::paper(),
            budget: cpu.zc_max_workers().max(1),
            tenants,
            classes,
            deadline_cycles: cpu.freq_hz * 120,
            rebalance_interval_cycles: cpu.quantum_cycles(10) * 4,
        }
    }

    /// Builder-style kernel-policy selection.
    #[must_use]
    pub fn with_kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel_mode = mode;
        self
    }

    /// Shorthand for event-driven policy selection.
    #[must_use]
    pub fn with_event_kernel(self) -> Self {
        self.with_kernel_mode(KernelMode::EventDriven)
    }

    /// Builder-style vCPU count (overrides the machine's logical CPUs).
    #[must_use]
    pub fn with_vcpus(mut self, vcpus: usize) -> Self {
        self.cpu = self.cpu.with_logical_cpus(vcpus);
        self
    }

    /// Builder-style global worker budget.
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline_cycles: u64) -> Self {
        self.deadline_cycles = deadline_cycles;
        self
    }

    /// Builder-style rebalance cadence.
    #[must_use]
    pub fn with_rebalance_interval(mut self, cycles: u64) -> Self {
        self.rebalance_interval_cycles = cycles;
        self
    }
}

/// One tenant's slice of a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct TenantSimReport {
    /// Tenant label.
    pub name: String,
    /// The tenant's own counters (per-shard conservation target).
    pub counters: SimCounters,
    /// The tenant's fault-injection and recovery summary.
    pub fault_recovery: FaultRecovery,
    /// Worker cap the allocator left the shard with.
    pub final_cap: usize,
    /// Worst verdict any allocator decision of the run judged the
    /// tenant under (join over all decisions: verdicts are per-interval,
    /// so the last one alone says `healthy` for a tenant whose six
    /// guard violations all fell in earlier intervals).
    pub worst_verdict: TenantVerdict,
}

/// Result of one multi-tenant fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Virtual time when the last caller finished (or the deadline).
    pub duration_cycles: u64,
    /// Per-tenant reports, in tenant order.
    pub tenants: Vec<TenantSimReport>,
    /// Completed global allocation decisions.
    pub decisions: u64,
}

impl FleetReport {
    /// Per-tenant conservation ledger: each tenant's
    /// `offered == completed + shed + abandoned + refused` from its own
    /// counters, plus the cross-tenant leakage check on the summed
    /// global row.
    #[must_use]
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot::from_tenants(
            self.tenants
                .iter()
                .map(|t| TenantUsage {
                    offered: t.counters.offered,
                    completed: t.counters.total_calls(),
                    shed: t.counters.ops_shed,
                    abandoned: t.counters.ops_abandoned,
                    refused: t.counters.refused_non_idempotent,
                    guard_violations: t.fault_recovery.guard_violations,
                })
                .collect(),
        )
    }

    /// `true` iff every tenant and the global row conserve exactly.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.snapshot().conserves()
    }
}

/// Per-shard state the allocator actor reads and writes.
struct ShardHandle {
    world: Rc<RefCell<ZcWorld>>,
    counters: Rc<RefCell<SimCounters>>,
    weight: u64,
    /// Baselines at the last rebalance (interval deltas drive demand
    /// and verdict signals; the allocator's escalation state carries
    /// longer memory).
    last_offered: u64,
    last_fallback: u64,
    last_guard_violations: u64,
    last_worker_faults: u64,
    last_enclave_crashes: u64,
}

impl ShardHandle {
    fn enclave_crashes(&self) -> u64 {
        self.world
            .borrow()
            .recovery
            .as_ref()
            .map_or(0, |p| p.snapshot().crashes)
    }
}

/// The global allocator as a kernel actor: every
/// `rebalance_interval_cycles` it gathers per-shard demand, runs the
/// fleet argmin, lowers donors' caps, sleeps one quantum (the donors'
/// schedulers apply caps at their next step, at most a quantum away),
/// then raises receivers' caps — quiesce-and-migrate in virtual time.
struct FleetAllocatorActor {
    shards: Vec<ShardHandle>,
    allocator: FleetAllocator,
    interval_cycles: u64,
    quantum_cycles: u64,
    /// Caps to raise once the quiesce quantum has elapsed.
    pending_raises: Vec<(usize, usize)>,
    worst_verdicts: Rc<RefCell<Vec<TenantVerdict>>>,
    decisions_out: Rc<RefCell<u64>>,
}

impl FleetAllocatorActor {
    fn gather_and_decide(&mut self) {
        let params = *self.allocator.params();
        let mut demands = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            let w = shard.world.borrow();
            let c = shard.counters.borrow();
            let worker_faults = w.crashes + w.hangs;
            let enclave_crashes = shard.enclave_crashes();
            let signals = TenantSignals {
                guard_violations: w.guard_violations - shard.last_guard_violations,
                worker_crashes: worker_faults - shard.last_worker_faults,
                enclave_crashes: enclave_crashes - shard.last_enclave_crashes,
                breaker_open: false,
                brownout_level: 0,
            };
            demands.push(
                TenantDemand::from_probes(
                    shard.weight,
                    c.offered - shard.last_offered,
                    &params.policy,
                    w.last_decision.as_ref(),
                    c.fallback - shard.last_fallback,
                )
                .with_verdict(signals.verdict(&params)),
            );
            shard.last_offered = c.offered;
            shard.last_fallback = c.fallback;
            shard.last_guard_violations = w.guard_violations;
            shard.last_worker_faults = worker_faults;
            shard.last_enclave_crashes = enclave_crashes;
        }
        let decision = self.allocator.decide(&demands);
        for (worst, v) in self
            .worst_verdicts
            .borrow_mut()
            .iter_mut()
            .zip(&decision.verdicts)
        {
            *worst = worst.join(*v);
        }
        *self.decisions_out.borrow_mut() = self.allocator.decisions();
        // Phase 1: shrink donors now; stash raises for after the
        // quiesce quantum.
        self.pending_raises.clear();
        for (t, shard) in self.shards.iter().enumerate() {
            let new = decision.assigned[t].max(1);
            let mut w = shard.world.borrow_mut();
            match new.cmp(&w.worker_cap) {
                std::cmp::Ordering::Less => w.worker_cap = new,
                std::cmp::Ordering::Greater => self.pending_raises.push((t, new)),
                std::cmp::Ordering::Equal => {}
            }
        }
    }
}

impl Actor for FleetAllocatorActor {
    fn step(&mut self, _res: SyscallResult, _now: u64) -> Syscall {
        if !self.pending_raises.is_empty() {
            // Phase 2: donors have had a full quantum to re-park; grow
            // the receivers.
            for &(t, new) in &self.pending_raises {
                self.shards[t].world.borrow_mut().worker_cap = new;
            }
            self.pending_raises.clear();
            return Syscall::Sleep(
                self.interval_cycles
                    .saturating_sub(self.quantum_cycles)
                    .max(1),
            );
        }
        self.gather_and_decide();
        if self.pending_raises.is_empty() {
            Syscall::Sleep(self.interval_cycles.max(1))
        } else {
            Syscall::Sleep(self.quantum_cycles.max(1))
        }
    }

    fn group(&self) -> &str {
        "scheduler"
    }
}

/// Run one multi-tenant fleet experiment to completion (all callers
/// done or deadline).
///
/// # Panics
///
/// Panics if `spec.tenants` is empty or `spec.budget` is below the
/// tenant count (the fairness floor would be unhonourable).
pub fn run_fleet(spec: &FleetSpec) -> FleetReport {
    assert!(!spec.tenants.is_empty(), "fleet needs at least one tenant");
    assert!(
        spec.budget >= spec.tenants.len(),
        "budget {} cannot honour the floor for {} tenants",
        spec.budget,
        spec.tenants.len()
    );
    let mut kernel = spec.kernel_mode.kernel(&spec.cpu, spec.rr_quantum);

    let weight_sum: u64 = spec.tenants.iter().map(|t| t.weight.max(1)).sum();
    let mut shard_worlds = Vec::with_capacity(spec.tenants.len());
    let mut shard_counters = Vec::with_capacity(spec.tenants.len());
    let quantum_cycles = spec
        .tenants
        .iter()
        .map(|t| spec.cpu.quantum_cycles(t.zc.quantum_ms))
        .max()
        .unwrap_or_else(|| spec.cpu.quantum_cycles(10));

    for tenant in &spec.tenants {
        let callers = tenant.workloads.len();
        let counters = Rc::new(RefCell::new(SimCounters::new(callers, spec.classes)));
        // Seed the cap (and the initial worker count) with the weighted
        // fair share of the budget; the first rebalance replaces it
        // with the measured argmin.
        let share = (spec.budget as u64).saturating_mul(tenant.weight.max(1)) / weight_sum;
        let shard = ZcShardSpec {
            cpu: &spec.cpu,
            costs: spec.costs,
            zc: &tenant.zc,
            faults: tenant.faults.as_ref(),
            workloads: &tenant.workloads,
            telemetry: None,
            share: Some(usize::try_from(share).unwrap_or(usize::MAX)),
        };
        shard_worlds.push(spawn_zc_shard(&mut kernel, &shard, &counters));
        shard_counters.push(counters);
    }

    // The global allocator. Its policy ceiling is the largest shard
    // ceiling (verdict caps clamp per shard anyway via `assigned`).
    let policy = PolicyParams {
        t_es_cycles: spec.cpu.t_es_cycles,
        quantum_cycles,
        mu_inverse: spec.tenants[0].zc.mu_inverse,
        max_workers: shard_worlds
            .iter()
            .map(|w| w.borrow().workers.len())
            .max()
            .unwrap_or(1),
        fallback_weight: spec.tenants[0].zc.fallback_weight,
    };
    let fleet_params = FleetParams::new(policy, spec.budget);
    let worst_verdicts = Rc::new(RefCell::new(vec![
        TenantVerdict::Healthy;
        spec.tenants.len()
    ]));
    let decisions_out = Rc::new(RefCell::new(0u64));
    kernel.spawn(Box::new(FleetAllocatorActor {
        shards: spec
            .tenants
            .iter()
            .enumerate()
            .map(|(t, tenant)| ShardHandle {
                world: Rc::clone(&shard_worlds[t]),
                counters: Rc::clone(&shard_counters[t]),
                weight: tenant.weight.max(1),
                last_offered: 0,
                last_fallback: 0,
                last_guard_violations: 0,
                last_worker_faults: 0,
                last_enclave_crashes: 0,
            })
            .collect(),
        allocator: FleetAllocator::new(fleet_params, spec.tenants.len()),
        interval_cycles: spec.rebalance_interval_cycles.max(1),
        quantum_cycles,
        pending_raises: Vec::new(),
        worst_verdicts: Rc::clone(&worst_verdicts),
        decisions_out: Rc::clone(&decisions_out),
    }));

    // Drive the run until every tenant's callers are done.
    let live = |counters: &[Rc<RefCell<SimCounters>>]| {
        counters.iter().any(|c| c.borrow().callers_live > 0)
    };
    loop {
        let next = (kernel.now() + spec.rebalance_interval_cycles.max(1)).min(spec.deadline_cycles);
        kernel.run_while(next, || live(&shard_counters));
        if !live(&shard_counters)
            || kernel.now() >= spec.deadline_cycles
            || kernel.live_threads() == 0
        {
            break;
        }
    }

    let duration_cycles = {
        let last = shard_counters
            .iter()
            .map(|c| c.borrow().last_completion)
            .max()
            .unwrap_or(0);
        if !live(&shard_counters) && last > 0 {
            last
        } else {
            kernel.now()
        }
    };
    let tenants = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(t, tenant)| {
            let w = shard_worlds[t].borrow();
            TenantSimReport {
                name: tenant.name.clone(),
                counters: shard_counters[t].borrow().clone(),
                fault_recovery: FaultRecovery::from_world(&w),
                final_cap: w.worker_cap,
                worst_verdict: worst_verdicts.borrow()[t],
            }
        })
        .collect();
    let decisions = *decisions_out.borrow();
    FleetReport {
        duration_cycles,
        tenants,
        decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ocall::CallDesc;

    fn simple_call(host: u64) -> CallDesc {
        CallDesc {
            host_cycles: host,
            payload_bytes: 64,
            ret_bytes: 0,
            ..CallDesc::default()
        }
    }

    fn closed(ops: u64, host: u64) -> WorkloadSpec {
        WorkloadSpec::ClosedLoop {
            pattern: vec![simple_call(host)],
            total_ops: ops,
        }
    }

    fn two_tenant_spec(ops: u64) -> FleetSpec {
        FleetSpec::new(
            vec![
                TenantSimSpec::new("alpha", vec![closed(ops, 500); 2]),
                TenantSimSpec::new("beta", vec![closed(ops, 500)]),
            ],
            1,
        )
        .with_vcpus(16)
    }

    #[test]
    fn fleet_runs_all_tenants_to_completion_and_conserves() {
        let r = run_fleet(&two_tenant_spec(5_000));
        assert_eq!(r.tenants[0].counters.total_calls(), 10_000);
        assert_eq!(r.tenants[1].counters.total_calls(), 5_000);
        assert_eq!(r.tenants[0].counters.ops_per_caller, vec![5_000; 2]);
        r.snapshot().check().expect("fleet conservation");
        assert!(r.decisions > 0, "allocator must have decided");
        // Caps always within the budget.
        let caps: usize = r.tenants.iter().map(|t| t.final_cap).sum();
        assert!(caps >= r.tenants.len());
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let spec = two_tenant_spec(2_000);
        let a = run_fleet(&spec);
        let b = run_fleet(&spec);
        assert_eq!(a.duration_cycles, b.duration_cycles);
        assert_eq!(a.decisions, b.decisions);
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(ta.counters, tb.counters);
            assert_eq!(ta.fault_recovery, tb.fault_recovery);
            assert_eq!(ta.final_cap, tb.final_cap);
        }
    }

    #[test]
    fn fleet_runs_on_both_kernels() {
        let ca = run_fleet(&two_tenant_spec(2_000));
        let ev = run_fleet(&two_tenant_spec(2_000).with_event_kernel());
        for r in [&ca, &ev] {
            assert_eq!(r.tenants[0].counters.total_calls(), 4_000);
            assert_eq!(r.tenants[1].counters.total_calls(), 2_000);
            assert!(r.conserves());
        }
    }

    #[test]
    fn byzantine_tenant_is_contained_and_judged_faulty() {
        let faults = ZcSimFaults::new()
            .flip_status_at(1_000_000, 0)
            .oversize_reply_at(2_000_000, 1)
            .stale_seq_at(3_000_000, 0)
            .with_respawn_delay(800_000)
            .with_watchdog_pauses(5_000);
        let spec = FleetSpec::new(
            vec![
                TenantSimSpec::new("honest", vec![closed(20_000, 500); 2]),
                TenantSimSpec::new("byzantine", vec![closed(20_000, 500); 2]).with_faults(faults),
            ],
            1,
        )
        .with_vcpus(24)
        .with_event_kernel();
        let r = run_fleet(&spec);
        // Both tenants finish — containment caps the offender's workers,
        // it never loses its calls.
        assert_eq!(r.tenants[0].counters.total_calls(), 40_000);
        assert_eq!(r.tenants[1].counters.total_calls(), 40_000);
        assert!(r.conserves());
        // The honest shard saw zero guard violations; the Byzantine
        // shard's violations were charged to it alone.
        assert_eq!(r.tenants[0].fault_recovery.guard_violations, 0);
        assert_eq!(r.tenants[1].fault_recovery.guard_violations, 3);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn budget_below_tenant_count_is_rejected() {
        let spec = two_tenant_spec(10).with_budget(1);
        let _ = run_fleet(&spec);
    }
}
