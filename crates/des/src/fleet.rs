//! Multi-tenant fleet simulation: M ZC shard stacks as bulkhead fault
//! domains inside **one** DES kernel, under one global worker budget.
//!
//! Each tenant gets the full shard stack the single-tenant simulation
//! builds — its own [`ZcWorld`], worker actors, adaptive scheduler,
//! optional fault supervisor and enclave-lifecycle actor, and its own
//! [`SimCounters`] — so a crashing, Byzantine or overloaded tenant can
//! corrupt nothing beyond its own shard. One extra actor, the
//! `FleetAllocatorActor`, is the one host of the [`FleetController`]:
//! it periodically reads every shard's counters and measured demand
//! curve, lets the controller judge, decide and hand out the cap
//! changes, and supplies the quiesce wait of the quiesce-and-migrate
//! protocol as a one-quantum sleep — donors shrink one quantum before
//! receivers grow, so the sum of running workers never exceeds the
//! budget mid-migration.

use crate::kernel::{Actor, Kernel, StepCx, Syscall, SyscallResult, DEFAULT_RR_QUANTUM};
use crate::metrics::SimCounters;
use crate::ocall::zc::{ZcSimFaults, ZcWorld};
use crate::sim::{spawn_zc_shard, FaultRecovery, KernelMode, ZcShardSpec, ZcSimParams};
use crate::workload::WorkloadSpec;
use std::cell::RefCell;
use std::rc::Rc;
use switchless_core::config::PAPER_QUANTUM_MS;
use switchless_core::cpu::CpuSpec;
use switchless_core::fleet::{
    CapChange, FleetController, FleetParams, FleetSnapshot, PendingRaises, ShardEvidence,
    ShardTotals, TenantVerdict,
};

/// One tenant of a simulated fleet: its workloads and (optionally) a
/// shard-scoped fault schedule. Every shard runs the default
/// [`ZcSimParams`] and weighs the same in the global allocator.
#[derive(Debug, Clone)]
pub struct TenantSimSpec {
    /// Human-readable tenant label (reports).
    pub name: String,
    /// One workload per caller thread of this tenant.
    pub workloads: Vec<WorkloadSpec>,
    /// Deterministic fault schedule scoped to this shard, if any.
    pub faults: Option<ZcSimFaults>,
}

impl TenantSimSpec {
    /// Tenant with no faults.
    #[must_use]
    pub fn new(name: impl Into<String>, workloads: Vec<WorkloadSpec>) -> Self {
        TenantSimSpec {
            name: name.into(),
            workloads,
            faults: None,
        }
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
    /// Fleet on the paper machine: a 120-virtual-second deadline,
    /// budget `N/2`, rebalance every 4 quanta.
    #[must_use]
    pub fn new(tenants: Vec<TenantSimSpec>, classes: usize) -> Self {
        let cpu = CpuSpec::paper_machine();
        FleetSpec {
            cpu,
            budget: cpu.zc_max_workers().max(1),
            tenants,
            classes,
            deadline_cycles: cpu.freq_hz * 120,
            rebalance_interval_cycles: cpu.quantum_cycles(PAPER_QUANTUM_MS) * 4,
        }
    }

    /// Returns `self`: frozen shim for `benchmark/src/des.rs` until
    /// ROADMAP [bench-unfreeze].
    #[doc(hidden)]
    #[must_use]
    pub fn with_kernel_mode(self, _mode: KernelMode) -> Self {
        self
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
    /// counters.
    #[must_use]
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot::from_tenants(self.tenants.iter().map(|t| t.counters.ledger()).collect())
    }
}

/// One shard's counters and demand curve as the fleet controller reads
/// them. A dead slot is charged once, when it fails, not for every
/// interval it stays dead.
fn shard_evidence(world: &RefCell<ZcWorld>, counters: &RefCell<SimCounters>) -> ShardEvidence {
    let w = world.borrow();
    let c = counters.borrow();
    ShardEvidence {
        totals: ShardTotals {
            offered: c.offered,
            fallbacks: c.fallback,
            guard_violations: w.guard_violations,
            worker_faults: w.crashes + w.hangs,
            enclave_crashes: w.recovery.as_ref().map_or(0, |p| p.snapshot().crashes),
        },
        last_decision: w.last_decision.clone(),
        cap: w.worker_cap,
    }
}

/// The virtual-time host of the [`FleetController`]: every
/// `rebalance_interval_cycles` it reads each shard's evidence, lets the
/// controller decide, lowers donors' caps, sleeps one quantum (the
/// donors' schedulers apply caps at their next step, at most a quantum
/// away), then raises receivers' caps.
struct FleetAllocatorActor {
    worlds: Vec<Rc<RefCell<ZcWorld>>>,
    counters: Vec<Rc<RefCell<SimCounters>>>,
    controller: FleetController,
    interval_cycles: u64,
    quantum_cycles: u64,
    /// Caps to raise once the quiesce quantum has elapsed.
    pending_raises: Option<PendingRaises>,
    worst_verdicts: Rc<RefCell<Vec<TenantVerdict>>>,
    decisions_out: Rc<RefCell<u64>>,
}

impl Actor for FleetAllocatorActor {
    fn step(&mut self, _res: SyscallResult, _now: u64, _cx: &mut StepCx) -> Syscall {
        let worlds = &self.worlds;
        let set_cap = |c: CapChange| worlds[c.shard].borrow_mut().worker_cap = c.to;
        if let Some(raises) = self.pending_raises.take() {
            raises.raise(set_cap);
            return Syscall::Sleep(
                self.interval_cycles
                    .saturating_sub(self.quantum_cycles)
                    .max(1),
            );
        }
        let evidence: Vec<ShardEvidence> = worlds
            .iter()
            .zip(&self.counters)
            .map(|(w, c)| shard_evidence(w, c))
            .collect();
        let (decision, raises) = self.controller.decide(&evidence, set_cap);
        for (worst, v) in self
            .worst_verdicts
            .borrow_mut()
            .iter_mut()
            .zip(&decision.verdicts)
        {
            *worst = worst.join(*v);
        }
        *self.decisions_out.borrow_mut() = self.controller.decisions();
        if raises.is_empty() {
            Syscall::Sleep(self.interval_cycles.max(1))
        } else {
            self.pending_raises = Some(raises);
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
    let mut kernel = Kernel::new(
        spec.cpu.logical_cpus,
        DEFAULT_RR_QUANTUM,
        spec.cpu.pause_cycles,
    );

    // Every shard, and so the allocator, runs the default ZC
    // parameters on the one machine that hosts the whole fleet.
    let zc = ZcSimParams::default();
    let policy = zc.policy_params(&spec.cpu);
    let quantum_cycles = policy.quantum_cycles;
    let controller =
        FleetController::new(FleetParams::new(policy, spec.budget), spec.tenants.len());

    // Each shard starts under the controller's seed cap (which also
    // bounds its initial worker count); the first rebalance replaces it
    // with the measured argmin.
    let mut shard_worlds = Vec::with_capacity(spec.tenants.len());
    let mut shard_counters = Vec::with_capacity(spec.tenants.len());
    for (tenant, seed) in spec.tenants.iter().zip(controller.seed_caps()) {
        let callers = tenant.workloads.len();
        let counters = Rc::new(RefCell::new(SimCounters::new(callers, spec.classes)));
        let shard = ZcShardSpec {
            cpu: &spec.cpu,
            zc: &zc,
            faults: tenant.faults.as_ref(),
            workloads: &tenant.workloads,
            telemetry: None,
            share: Some(seed),
        };
        shard_worlds.push(spawn_zc_shard(&mut kernel, &shard, &counters));
        shard_counters.push(counters);
    }

    let worst_verdicts = Rc::new(RefCell::new(vec![
        TenantVerdict::Healthy;
        spec.tenants.len()
    ]));
    let decisions_out = Rc::new(RefCell::new(0u64));
    kernel.spawn(Box::new(FleetAllocatorActor {
        worlds: shard_worlds.clone(),
        counters: shard_counters.clone(),
        controller,
        interval_cycles: spec.rebalance_interval_cycles.max(1),
        quantum_cycles,
        pending_raises: None,
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
            || kernel.next_tick().is_none()
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
        .with_vcpus(24);
        let r = run_fleet(&spec);
        // Both tenants finish — containment caps the offender's workers,
        // it never loses its calls.
        assert_eq!(r.tenants[0].counters.total_calls(), 40_000);
        assert_eq!(r.tenants[1].counters.total_calls(), 40_000);
        r.snapshot().check().expect("fleet conservation");
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
