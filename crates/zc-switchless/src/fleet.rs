//! Multi-enclave fleet: M [`ZcRuntime`] shards as bulkhead fault
//! domains under one global worker budget.
//!
//! Each tenant gets its **own** enclave, worker pool, shared buffers and
//! robustness planes (supervision, overload control, recovery) — a
//! crashing, Byzantine or overloaded tenant can corrupt nothing beyond
//! its own shard. What the shards *share* is the machine's busy-wait
//! capacity: a global worker budget carved up by the pure
//! [`FleetController`] from `switchless_core::fleet` — the same control
//! loop the DES fleet hosts — which runs the paper's wasted-cycle argmin
//! `U = F·T_es + M·T` *across* shards using each shard's own
//! configuration-phase probes as its demand curve, and keeps the seed
//! caps, the per-shard interval baselines and the verdicts.
//!
//! This module is the controller's real-time host: it reads each
//! runtime's counters ([`ShardEvidence`]), applies the controller's
//! output as per-shard worker-count **caps**
//! ([`ZcRuntime::set_worker_cap`]; the shard-local argmin keeps running
//! underneath and may pick fewer workers than its cap) and supplies the
//! wait of quiesce-and-migrate: the controller hands out donors' lowers
//! first, the fleet waits for their schedulers to actually drop (workers
//! park at the next step), and only then applies the receivers' raises —
//! a moving worker never serves two shards at once, and the sum of
//! running workers never exceeds the budget mid-migration. A wait that
//! times out applies no raise at all.

use crate::ZcRuntime;
use parking_lot::Mutex;
use sgx_sim::Enclave;
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::{
    BreakerState, CapChange, FaultInjector, FleetController, FleetDecision, FleetParams,
    FleetSnapshot, OcallTable, ShardEvidence, ShardTotals, SwitchlessError, ZcConfig,
};

/// One tenant's slice of a [`Fleet`]: its runtime configuration, host
/// function table, fairness weight and (optionally) a fault injector
/// for chaos scenarios scoped to this shard only.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable tenant label (telemetry, reports).
    pub name: String,
    /// Fairness weight for the global allocator (≥1).
    pub weight: u64,
    /// Shard-local runtime configuration (robustness planes included).
    pub config: ZcConfig,
    /// Host functions this tenant may call.
    pub table: Arc<OcallTable>,
    /// Deterministic fault injector scoped to this shard, if any.
    pub faults: Option<Arc<FaultInjector>>,
    /// Shard-local telemetry hub, if any — a bulkhead like everything
    /// else shard-scoped: one tenant's trace volume cannot evict
    /// another's events.
    pub telemetry: Option<Arc<zc_telemetry::Telemetry>>,
}

impl TenantSpec {
    /// Tenant with weight 1 and no fault injection.
    #[must_use]
    pub fn new(name: impl Into<String>, config: ZcConfig, table: Arc<OcallTable>) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            config,
            table,
            faults: None,
            telemetry: None,
        }
    }

    /// Set the fairness weight (clamped to ≥1).
    #[must_use]
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Attach a deterministic fault injector to this shard.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attach a shard-local telemetry hub. The fleet also emits a
    /// tenant-labelled `FleetRebalance` event into it whenever a global
    /// decision moves this shard's worker cap.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<zc_telemetry::Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

#[derive(Debug)]
struct Shard {
    name: String,
    runtime: ZcRuntime,
    telemetry: Option<Arc<zc_telemetry::Telemetry>>,
}

impl Shard {
    /// What the fleet controller judges this shard on: its cumulative
    /// counters, its planes' current state and its scheduler's latest
    /// demand curve.
    fn evidence(&self) -> ShardEvidence {
        let rt = &self.runtime;
        let stats = rt.stats().snapshot();
        let overload = rt.overload_snapshot();
        ShardEvidence {
            totals: ShardTotals {
                offered: stats.issued,
                fallbacks: stats.fallback,
                guard_violations: stats.guard_violations,
                worker_faults: rt.supervisor_state().map_or(0, |s| s.respawns()),
                enclave_crashes: rt.recovery_snapshot().map_or(0, |r| r.crashes),
            },
            quarantined_workers: rt.poisoned_workers() as u64,
            breaker_open: overload
                .as_ref()
                .is_some_and(|o| o.breaker_state == BreakerState::Open),
            brownout_level: overload.as_ref().map_or(0, |o| o.brownout_level),
            last_decision: rt.last_decision(),
            cap: rt.worker_cap(),
        }
    }

    /// Apply one cap change and emit a tenant-labelled rebalance event
    /// into this shard's hub (if it has one), stamped with the shard's
    /// runtime clock.
    fn move_cap(&self, change: CapChange) {
        if let Some(hub) = &self.telemetry {
            hub.record(
                self.runtime.clock().now_cycles(),
                zc_telemetry::Origin::Scheduler,
                zc_telemetry::Event::FleetRebalance {
                    tenant: self.name.clone(),
                    verdict: change.verdict.name(),
                    cap_before: change.from as u32,
                    cap_after: change.to as u32,
                },
            );
        }
        self.runtime.set_worker_cap(change.to);
    }
}

/// M [`ZcRuntime`] shards under one global worker budget.
///
/// Start with [`Fleet::start`]; dispatch each tenant's traffic through
/// [`Fleet::runtime`]; call [`Fleet::rebalance`] at whatever cadence
/// suits the deployment (every few quanta is plenty — demand curves move
/// at workload speed, not call speed). [`Fleet::fleet_snapshot`] gives
/// the per-tenant conservation ledger.
#[derive(Debug)]
pub struct Fleet {
    shards: Vec<Shard>,
    controller: Mutex<FleetController>,
}

impl Fleet {
    /// Start one runtime per tenant and seed per-shard worker caps with
    /// the weighted fair share of the budget (every tenant ≥1).
    ///
    /// # Errors
    ///
    /// Returns [`SwitchlessError::InvalidConfig`] if `specs` is empty,
    /// the budget is zero, or any shard's machine model yields zero
    /// workers.
    pub fn start(params: FleetParams, specs: Vec<TenantSpec>) -> Result<Self, SwitchlessError> {
        if specs.is_empty() {
            return Err(SwitchlessError::InvalidConfig(
                "fleet needs at least one tenant".into(),
            ));
        }
        if params.budget == 0 {
            return Err(SwitchlessError::InvalidConfig(
                "fleet worker budget must be nonzero".into(),
            ));
        }
        let weights: Vec<u64> = specs.iter().map(|s| s.weight).collect();
        let controller = FleetController::new(params, &weights);
        let mut shards = Vec::with_capacity(specs.len());
        for (spec, seed) in specs.into_iter().zip(controller.seed_caps()) {
            let enclave = Enclave::new_virtual(spec.config.cpu);
            let runtime = ZcRuntime::start_inner(
                spec.config,
                Arc::clone(&spec.table),
                enclave,
                false,
                spec.faults.clone(),
                spec.telemetry.clone(),
            )?;
            runtime.set_worker_cap(seed);
            shards.push(Shard {
                name: spec.name,
                runtime,
                telemetry: spec.telemetry,
            });
        }
        Ok(Fleet {
            shards,
            controller: Mutex::new(controller),
        })
    }

    /// Number of tenants.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.shards.len()
    }

    /// Tenant label.
    #[must_use]
    pub fn name(&self, tenant: usize) -> &str {
        &self.shards[tenant].name
    }

    /// The tenant's shard runtime (dispatch traffic through this).
    #[must_use]
    pub fn runtime(&self, tenant: usize) -> &ZcRuntime {
        &self.shards[tenant].runtime
    }

    /// Current per-shard worker caps.
    #[must_use]
    pub fn caps(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.runtime.worker_cap()).collect()
    }

    /// Completed global allocation decisions.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.controller.lock().decisions()
    }

    /// Gather per-shard demand and behaviour evidence, run the global
    /// argmin, and apply the new caps with the quiesce-and-migrate
    /// protocol: donors shrink first, the fleet waits (bounded by
    /// `quiesce_timeout` of wall time) for their schedulers to drop to
    /// the new cap, then receivers grow. Returns the decision.
    ///
    /// Shrinking donors before growing receivers keeps `Σ running
    /// workers ≤ budget` throughout; the wait observes each donor's
    /// *published* worker count, which only moves when its scheduler
    /// has actually re-parked workers. If the wait times out, no
    /// receiver grows: the donors keep their lowered caps, the receivers
    /// keep their old ones, and a later rebalance — whose donors have
    /// shrunk by then — hands out the raises.
    pub fn rebalance(&self, quiesce_timeout: Duration) -> FleetDecision {
        let evidence: Vec<ShardEvidence> = self.shards.iter().map(Shard::evidence).collect();
        self.migrate(&evidence, quiesce_timeout)
    }

    /// One controller decision over `evidence`, applied in
    /// quiesce-and-migrate order.
    fn migrate(&self, evidence: &[ShardEvidence], quiesce_timeout: Duration) -> FleetDecision {
        let mut donors = Vec::new();
        let (decision, raises) = self.controller.lock().decide(evidence, |change| {
            self.shards[change.shard].move_cap(change);
            donors.push(change);
        });
        let deadline = Instant::now() + quiesce_timeout;
        while donors
            .iter()
            .any(|d| self.shards[d.shard].runtime.active_workers() > d.to)
        {
            if Instant::now() >= deadline {
                // A donor is still running workers it has to give up:
                // growing a receiver now would put `Σ running` over the
                // budget.
                drop(raises);
                return decision;
            }
            std::thread::yield_now();
            std::thread::sleep(Duration::from_micros(200));
        }
        raises.raise(|change| self.shards[change.shard].move_cap(change));
        decision
    }

    /// Per-tenant conservation ledger: for each shard,
    /// `offered == completed + shed + abandoned + refused` from its own
    /// counters. Exact at quiescent points (no calls in flight).
    #[must_use]
    pub fn fleet_snapshot(&self) -> FleetSnapshot {
        FleetSnapshot::from_tenants(self.shards.iter().map(|s| s.runtime.usage()).collect())
    }

    /// Shut every shard down (idempotent; also runs on drop).
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.runtime.shutdown();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::policy::{DecisionRecord, MicroQuantumReport, PolicyParams};
    use switchless_core::{CpuSpec, OcallDispatcher, OcallRequest};

    fn echo_table() -> (Arc<OcallTable>, switchless_core::FuncId) {
        let mut table = OcallTable::new();
        let id = table.register("echo", |_: &[u64; 6], pin: &[u8], out: &mut Vec<u8>| {
            out.extend_from_slice(pin);
            pin.len() as i64
        });
        (Arc::new(table), id)
    }

    /// Wall-clock bound on waits for published state.
    const BACKSTOP: Duration = Duration::from_secs(30);

    fn params(budget: usize) -> FleetParams {
        FleetParams::new(PolicyParams::from_cpu(&CpuSpec::paper_machine()), budget)
    }

    fn spec(name: &str) -> (TenantSpec, switchless_core::FuncId) {
        let (table, id) = echo_table();
        (
            TenantSpec::new(name, ZcConfig::for_cpu(CpuSpec::paper_machine()), table),
            id,
        )
    }

    #[test]
    fn fleet_starts_dispatches_and_conserves() {
        let (a, fa) = spec("alpha");
        let (b, fb) = spec("beta");
        let fleet = Fleet::start(params(4), vec![a, b]).expect("fleet start");
        assert_eq!(fleet.tenants(), 2);
        let mut out = Vec::new();
        for _ in 0..32 {
            let (ret, _) = fleet
                .runtime(0)
                .dispatch(&OcallRequest::new(fa, &[]), b"aaaa", &mut out)
                .expect("tenant 0 call");
            assert_eq!(ret, 4);
            let (ret, _) = fleet
                .runtime(1)
                .dispatch(&OcallRequest::new(fb, &[]), b"bb", &mut out)
                .expect("tenant 1 call");
            assert_eq!(ret, 2);
        }
        fleet.shutdown();
        let snap = fleet.fleet_snapshot();
        snap.check().expect("per-tenant conservation");
        assert_eq!(snap.tenants[0].offered, 32);
        assert_eq!(snap.tenants[1].offered, 32);
    }

    #[test]
    fn initial_caps_follow_weights_and_respect_budget() {
        let (a, _) = spec("heavy");
        let (b, _) = spec("light");
        let fleet = Fleet::start(params(4), vec![a.with_weight(3), b]).expect("fleet start");
        let caps = fleet.caps();
        assert!(caps[0] >= caps[1], "heavier tenant seeded below lighter");
        assert!(caps.iter().all(|&c| c >= 1));
        fleet.shutdown();
    }

    #[test]
    fn rebalance_applies_caps_within_budget() {
        let (a, fa) = spec("busy");
        let (b, _) = spec("idle");
        let fleet = Fleet::start(params(4), vec![a, b]).expect("fleet start");
        let mut out = Vec::new();
        for _ in 0..64 {
            fleet
                .runtime(0)
                .dispatch(&OcallRequest::new(fa, &[]), b"x", &mut out)
                .expect("tenant 0 call");
        }
        let d = fleet.rebalance(BACKSTOP);
        assert_eq!(d.assigned.len(), 2);
        assert!(d.assigned.iter().sum::<usize>() <= 4);
        // Applied caps match the decision (floored at 1).
        for (t, &m) in d.assigned.iter().enumerate() {
            assert_eq!(fleet.runtime(t).worker_cap(), m.max(1));
        }
        assert_eq!(fleet.decisions(), 1);
        fleet.shutdown();
    }

    /// A donor whose scheduler has not stepped under its lowered cap
    /// when the quiesce wait runs out: the receiver must not grow.
    #[test]
    fn timed_out_quiesce_raises_no_cap() {
        // A quantum the free-running virtual-clock scheduler cannot
        // sleep out within the test (2·10^8 clock steps): both shards
        // keep publishing their two initial workers, whatever their cap.
        let stuck = |name| {
            let (mut spec, id) = spec(name);
            spec.config = spec
                .config
                .with_quantum_ms(1_000_000_000)
                .with_initial_workers(2);
            (spec, id)
        };
        let (a, fa) = stuck("hungry");
        let (b, fb) = stuck("sated");
        let fleet = Fleet::start(params(4), vec![a, b]).expect("fleet start");
        assert_eq!(fleet.caps(), [2, 2]);
        let mut out = Vec::new();
        for (t, f) in [(0, fa), (1, fb)] {
            fleet
                .runtime(t)
                .dispatch(&OcallRequest::new(f, &[]), b"x", &mut out)
                .expect("call");
        }
        // Shard 0 measured a demand curve worth three workers, shard 1
        // none: the decision moves one worker from shard 1 to shard 0.
        let mut evidence: Vec<ShardEvidence> = fleet.shards.iter().map(Shard::evidence).collect();
        evidence[0].last_decision = Some(DecisionRecord {
            chosen_workers: 2,
            probes: [500, 300, 150, 50, 0]
                .iter()
                .enumerate()
                .map(|(workers, &fallbacks)| MicroQuantumReport { workers, fallbacks })
                .collect(),
            costs: Vec::new(),
        });
        let d = fleet.migrate(&evidence, Duration::ZERO);
        assert_eq!(d.assigned, [3, 1]);
        assert_eq!(fleet.runtime(1).active_workers(), 2, "donor not quiesced");
        assert_eq!(fleet.caps(), [2, 1], "the receiver grew past a busy donor");
        let running: usize = (0..2).map(|t| fleet.runtime(t).active_workers()).sum();
        assert!(running <= 4 && fleet.caps().iter().sum::<usize>() <= 4);
        fleet.shutdown();
    }

    #[test]
    fn rebalance_emits_tenant_labelled_events() {
        let (a, fa) = spec("noisy");
        let (b, _) = spec("quiet");
        let hub = zc_telemetry::Telemetry::new();
        let fleet = Fleet::start(params(4), vec![a.with_telemetry(Arc::clone(&hub)), b])
            .expect("fleet start");
        let mut out = Vec::new();
        for _ in 0..64 {
            fleet
                .runtime(0)
                .dispatch(&OcallRequest::new(fa, &[]), b"x", &mut out)
                .expect("call");
        }
        // Drive rebalances until tenant 0's cap moves off its seed.
        let seeded = fleet.caps()[0];
        for _ in 0..50 {
            fleet.rebalance(BACKSTOP);
            if fleet.caps()[0] != seeded {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        fleet.shutdown();
        let moved = fleet.caps()[0] != seeded;
        let events = hub.tracer().drain();
        let rebalances: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                zc_telemetry::Event::FleetRebalance {
                    tenant,
                    cap_before,
                    cap_after,
                    ..
                } => Some((tenant.clone(), *cap_before, *cap_after)),
                _ => None,
            })
            .collect();
        assert_eq!(
            moved,
            !rebalances.is_empty(),
            "cap moves and rebalance events must agree: caps {:?}, events {rebalances:?}",
            fleet.caps()
        );
        for (tenant, before, after) in &rebalances {
            assert_eq!(tenant, "noisy", "event labelled with the wrong tenant");
            assert_ne!(before, after);
        }
    }

    #[test]
    fn worker_cap_bounds_the_scheduler() {
        let (a, fa) = spec("capped");
        let fleet = Fleet::start(params(1), vec![a]).expect("fleet start");
        assert_eq!(fleet.caps(), vec![1]);
        let mut out = Vec::new();
        let mut call = || {
            fleet
                .runtime(0)
                .dispatch(&OcallRequest::new(fa, &[]), b"y", &mut out)
                .expect("call");
        };
        // The cap is imposed after the runtime started: keep the load
        // up until the scheduler has taken a step under it (it
        // free-runs on the virtual clock, but only once the OS runs its
        // thread).
        let backstop = Instant::now() + BACKSTOP;
        while fleet.runtime(0).active_workers() > 1 {
            assert!(
                Instant::now() < backstop,
                "scheduler never stepped under the cap"
            );
            call();
        }
        // From then on the published worker count can never exceed it.
        for _ in 0..128 {
            call();
            assert!(fleet.runtime(0).active_workers() <= 1);
        }
        fleet.shutdown();
        assert!(fleet.runtime(0).active_workers() <= 1);
    }
}
