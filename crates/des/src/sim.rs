//! Experiment assembly: machine + mechanism + workload → report.

use crate::kernel::{Kernel, DEFAULT_RR_QUANTUM};
use crate::metrics::{Sample, SimCounters, Timeline};
use crate::ocall::hotcalls::{HotWorkerActor, HotcallsConfig, HotcallsDispatcher, HotcallsWorld};
use crate::ocall::intel::{IntelDispatcher, IntelSimConfig, IntelWorkerActor, IntelWorld};
use crate::ocall::regular::RegularDispatcher;
use crate::ocall::zc::{
    ZcDispatcher, ZcEnclaveActor, ZcSchedulerActor, ZcSimFaults, ZcSupervisorActor, ZcWorkerActor,
    ZcWorld,
};
use crate::ocall::{CostModel, Dispatcher};
use crate::workload::{CallerActor, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use switchless_core::config::{
    DEFAULT_FALLBACK_WEIGHT, DEFAULT_POOL_BYTES, PAPER_MU_INVERSE, PAPER_QUANTUM_MS,
};
use switchless_core::cpu::CpuSpec;
use switchless_core::policy::PolicyParams;
use switchless_core::stats::WorkerResidency;

/// ZC model parameters (paper defaults; all overridable for ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZcSimParams {
    /// Scheduling quantum in milliseconds (paper: 10).
    pub quantum_ms: u64,
    /// Inverse micro-quantum fraction (paper: 100).
    pub mu_inverse: u64,
    /// Initial worker count (paper: `N/2`); `None` = max.
    pub initial_workers: Option<usize>,
    /// Maximum workers (paper: `N/2`); `None` = `N/2`.
    pub max_workers: Option<usize>,
    /// Per-worker untrusted pool bytes.
    pub pool_bytes: u64,
    /// Scheduler fallback weight (see
    /// [`switchless_core::policy::PolicyParams::fallback_weight`]).
    pub fallback_weight: u64,
}

impl Default for ZcSimParams {
    fn default() -> Self {
        ZcSimParams {
            quantum_ms: PAPER_QUANTUM_MS,
            mu_inverse: PAPER_MU_INVERSE,
            initial_workers: None,
            max_workers: None,
            pool_bytes: DEFAULT_POOL_BYTES as u64,
            fallback_weight: DEFAULT_FALLBACK_WEIGHT,
        }
    }
}

impl ZcSimParams {
    /// Scheduler policy parameters of a shard with these parameters on
    /// machine `cpu` (the DES counterpart of `ZcConfig::policy_params`).
    pub(crate) fn policy_params(&self, cpu: &CpuSpec) -> PolicyParams {
        PolicyParams::new(
            cpu,
            cpu.quantum_cycles(self.quantum_ms),
            self.mu_inverse,
            self.max_workers.unwrap_or(cpu.zc_max_workers()),
            self.fallback_weight,
        )
    }
}

/// Selects nothing: the DES has one kernel. Frozen shim for
/// `benchmark/src/{des,layers}.rs` until ROADMAP [bench-unfreeze].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The name the frozen benchmark passes.
    EventDriven,
}

/// Which switchless mechanism the simulation runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Mechanism {
    /// All calls as regular ocalls.
    NoSl,
    /// The Intel SDK mechanism with a static configuration.
    Intel(IntelSimConfig),
    /// ZC-SWITCHLESS with its adaptive scheduler.
    Zc(ZcSimParams),
    /// HotCalls: dedicated always-spinning workers, no fallback.
    Hotcalls(HotcallsConfig),
}

/// Full experiment description.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Machine model.
    pub cpu: CpuSpec,
    /// OS round-robin quantum in cycles.
    pub rr_quantum: u64,
    /// Mechanism under test.
    pub mechanism: Mechanism,
    /// One workload per caller thread.
    pub workloads: Vec<WorkloadSpec>,
    /// Number of call classes used by the workloads.
    pub classes: usize,
    /// Timeline sample interval in cycles (`0` = final sample only).
    pub sample_interval_cycles: u64,
    /// Hard stop in cycles (safety net for open-loop runs).
    pub deadline_cycles: u64,
    /// Deterministic worker-fault schedule for the ZC mechanism: spawns
    /// a supervisor actor applying the crashes/hangs/Byzantine
    /// corruptions at their virtual times and arms every caller's
    /// watchdog. Ignored by non-ZC mechanisms. `None` (the default)
    /// models a fault-free, honest-host machine.
    pub zc_faults: Option<ZcSimFaults>,
    /// Telemetry hub receiving scheduler, fault, recovery and per-call
    /// phase events (stamped with kernel virtual time) and end-of-run
    /// counters. `None` (the default) traces nothing; the run is the
    /// same either way.
    pub telemetry: Option<std::sync::Arc<zc_telemetry::Telemetry>>,
}

impl SimConfig {
    /// Experiment on the paper machine with default costs, a 60-virtual-
    /// second deadline and no intermediate sampling.
    #[must_use]
    pub fn new(mechanism: Mechanism, workloads: Vec<WorkloadSpec>, classes: usize) -> Self {
        let cpu = CpuSpec::paper_machine();
        SimConfig {
            cpu,
            rr_quantum: DEFAULT_RR_QUANTUM,
            mechanism,
            workloads,
            classes,
            sample_interval_cycles: 0,
            deadline_cycles: cpu.freq_hz * 120,
            zc_faults: None,
            telemetry: None,
        }
    }

    /// Builder-style telemetry hub (see [`SimConfig::telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: std::sync::Arc<zc_telemetry::Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Returns `self`: frozen shim for `benchmark/src/layers.rs` until
    /// ROADMAP [bench-unfreeze].
    #[doc(hidden)]
    #[must_use]
    pub fn with_kernel_mode(self, _mode: KernelMode) -> Self {
        self
    }

    /// Builder-style vCPU count: overrides the machine's logical CPU
    /// count (and with it derived quantities such as the ZC worker cap,
    /// `N/2`). The kernel accepts any count (DESIGN.md §11 has its host
    /// time at 128 vCPUs).
    #[must_use]
    pub fn with_vcpus(mut self, vcpus: usize) -> Self {
        self.cpu = self.cpu.with_logical_cpus(vcpus);
        self
    }

    /// Builder-style timeline sampling interval.
    #[must_use]
    pub fn with_sampling(mut self, interval_cycles: u64) -> Self {
        self.sample_interval_cycles = interval_cycles;
        self
    }

    /// Builder-style deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline_cycles: u64) -> Self {
        self.deadline_cycles = deadline_cycles;
        self
    }

    /// Builder-style ZC worker-fault schedule (see
    /// [`SimConfig::zc_faults`]).
    #[must_use]
    pub fn with_zc_faults(mut self, faults: ZcSimFaults) -> Self {
        self.zc_faults = Some(faults);
        self
    }
}

/// Fault-injection and recovery summary of one ZC run (all zero for
/// fault-free runs and non-ZC mechanisms).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecovery {
    /// Injected crashes applied.
    pub crashes: u64,
    /// Injected hangs applied.
    pub hangs: u64,
    /// Worker slots recovered (supervisor revivals plus watchdog-driven
    /// self-recoveries).
    pub respawns: u64,
    /// In-flight calls cancelled by caller watchdogs (each completed on
    /// the regular path instead — never lost).
    pub cancelled: u64,
    /// Byzantine corruptions detected by the trusted-side guards (each
    /// quarantined its worker slot until revival).
    #[serde(default)]
    pub guard_violations: u64,
    /// Workers still dead when the run ended (0 = full recovery).
    pub dead_workers: u64,
    /// Whole-enclave crashes the recovery plane observed (a crash that
    /// fires while an earlier one is still recovering folds into it
    /// and is not counted).
    #[serde(default)]
    pub enclave_crashes: u64,
    /// Completed enclave restarts (recovery-plane epoch at run end).
    #[serde(default)]
    pub enclave_restarts: u64,
    /// Journaled calls replayed after a restart (idempotent re-runs).
    #[serde(default)]
    pub journal_replays: u64,
    /// Journaled results redelivered without re-execution.
    #[serde(default)]
    pub call_redeliveries: u64,
    /// Non-idempotent calls refused by post-crash reconciliation.
    #[serde(default)]
    pub refused_non_idempotent: u64,
    /// Journal entries still live at run end (0 = every journaled call
    /// was reconciled and retired).
    #[serde(default)]
    pub journal_live: u64,
}

impl FaultRecovery {
    /// Fault and recovery-plane accounting of `world` as it stands,
    /// with the watchdog cancels its callers counted into `counters`.
    pub(crate) fn from_world(w: &ZcWorld, counters: &SimCounters) -> Self {
        let rec = w.recovery.as_ref().map(|p| p.snapshot());
        FaultRecovery {
            crashes: w.crashes,
            hangs: w.hangs,
            respawns: w.respawns,
            cancelled: counters.cancelled,
            guard_violations: w.guard_violations,
            dead_workers: w.workers.iter().filter(|s| s.dead).count() as u64,
            enclave_crashes: rec.as_ref().map_or(0, |s| s.crashes),
            enclave_restarts: rec.as_ref().map_or(0, |s| s.epoch),
            journal_replays: rec.as_ref().map_or(0, |s| s.replayed),
            call_redeliveries: rec.as_ref().map_or(0, |s| s.redelivered),
            refused_non_idempotent: rec.as_ref().map_or(0, |s| s.refused_non_idempotent),
            journal_live: rec.as_ref().map_or(0, |s| s.journal_live as u64),
        }
    }
}

/// Recovery-latency samples of one run (empty without enclave faults).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryLatencies {
    /// Restart-completion → first completed call, per restart (cycles).
    pub restart_to_first_completion: Vec<u64>,
    /// Crash-detection → resolution of each call that straddled a
    /// crash and was redelivered or replayed (cycles).
    pub redelivery_cycles: Vec<u64>,
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Virtual time when the last caller finished (or the deadline).
    pub duration_cycles: u64,
    /// Final counters.
    pub counters: SimCounters,
    /// Timeline samples (empty unless sampling was enabled).
    pub timeline: Timeline,
    /// Total busy cycles over all threads.
    pub total_busy_cycles: u64,
    /// Busy cycles of caller threads.
    pub caller_busy_cycles: u64,
    /// Busy cycles of worker threads.
    pub worker_busy_cycles: u64,
    /// ZC worker-count residency (empty histogram for other mechanisms).
    pub residency: WorkerResidency,
    /// Mean active ZC workers weighted by time (0 otherwise).
    pub mean_active_workers: f64,
    /// Fault-injection and recovery summary (all zero unless
    /// [`SimConfig::zc_faults`] was set).
    #[serde(default)]
    pub fault_recovery: FaultRecovery,
    /// Enclave-recovery latency samples (empty without enclave faults).
    #[serde(default)]
    pub recovery_latencies: RecoveryLatencies,
    /// Machine model the run used.
    pub cpu: CpuSpec,
    /// Actor steps the kernel ran ([`Kernel::steps`]): the host-side
    /// work of the run, one step per protocol turn of each thread.
    #[serde(default)]
    pub kernel_steps: u64,
}

impl SimReport {
    /// Run duration in (virtual) seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.cpu.cycles_to_secs(self.duration_cycles)
    }

    /// Per-path SLO report of this run, built from the phase profiler of
    /// the hub the simulation ran with. Times are virtual: percentiles,
    /// goodput and the per-phase breakdown are derived from kernel
    /// cycles at the simulated CPU frequency.
    #[must_use]
    pub fn slo_report(
        &self,
        hub: &zc_telemetry::Telemetry,
        label: &str,
    ) -> zc_telemetry::SloReport {
        zc_telemetry::SloReport::from_profile(
            label,
            &hub.profile().snapshot(),
            self.cpu.freq_hz,
            self.duration_cycles,
        )
    }

    /// Machine-wide average CPU utilisation in percent over the run.
    #[must_use]
    pub fn cpu_percent(&self) -> f64 {
        let capacity = self
            .duration_cycles
            .saturating_mul(self.cpu.logical_cpus as u64);
        if capacity == 0 {
            return 0.0;
        }
        (self.total_busy_cycles as f64 / capacity as f64 * 100.0).min(100.0)
    }
}

/// Spawn one caller thread per workload, each driving the dispatcher
/// `make_dispatcher` builds for its index.
fn spawn_callers(
    kernel: &mut Kernel,
    workloads: &[WorkloadSpec],
    counters: &Rc<RefCell<SimCounters>>,
    mut make_dispatcher: impl FnMut(usize) -> Box<dyn Dispatcher>,
) {
    for (i, spec) in workloads.iter().enumerate() {
        let d = make_dispatcher(i);
        kernel.spawn(Box::new(CallerActor::new(
            i,
            d,
            Rc::clone(counters),
            spec.clone(),
        )));
    }
}

/// Everything one ZC shard stack is built from, besides the kernel it
/// runs in and the counters it reports into.
pub(crate) struct ZcShardSpec<'a> {
    pub cpu: &'a CpuSpec,
    pub zc: &'a ZcSimParams,
    pub faults: Option<&'a ZcSimFaults>,
    /// One workload per caller thread.
    pub workloads: &'a [WorkloadSpec],
    pub telemetry: Option<&'a Arc<zc_telemetry::Telemetry>>,
    /// Fleet bulkhead: this shard's seeded share of a global worker
    /// budget, which caps its scheduler until the first rebalance.
    /// `None` (a single-tenant run) leaves the shard its own ceiling.
    pub share: Option<usize>,
}

/// Spawn one ZC shard stack into `kernel`, in the fixed order every tid
/// and bell downstream depends on: world, workers, adaptive
/// scheduler, fault supervisor and enclave-lifecycle actor (if the
/// schedule needs them), then the watchdog-armed callers.
pub(crate) fn spawn_zc_shard(
    kernel: &mut Kernel,
    spec: &ZcShardSpec<'_>,
    counters: &Rc<RefCell<SimCounters>>,
) -> Rc<RefCell<ZcWorld>> {
    let zp = spec.zc;
    let params = zp.policy_params(spec.cpu);
    let max_workers = params.max_workers;
    // A fleet shard never starts below the fairness floor of one worker.
    let (cap, floor) = match spec.share {
        Some(share) => (share.clamp(1, max_workers), 1),
        None => (max_workers, 0),
    };
    let initial = zp.initial_workers.unwrap_or(cap).min(cap).max(floor);
    let world = ZcWorld::new(kernel, max_workers, spec.workloads.len(), zp.pool_bytes);
    world.borrow_mut().worker_cap = cap;
    for i in 0..max_workers {
        let tid = kernel.spawn(Box::new(ZcWorkerActor::new(Rc::clone(&world), i)));
        world.borrow_mut().worker_tids.push(tid);
    }
    kernel.spawn(Box::new(ZcSchedulerActor::new(
        Rc::clone(&world),
        Rc::clone(counters),
        params,
        initial,
        spec.telemetry.cloned(),
    )));
    if let Some(faults) = spec.faults {
        kernel.spawn(Box::new(ZcSupervisorActor::new(
            Rc::clone(&world),
            faults,
            spec.telemetry.cloned(),
        )));
        if faults.has_enclave_faults() {
            // Enclave faults: build the recovery plane and the
            // lifecycle actor that drives restarts through it.
            world.borrow_mut().install_enclave_faults(faults);
            let tid = kernel.spawn(Box::new(ZcEnclaveActor::new(Rc::clone(&world))));
            world.borrow_mut().enclave_tid = Some(tid);
        }
    }
    let costs = CostModel::on(spec.cpu);
    let watchdog = spec.faults.map(|f| f.watchdog_pauses);
    spawn_callers(kernel, spec.workloads, counters, |caller| {
        Box::new(ZcDispatcher::new(
            Rc::clone(&world),
            Rc::clone(counters),
            costs,
            caller,
            watchdog,
            spec.telemetry.cloned(),
        ))
    });
    world
}

/// Run one experiment to completion (all callers done or deadline).
pub fn run(config: &SimConfig) -> SimReport {
    let mut kernel = Kernel::new(
        config.cpu.logical_cpus,
        config.rr_quantum,
        config.cpu.pause_cycles,
    );
    let callers = config.workloads.len();
    let counters = Rc::new(RefCell::new(SimCounters::new(callers, config.classes)));
    let hub = config.telemetry.as_ref();
    let costs = CostModel::on(&config.cpu);

    // Build the mechanism world and workers, then one caller per
    // workload driving that mechanism's dispatcher.
    let zc_world_handle = match &config.mechanism {
        Mechanism::NoSl => {
            spawn_callers(&mut kernel, &config.workloads, &counters, |caller| {
                Box::new(RegularDispatcher::new(costs, caller, hub.cloned()))
            });
            None
        }
        Mechanism::Intel(icfg) => {
            let world = IntelWorld::new(&mut kernel, icfg.clone(), callers);
            for i in 0..icfg.workers {
                let tid = kernel.spawn(Box::new(IntelWorkerActor::new(Rc::clone(&world), i)));
                world.borrow_mut().worker_tids.push(tid);
            }
            spawn_callers(&mut kernel, &config.workloads, &counters, |caller| {
                Box::new(IntelDispatcher::new(
                    Rc::clone(&world),
                    costs,
                    caller,
                    hub.cloned(),
                ))
            });
            None
        }
        Mechanism::Hotcalls(hcfg) => {
            let world = HotcallsWorld::new(&mut kernel, hcfg.clone(), callers);
            for i in 0..hcfg.workers {
                let tid = kernel.spawn(Box::new(HotWorkerActor::new(Rc::clone(&world), i)));
                world.borrow_mut().worker_tids.push(tid);
            }
            spawn_callers(&mut kernel, &config.workloads, &counters, |caller| {
                Box::new(HotcallsDispatcher::new(Rc::clone(&world), costs, caller))
            });
            None
        }
        Mechanism::Zc(zp) => {
            let shard = ZcShardSpec {
                cpu: &config.cpu,
                zc: zp,
                faults: config.zc_faults.as_ref(),
                workloads: &config.workloads,
                telemetry: hub,
                share: None,
            };
            Some(spawn_zc_shard(&mut kernel, &shard, &counters))
        }
    };

    // Drive the run, sampling the timeline externally.
    let mut timeline = Timeline::default();
    let take_sample = |kernel: &Kernel, timeline: &mut Timeline| {
        let c = counters.borrow();
        timeline.samples.push(Sample {
            t_cycles: kernel.now(),
            ops_per_caller: c.ops_per_caller.clone(),
            busy_cycles: kernel.total_busy_cycles(),
            fallbacks: c.fallback,
            switchless: c.switchless,
            active_workers: zc_world_handle
                .as_ref()
                .map_or(0, |w| w.borrow().active_workers),
        });
    };

    take_sample(&kernel, &mut timeline);
    let interval = if config.sample_interval_cycles == 0 {
        config.deadline_cycles
    } else {
        config.sample_interval_cycles
    };
    loop {
        let next = (kernel.now() + interval).min(config.deadline_cycles);
        // Stop the instant the last caller finishes: simulating idle
        // workers and the scheduler past that point would pollute the
        // CPU and residency metrics.
        kernel.run_while(next, || counters.borrow().callers_live > 0);
        take_sample(&kernel, &mut timeline);
        let done = counters.borrow().callers_live == 0;
        // A quiescent machine (no event left that can change it) stops
        // short of `next`, and would every time after.
        if done || kernel.now() >= config.deadline_cycles || kernel.next_tick().is_none() {
            break;
        }
    }

    let counters_final = counters.borrow().clone();
    let duration_cycles = if counters_final.callers_live == 0 && counters_final.last_completion > 0
    {
        counters_final.last_completion
    } else {
        kernel.now()
    };
    let fault_recovery = zc_world_handle
        .as_ref()
        .map_or_else(FaultRecovery::default, |w| {
            FaultRecovery::from_world(&w.borrow(), &counters_final)
        });
    let recovery_latencies =
        zc_world_handle
            .as_ref()
            .map_or_else(RecoveryLatencies::default, |w| {
                let w = w.borrow();
                RecoveryLatencies {
                    restart_to_first_completion: w.restart_to_first_completion.clone(),
                    redelivery_cycles: w.redelivery_cycles.clone(),
                }
            });
    let (residency, mean_active) = zc_world_handle.map_or_else(
        || (WorkerResidency::new(0), 0.0),
        |w| {
            let w = w.borrow();
            (w.residency.clone(), w.residency.mean_workers())
        },
    );
    if let Some(hub) = hub {
        hub.record(
            duration_cycles,
            zc_telemetry::Origin::Sim,
            zc_telemetry::Event::Marker {
                label: "sim_run_end",
            },
        );
    }
    SimReport {
        duration_cycles,
        total_busy_cycles: kernel.total_busy_cycles(),
        caller_busy_cycles: kernel.group_busy_cycles("caller"),
        worker_busy_cycles: kernel.group_busy_cycles("worker"),
        counters: counters_final,
        timeline,
        residency,
        mean_active_workers: mean_active,
        fault_recovery,
        recovery_latencies,
        cpu: config.cpu,
        kernel_steps: kernel.steps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ocall::CallDesc;
    use switchless_core::{Fault, FaultPlan, FaultSchedule, GuardKind, Ledger};

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

    #[test]
    fn no_sl_baseline_runs() {
        let r = run(&SimConfig::new(
            Mechanism::NoSl,
            vec![closed(1_000, 500)],
            1,
        ));
        assert_eq!(r.counters.total_calls(), 1_000);
        assert_eq!(r.counters.regular, 1_000);
        assert_eq!(r.counters.switchless, 0);
        // Duration ≈ 1000 * (13500 + copy + 500).
        assert!(r.duration_cycles >= 1_000 * 14_000);
        assert!(r.duration_cycles < 1_000 * 16_000);
    }

    #[test]
    fn intel_switchless_runs_mostly_switchless() {
        let cfg = SimConfig::new(
            Mechanism::Intel(IntelSimConfig::new(2, [0])),
            vec![closed(1_000, 500); 2],
            1,
        );
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 2_000);
        assert!(
            r.counters.switchless > 1_800,
            "dedicated workers should serve nearly all calls switchlessly, got {}",
            r.counters.switchless
        );
        assert!(r.worker_busy_cycles > 0);
    }

    #[test]
    fn intel_non_switchless_class_goes_regular() {
        let cfg = SimConfig::new(
            Mechanism::Intel(IntelSimConfig::new(2, [7])), // class 7 only
            vec![closed(500, 500)],
            1,
        );
        let r = run(&cfg);
        assert_eq!(r.counters.regular, 500);
        assert_eq!(r.counters.switchless, 0);
    }

    #[test]
    fn hotcalls_serves_everything_switchlessly_without_fallback() {
        use crate::ocall::hotcalls::HotcallsConfig;
        let cfg = SimConfig::new(
            Mechanism::Hotcalls(HotcallsConfig::new(2, [0])),
            vec![closed(2_000, 500); 3],
            1,
        );
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 6_000);
        assert_eq!(r.counters.switchless, 6_000, "hotcalls never falls back");
        assert_eq!(r.counters.fallback, 0);
        assert!(r.worker_busy_cycles > 0);
    }

    #[test]
    fn hotcalls_burns_cpu_even_when_idle_intel_sleeps() {
        use crate::ocall::hotcalls::HotcallsConfig;
        use crate::ocall::intel::IntelSimConfig;
        // A workload with long in-enclave gaps between calls: hot workers
        // keep spinning through the gaps, Intel workers sleep after rbs.
        let sparse = WorkloadSpec::ClosedLoop {
            pattern: vec![CallDesc {
                pre_compute_cycles: 10_000_000, // ~2.6 ms of enclave work
                host_cycles: 500,
                ..CallDesc::default()
            }],
            total_ops: 20,
        };
        let hot = run(&SimConfig::new(
            Mechanism::Hotcalls(HotcallsConfig::new(2, [0])),
            vec![sparse.clone()],
            1,
        ));
        let intel = run(&SimConfig::new(
            Mechanism::Intel(IntelSimConfig {
                retries_before_sleep: 1_000,
                ..IntelSimConfig::new(2, [0])
            }),
            vec![sparse],
            1,
        ));
        assert!(
            hot.worker_busy_cycles > intel.worker_busy_cycles * 2,
            "hot workers ({}) must burn far more than sleeping intel workers ({})",
            hot.worker_busy_cycles,
            intel.worker_busy_cycles
        );
    }

    #[test]
    fn zc_runs_and_schedules() {
        let cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(20_000, 500); 2],
            1,
        );
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 40_000);
        assert!(
            r.counters.switchless > 0,
            "zc must serve some calls switchlessly"
        );
        assert!(
            r.residency.total_cycles() > 0,
            "scheduler must record residency"
        );
    }

    #[test]
    fn zc_faster_than_no_sl_for_short_frequent_calls() {
        // The paper's core claim: switchless wins for short calls.
        let wl = vec![closed(10_000, 200); 4];
        let no_sl = run(&SimConfig::new(Mechanism::NoSl, wl.clone(), 1));
        let zc = run(&SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            wl,
            1,
        ));
        assert!(
            zc.duration_cycles < no_sl.duration_cycles,
            "zc ({}) must beat no_sl ({}) on short calls",
            zc.duration_cycles,
            no_sl.duration_cycles
        );
    }

    fn chaos_faults() -> ZcSimFaults {
        // 3 crashes + 2 hangs inside the first ~1.3 virtual ms, spread
        // over distinct workers (slot 0 is hit twice, after its revival).
        ZcSimFaults::new()
            .crash_at(1_000_000, 0)
            .crash_at(3_000_000, 1)
            .crash_at(5_000_000, 0)
            .hang_at(2_000_000, 2)
            .hang_at(4_000_000, 3)
            .with_respawn_delay(800_000)
            .with_watchdog_pauses(5_000)
    }

    /// A ZC soak config parameterized over machine scale: `vcpus`
    /// logical CPUs and `callers` closed-loop callers of `ops` calls
    /// each, with the given fault schedule. The `vcpus = 8` shape is
    /// the paper machine; 128 is the lifted scale.
    fn fault_soak_cfg(faults: ZcSimFaults, vcpus: usize, callers: usize, ops: u64) -> SimConfig {
        SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(ops, 500); callers],
            1,
        )
        .with_vcpus(vcpus)
        .with_zc_faults(faults)
    }

    #[test]
    fn zc_crashes_and_hangs_recover_without_losing_calls() {
        // 2 callers + 4 workers + scheduler + supervisor = 8 threads on
        // 8 cores: the supervisor gets a core the moment its timers
        // fire, so the schedule is applied at (not merely after) its
        // nominal virtual times and slot 0 is revived before its second
        // crash.
        let cfg = fault_soak_cfg(chaos_faults(), 8, 2, 30_000);
        let r = run(&cfg);
        // Conservation: every issued call completes exactly once.
        assert_eq!(r.counters.total_calls(), 60_000);
        assert_eq!(r.counters.ops_per_caller, vec![30_000; 2]);
        // All scheduled faults applied (times are spaced beyond the
        // revive delay, so no injection hits an already-dead worker).
        assert_eq!(r.fault_recovery.crashes, 3);
        assert_eq!(r.fault_recovery.hangs, 2);
        // Every failed slot recovered; none stayed dead.
        assert!(
            r.fault_recovery.respawns >= 5,
            "each fault must be revived, got {:?}",
            r.fault_recovery
        );
        assert_eq!(r.fault_recovery.dead_workers, 0, "{:?}", r.fault_recovery);
        // Cancelled calls completed on the regular path, never vanished.
        assert!(r.counters.cancelled <= r.counters.fallback);
        assert!(r.counters.conserves());
    }

    fn byzantine_faults() -> ZcSimFaults {
        // All six corruption kinds inside the first ~1.6 virtual ms,
        // spread over the 4 workers (slots 0 and 1 are hit twice, after
        // their revivals).
        ZcSimFaults::new()
            .flip_status_at(1_000_000, 0)
            .garbage_command_at(2_000_000, 1)
            .oversize_reply_at(3_000_000, 2)
            .undersize_reply_at(4_000_000, 3)
            .stale_seq_at(5_000_000, 0)
            .torn_request_at(6_000_000, 1)
            .with_respawn_delay(800_000)
            .with_watchdog_pauses(5_000)
    }

    #[test]
    fn zc_byzantine_host_recovers_without_losing_calls() {
        let cfg = fault_soak_cfg(byzantine_faults(), 8, 2, 30_000);
        let r = run(&cfg);
        // Conservation: every issued call completes exactly once, even
        // under a lying host.
        assert_eq!(r.counters.total_calls(), 60_000);
        assert_eq!(r.counters.ops_per_caller, vec![30_000; 2]);
        // Every injected corruption was detected and quarantined.
        assert_eq!(r.fault_recovery.guard_violations, 6);
        assert_eq!(r.fault_recovery.crashes, 0);
        // Every quarantined slot recovered; none stayed dead.
        assert!(
            r.fault_recovery.respawns >= 6,
            "each quarantined slot must be revived, got {:?}",
            r.fault_recovery
        );
        assert_eq!(r.fault_recovery.dead_workers, 0, "{:?}", r.fault_recovery);
        // Re-routed calls completed on the regular path, never vanished.
        assert!(r.counters.cancelled <= r.counters.fallback);
        assert!(r.counters.conserves());
    }

    #[test]
    fn same_instant_faults_on_one_worker_follow_fault_precedence() {
        // Two corruptions of slot 0 at one instant, the later `Fault`
        // listed last: the earlier one (`FlipStatus`) quarantines the
        // slot; the stale tag finds it already down, so it is neither
        // counted nor traced and schedules no second revival.
        let hub = zc_telemetry::Telemetry::new();
        let faults = ZcSimFaults::new()
            .flip_status_at(1_000_000, 0)
            .stale_seq_at(1_000_000, 0)
            .with_respawn_delay(800_000)
            .with_watchdog_pauses(5_000);
        let cfg = fault_soak_cfg(faults, 8, 2, 5_000).with_telemetry(Arc::clone(&hub));
        let r = run(&cfg);
        assert_eq!(
            r.fault_recovery.guard_violations, 1,
            "{:?}",
            r.fault_recovery
        );
        assert_eq!(r.fault_recovery.dead_workers, 0, "{:?}", r.fault_recovery);
        assert!(r.counters.conserves());
        let (mut kinds, mut revivals) = (Vec::new(), 0);
        for e in hub.tracer().drain() {
            match e.event {
                zc_telemetry::Event::GuardViolation { kind, .. } => kinds.push(kind),
                zc_telemetry::Event::WorkerRespawned { .. } => revivals += 1,
                _ => {}
            }
        }
        assert_eq!(kinds, [GuardKind::BadStatusWord]);
        assert_eq!(revivals, 1);
    }

    #[test]
    fn zc_chaos_soak_recovers_at_128_vcpus_on_event_kernel() {
        // The same crash/hang schedule at the lifted scale: 128 vCPUs
        // (64-worker pool) and 32 callers. Self-healing must be
        // scale-invariant: every fault still revives and every call
        // still completes exactly once.
        let cfg = fault_soak_cfg(chaos_faults(), 128, 32, 10_000);
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 320_000);
        assert_eq!(r.counters.ops_per_caller, vec![10_000; 32]);
        assert_eq!(r.fault_recovery.crashes, 3, "{:?}", r.fault_recovery);
        assert_eq!(r.fault_recovery.hangs, 2, "{:?}", r.fault_recovery);
        assert!(r.fault_recovery.respawns >= 5, "{:?}", r.fault_recovery);
        assert_eq!(r.fault_recovery.dead_workers, 0, "{:?}", r.fault_recovery);
        assert!(r.counters.cancelled <= r.counters.fallback);
        assert!(r.counters.conserves());
    }

    #[test]
    fn zc_byzantine_soak_recovers_at_128_vcpus_on_event_kernel() {
        // All six corruption kinds against the 128-vCPU machine: the trusted-side guards must detect and quarantine
        // each one regardless of pool size.
        let cfg = fault_soak_cfg(byzantine_faults(), 128, 32, 10_000);
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 320_000);
        assert_eq!(
            r.fault_recovery.guard_violations, 6,
            "{:?}",
            r.fault_recovery
        );
        assert_eq!(r.fault_recovery.crashes, 0, "{:?}", r.fault_recovery);
        assert!(r.fault_recovery.respawns >= 6, "{:?}", r.fault_recovery);
        assert_eq!(r.fault_recovery.dead_workers, 0, "{:?}", r.fault_recovery);
        assert!(r.counters.cancelled <= r.counters.fallback);
        assert!(r.counters.conserves());
    }

    /// Three whole-enclave crashes spread across the run plus an
    /// enclave stall: the ≥3-cycle crash/restart recovery soak.
    fn enclave_chaos_faults() -> ZcSimFaults {
        ZcSimFaults {
            enclave_faults: FaultPlan::new()
                .inject(
                    Fault::EnclaveCrash,
                    FaultSchedule::at_each([100, 5_000, 20_000]),
                )
                .inject(Fault::EnclaveStall, FaultSchedule::at(10_000))
                .cycles(Fault::EnclaveStall, 50_000),
            ..ZcSimFaults::new().with_enclave_restart_cycles(500_000)
        }
    }

    #[test]
    fn zc_enclave_crash_soak_recovers_with_exact_accounting() {
        // 2 closed-loop callers × 15k idempotent calls across three
        // enclave crash/restart cycles and one stall. Every offered
        // call must complete exactly once (idempotent calls straddling
        // a crash are replayed, completed-but-undelivered ones are
        // redelivered from the journal) and the journal must drain.
        let cfg = fault_soak_cfg(enclave_chaos_faults(), 8, 2, 15_000);
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 30_000);
        assert_eq!(r.counters.ops_per_caller, vec![15_000; 2]);
        assert_eq!(r.counters.refused_non_idempotent, 0);
        assert!(r.counters.conserves());
        let f = &r.fault_recovery;
        assert_eq!(f.enclave_crashes, 3, "{f:?}");
        assert_eq!(f.enclave_restarts, 3, "{f:?}");
        assert!(f.journal_replays >= 3, "{f:?}");
        assert_eq!(f.refused_non_idempotent, 0, "{f:?}");
        assert_eq!(f.journal_live, 0, "journal must drain: {f:?}");
        assert_eq!(r.recovery_latencies.restart_to_first_completion.len(), 3);
        assert!(!r.recovery_latencies.redelivery_cycles.is_empty());
    }

    #[test]
    fn zc_enclave_crash_refuses_non_idempotent_calls() {
        // All calls are non-idempotent: every call whose fate straddles
        // the crash must be refused (never silently replayed), and the
        // refusals must balance the conservation identity.
        let call = CallDesc {
            host_cycles: 500,
            payload_bytes: 64,
            non_idempotent: true,
            ..CallDesc::default()
        };
        let cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![
                WorkloadSpec::ClosedLoop {
                    pattern: vec![call],
                    total_ops: 5_000,
                };
                2
            ],
            1,
        )
        .with_vcpus(8)
        .with_zc_faults(
            ZcSimFaults::new()
                .crash_enclave_at_call(100)
                .with_enclave_restart_cycles(500_000),
        );
        let r = run(&cfg);
        let f = &r.fault_recovery;
        assert_eq!(f.enclave_crashes, 1, "{f:?}");
        assert!(r.counters.refused_non_idempotent >= 1, "{:?}", r.counters);
        assert_eq!(
            r.counters.refused_non_idempotent, f.refused_non_idempotent,
            "world and counter views must agree"
        );
        assert_eq!(f.journal_replays, 0, "nothing may replay: {f:?}");
        assert_eq!(
            r.counters.total_calls() + r.counters.refused_non_idempotent,
            10_000
        );
        assert!(r.counters.conserves());
        assert_eq!(f.journal_live, 0, "{f:?}");
    }

    #[test]
    fn zc_crash_during_replay_redelivers_without_reexecution() {
        // A second crash lands right after the first replay journals
        // its completion: reconciliation after the second restart must
        // redeliver the recorded result, not execute a third time.
        let cfg = fault_soak_cfg(
            ZcSimFaults {
                enclave_faults: FaultPlan::new()
                    .inject(Fault::EnclaveCrash, FaultSchedule::at(100))
                    .inject(Fault::EnclaveReplayCrash, FaultSchedule::at(0)),
                ..ZcSimFaults::new().with_enclave_restart_cycles(500_000)
            },
            8,
            2,
            5_000,
        );
        let r = run(&cfg);
        let f = &r.fault_recovery;
        assert_eq!(f.enclave_crashes, 2, "{f:?}");
        assert_eq!(f.enclave_restarts, 2, "{f:?}");
        assert!(f.call_redeliveries >= 1, "{f:?}");
        assert_eq!(r.counters.total_calls(), 10_000);
        assert!(r.counters.conserves());
        assert_eq!(f.journal_live, 0, "{f:?}");
    }

    #[test]
    fn zc_enclave_recovery_soak_at_128_vcpus_on_event_kernel() {
        // The recovery plane at the lifted scale: 128 vCPUs and 32
        // callers, three crash/restart cycles. Exactly-once accounting
        // must be scale-invariant.
        let faults = enclave_chaos_faults();
        let restart_cycles = faults.enclave_restart_cycles;
        let cfg = fault_soak_cfg(faults, 128, 32, 5_000);
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 160_000);
        assert_eq!(r.counters.ops_per_caller, vec![5_000; 32]);
        assert!(r.counters.conserves());
        let f = &r.fault_recovery;
        assert_eq!(f.enclave_crashes, 3, "{f:?}");
        assert_eq!(f.enclave_restarts, 3, "{f:?}");
        assert!(f.journal_replays >= 3, "{f:?}");
        assert_eq!(f.journal_live, 0, "{f:?}");
        assert_eq!(f.dead_workers, 0, "{f:?}");
        let rtfc = &r.recovery_latencies.restart_to_first_completion;
        assert_eq!(rtfc.len(), 3);
        // Service resumes promptly once the enclave is back: the first
        // completion after each restart lands within an order of
        // magnitude of the restart time itself.
        assert!(rtfc.iter().all(|&c| c <= 10 * restart_cycles), "{rtfc:?}");
        // Pinned digest. A PR that deliberately changes the model
        // re-pins it once and says so.
        assert_eq!(
            (r.counters.ledger(), r.duration_cycles),
            (
                Ledger {
                    offered: 160_000,
                    completed: 160_000,
                    shed: 0,
                    abandoned: 0,
                    refused: 0,
                },
                10_061_903
            )
        );
    }

    #[test]
    fn zc_enclave_recovery_runs_are_deterministic() {
        // Same seed-free closed-loop schedule, same report — including
        // the recovery counters and latency samples — byte for byte.
        let cfg = fault_soak_cfg(enclave_chaos_faults(), 128, 8, 2_000);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.duration_cycles, b.duration_cycles);
        assert_eq!(a.fault_recovery, b.fault_recovery);
        assert_eq!(a.recovery_latencies, b.recovery_latencies);
    }

    #[test]
    fn zc_enclave_faults_compose_with_worker_faults() {
        // Worker crashes and an enclave crash in one schedule: the
        // supervisor revives workers, the recovery plane restarts the
        // enclave, and the accounting still balances.
        let faults = chaos_faults()
            .crash_enclave_at_call(2_000)
            .with_enclave_restart_cycles(500_000);
        let cfg = fault_soak_cfg(faults, 8, 2, 10_000);
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 20_000);
        assert!(r.counters.conserves());
        let f = &r.fault_recovery;
        assert_eq!(f.crashes, 3, "{f:?}");
        assert_eq!(f.hangs, 2, "{f:?}");
        assert_eq!(f.enclave_crashes, 1, "{f:?}");
        assert_eq!(f.dead_workers, 0, "{f:?}");
        assert_eq!(f.journal_live, 0, "{f:?}");
    }

    /// 32 open-loop callers of sustained ~2× MMPP traffic against the
    /// ZC mechanism on the 128-vCPU machine, with a
    /// client-side dispatch budget — the overload regime of ISSUE 8.
    fn mmpp_overload_cfg(seed: u64) -> SimConfig {
        use crate::arrival::{ArrivalProcess, ServiceDist};
        use crate::workload::OpenLoad;
        let load = OpenLoad::new(
            simple_call(500),
            ArrivalProcess::Mmpp {
                calm_gap_cycles: 8_000,
                burst_gap_cycles: 1_000,
                calm_dwell_cycles: 200_000,
                burst_dwell_cycles: 100_000,
            },
            seed,
            20_000_000,
        )
        .with_service(ServiceDist::Exponential { mean_cycles: 400 })
        .with_deadline_budget(100_000);
        SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![WorkloadSpec::Open(load); 32],
            1,
        )
        .with_vcpus(128)
    }

    #[test]
    fn zc_mmpp_overload_soak_sheds_conserves_and_bounds_p99() {
        let r = run(&mmpp_overload_cfg(1));
        let c = &r.counters;
        assert!(
            c.offered > 100_000,
            "sustained MMPP load must offer heavily, got {}",
            c.offered
        );
        assert!(
            c.ops_shed > 0,
            "bursts outrun the caller, the budget must shed"
        );
        assert!(
            c.conserves(),
            "offered {} != completed {} + shed {} + abandoned {}",
            c.offered,
            c.total_calls(),
            c.ops_shed,
            c.ops_abandoned
        );
        assert!(
            c.goodput_ratio() > 0.3,
            "shedding must protect goodput, got {:.2}",
            c.goodput_ratio()
        );
        // Admitted calls ride the budget: queueing is capped at 100k
        // cycles, service at ~64×mean, so p99 sojourn (factor-of-2
        // histogram granularity) stays far below the 20M-cycle window.
        let p99 = c.sojourn_quantile_cycles(99);
        assert!(p99 > 0);
        assert!(p99 <= 1 << 19, "p99 sojourn unbounded: {p99} cycles");
    }

    #[test]
    fn zc_mmpp_overload_soak_is_byte_identical_across_runs() {
        let a = run(&mmpp_overload_cfg(9));
        let b = run(&mmpp_overload_cfg(9));
        assert_eq!(a.counters, b.counters, "same seed, same full trace");
        assert_eq!(a.duration_cycles, b.duration_cycles);
        assert_eq!(a.total_busy_cycles, b.total_busy_cycles);
        let c = run(&mmpp_overload_cfg(10));
        assert_ne!(a.counters, c.counters, "different seed, different trace");
    }

    #[test]
    fn zc_byzantine_runs_are_deterministic() {
        let cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(5_000, 500); 3],
            1,
        )
        .with_zc_faults(byzantine_faults());
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.duration_cycles, b.duration_cycles);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.fault_recovery, b.fault_recovery);
        assert_eq!(a.total_busy_cycles, b.total_busy_cycles);
    }

    #[test]
    fn zc_fault_runs_are_deterministic() {
        let cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(5_000, 500); 3],
            1,
        )
        .with_zc_faults(chaos_faults());
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.duration_cycles, b.duration_cycles);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.fault_recovery, b.fault_recovery);
        assert_eq!(a.total_busy_cycles, b.total_busy_cycles);
    }

    #[test]
    fn zc_faults_out_of_range_workers_are_ignored() {
        let cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(1_000, 500)],
            1,
        )
        .with_zc_faults(ZcSimFaults::new().crash_at(1_000_000, 999));
        let r = run(&cfg);
        assert_eq!(r.counters.total_calls(), 1_000);
        assert_eq!(r.fault_recovery.crashes, 0);
    }

    #[test]
    fn deadline_bounds_runaway_workloads() {
        let cfg = SimConfig::new(Mechanism::NoSl, vec![closed(u64::MAX / 2, 1_000)], 1)
            .with_deadline(10_000_000);
        let r = run(&cfg);
        assert!(r.duration_cycles <= 10_000_001);
        assert!(r.counters.callers_live > 0);
    }

    #[test]
    fn sampling_produces_a_timeline() {
        let cfg =
            SimConfig::new(Mechanism::NoSl, vec![closed(1_000, 500)], 1).with_sampling(1_000_000);
        let r = run(&cfg);
        assert!(r.timeline.samples.len() > 3);
        // Ops are monotonically non-decreasing.
        for w in r.timeline.samples.windows(2) {
            assert!(w[1].ops_per_caller[0] >= w[0].ops_per_caller[0]);
            assert!(w[1].busy_cycles >= w[0].busy_cycles);
        }
    }

    #[test]
    fn determinism_same_config_same_report() {
        let cfg = SimConfig::new(
            Mechanism::Zc(ZcSimParams::default()),
            vec![closed(2_000, 300); 3],
            1,
        );
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.duration_cycles, b.duration_cycles);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.total_busy_cycles, b.total_busy_cycles);
    }

    #[test]
    fn report_metrics_are_consistent() {
        let r = run(&SimConfig::new(Mechanism::NoSl, vec![closed(100, 100)], 1));
        assert!(r.duration_secs() > 0.0);
        assert!(r.cpu_percent() > 0.0 && r.cpu_percent() <= 100.0);
    }
}
