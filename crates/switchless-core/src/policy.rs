//! Pure scheduler mathematics of ZC-SWITCHLESS (paper §IV-A).
//!
//! The scheduler's objective is to minimise *wasted CPU cycles* over each
//! interval of `T` cycles:
//!
//! ```text
//! U = F · T_es + M · T
//! ```
//!
//! where `F` is the number of fallback (non-switchless) calls, `T_es` the
//! enclave-transition cost and `M` the number of active worker threads
//! (each active worker pins exactly one busy-waiting thread — either the
//! worker itself while idle, or the enclave caller while the worker runs).
//!
//! The scheduler alternates two phases:
//!
//! * a **scheduling phase** of one quantum `Q` (10 ms) with a fixed worker
//!   count `M`;
//! * a **configuration phase** of `max_workers + 1` micro-quanta of
//!   `µ · Q` cycles each (`µ = 1/100`), trying `i = 0, 1, …, max_workers`
//!   workers and recording the fallback count `F_i` of each; it then keeps
//!   `M' = argmin_i U_i` where `U_i = F_i·T_es + i·µ·Q·CPU_FREQ` (with `Q`
//!   expressed in cycles this is simply `F_i·T_es + i·µQ`).
//!
//! Everything here is side-effect-free so the identical argmin drives the
//! real-thread scheduler (`zc-switchless`) and the discrete-event model
//! (`zc-des`), and is directly unit- and property-testable.

use crate::config::ZcConfig;
use crate::cpu::CpuSpec;
use serde::{Deserialize, Serialize};

/// Parameters of the ZC scheduler policy, all in cycles of the modelled
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyParams {
    /// Enclave transition cost `T_es` in cycles.
    pub t_es_cycles: u64,
    /// Scheduling-phase quantum `Q` in cycles (paper: 10 ms).
    pub quantum_cycles: u64,
    /// Inverse of the micro-quantum fraction `µ` (paper: 100, i.e.
    /// `µ = 1/100`).
    pub mu_inverse: u64,
    /// Maximum worker count tried (paper: `N/2` for `N` logical CPUs).
    pub max_workers: usize,
    /// Cycles one fallback is charged in the argmin, as a multiple of
    /// `T_es`.
    ///
    /// **Reproduction note** (see `DESIGN.md` §5): with the paper's
    /// literal objective (`weight = 1`), a worker is only justified above
    /// `µQ / T_es ≈ 28` fallbacks per 100 µs probe — ~280 k fallbacks/s —
    /// far beyond the call rates of the paper's own kissdb and lmbench
    /// benchmarks, where the published system demonstrably *does* enable
    /// workers. The paper's implementation therefore values a fallback at
    /// more than one bare transition (a fallback also stalls the caller
    /// and inflates call latency). The default of 8 reproduces the
    /// paper's operating points; set 1 for the literal formula
    /// (ablation `ablation_quantum` sweeps this).
    pub fallback_weight: u64,
}

impl PolicyParams {
    /// The one constructor every scheduler — real thread, DES actor,
    /// fleet allocator — builds its parameters with: `T_es` comes from
    /// the machine, and the worker ceiling is never below 1.
    #[must_use]
    pub fn new(
        cpu: &CpuSpec,
        quantum_cycles: u64,
        mu_inverse: u64,
        max_workers: usize,
        fallback_weight: u64,
    ) -> Self {
        PolicyParams {
            t_es_cycles: cpu.t_es_cycles,
            quantum_cycles,
            mu_inverse,
            max_workers: max_workers.max(1),
            fallback_weight,
        }
    }

    /// Parameters from a CPU spec using the paper's constants
    /// (`Q` = 10 ms, `µ` = 1/100, `max = N/2`): those of the
    /// paper-faithful [`ZcConfig::for_cpu`].
    #[must_use]
    pub fn from_cpu(cpu: &CpuSpec) -> Self {
        ZcConfig::for_cpu(*cpu).policy_params()
    }

    /// Duration of one configuration micro-quantum, `µ · Q`, in cycles.
    #[must_use]
    pub fn micro_quantum_cycles(&self) -> u64 {
        (self.quantum_cycles / self.mu_inverse).max(1)
    }
}

/// Wasted cycles `U = F·T_es + M·T` over an interval of `interval_cycles`.
#[must_use]
pub fn wasted_cycles(
    fallbacks: u64,
    t_es_cycles: u64,
    workers: usize,
    interval_cycles: u64,
) -> u64 {
    fallbacks
        .saturating_mul(t_es_cycles)
        .saturating_add((workers as u64).saturating_mul(interval_cycles))
}

/// Fallback count observed while running one micro-quantum with a given
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroQuantumReport {
    /// Worker count active during the micro-quantum.
    pub workers: usize,
    /// Calls that fell back to regular ocalls during the micro-quantum.
    pub fallbacks: u64,
}

/// Pick the worker count minimising `U_i = F_i·T_es + i·µQ` from the
/// configuration-phase reports. Ties break towards *fewer* workers (less
/// CPU pinned for equal waste). An empty slice yields `0`.
#[must_use]
pub fn choose_workers(
    reports: &[MicroQuantumReport],
    t_es_cycles: u64,
    micro_quantum_cycles: u64,
) -> usize {
    choose_workers_weighted(reports, t_es_cycles, micro_quantum_cycles, 1)
}

/// [`choose_workers`] with a fallback weight (see
/// [`PolicyParams::fallback_weight`]): minimises
/// `U_i = weight·F_i·T_es + i·µQ`.
#[must_use]
pub fn choose_workers_weighted(
    reports: &[MicroQuantumReport],
    t_es_cycles: u64,
    micro_quantum_cycles: u64,
    fallback_weight: u64,
) -> usize {
    reports
        .iter()
        .map(|r| {
            (
                wasted_cycles(
                    r.fallbacks.saturating_mul(fallback_weight.max(1)),
                    t_es_cycles,
                    r.workers,
                    micro_quantum_cycles,
                ),
                r.workers,
            )
        })
        .min()
        .map_or(0, |(_, w)| w)
}

/// The full record of one completed configuration phase: the measured
/// per-count fallback reports `F_i`, the derived costs
/// `U_i = weight·F_i·T_es + i·µQ`, and the argmin.
///
/// Kept by [`SchedulerPolicy`] after every decision so observability
/// layers can explain *why* a worker count was chosen, not just what
/// it was.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// The argmin worker count the scheduler switched to.
    pub chosen_workers: usize,
    /// One report per probed worker count, in probe order (`F_i`).
    pub probes: Vec<MicroQuantumReport>,
    /// Weighted wasted-cycle cost per probe, same order (`U_i`).
    pub costs: Vec<u64>,
}

/// What the scheduler should do next: set a worker count and let the
/// system run for a duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyStep {
    /// Scheduling phase: run with `workers` active workers for one full
    /// quantum.
    Schedule {
        /// Worker count for this quantum.
        workers: usize,
        /// Phase duration in cycles.
        duration_cycles: u64,
    },
    /// Configuration micro-quantum: probe `workers` workers, recording the
    /// fallback count for the argmin.
    Probe {
        /// Worker count probed.
        workers: usize,
        /// Micro-quantum duration in cycles.
        duration_cycles: u64,
    },
}

impl PolicyStep {
    /// Worker count requested by this step.
    #[must_use]
    pub fn workers(&self) -> usize {
        match *self {
            PolicyStep::Schedule { workers, .. } | PolicyStep::Probe { workers, .. } => workers,
        }
    }

    /// Step duration in cycles.
    #[must_use]
    pub fn duration_cycles(&self) -> u64 {
        match *self {
            PolicyStep::Schedule {
                duration_cycles, ..
            }
            | PolicyStep::Probe {
                duration_cycles, ..
            } => duration_cycles,
        }
    }
}

#[derive(Debug, Clone)]
enum Phase {
    /// Currently in a scheduling phase with the chosen worker count.
    Scheduling,
    /// Configuration phase; the next probe index is stored along with the
    /// reports accumulated so far.
    Configuring {
        next_probe: usize,
        reports: Vec<MicroQuantumReport>,
    },
}

/// Steppable, side-effect-free driver of the ZC scheduler phase cycle.
///
/// The owning scheduler (real thread or simulated) repeatedly calls
/// [`SchedulerPolicy::next`] with the fallback count observed during the
/// step it just finished, and executes the returned [`PolicyStep`]:
///
/// ```
/// use switchless_core::policy::{PolicyParams, PolicyStep, SchedulerPolicy};
/// use switchless_core::cpu::CpuSpec;
///
/// let params = PolicyParams::from_cpu(&CpuSpec::paper_machine());
/// let mut policy = SchedulerPolicy::new(params, 4);
/// // First step is a scheduling phase with the initial worker count.
/// let step = policy.next(0);
/// assert_eq!(step, PolicyStep::Schedule { workers: 4, duration_cycles: params.quantum_cycles });
/// // Then max_workers+1 probes...
/// for i in 0..=params.max_workers {
///     let step = policy.next(/* fallbacks seen in previous step */ 10);
///     assert_eq!(step.workers(), i);
/// }
/// // ...after which the argmin worker count is scheduled again.
/// let step = policy.next(0);
/// assert!(matches!(step, PolicyStep::Schedule { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct SchedulerPolicy {
    params: PolicyParams,
    phase: Phase,
    current_workers: usize,
    /// `None` until the first call to `next`.
    started: bool,
    decisions: u64,
    last_decision: Option<DecisionRecord>,
}

impl SchedulerPolicy {
    /// Create a policy starting with a scheduling phase of
    /// `initial_workers` (clamped to `params.max_workers`).
    #[must_use]
    pub fn new(params: PolicyParams, initial_workers: usize) -> Self {
        SchedulerPolicy {
            params,
            phase: Phase::Scheduling,
            current_workers: initial_workers.min(params.max_workers),
            started: false,
            decisions: 0,
            last_decision: None,
        }
    }

    /// Parameters this policy was built with.
    #[must_use]
    pub fn params(&self) -> &PolicyParams {
        &self.params
    }

    /// Worker count most recently chosen for a scheduling phase.
    #[must_use]
    pub fn current_workers(&self) -> usize {
        self.current_workers
    }

    /// Number of completed configuration phases (argmin decisions).
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// The most recent completed decision with its `F_i`/`U_i` inputs,
    /// or `None` before the first configuration phase finishes.
    #[must_use]
    pub fn last_decision(&self) -> Option<&DecisionRecord> {
        self.last_decision.as_ref()
    }

    /// Advance the phase machine.
    ///
    /// `fallbacks_in_last_step` is the number of fallback calls observed
    /// while executing the *previously returned* step (ignored for the
    /// very first call and after scheduling phases, recorded for probes).
    pub fn next(&mut self, fallbacks_in_last_step: u64) -> PolicyStep {
        let mq = self.params.micro_quantum_cycles();
        if !self.started {
            self.started = true;
            return PolicyStep::Schedule {
                workers: self.current_workers,
                duration_cycles: self.params.quantum_cycles,
            };
        }
        match &mut self.phase {
            Phase::Scheduling => {
                // Scheduling quantum finished: begin the configuration
                // phase with the first probe (0 workers).
                self.phase = Phase::Configuring {
                    next_probe: 1,
                    reports: Vec::with_capacity(self.params.max_workers + 1),
                };
                PolicyStep::Probe {
                    workers: 0,
                    duration_cycles: mq,
                }
            }
            Phase::Configuring {
                next_probe,
                reports,
            } => {
                // Record the fallbacks of the probe that just completed.
                reports.push(MicroQuantumReport {
                    workers: *next_probe - 1,
                    fallbacks: fallbacks_in_last_step,
                });
                if *next_probe <= self.params.max_workers {
                    let w = *next_probe;
                    *next_probe += 1;
                    PolicyStep::Probe {
                        workers: w,
                        duration_cycles: mq,
                    }
                } else {
                    // All probes done: pick argmin and start scheduling.
                    let weight = self.params.fallback_weight;
                    self.current_workers =
                        choose_workers_weighted(reports, self.params.t_es_cycles, mq, weight);
                    let costs = reports
                        .iter()
                        .map(|r| {
                            wasted_cycles(
                                r.fallbacks.saturating_mul(weight.max(1)),
                                self.params.t_es_cycles,
                                r.workers,
                                mq,
                            )
                        })
                        .collect();
                    self.last_decision = Some(DecisionRecord {
                        chosen_workers: self.current_workers,
                        probes: std::mem::take(reports),
                        costs,
                    });
                    self.decisions += 1;
                    self.phase = Phase::Scheduling;
                    PolicyStep::Schedule {
                        workers: self.current_workers,
                        duration_cycles: self.params.quantum_cycles,
                    }
                }
            }
        }
    }
}

/// One detected scheduler convergence: the argmin moved off its settled
/// worker count and re-settled on a new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvergenceRecord {
    /// Worker count the scheduler was settled on before the shift.
    pub from_workers: u32,
    /// Worker count it re-settled on.
    pub to_workers: u32,
    /// Argmin decisions from the first deviating one through the
    /// confirming one, inclusive.
    pub decisions: u32,
    /// Cycles from the first deviating decision to the confirming one —
    /// the paper's "time to converge after a load shift".
    pub settle_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingShift {
    from: usize,
    to: usize,
    start_cycles: u64,
    decisions: u32,
}

/// Detects scheduler convergence from the stream of argmin decisions.
///
/// Feed every completed configuration-phase decision in order via
/// [`observe`](ConvergenceTracker::observe). The tracker considers the
/// scheduler *settled* on a count once two consecutive decisions agree
/// on it; a decision deviating from the settled count opens a shift,
/// and the first repeated count thereafter closes it, yielding a
/// [`ConvergenceRecord`] with the settle time. A deviation that
/// immediately returns to the settled count is discarded as probe noise.
///
/// Pure and side-effect-free, so the identical trajectory logic serves
/// the real scheduler thread and the DES scheduler actor.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceTracker {
    settled: Option<usize>,
    pending: Option<PendingShift>,
}

impl ConvergenceTracker {
    /// Fresh tracker: the first observed decision becomes the baseline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker count the scheduler is currently settled on, if any.
    #[must_use]
    pub fn settled_workers(&self) -> Option<usize> {
        self.settled
    }

    /// True while a shift is open (argmin moved, not yet re-settled).
    #[must_use]
    pub fn shifting(&self) -> bool {
        self.pending.is_some()
    }

    /// Record one argmin decision taken at `now_cycles`. Returns the
    /// completed [`ConvergenceRecord`] when this decision confirms a new
    /// settled count after a shift.
    pub fn observe(&mut self, chosen_workers: usize, now_cycles: u64) -> Option<ConvergenceRecord> {
        let settled = match self.settled {
            None => {
                self.settled = Some(chosen_workers);
                return None;
            }
            Some(s) => s,
        };
        match self.pending {
            None => {
                if chosen_workers != settled {
                    self.pending = Some(PendingShift {
                        from: settled,
                        to: chosen_workers,
                        start_cycles: now_cycles,
                        decisions: 1,
                    });
                }
                None
            }
            Some(ref mut p) => {
                p.decisions += 1;
                if chosen_workers == p.to {
                    let rec = ConvergenceRecord {
                        from_workers: p.from as u32,
                        to_workers: chosen_workers as u32,
                        decisions: p.decisions,
                        settle_cycles: now_cycles.saturating_sub(p.start_cycles),
                    };
                    self.settled = Some(chosen_workers);
                    self.pending = None;
                    Some(rec)
                } else if chosen_workers == p.from {
                    // Bounced straight back: probe noise, not a shift.
                    self.pending = None;
                    None
                } else {
                    // Still hunting: re-anchor on the newest candidate.
                    p.to = chosen_workers;
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DEFAULT_FALLBACK_WEIGHT;

    fn params() -> PolicyParams {
        PolicyParams::from_cpu(&CpuSpec::paper_machine())
    }

    #[test]
    fn paper_constants() {
        let p = params();
        assert_eq!(p.quantum_cycles, 38_000_000); // 10 ms at 3.8 GHz
        assert_eq!(p.mu_inverse, 100);
        assert_eq!(p.micro_quantum_cycles(), 380_000);
        assert_eq!(p.max_workers, 4);
    }

    #[test]
    fn wasted_cycles_formula() {
        // U = F*T_es + M*T
        assert_eq!(wasted_cycles(10, 13_500, 2, 1_000_000), 135_000 + 2_000_000);
        assert_eq!(wasted_cycles(0, 13_500, 0, 1_000_000), 0);
    }

    #[test]
    fn wasted_cycles_saturates() {
        assert_eq!(wasted_cycles(u64::MAX, 2, 1, u64::MAX), u64::MAX);
    }

    #[test]
    fn choose_workers_prefers_fewer_on_tie() {
        // Zero fallbacks everywhere: 0 workers waste least.
        let reports: Vec<_> = (0..=4)
            .map(|w| MicroQuantumReport {
                workers: w,
                fallbacks: 0,
            })
            .collect();
        assert_eq!(choose_workers(&reports, 13_500, 380_000), 0);
    }

    #[test]
    fn choose_workers_balances_fallbacks_against_worker_cost() {
        // One extra worker costs 380_000 cycles per micro-quantum; each
        // avoided fallback saves 13_500. Going from 1 to 2 workers must
        // avoid >28.1 fallbacks to pay off.
        let mq = 380_000;
        let tes = 13_500;
        let reports = vec![
            MicroQuantumReport {
                workers: 0,
                fallbacks: 100,
            },
            MicroQuantumReport {
                workers: 1,
                fallbacks: 40,
            },
            MicroQuantumReport {
                workers: 2,
                fallbacks: 5,
            },
        ];
        // U_0 = 1_350_000; U_1 = 540_000 + 380_000 = 920_000;
        // U_2 = 67_500 + 760_000 = 827_500 -> choose 2.
        assert_eq!(choose_workers(&reports, tes, mq), 2);
    }

    #[test]
    fn choose_workers_empty_is_zero() {
        assert_eq!(choose_workers(&[], 13_500, 380_000), 0);
    }

    #[test]
    fn policy_phase_sequence_matches_paper() {
        let p = params();
        let mut policy = SchedulerPolicy::new(p, 4);
        let s0 = policy.next(0);
        assert_eq!(
            s0,
            PolicyStep::Schedule {
                workers: 4,
                duration_cycles: p.quantum_cycles
            }
        );
        // N/2 + 1 = 5 probes with 0..=4 workers.
        for expect in 0..=4usize {
            let s = policy.next(0);
            assert_eq!(
                s,
                PolicyStep::Probe {
                    workers: expect,
                    duration_cycles: p.micro_quantum_cycles()
                }
            );
        }
        // All-zero fallbacks -> argmin picks 0 workers.
        let s = policy.next(0);
        assert_eq!(
            s,
            PolicyStep::Schedule {
                workers: 0,
                duration_cycles: p.quantum_cycles
            }
        );
        assert_eq!(policy.decisions(), 1);
    }

    #[test]
    fn policy_uses_probe_fallbacks_for_decision() {
        let p = params();
        let mut policy = SchedulerPolicy::new(p, 0);
        policy.next(0); // initial schedule
        policy.next(999); // finish schedule (ignored), start probe 0
                          // Feed fallbacks such that 3 workers is optimal:
                          // heavy fallbacks until w=3, then zero.
        let fb = [10_000u64, 5_000, 2_000, 0, 0];
        // We are now executing probe 0; report its fallbacks when asking
        // for the next step.
        for &f in &fb[..4] {
            policy.next(f);
        }
        let decision = policy.next(fb[4]);
        // U_0 = 10000*13500 = 135M; U_1 = 5000*13500+0.38M = 67.9M;
        // U_2 = 27M + 0.76M = 27.76M; U_3 = 1.14M; U_4 = 1.52M -> 3.
        assert_eq!(
            decision,
            PolicyStep::Schedule {
                workers: 3,
                duration_cycles: p.quantum_cycles
            }
        );
        assert_eq!(policy.current_workers(), 3);
    }

    #[test]
    fn decision_record_keeps_probe_inputs_and_costs() {
        let p = params();
        let mut policy = SchedulerPolicy::new(p, 0);
        assert!(policy.last_decision().is_none());
        policy.next(0); // initial schedule
        policy.next(0); // probe 0 begins
        let fb = [10_000u64, 5_000, 2_000, 0, 0];
        for &f in &fb[..4] {
            policy.next(f);
        }
        policy.next(fb[4]); // decision
        let d = policy.last_decision().expect("decision recorded");
        assert_eq!(d.chosen_workers, 3);
        assert_eq!(d.probes.len(), 5);
        assert_eq!(d.costs.len(), 5);
        assert_eq!(
            d.probes[0],
            MicroQuantumReport {
                workers: 0,
                fallbacks: 10_000
            }
        );
        // U_i consistency: cost equals the weighted formula per probe,
        // and the argmin of the published costs is the chosen count.
        for (i, r) in d.probes.iter().enumerate() {
            assert_eq!(
                d.costs[i],
                wasted_cycles(
                    r.fallbacks * DEFAULT_FALLBACK_WEIGHT,
                    p.t_es_cycles,
                    r.workers,
                    p.micro_quantum_cycles()
                )
            );
        }
        let argmin = d
            .costs
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (**c, *i))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(argmin, d.chosen_workers);
    }

    #[test]
    fn initial_workers_clamped_to_max() {
        let p = params();
        let mut policy = SchedulerPolicy::new(p, 100);
        assert_eq!(policy.next(0).workers(), 4);
    }

    #[test]
    fn step_accessors() {
        let s = PolicyStep::Probe {
            workers: 3,
            duration_cycles: 99,
        };
        assert_eq!(s.workers(), 3);
        assert_eq!(s.duration_cycles(), 99);
    }

    #[test]
    fn convergence_detects_load_shift() {
        let mut t = ConvergenceTracker::new();
        // Steady at 1 worker.
        assert_eq!(t.observe(1, 0), None);
        assert_eq!(t.observe(1, 100), None);
        assert_eq!(t.settled_workers(), Some(1));
        // Load shift: argmin hunts 3 -> 4 -> 4.
        assert_eq!(t.observe(3, 200), None);
        assert!(t.shifting());
        assert_eq!(t.observe(4, 300), None);
        let rec = t.observe(4, 500).expect("converged");
        assert_eq!(
            rec,
            ConvergenceRecord {
                from_workers: 1,
                to_workers: 4,
                decisions: 3,
                settle_cycles: 300,
            }
        );
        assert_eq!(t.settled_workers(), Some(4));
        assert!(!t.shifting());
    }

    #[test]
    fn convergence_ignores_probe_noise() {
        let mut t = ConvergenceTracker::new();
        t.observe(2, 0);
        t.observe(2, 10);
        // One-decision blip back to the settled count: no record.
        assert_eq!(t.observe(3, 20), None);
        assert_eq!(t.observe(2, 30), None);
        assert!(!t.shifting());
        assert_eq!(t.settled_workers(), Some(2));
        // Steady stream never emits records.
        for i in 0..10 {
            assert_eq!(t.observe(2, 40 + i), None);
        }
    }

    #[test]
    fn micro_quantum_never_zero() {
        let p = PolicyParams {
            t_es_cycles: 1,
            quantum_cycles: 10,
            mu_inverse: 100,
            max_workers: 1,
            fallback_weight: 1,
        };
        assert_eq!(p.micro_quantum_cycles(), 1);
    }
}
