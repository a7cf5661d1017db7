//! The scheduler's trace of its own phase machine, written once for the
//! real scheduler thread and the DES scheduler actor (which differ only
//! in where `now` comes from).

use crate::{Event, Origin, PhaseKind, Telemetry};
use std::sync::Arc;
use switchless_core::policy::{ConvergenceTracker, PolicyStep, SchedulerPolicy};

/// Traces each step of a [`SchedulerPolicy`] at [`Origin::Scheduler`]:
/// a freshly completed configuration phase as a `Decision` (with its
/// `F_i` / `U_i` inputs), the argmin re-settling on a new worker count
/// after a load shift as `Converged`, and every step as a `PhaseStart`.
#[derive(Debug)]
pub struct SchedulerTracer {
    hub: Arc<Telemetry>,
    traced_decisions: u64,
    convergence: ConvergenceTracker,
}

impl SchedulerTracer {
    /// Tracer recording into `hub`.
    #[must_use]
    pub fn new(hub: Arc<Telemetry>) -> Self {
        SchedulerTracer {
            hub,
            traced_decisions: 0,
            convergence: ConvergenceTracker::new(),
        }
    }

    /// Trace `step`, the one `policy` just produced, starting at cycle
    /// `now` with `workers` active (the step's count after any external
    /// cap).
    pub fn trace_step(
        &mut self,
        now: u64,
        policy: &SchedulerPolicy,
        step: PolicyStep,
        workers: usize,
    ) {
        if policy.decisions() > self.traced_decisions {
            self.traced_decisions = policy.decisions();
            if let Some(d) = policy.last_decision() {
                self.hub.record(
                    now,
                    Origin::Scheduler,
                    Event::Decision {
                        decision: d.clone(),
                    },
                );
                if let Some(c) = self.convergence.observe(d.chosen_workers, now) {
                    self.hub.record(
                        now,
                        Origin::Scheduler,
                        Event::Converged {
                            from_workers: c.from_workers,
                            to_workers: c.to_workers,
                            decisions: c.decisions,
                            settle_cycles: c.settle_cycles,
                        },
                    );
                }
            }
        }
        let kind = match step {
            PolicyStep::Schedule { .. } => PhaseKind::Schedule,
            PolicyStep::Probe { .. } => PhaseKind::Probe,
        };
        self.hub.record(
            now,
            Origin::Scheduler,
            Event::PhaseStart {
                kind,
                workers: workers as u32,
                duration_cycles: step.duration_cycles(),
            },
        );
    }
}
