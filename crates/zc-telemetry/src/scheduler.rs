//! One scheduler step, written once for the real scheduler thread and
//! the DES scheduler actor. The two differ only in where `now`, the
//! fallback total and the worker cap come from (the real scheduler's
//! cap is its constant ceiling, a DES fleet shard's the allocator's
//! cap) and how they wait out the step; everything between — fallback
//! delta → policy → cap clamp → trace → decision report — is
//! [`SchedulerDriver::step`].

use crate::{Event, Origin, PhaseKind, Telemetry};
use std::sync::Arc;
use switchless_core::policy::{
    ConvergenceTracker, DecisionRecord, PolicyParams, PolicyStep, SchedulerPolicy,
};

/// What the host has to carry out for one scheduler step.
#[derive(Debug)]
pub struct SchedulerStep {
    /// Workers to run the step with: the policy's count, bounded by the
    /// host's cap (in a DES fleet the bulkhead — the shard-local argmin
    /// keeps running underneath and may pick fewer).
    pub workers: usize,
    /// How long the step lasts.
    pub duration_cycles: u64,
    /// Configuration phases completed so far.
    pub decisions: u64,
    /// The decision that completed just before this step, if one did:
    /// the shard's measured demand curve, for the host to publish.
    pub new_decision: Option<DecisionRecord>,
}

/// Drives a [`SchedulerPolicy`] from the host's cumulative fallback
/// counter. With a hub it traces, at [`Origin::Scheduler`], a freshly
/// completed configuration phase as a `Decision` (with its `F_i` /
/// `U_i` inputs), the argmin re-settling on a new worker count after a
/// load shift as `Converged`, and every step as a `PhaseStart`.
#[derive(Debug)]
pub struct SchedulerDriver {
    policy: SchedulerPolicy,
    /// Fallback total at the previous step boundary.
    fallbacks_seen: u64,
    /// Decisions already reported (and traced).
    reported_decisions: u64,
    hub: Option<Arc<Telemetry>>,
    convergence: ConvergenceTracker,
}

impl SchedulerDriver {
    /// Driver starting with a scheduling phase of `initial_workers`.
    #[must_use]
    pub fn new(params: PolicyParams, initial_workers: usize, hub: Option<Arc<Telemetry>>) -> Self {
        SchedulerDriver {
            policy: SchedulerPolicy::new(params, initial_workers),
            fallbacks_seen: 0,
            reported_decisions: 0,
            hub,
            convergence: ConvergenceTracker::new(),
        }
    }

    /// The previous step has run its course: report the fallbacks it
    /// saw (`fallbacks_total` is cumulative) to the policy and return
    /// the next step, starting at cycle `now` under `worker_cap`.
    pub fn step(&mut self, now: u64, fallbacks_total: u64, worker_cap: usize) -> SchedulerStep {
        let delta = fallbacks_total.saturating_sub(self.fallbacks_seen);
        self.fallbacks_seen = fallbacks_total;
        let step = self.policy.next(delta);
        let workers = step.workers().min(worker_cap);
        let decisions = self.policy.decisions();
        let new_decision = (decisions > self.reported_decisions)
            .then(|| self.policy.last_decision())
            .flatten();
        self.reported_decisions = decisions;
        if let Some(hub) = &self.hub {
            if let Some(d) = new_decision {
                let decision = d.clone();
                hub.record(now, Origin::Scheduler, Event::Decision { decision });
                if let Some(c) = self.convergence.observe(d.chosen_workers, now) {
                    hub.record(
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
            let kind = match step {
                PolicyStep::Schedule { .. } => PhaseKind::Schedule,
                PolicyStep::Probe { .. } => PhaseKind::Probe,
            };
            hub.record(
                now,
                Origin::Scheduler,
                Event::PhaseStart {
                    kind,
                    workers: workers as u32,
                    duration_cycles: step.duration_cycles(),
                },
            );
        }
        SchedulerStep {
            workers,
            duration_cycles: step.duration_cycles(),
            decisions,
            new_decision: new_decision.cloned(),
        }
    }
}
