//! The ZC scheduler thread (paper §IV-A).
//!
//! Drives the pure [`SchedulerPolicy`] phase machine in real time:
//! execute each [`PolicyStep`] by (de)activating workers, sleep for the
//! step's duration, then report the fallback delta observed during the
//! step back to the policy. Worker-count residency is recorded for the
//! §V-B analysis.
//!
//! [`PolicyStep`]: switchless_core::policy::PolicyStep

use crate::buffer::SchedCommand;
use crate::runtime::Shared;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use switchless_core::policy::SchedulerPolicy;
use switchless_core::WorkerState;

/// Maximum chunk of real sleep between `running` checks.
const SLEEP_CHUNK: Duration = Duration::from_millis(5);

/// Body of the scheduler thread.
pub(crate) fn scheduler_loop(shared: &Shared) {
    let mut policy =
        SchedulerPolicy::new(shared.config.policy_params(), shared.config.initial_workers);
    let spec = *shared.door.clock.spec();
    // One consistent snapshot per step boundary: the per-step F_i delta
    // and anything else derived from the counters come from the same
    // four readings (CallStats::snapshot), never from interleaved
    // individual getters.
    let mut stats_at_step_start = shared.door.stats.snapshot();
    let mut last_delta = 0u64;
    let mut tracer = shared
        .door
        .telemetry
        .as_ref()
        .map(|hub| zc_telemetry::SchedulerTracer::new(Arc::clone(hub)));

    while shared.door.is_running() {
        let step = policy.next(last_delta);
        // Fleet bulkhead: an externally imposed cap (set via
        // `ZcRuntime::set_worker_cap`) bounds whatever the shard-local
        // argmin picked. Computed once per step so activation, the
        // published gauge, telemetry and the residency record agree.
        let m = step
            .workers()
            .min(shared.worker_cap.load(Ordering::Acquire));
        if let Some(tracer) = &mut tracer {
            tracer.trace_step(shared.door.clock.now_cycles(), &policy, step, m);
        }
        set_active_workers(shared, m);
        shared.active_workers.store(m, Ordering::Release);

        // Sleep out the step in real time (the scheduler itself is idle:
        // its CPU cost is negligible by design).
        let step_ns = spec.cycles_to_ns(step.duration_cycles());
        let slept_at = shared.door.clock.now_cycles();
        sleep_interruptible(shared, Duration::from_nanos(step_ns));
        let now = shared.door.clock.now_cycles();
        shared
            .residency
            .lock()
            .record(m, now.saturating_sub(slept_at));

        let stats_now = shared.door.stats.snapshot();
        last_delta = stats_now.delta_since(&stats_at_step_start).fallback;
        stats_at_step_start = stats_now;
        if policy.decisions() > shared.decisions.load(Ordering::Acquire) {
            *shared.last_decision.lock() = policy.last_decision().cloned();
        }
        shared
            .decisions
            .store(policy.decisions(), Ordering::Release);
    }
}

/// Activate the first `m` *healthy* workers and post `Deactivate` to the
/// rest. Poisoned (quarantined) workers are passed over, so a spare
/// healthy worker takes the slot a crashed one would have occupied.
pub(crate) fn set_active_workers(shared: &Shared, m: usize) {
    let mut activated = 0;
    for slot in shared.workers.iter() {
        let w = slot.get();
        if activated < m && !w.is_poisoned() {
            activated += 1;
            w.post_command(SchedCommand::Run);
            // A corrupted status word reads as Err here and is simply not
            // Paused; the worker/caller guards own the quarantine.
            if w.state() == Ok(WorkerState::Paused)
                && w.try_transition(WorkerState::Paused, WorkerState::Unused)
            {
                w.unpark();
            }
        } else {
            w.post_command(SchedCommand::Deactivate);
            // The worker pauses itself next time it is idle; a worker
            // currently serving a caller finishes that call first
            // (UNUSED -> PAUSED is the only legal pause edge).
        }
    }
}

fn sleep_interruptible(shared: &Shared, total: Duration) {
    let mut remaining = total;
    while !remaining.is_zero() {
        if !shared.door.is_running() {
            return;
        }
        let chunk = remaining.min(SLEEP_CHUNK);
        // On a virtual clock this advances logical time instantly, so
        // quanta and micro-quanta step through without wall-clock sleeps.
        shared.door.clock.sleep(chunk);
        remaining = remaining.saturating_sub(chunk);
    }
}
