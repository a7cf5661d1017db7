//! The ZC scheduler thread (paper §IV-A).
//!
//! Hosts the shared [`SchedulerDriver`] in real time: execute each
//! step by (de)activating workers, sleep for the step's duration, then
//! hand the fallback counter back to the driver. Worker-count residency
//! is recorded for the §V-B analysis.

use crate::buffer::SchedCommand;
use crate::runtime::Shared;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::time::Duration;
use switchless_core::WorkerState;
use zc_telemetry::SchedulerDriver;

/// Maximum chunk of real sleep between `running` checks.
const SLEEP_CHUNK: Duration = Duration::from_millis(5);

/// Body of the scheduler thread: the host side of
/// [`SchedulerDriver::step`] — read the clock and the fallback counter,
/// apply the step, sleep it out, publish. `started` is signalled once
/// the first step has been applied.
pub(crate) fn scheduler_loop(shared: &Shared, started: Sender<()>) {
    let mut started = Some(started);
    let mut driver = SchedulerDriver::new(
        shared.config.policy_params(),
        shared.config.initial_workers,
        shared.door.telemetry.clone(),
    );
    let spec = *shared.door.clock.spec();
    let max_workers = shared.config.max_workers();

    while shared.door.is_running() {
        let step = driver.step(
            shared.door.clock.now_cycles(),
            shared.door.stats.fallbacks(),
            max_workers,
        );
        let m = step.workers;
        set_active_workers(shared, m);
        shared.active_workers.store(m, Ordering::Release);
        shared.decisions.store(step.decisions, Ordering::Release);
        if let Some(started) = started.take() {
            // `start_inner` is blocked on the other end.
            let _ = started.send(());
        }

        // Sleep out the step in real time (the scheduler itself is idle:
        // its CPU cost is negligible by design).
        let step_ns = spec.cycles_to_ns(step.duration_cycles);
        let slept_at = shared.door.clock.now_cycles();
        sleep_interruptible(shared, Duration::from_nanos(step_ns));
        let now = shared.door.clock.now_cycles();
        shared
            .residency
            .lock()
            .record(m, now.saturating_sub(slept_at));
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
