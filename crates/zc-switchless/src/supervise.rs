//! The supervisor thread: drives the pure [`switchless_core::Supervisor`]
//! policy against the runtime clock, respawning failed worker slots onto
//! fresh [`WorkerBuffer`](crate::WorkerBuffer)s and healing them after a clean probation.
//!
//! Division of labour:
//!
//! * **Callers** detect failures (observed poison, watchdog timeouts)
//!   and report them to the shared `Supervisor` ledger (`caller.rs`).
//! * **This thread** polls the ledger every micro-quantum (`POLL`)
//!   and executes its time-driven decisions: a `Respawn` swaps the slot's
//!   buffer for a fresh one and spawns a new worker thread generation;
//!   a `Heal` is bookkeeping (the slot's failure ladder resets) and is
//!   traced so recovery is visible in the telemetry stream.
//!
//! The old poisoned buffer is never touched again: a crashed thread has
//! already exited, a hung thread stays parked on it until shutdown
//! abandons it (counted in `DrainReport` and traced per slot).

use crate::runtime::Shared;
use std::time::Duration;
use switchless_core::config::{PAPER_MU_INVERSE, PAPER_QUANTUM_MS};
use switchless_core::SuperviseDecision;
use zc_telemetry::{Event, Origin};

/// Polling period: one paper micro-quantum (`Q/100` = 100 µs).
const POLL: Duration = Duration::from_micros(1000 * PAPER_QUANTUM_MS / PAPER_MU_INVERSE);

/// Body of the `zc-supervisor` thread. Returns when the runtime stops.
pub(crate) fn supervise_loop(shared: &Shared) {
    while shared.door.is_running() {
        let decisions = {
            let Some(sup) = &shared.supervisor else {
                return;
            };
            sup.lock().poll(shared.door.clock.now_cycles())
        };
        for d in decisions {
            match d {
                SuperviseDecision::Respawn { worker, generation } => {
                    if shared.respawn_slot(worker, generation) {
                        shared.door.event(
                            Origin::Scheduler,
                            Event::WorkerRespawned {
                                worker: worker as u32,
                                generation,
                            },
                        );
                    }
                }
                // Bookkeeping only (the slot's failure ladder reset);
                // traced so recovery is visible.
                SuperviseDecision::Heal { worker } => shared.door.event(
                    Origin::Scheduler,
                    Event::WorkerHealed {
                        worker: worker as u32,
                    },
                ),
                // poll() never emits Blacklist: that happens at
                // failure recording time, caller-side.
                SuperviseDecision::Blacklist { .. } => {}
            }
        }
        // On a virtual clock this advances logical time instantly, so
        // backoff and probation windows elapse without wall-clock sleeps.
        shared.door.clock.sleep(POLL);
    }
}
