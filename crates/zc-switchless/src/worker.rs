//! The ZC worker thread loop.
//!
//! A worker spins on its [`WorkerBuffer`] status word:
//!
//! * `PROCESSING` — a caller posted a request: invoke the host function,
//!   publish results, move to `WAITING`;
//! * `UNUSED` — idle: honour the scheduler command (`Deactivate` → park
//!   in `PAUSED`, `Exit` → terminate) or keep pause-spinning for work;
//! * `RESERVED` / `WAITING` — owned by a caller mid-handoff: spin.
//!
//! Idle spinning is the *deliberate* CPU cost the ZC scheduler manages:
//! for every active worker there is always exactly one busy-waiting
//! thread (paper §IV-A).
//!
//! The host function writes its reply into a buffer private to the
//! worker thread, which the caller never reads. The worker then
//! publishes it: a reply that fits is copied into the mailbox's inline
//! window, a longer one is swapped (not copied) into its `payload_out`,
//! so the shared `payload_out` is written only for the replies that need
//! it.

use crate::buffer::{RequestSlot, SchedCommand, Side, WorkerBuffer};
use crate::runtime::Shared;
use sgx_sim::frontdoor::{spin_pause, Wedged};
use switchless_core::{Fault, FaultSite, GuardKind, OcallReply, WorkerState};
use zc_telemetry::{Event, Origin};

/// Body of worker thread `index` serving buffer `me` (passed explicitly
/// rather than read from the slot: a supervisor respawn swaps the slot
/// to a fresh buffer, and each thread generation must keep serving the
/// buffer it was spawned with). Returns when the worker reaches the
/// `EXIT` state. `wedged` is raised before an injected hang parks the
/// thread forever, so the shutdown drain abandons it instead of waiting.
pub(crate) fn worker_loop(shared: &Shared, index: usize, me: &WorkerBuffer, wedged: &Wedged) {
    let clock = &shared.door.clock;
    me.set_thread(std::thread::current());
    let mut spins: u32 = 0;
    // The host function's reply buffer, private to this thread.
    let mut reply = Vec::new();

    loop {
        // Both shared words are host-writable: garbage in either is a
        // guard violation, never a panic — count it, quarantine the
        // buffer and retire the thread (the supervisor respawns the
        // slot; callers re-route around the poison).
        let state = match me.state() {
            Ok(s) => s,
            Err(v) => {
                report_own_violation(shared, me, index, v.kind);
                break;
            }
        };
        match state {
            WorkerState::Processing => {
                spins = 0;
                if !execute(shared, me, index, wedged, &mut reply) {
                    // Injected crash: the thread dies abruptly. The buffer
                    // stays POISONED in PROCESSING, so it can never be
                    // claimed again — the quarantine the caller re-routes
                    // around.
                    break;
                }
            }
            WorkerState::Unused => match command(me) {
                Err(v) => {
                    report_own_violation(shared, me, index, v.kind);
                    break;
                }
                Ok(SchedCommand::Exit) => {
                    if me.try_transition(WorkerState::Unused, WorkerState::Exit) {
                        break;
                    }
                }
                Ok(SchedCommand::Deactivate) => {
                    if me.try_transition(WorkerState::Unused, WorkerState::Paused) {
                        park_until_released(me);
                        if me.state() == Ok(WorkerState::Exit) {
                            // Final cleanup happened inside the park loop.
                            return;
                        }
                    }
                }
                Ok(SchedCommand::Run) => {
                    spin_pause(clock, &mut spins);
                }
            },
            WorkerState::Reserved | WorkerState::Waiting => {
                if me.is_poisoned() {
                    // The caller quarantined this buffer mid-handoff
                    // (e.g. a guard rejected our reply) and will never
                    // release it — retire instead of spinning forever.
                    break;
                }
                // Caller-owned interim states: stay hot.
                spin_pause(clock, &mut spins);
            }
            WorkerState::Paused => {
                // Only reachable on a spurious unpark race; re-park.
                park_until_released(me);
                if me.state() == Ok(WorkerState::Exit) {
                    break;
                }
            }
            WorkerState::Exit => break,
        }
    }
}

/// The scheduler command as this buffer's own worker must read it: a
/// poisoned buffer is never served again, so poison reads as `Exit`
/// whatever the word says. (An enclave-restart fence poisons and posts
/// `Exit`, but the scheduler thread may overwrite the word with
/// `Deactivate` before an idle or parked worker looks — which used to
/// strand that thread forever.)
fn command(me: &WorkerBuffer) -> Result<SchedCommand, switchless_core::GuardViolation> {
    if me.is_poisoned() {
        Ok(SchedCommand::Exit)
    } else {
        me.sched_command()
    }
}

/// Park while `PAUSED`. Returns when the scheduler reactivates the worker
/// (state left `PAUSED`) or after self-transitioning to `EXIT` on an exit
/// command.
fn park_until_released(me: &WorkerBuffer) {
    loop {
        let cmd = match command(me) {
            Ok(c) => c,
            Err(_) => {
                // Garbage on the command word while parked: quarantine
                // and self-retire (PAUSED -> EXIT is a legal edge). The
                // worker loop sees EXIT and terminates the thread.
                me.poison();
                let _ = me.try_transition(WorkerState::Paused, WorkerState::Exit);
                return;
            }
        };
        if cmd == SchedCommand::Exit {
            // Either we win PAUSED -> EXIT, or the scheduler already
            // moved us out of PAUSED (reactivation raced the shutdown).
            if me.try_transition(WorkerState::Paused, WorkerState::Exit)
                || me.state() == Ok(WorkerState::Exit)
            {
                return;
            }
        }
        if me.state() != Ok(WorkerState::Paused) {
            return; // reactivated (or the status word was corrupted —
                    // the worker loop's guard handles that)
        }
        std::thread::park();
    }
}

/// A worker detected garbage on one of its *own* shared words: count
/// and trace the violation, then quarantine the buffer so no caller
/// claims it again. The thread retires right after. The failure is also
/// charged to the supervisor ledger (with no blacklist culprit — the
/// worker cannot know which call shape the host was attacking) so the
/// quarantined slot is respawned instead of being lost forever.
fn report_own_violation(shared: &Shared, me: &WorkerBuffer, index: usize, kind: GuardKind) {
    // Quarantine before counting (as the caller-side guard path does):
    // whoever reads the violation counter must already find the buffer
    // poisoned, or "all violations counted and nothing poisoned" would
    // hold for a moment with the lying slot still claimable.
    me.poison();
    shared.door.stats.record_guard_violation();
    shared.door.event(
        Origin::Worker(index as u32),
        Event::GuardViolation {
            call: 0,
            worker: index as u32,
            kind,
        },
    );
    if let Some(sup) = &shared.supervisor {
        sup.lock()
            .record_failure(index, None, shared.door.clock.now_cycles());
    }
}

/// Execute the posted request into `reply` (the worker's own buffer)
/// and publish results (`PROCESSING -> WAITING`). Returns `false` if
/// the worker thread must
/// retire: an injected crash (the caller's request was *not* invoked),
/// a torn request slot, or a Byzantine status corruption that leaves the
/// caller to detect the lie and quarantine the buffer.
fn execute(
    shared: &Shared,
    me: &WorkerBuffer,
    index: usize,
    wedged: &Wedged,
    reply: &mut Vec<u8>,
) -> bool {
    let clock = &shared.door.clock;
    if let Some(faults) = &shared.door.faults {
        if let Some(fault) = faults.fire(FaultSite::WorkerCall) {
            shared
                .door
                .event(Origin::Worker(index as u32), Event::Fault { kind: fault });
            match fault {
                Fault::WorkerStall => clock.spin_cycles(faults.cycles(fault)),
                Fault::WorkerCrash => {
                    // Poison *before* touching the slot: the request has
                    // not been invoked yet, so the caller re-executing it
                    // through the fallback path is side-effect-safe.
                    me.poison();
                    return false;
                }
                _ => {
                    // A hang.
                    me.poison();
                    // Wedge forever: unparks (e.g. from shutdown) just
                    // re-park. Say so first, so the drain abandons this
                    // thread instead of waiting for it.
                    wedged.mark();
                    loop {
                        std::thread::park();
                    }
                }
            }
        }
    }
    if me.is_poisoned() {
        // The caller-side watchdog cancelled this call (e.g. after an
        // injected stall outlived the deadline) and re-routed it to a
        // regular ocall. The request must NOT be invoked here too —
        // retire the thread instead; the supervisor respawns the slot.
        return false;
    }
    // Byzantine adversary: a hostile host corrupting the shared words /
    // reply metadata this worker is about to publish. The *trusted* side
    // (caller guard) must detect every one of these lies.
    let byz = shared
        .door
        .faults
        .as_ref()
        .and_then(|f| f.fire(FaultSite::Publish));
    if byz == Some(Fault::TornRequest) {
        // The host overwrites the posted request while we own the slot.
        me.with_slot(Side::Worker, RequestSlot::tear);
    }
    // Only an attached hub's phase recorder consumes the execute hint,
    // so a bare worker does not bracket the host function with clock
    // reads.
    let timed = shared.door.telemetry.is_some();
    let torn = me.with_pool(Side::Worker, |pool| {
        me.with_slot(Side::Worker, |slot| {
            // A PROCESSING slot without a request is host interference
            // (torn overwrite), not a protocol bug: handled gracefully,
            // never a panic.
            let Some((req, payload_in)) = slot.take(pool) else {
                return true;
            };
            let exec_start = timed.then(|| clock.now_cycles());
            // Contain host-function panics: an unwinding worker would
            // leave its caller spinning forever. The host side is
            // untrusted anyway — a crash there maps to an error return,
            // mirroring how a killed ocall surfaces in SGX. A failed or
            // unwound call may leave bytes behind, so `reply` is
            // cleared here rather than trusted to `invoke`.
            reply.clear();
            let ret = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shared.table.invoke(&req, payload_in, reply).unwrap_or(-1)
            }))
            .unwrap_or(-1);
            if let Some(exec_start) = exec_start {
                slot.set_execute_hint(clock.now_cycles().saturating_sub(exec_start));
            }
            let actual = slot.set_reply_bytes(reply);
            // An honest worker declares exactly the bytes present and
            // echoes the request's sequence tag; the Byzantine variants
            // lie about one of the two.
            slot.set_reply(OcallReply {
                ret,
                payload_len: match byz {
                    Some(Fault::OversizeReply) => actual.wrapping_add(1),
                    // An empty reply cannot be undersold; the +1 lie still
                    // mismatches and is caught as an oversize violation.
                    Some(Fault::UndersizeReply) => actual.checked_sub(1).unwrap_or(1),
                    _ => actual,
                },
                seq: match byz {
                    Some(Fault::StaleSeq) => req.seq.wrapping_sub(1),
                    _ => req.seq,
                },
            });
            false
        })
    });
    if torn {
        report_own_violation(shared, me, index, GuardKind::TornRequest);
        return false;
    }
    if byz == Some(Fault::FlipStatus) {
        // The host scribbles garbage on the status word instead of the
        // legal PROCESSING -> WAITING edge. Retire *without* poisoning:
        // the spinning caller must read the garbage itself, emit the
        // violation and quarantine the slot.
        me.host_write_status(0xEE);
        return false;
    }
    if byz == Some(Fault::GarbageCommand) {
        // The host scribbles on the scheduler-command word. The reply
        // itself is honest — this worker detects the garbage on its next
        // idle iteration and self-quarantines.
        me.host_write_sched_cmd(0xEE);
    }
    let ok = me.try_transition(WorkerState::Processing, WorkerState::Waiting);
    debug_assert!(ok, "PROCESSING -> WAITING must not be contended");
    true
}
