//! The ZC caller path (paper §IV-B/§IV-C).
//!
//! Any ocall is a switchless candidate: the caller scans the worker
//! buffers for an `UNUSED` worker and claims it with one CAS. If none is
//! found the call falls back to a regular ocall **immediately** — there
//! is no `rbf`-style busy-wait, which is what saves ZC from the Intel
//! SDK's long-ocall pathology (paper Take-away 7).
//!
//! This is the zc [`Transport`]: admission, journaling, recovery and
//! the traced wrapper live in [`sgx_sim::frontdoor`]; what is here is
//! the routing protocol and the worker-generation side of an enclave
//! restart.

use crate::buffer::{SchedCommand, Side, WorkerBuffer, INLINE_BYTES};
use crate::pool::PoolAlloc;
use crate::runtime::Shared;
use crate::scheduler;
use sgx_sim::frontdoor::{self, FrontDoor, Phase, Rec, Transport};
use sgx_sim::tlibc::memcpy_zc;
use std::sync::atomic::Ordering;
use switchless_core::config::MAX_REPLY_BYTES;
use switchless_core::{
    CallPath, Fault, FaultSite, GuardViolation, OcallRequest, PoisonKey, ReplyGuard,
    SuperviseDecision, SwitchlessError, WorkerState,
};
use zc_telemetry::Event;

/// Retries granted to a pool allocation hit by injected exhaustion
/// before the call degrades to a regular ocall. With the overload plane
/// on, the breaker can cut the retry loop short of this cap.
const POOL_RETRY_MAX: u32 = 3;

impl Transport for Shared {
    #[inline]
    fn door(&self) -> &FrontDoor {
        &self.door
    }

    #[inline]
    fn route(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
        rec: &mut Rec,
    ) -> Result<(i64, CallPath), SwitchlessError> {
        route(self, req, payload_in, payload_out, rec)
    }

    /// Poison-request quarantine: a shape that killed too many workers
    /// is pinned to the regular path — no switchless attempt at all, so
    /// it can never poison another worker. The blacklist is empty in
    /// every healthy run, and then its published length (acquire,
    /// pairing with the release store in `report_worker_failure`) spares
    /// the call the supervisor's lock; a shape blacklisted a moment
    /// later loses the same race it would lose on the lock.
    #[inline]
    fn pinned_regular(&self, req: &OcallRequest, payload_len: usize) -> bool {
        self.supervisor.as_ref().is_some_and(|sup| {
            self.blacklisted.load(Ordering::Acquire) != 0
                && sup
                    .lock()
                    .is_blacklisted(PoisonKey::new(req.func, payload_len))
        })
    }

    /// Every buffer of the dead incarnation is poisoned and told to
    /// exit, so no old-generation worker can touch a request again
    /// (crashed threads have already exited; stalled ones retire on
    /// wake and are joined at shutdown).
    fn fence_workers(&self) {
        for w in &self.workers {
            let w = w.get();
            w.poison();
            w.post_command(SchedCommand::Exit);
            w.unpark();
        }
    }

    /// Install a fresh buffer + thread generation in every slot and
    /// wipe the supervisor's per-slot ledgers (the blacklist
    /// deliberately survives — poison request shapes outlive the
    /// enclave).
    fn respawn_workers(&self) {
        let generation = self.enclave_generation.fetch_add(1, Ordering::AcqRel) + 1;
        for i in 0..self.workers.len() {
            self.respawn_slot(i, generation);
        }
        scheduler::set_active_workers(self, self.active_workers.load(Ordering::Acquire));
        if let Some(sup) = &self.supervisor {
            sup.lock().note_enclave_restart();
        }
    }
}

/// Route one admitted, journaled call: worker scan, breaker-guarded
/// would-fallback point, regular-ocall fallback.
fn route(
    shared: &Shared,
    req: &OcallRequest,
    payload_in: &[u8],
    payload_out: &mut Vec<u8>,
    rec: &mut Rec,
) -> Result<(i64, CallPath), SwitchlessError> {
    let door = &shared.door;
    let n = shared.workers.len();
    // Recovery epoch this call is routed under, captured before any
    // claim: a later epoch (or the loss flag) means the enclave died
    // with this call in flight.
    let epoch0 = door.epoch();
    // Rotate the scan start so callers spread over workers. The rotor
    // is a hint, so a plain load + store does: two callers racing here
    // start at the same worker once, and the claim path keeps the claim
    // CAS as its only atomic read-modify-write.
    let turn = shared.rotor.load(Ordering::Relaxed);
    shared.rotor.store(turn.wrapping_add(1), Ordering::Relaxed);
    let start = turn % n.max(1);
    for k in 0..n {
        let idx = (start + k) % n;
        let w = shared.worker(idx);
        // Skip a quarantined worker (a fault killed its thread and the
        // supervisor, if enabled, has not yet respawned the slot) and one
        // no longer counted in `M`: a deactivated worker parks only when it
        // sees its command while UNUSED, so a claim in between would keep
        // it serving (DESIGN.md §5). A garbage command is the worker's to report.
        if w.is_poisoned() || w.sched_command() != Ok(SchedCommand::Run) {
            continue;
        }
        if w.try_transition(WorkerState::Unused, WorkerState::Reserved) {
            rec.mark(Phase::Reserve, &door.clock);
            return switchless_call(shared, w, idx, epoch0, req, payload_in, payload_out, rec);
        }
    }
    // No idle worker: immediate fallback. The fruitless scan is still
    // reserve time — it is exactly the cost the immediate-fallback
    // design bounds.
    rec.mark(Phase::Reserve, &door.clock);
    door.guarded_fallback(rec, req, payload_in, payload_out)
}

/// Complete a switchless call on a worker already claimed (`RESERVED`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn switchless_call(
    shared: &Shared,
    w: &WorkerBuffer,
    widx: usize,
    epoch0: u64,
    req: &OcallRequest,
    payload_in: &[u8],
    payload_out: &mut Vec<u8>,
    rec: &mut Rec,
) -> Result<(i64, CallPath), SwitchlessError> {
    let door = &shared.door;
    // The enclave was lost around the claim. Posting now could land on
    // a buffer of the *next* incarnation (respawned, but the restart
    // not yet resumed), and the loss check in the wait loop would then
    // walk away from a healthy buffer nobody ever releases. Give the
    // claim back instead — nothing was posted, so the journal replays
    // the call. Past this point a buffer this call abandons to a loss
    // is always one the restart fence poisons (the fence runs after the
    // flag is raised, over the then-current buffers).
    if door.lost_since(epoch0) {
        let ok = w.try_transition(WorkerState::Reserved, WorkerState::Unused);
        debug_assert!(ok, "RESERVED -> UNUSED release must not be contended");
        return frontdoor::recover_lost(shared, epoch0, req, payload_in, payload_out, rec);
    }
    // Stamp the per-call monotonic sequence tag (unless the front door
    // already did: on a traced or journaled runtime the call's id is
    // the tag): an honest worker echoes it into the reply, so a stale
    // or replayed reply left over from an earlier call is detected at
    // copy-back.
    let stamped;
    let req = if req.seq == 0 {
        stamped = req.with_seq(shared.next_seq());
        &stamped
    } else {
        req
    };
    if !post(door, w, widx, req, payload_in) {
        // Injected exhaustion outlasted its retries (or the payload is
        // longer than a mailbox window can name): release the worker
        // and execute as a regular ocall (the untrusted heap handles
        // it). This is a load-driven fallback, so it feeds the
        // breaker's storm signal — but it is never *gated*: the worker
        // is already claimed and the call must complete.
        let ok = w.try_transition(WorkerState::Reserved, WorkerState::Unused);
        debug_assert!(ok, "RESERVED -> UNUSED release must not be contended");
        rec.mark(Phase::CopyIn, &door.clock);
        return door.load_fallback(rec, req, payload_in, payload_out);
    }
    rec.mark(Phase::CopyIn, &door.clock);
    let ok = w.try_transition(WorkerState::Reserved, WorkerState::Processing);
    debug_assert!(ok, "RESERVED -> PROCESSING must not be contended");
    rec.mark(Phase::Signal, &door.clock);

    // Busy-wait for completion: while the worker runs our call, this
    // enclave thread spins — the "exactly one busy-waiting thread per
    // active worker" invariant of §IV-A. With supervision enabled the
    // spin carries a watchdog deadline — the only consumer of the post
    // time, so an unsupervised call does not read the clock for it, and
    // a recorded one reuses the signal boundary's stamp.
    let watchdog = shared.config.supervise.map(|p| {
        let posted_at = rec.stamp(&door.clock);
        (posted_at, posted_at.saturating_add(p.watchdog_cycles))
    });
    let mut spins: u32 = 0;
    loop {
        // Enclave-loss check first: a dead enclave must surface as
        // typed recovery (replay / redeliver / refuse), not as a
        // watchdog timeout after spinning out the full deadline.
        if door.lost_since(epoch0) {
            return frontdoor::recover_lost(shared, epoch0, req, payload_in, payload_out, rec);
        }
        // Decode the host-written status word *before* the poison check:
        // a hostile host that scribbles garbage on the word is always
        // reported as exactly one guard violation, regardless of how the
        // worker thread races its own exit.
        let state = match w.state() {
            Ok(s) => s,
            Err(v) => {
                rec.mark(Phase::Wait, &door.clock);
                return guard_violation_fallback(
                    shared,
                    w,
                    widx,
                    v,
                    req,
                    payload_in,
                    payload_out,
                    rec,
                );
            }
        };
        if state == WorkerState::Waiting {
            break;
        }
        if w.is_poisoned() {
            // Distinguish a single-worker failure from the enclave-wide
            // fence: the restart fence raises the loss flag *before*
            // poisoning every buffer, and a fenced worker may have been
            // mid-execution — only the journal may decide whether
            // re-execution is safe, so loss routes to reconciliation.
            if door.lost_since(epoch0) {
                return frontdoor::recover_lost(shared, epoch0, req, payload_in, payload_out, rec);
            }
            // The worker crashed or hung *before* invoking our request
            // (poisoning happens ahead of any slot access), so re-routing
            // to a regular ocall cannot double-execute side effects. The
            // buffer stays quarantined in PROCESSING until the
            // supervisor (if enabled) respawns the slot.
            rec.mark(Phase::Wait, &door.clock);
            report_worker_failure(shared, widx, req, payload_in.len());
            return door.reroute_fallback(rec, req, payload_in, payload_out);
        }
        if let Some((posted_at, deadline)) = watchdog {
            let now = door.clock.now_cycles();
            if now >= deadline {
                // Watchdog cancellation: the in-flight call exceeded its
                // deadline. Poison the buffer first — the worker checks
                // the flag before invoking, so a late-waking (stalled)
                // worker retires without touching the request and the
                // regular-ocall re-route below cannot double-execute.
                w.poison();
                report_worker_failure(shared, widx, req, payload_in.len());
                door.caller_event(Event::WatchdogCancel {
                    call: req.seq,
                    worker: widx as u32,
                    func: req.func.0,
                    waited_cycles: now.saturating_sub(posted_at),
                });
                // Counted as cancelled, not as a fallback.
                door.stats.record_cancelled();
                rec.mark(Phase::Wait, &door.clock);
                let ret = door.fallback_with_phases(rec, req, payload_in, payload_out)?;
                return Ok((ret, CallPath::Fallback));
            }
        }
        frontdoor::spin_pause(&door.clock, &mut spins);
    }
    rec.mark(Phase::Wait, &door.clock);
    // Validate the host-written reply, then copy results back into
    // enclave memory and release the worker. The sequence tag must echo
    // this call's and the declared length must match the bytes actually
    // present (an honest worker writes both); the copy is clamped to the
    // caller-declared capacity. Anything else is a lying host and the
    // reply is discarded in favour of the fallback path.
    let checked = w.with_slot(Side::Caller, |slot| {
        let (ret, bytes, truncated) =
            slot.checked_reply(req.seq, ReplyGuard::new(MAX_REPLY_BYTES))?;
        payload_out.resize(bytes.len(), 0);
        memcpy_zc(payload_out, bytes);
        // Only an attached hub consumes the worker's execute hint;
        // without one the worker does not write it.
        let exec_cycles = if door.telemetry.is_some() {
            slot.execute_hint()
        } else {
            0
        };
        Ok((ret, truncated, exec_cycles))
    });
    match checked {
        Ok((ret, truncated, exec_cycles)) => {
            if truncated {
                door.stats.record_reply_truncation();
            }
            rec.set_execute_hint(exec_cycles);
            let ok = w.try_transition(WorkerState::Waiting, WorkerState::Unused);
            debug_assert!(ok, "WAITING -> UNUSED release must not be contended");
            door.stats.record_switchless();
            door.breaker_success(rec);
            Ok((ret, CallPath::Switchless))
        }
        Err(v) => guard_violation_fallback(shared, w, widx, v, req, payload_in, payload_out, rec),
    }
}

/// Copy the payload to untrusted memory with the boundary memcpy and
/// post the request (caller, in `RESERVED`); `false` if the pool
/// refused the payload.
///
/// A payload that fits rides the inline window and leaves the pool
/// alone; a longer one is allocated from the worker's untrusted pool.
/// Either way the pool-allocation fault site is consulted first: an
/// injected exhaustion is retried with exponential pause backoff (the
/// graceful-degradation path for transient pressure on the untrusted
/// heap), and persistent exhaustion refuses the payload. Each
/// exhaustion is also a storm signal for the overload plane's breaker,
/// which can cut the retry loop short: once the breaker opens there is
/// no point burning backoff spins on a heap that is not recovering.
fn post(
    door: &FrontDoor,
    w: &WorkerBuffer,
    widx: usize,
    req: &OcallRequest,
    payload_in: &[u8],
) -> bool {
    let mut attempts: u32 = 0;
    while door
        .faults
        .as_ref()
        .is_some_and(|f| f.fire(FaultSite::PoolAlloc).is_some())
    {
        door.caller_event(Event::Fault {
            kind: Fault::PoolExhaustion,
        });
        if !door.breaker_storm_allows() || attempts >= POOL_RETRY_MAX {
            return false;
        }
        door.clock
            .spin_cycles(door.clock.spec().pause_cycles << attempts);
        attempts += 1;
    }
    if payload_in.len() <= INLINE_BYTES {
        w.with_slot(Side::Caller, |slot| slot.post_inline(req, payload_in));
        return true;
    }
    let offset = match w.with_pool(Side::Caller, |p| p.alloc(payload_in.len())) {
        PoolAlloc::Fit { offset } => offset,
        PoolAlloc::AfterRealloc => {
            // The payload outgrew the pool, which was freed and
            // reallocated: costs one real ocall, at most
            // ⌈log₂(largest payload / 64)⌉ times per buffer.
            door.stats.record_pool_realloc();
            door.fallback.enclave().record_ocall();
            door.clock.enclave_transition();
            door.caller_event(Event::PoolRealloc {
                call: req.seq,
                worker: widx as u32,
                bytes: payload_in.len() as u64,
            });
            0
        }
        PoolAlloc::TooLarge => return false,
    };
    w.with_pool(Side::Caller, |p| {
        p.write_with(offset, payload_in, memcpy_zc)
    });
    w.with_slot(Side::Caller, |slot| {
        slot.post(req, offset, payload_in.len())
    });
    true
}

/// A guard rejected a host-written value: quarantine the worker, count
/// and trace the violation, charge the supervisor ledger, and complete
/// the call through the regular-ocall fallback.
///
/// The host function may already have run on the untrusted side before
/// the lie was detected, so the fallback can double-execute side effects
/// — the same documented trade-off as a watchdog cancellation, and
/// unavoidable against a host that lies about completion state.
#[allow(clippy::too_many_arguments)]
fn guard_violation_fallback(
    shared: &Shared,
    w: &WorkerBuffer,
    widx: usize,
    violation: GuardViolation,
    req: &OcallRequest,
    payload_in: &[u8],
    payload_out: &mut Vec<u8>,
    rec: &mut Rec,
) -> Result<(i64, CallPath), SwitchlessError> {
    w.poison();
    shared.door.guard_violation(req.seq, widx as u32, violation);
    report_worker_failure(shared, widx, req, payload_in.len());
    shared
        .door
        .reroute_fallback(rec, req, payload_in, payload_out)
}

/// Report a caller-observed worker failure to the supervisor (no-op when
/// supervision is off). The in-flight request shape is charged as the
/// blacklist culprit; a shape crossing the poison threshold gets pinned
/// to the regular path and traced.
fn report_worker_failure(shared: &Shared, widx: usize, req: &OcallRequest, payload_len: usize) {
    let Some(sup) = &shared.supervisor else {
        return;
    };
    let key = PoisonKey::new(req.func, payload_len);
    let decision = {
        let mut sup = sup.lock();
        let decision = sup.record_failure(widx, Some(key), shared.door.clock.now_cycles());
        // Under the lock, so the length `pinned_regular` reads never
        // disagrees with the list for longer than this section.
        if matches!(decision, Some(SuperviseDecision::Blacklist { .. })) {
            shared
                .blacklisted
                .store(sup.blacklisted().len(), Ordering::Release);
        }
        decision
    };
    if let Some(SuperviseDecision::Blacklist { key }) = decision {
        shared.door.caller_event(Event::Blacklisted {
            func: key.func.0,
            shape: key.shape,
        });
    }
}
