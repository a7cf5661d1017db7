//! The Intel switchless runtime: worker threads + caller protocol.
//!
//! See the crate docs for the mechanism. One deliberate deviation from
//! the SDK: busy-wait loops issue `std::thread::yield_now()` every
//! [`YIELD_EVERY`](sgx_sim::frontdoor::YIELD_EVERY) modelled pauses so
//! the protocol stays live on hosts with fewer cores than the modelled
//! machine (the SDK assumes dedicated cores and never yields). On an
//! idle multicore host the yield is a no-op; the modelled pause costs
//! are charged either way.
//!
//! This is the Intel [`Transport`]: admission, journaling, recovery and
//! the traced wrapper live in [`sgx_sim::frontdoor`]; what is here is
//! the task-pool routing protocol and the worker loop. The task pool
//! and the workers live in untrusted memory and survive an enclave
//! crash, so unlike the zc runtime there is no worker generation to
//! fence and respawn: a restart only pays the modelled rebuild cost.

use crate::pool::{SlotIdx, SlotState, TaskPool};
use parking_lot::{Condvar, Mutex};
use sgx_sim::frontdoor::{self, spin_pause, FrontDoor, Phase, Rec, Transport, Wedged};
use sgx_sim::{Enclave, RegularOcall};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use switchless_core::config::intel_default_task_pool;
use switchless_core::{
    CallPath, CallStats, DrainReport, Fault, FaultInjector, FaultSite, GuardViolation, IntelConfig,
    OcallDispatcher, OcallRequest, OcallTable, OverloadSnapshot, RecoverySnapshot, SwitchlessError,
    TenantUsage,
};
use zc_telemetry::{Event, Origin, Telemetry};

#[derive(Debug)]
struct Shared {
    config: IntelConfig,
    table: Arc<OcallTable>,
    pool: TaskPool,
    /// Clock, fallback engine, stats, injector, overload/recovery
    /// planes, telemetry hub, run flag and worker thread handles: the
    /// call front door shared with the zc runtime. Workers are
    /// untrusted and survive an enclave loss; only the enclave-side
    /// callers (and their in-flight calls) are affected.
    door: FrontDoor,
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
}

impl Shared {
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::Acquire) > 0 {
            let _g = self.sleep_lock.lock();
            self.sleep_cv.notify_one();
        }
    }

    fn wake_all(&self) {
        let _g = self.sleep_lock.lock();
        self.sleep_cv.notify_all();
    }
}

/// The Intel SGX SDK switchless mechanism (reimplementation).
///
/// Build with [`IntelSwitchless::start`]; dispatch ocalls through the
/// [`OcallDispatcher`] impl; worker threads are joined on drop (or via
/// [`IntelSwitchless::shutdown`]).
///
/// # Example
///
/// ```
/// use intel_switchless::IntelSwitchless;
/// use sgx_sim::Enclave;
/// use switchless_core::{CpuSpec, IntelConfig, OcallDispatcher, OcallRequest, OcallTable};
/// use std::sync::Arc;
///
/// let mut table = OcallTable::new();
/// let nop = table.register("nop", |_: &[u64; 6], _: &[u8], _: &mut Vec<u8>| 0);
/// let enclave = Enclave::new(CpuSpec::paper_machine());
/// // `nop` is statically marked switchless with 1 worker.
/// let rt = IntelSwitchless::start(IntelConfig::new(1, [nop]), Arc::new(table), enclave)?;
/// let mut out = Vec::new();
/// let (ret, _path) = rt.dispatch(&OcallRequest::new(nop, &[]), &[], &mut out)?;
/// assert_eq!(ret, 0);
/// rt.shutdown();
/// # Ok::<(), switchless_core::SwitchlessError>(())
/// ```
#[derive(Debug)]
pub struct IntelSwitchless {
    shared: Arc<Shared>,
}

impl IntelSwitchless {
    /// Start the runtime: spawns `config.num_uworkers` worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`SwitchlessError::InvalidConfig`] if switchless functions
    /// are configured but no workers.
    pub fn start(
        config: IntelConfig,
        table: Arc<OcallTable>,
        enclave: Enclave,
    ) -> Result<Self, SwitchlessError> {
        Self::start_inner(config, table, enclave, None, None)
    }

    /// [`start`](IntelSwitchless::start) with a telemetry hub: callers
    /// trace one phase-attributed span per completed call, workers time
    /// the host function for its execute phase and trace injected
    /// faults, and shutdown traces the drain outcome. Without a hub no
    /// thread of the runtime reads the clock for telemetry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`start`](IntelSwitchless::start).
    pub fn start_with_telemetry(
        config: IntelConfig,
        table: Arc<OcallTable>,
        enclave: Enclave,
        telemetry: Arc<Telemetry>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Self, SwitchlessError> {
        Self::start_inner(config, table, enclave, faults, Some(telemetry))
    }

    /// [`start`](IntelSwitchless::start) with a [`FaultInjector`]: workers
    /// consult `faults` before picking up pending tasks (crash / stall /
    /// hang), the fallback engine consults it per transition, and dispatch
    /// applies injected clock skew. A crashed worker is degraded around by
    /// the existing `rbf`-timeout → cancel → fallback path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`start`](IntelSwitchless::start).
    pub fn start_with_faults(
        config: IntelConfig,
        table: Arc<OcallTable>,
        enclave: Enclave,
        faults: Arc<FaultInjector>,
    ) -> Result<Self, SwitchlessError> {
        Self::start_inner(config, table, enclave, Some(faults), None)
    }

    fn start_inner(
        config: IntelConfig,
        table: Arc<OcallTable>,
        enclave: Enclave,
        faults: Option<Arc<FaultInjector>>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, SwitchlessError> {
        if !config.switchless_funcs.is_empty() && config.num_uworkers == 0 {
            return Err(SwitchlessError::InvalidConfig(
                "switchless functions configured but num_uworkers is 0".into(),
            ));
        }
        let shared = Arc::new(Shared {
            pool: TaskPool::new(intel_default_task_pool(config.num_uworkers)),
            door: FrontDoor::new(
                RegularOcall::new(Arc::clone(&table), enclave),
                faults,
                config.overload,
                config.recovery,
                telemetry,
            ),
            config,
            table,
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
        });
        for i in 0..shared.config.num_uworkers {
            let sh = Arc::clone(&shared);
            let body = move |wedged: &Wedged| worker_loop(&sh, i, wedged);
            shared
                .door
                .spawn_worker(i, format!("intel-uworker-{i}"), body);
        }
        Ok(IntelSwitchless { shared })
    }

    /// Shared call statistics.
    #[must_use]
    pub fn stats(&self) -> &Arc<CallStats> {
        &self.shared.door.stats
    }

    /// The static configuration this runtime was started with.
    #[must_use]
    pub fn config(&self) -> &IntelConfig {
        &self.shared.config
    }

    /// Snapshot of the overload plane's counters and machine states.
    /// `None` when overload control is off. Once traffic has quiesced
    /// the counters conserve: `completed + shed_total == offered`.
    #[must_use]
    pub fn overload_snapshot(&self) -> Option<OverloadSnapshot> {
        self.shared.door.overload_snapshot()
    }

    /// Snapshot of the enclave-restart recovery plane (crash count,
    /// replay/redeliver/refuse counters, journal occupancy). `None`
    /// when recovery is off.
    #[must_use]
    pub fn recovery_snapshot(&self) -> Option<RecoverySnapshot> {
        self.shared.door.recovery_snapshot()
    }

    /// This runtime's conservation-ledger row (see
    /// [`FrontDoor::usage`]).
    #[must_use]
    pub fn usage(&self) -> TenantUsage {
        self.shared.door.usage()
    }

    /// Stop workers and join them. Idempotent; also invoked on drop.
    /// Delegates to [`shutdown_with_timeout`](Self::shutdown_with_timeout)
    /// with a generous drain budget, so even a wedged worker cannot hang
    /// shutdown forever.
    pub fn shutdown(&self) {
        let _ = self.shutdown_with_timeout(Duration::from_secs(30));
    }

    /// Stop the runtime and drain its workers. A worker that published
    /// itself as wedged (injected hang) is abandoned — detached rather
    /// than joined — at once; every other worker is waited for and
    /// joined. `timeout` is a backstop in real wall time (see
    /// [`FrontDoor::drain`]).
    pub fn shutdown_with_timeout(&self, timeout: Duration) -> DrainReport {
        self.shared.door.stop();
        self.shared.door.drain(timeout, || self.shared.wake_all())
    }
}

impl Drop for IntelSwitchless {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl OcallDispatcher for IntelSwitchless {
    fn dispatch(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<(i64, CallPath), SwitchlessError> {
        frontdoor::dispatch(&*self.shared, req, payload_in, payload_out)
    }
}

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
}

/// Route one admitted, journaled call: pool claim, rbf-bounded accept
/// wait, completion spin, regular-ocall fallback.
fn route(
    sh: &Shared,
    req: &OcallRequest,
    payload_in: &[u8],
    payload_out: &mut Vec<u8>,
    rec: &mut Rec,
) -> Result<(i64, CallPath), SwitchlessError> {
    let door = &sh.door;
    // Epoch under which this call entered routing: the loss checks in
    // the spin loops below compare against it, so a crash/restart cycle
    // that completes while this caller spins is still observed.
    let epoch0 = door.epoch();
    // Statically non-switchless functions always pay the transition.
    if !sh.config.is_switchless(req.func) {
        let ret = door.fallback_with_phases(rec, req, payload_in, payload_out)?;
        door.stats.record_regular();
        return Ok((ret, CallPath::Regular));
    }
    // Switchless attempt: claim a slot (pool full -> immediate
    // fallback, as in the SDK). The fallback-storm breaker guards this
    // would-fallback point; safety re-routes further down are never
    // gated.
    let Some(idx) = sh.pool.claim() else {
        rec.mark(Phase::Reserve, &door.clock);
        return door.guarded_fallback(rec, req, payload_in, payload_out);
    };
    rec.mark(Phase::Reserve, &door.clock);
    let submitted = sh.pool.submit(idx, req, payload_in);
    rec.mark(Phase::CopyIn, &door.clock);
    if let Err(v) = submitted {
        return guard_violation_fallback(sh, idx, v, req, payload_in, payload_out, rec);
    }
    sh.wake_one();
    rec.mark(Phase::Signal, &door.clock);

    // Busy-wait up to rbf pauses for a worker to accept.
    let mut retries: u32 = 0;
    while !sh.pool.is_accepted_or_done(idx) {
        // Enclave-loss check first: a dead enclave must surface as
        // typed recovery (replay / redeliver / refuse), not as an
        // rbf-expiry fallback racing the restart.
        if door.lost_since(epoch0) {
            abandon_slot(sh, idx);
            return frontdoor::recover_lost(sh, epoch0, req, payload_in, payload_out, rec);
        }
        if retries >= sh.config.retries_before_fallback {
            if sh.pool.cancel(idx) {
                rec.mark(Phase::Wait, &door.clock);
                // rbf expiry is the SDK's load signal: it feeds the
                // breaker so a sustained storm opens it.
                return door.load_fallback(rec, req, payload_in, payload_out);
            }
            // A worker accepted at the last moment: wait for it.
            break;
        }
        spin_pause(&door.clock, &mut retries);
    }
    // Accepted: busy-wait for completion (the caller thread pins its
    // core, exactly as in the SDK). Each iteration validates the
    // host-written state word: garbage is a guard violation (fallback),
    // and a slot the worker-side guard already poisoned will never reach
    // DONE — both re-route instead of spinning forever.
    let mut spins: u32 = 0;
    loop {
        match sh.pool.state(idx) {
            Err(v) => {
                rec.mark(Phase::Wait, &door.clock);
                return guard_violation_fallback(sh, idx, v, req, payload_in, payload_out, rec);
            }
            Ok(SlotState::Done) => break,
            Ok(_) => {
                // Enclave loss while awaiting completion: the worker
                // survives (it is untrusted) but its result raced the
                // crash and proves nothing — drain the slot and let the
                // journal decide whether re-execution is safe.
                if door.lost_since(epoch0) {
                    abandon_slot(sh, idx);
                    return frontdoor::recover_lost(sh, epoch0, req, payload_in, payload_out, rec);
                }
                if sh.pool.is_poisoned(idx) {
                    // The worker-side guard caught the host interfering
                    // with this slot (already counted there): discard
                    // the switchless attempt and fall back.
                    rec.mark(Phase::Wait, &door.clock);
                    return door.reroute_fallback(rec, req, payload_in, payload_out);
                }
                spin_pause(&door.clock, &mut spins);
            }
        }
    }
    rec.mark(Phase::Wait, &door.clock);
    // Validate the host-written reply and copy it back: the declared
    // length must match the bytes present and the copy is clamped to
    // MAX_REPLY_BYTES. Only a hub's recorder reads the execute hint, and
    // only then does the worker write it.
    let timed = door.telemetry.is_some();
    let collected = sh.pool.collect(idx, |d| {
        let (ret, truncated) = d.reply(payload_out)?;
        Ok((ret, truncated, if timed { d.execute_hint() } else { 0 }))
    });
    match collected {
        Ok((ret, truncated, exec_cycles)) => {
            if truncated {
                door.stats.record_reply_truncation();
            }
            rec.set_execute_hint(exec_cycles);
            door.stats.record_switchless();
            door.breaker_success(rec);
            Ok((ret, CallPath::Switchless))
        }
        // The reply lied about its length, or the host flipped the word
        // between DONE and the collect: whatever was read is
        // untrustworthy — discard and fall back (payload_out is
        // rewritten by the fallback execution).
        Err(v) => guard_violation_fallback(sh, idx, v, req, payload_in, payload_out, rec),
    }
}

/// A guard rejected host interference with slot `idx`: quarantine the
/// slot, count and trace the violation, and complete the call through
/// the regular-ocall fallback.
fn guard_violation_fallback(
    sh: &Shared,
    idx: SlotIdx,
    violation: GuardViolation,
    req: &OcallRequest,
    payload_in: &[u8],
    payload_out: &mut Vec<u8>,
    rec: &mut Rec,
) -> Result<(i64, CallPath), SwitchlessError> {
    sh.pool.poison(idx);
    sh.door
        .guard_violation(req.seq, idx.index() as u32, violation);
    sh.door.reroute_fallback(rec, req, payload_in, payload_out)
}

/// Walk away from slot `idx` after an enclave loss: cancel if no worker
/// accepted yet, otherwise drain the (surviving, untrusted) worker's
/// completion and discard it so the slot returns to the pool. The
/// discarded result is not lost information — reconciliation against
/// the journal decides the call's fate.
fn abandon_slot(sh: &Shared, idx: SlotIdx) {
    if sh.pool.cancel(idx) {
        return;
    }
    let mut spins: u32 = 0;
    loop {
        match sh.pool.state(idx) {
            Err(_) => {
                sh.pool.poison(idx);
                return;
            }
            Ok(SlotState::Done) => break,
            Ok(_) => {
                if sh.pool.is_poisoned(idx) {
                    return;
                }
                spin_pause(&sh.door.clock, &mut spins);
            }
        }
    }
    let _ = sh.pool.collect(idx, |_| Ok(()));
}

fn worker_loop(sh: &Shared, index: usize, wedged: &Wedged) {
    let clock = &sh.door.clock;
    let origin = Origin::Worker(index as u32);
    // Only an attached hub's phase recorder consumes the execute hint,
    // so a bare worker does not bracket the host function with clock
    // reads.
    let timed = sh.door.telemetry.is_some();
    let mut poll_retries: u32 = 0;
    while sh.door.is_running() {
        // Fault-injection site: evaluated once per observed pending task,
        // *before* the task is accepted — a crashed/hung worker leaves the
        // submission unaccepted, so the caller's rbf timeout cancels it
        // and degrades to a regular ocall.
        if sh.pool.has_pending() {
            if let Some(faults) = &sh.door.faults {
                if let Some(fault) = faults.fire(FaultSite::WorkerCall) {
                    sh.door.event(origin, Event::Fault { kind: fault });
                    match fault {
                        Fault::WorkerStall => clock.spin_cycles(faults.cycles(fault)),
                        // As in the SDK, nothing replaces a crashed worker:
                        // the pool stays one short.
                        Fault::WorkerCrash => return,
                        _ => {
                            // A hang. Say so first, so the drain abandons
                            // this thread instead of waiting for it.
                            wedged.mark();
                            loop {
                                std::thread::park();
                            }
                        }
                    }
                }
            }
        }
        if let Some(idx) = sh.pool.accept() {
            poll_retries = 0;
            let done = sh.pool.complete(idx, |data| {
                let exec_start = timed.then(|| clock.now_cycles());
                // A torn request (host overwrote the slot) degrades to an
                // error return instead of panicking the worker; so does
                // a host-function panic (see zc worker): a dead worker
                // would strand its caller mid-spin.
                data.serve(|req, payload_in, payload_out| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sh.table.invoke(req, payload_in, payload_out).unwrap_or(-1)
                    }))
                    .unwrap_or(-1)
                });
                if let Some(exec_start) = exec_start {
                    data.set_execute_hint(clock.now_cycles().saturating_sub(exec_start));
                }
            });
            if let Err(v) = done {
                // Host flipped the state word mid-completion: the slot is
                // poisoned; the caller's guard re-routes to the fallback.
                sh.door.stats.record_guard_violation();
                sh.door.event(
                    origin,
                    Event::GuardViolation {
                        call: 0,
                        worker: idx.index() as u32,
                        kind: v.kind,
                    },
                );
            }
            continue;
        }
        if poll_retries < sh.config.retries_before_sleep {
            spin_pause(clock, &mut poll_retries);
            continue;
        }
        // rbs exhausted: sleep until a submission wakes us.
        poll_retries = 0;
        let mut g = sh.sleep_lock.lock();
        // Re-check under the lock to avoid a lost wakeup: a caller
        // that submitted before we raised the sleeper count has
        // nobody to wake.
        if sh.door.is_running() && !sh.pool.has_pending() {
            sh.sleepers.fetch_add(1, Ordering::AcqRel);
            sh.sleep_cv.wait(&mut g);
            sh.sleepers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use switchless_core::MAX_OCALL_ARGS;

    fn table() -> (
        Arc<OcallTable>,
        switchless_core::FuncId,
        switchless_core::FuncId,
    ) {
        let mut t = OcallTable::new();
        let echo = t.register(
            "echo",
            |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
                pout.extend_from_slice(pin);
                pin.len() as i64
            },
        );
        let add = t.register(
            "add",
            |args: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| (args[0] + args[1]) as i64,
        );
        (Arc::new(t), echo, add)
    }

    fn enclave() -> Enclave {
        Enclave::new(switchless_core::CpuSpec::paper_machine())
    }

    impl IntelSwitchless {
        /// Workers currently asleep on the wake condvar (rbs exhausted
        /// with an empty task pool): published state a test can poll
        /// instead of guessing with wall-clock sleeps.
        fn sleeping_workers(&self) -> usize {
            self.shared.sleepers.load(Ordering::Acquire)
        }
    }

    #[test]
    fn non_switchless_function_goes_regular() {
        let (t, echo, add) = table();
        let rt = IntelSwitchless::start(IntelConfig::new(1, [echo]), t, enclave()).unwrap();
        let mut out = Vec::new();
        let (ret, path) = rt
            .dispatch(&OcallRequest::new(add, &[1, 2]), &[], &mut out)
            .unwrap();
        assert_eq!(ret, 3);
        assert_eq!(path, CallPath::Regular);
        assert_eq!(rt.stats().snapshot().regular, 1);
    }

    #[test]
    fn switchless_function_executes_correctly() {
        let (t, echo, _) = table();
        let rt = IntelSwitchless::start(IntelConfig::new(2, [echo]), t, enclave()).unwrap();
        let mut out = Vec::new();
        for i in 0..20 {
            let payload = vec![i as u8; 64];
            let (ret, path) = rt
                .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
                .unwrap();
            assert_eq!(ret, 64);
            assert_eq!(out, payload);
            assert!(
                matches!(path, CallPath::Switchless | CallPath::Fallback),
                "switchless-configured call must go switchless or fall back"
            );
        }
        let snap = rt.stats().snapshot();
        assert_eq!(snap.total_calls(), 20);
        assert_eq!(snap.regular, 0);
    }

    #[test]
    fn zero_workers_with_switchless_funcs_is_invalid() {
        let (t, echo, _) = table();
        let err = IntelSwitchless::start(IntelConfig::new(0, [echo]), t, enclave()).unwrap_err();
        assert!(matches!(err, SwitchlessError::InvalidConfig(_)));
    }

    #[test]
    fn zero_workers_without_switchless_funcs_is_fine() {
        let (t, _, add) = table();
        let rt = IntelSwitchless::start(IntelConfig::new(0, []), t, enclave()).unwrap();
        let mut out = Vec::new();
        let (ret, path) = rt
            .dispatch(&OcallRequest::new(add, &[5, 5]), &[], &mut out)
            .unwrap();
        assert_eq!(ret, 10);
        assert_eq!(path, CallPath::Regular);
    }

    #[test]
    fn tiny_rbf_forces_fallback_when_workers_are_busy() {
        let (t, echo, _) = table();
        // rbf = 0: the caller gives up immediately unless a worker
        // accepts between submit and the first check.
        let cfg = IntelConfig::new(1, [echo]).with_retries_before_fallback(0);
        let rt = IntelSwitchless::start(cfg, t, enclave()).unwrap();
        let mut out = Vec::new();
        let mut fallbacks = 0;
        for _ in 0..50 {
            let (ret, path) = rt
                .dispatch(&OcallRequest::new(echo, &[]), b"x", &mut out)
                .unwrap();
            assert_eq!(ret, 1);
            if path == CallPath::Fallback {
                fallbacks += 1;
            }
        }
        let snap = rt.stats().snapshot();
        assert_eq!(snap.fallback, fallbacks);
        assert_eq!(snap.total_calls(), 50);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let (t, echo, _) = table();
        let rt = IntelSwitchless::start(IntelConfig::new(2, [echo]), t, enclave()).unwrap();
        rt.shutdown();
        rt.shutdown();
        drop(rt); // must not hang or panic
    }

    #[test]
    fn workers_sleep_and_wake() {
        let (t, echo, _) = table();
        // rbs = 0: workers sleep immediately when the pool is empty.
        let mut cfg = IntelConfig::new(1, [echo]).with_retries_before_fallback(2_000_000);
        cfg.retries_before_sleep = 0;
        let rt = IntelSwitchless::start(cfg, t, enclave()).unwrap();
        // Wait (bounded) until the worker has actually gone to sleep —
        // observable via the sleeper count, no wall-clock guessing.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while rt.sleeping_workers() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never went to sleep"
            );
            std::thread::yield_now();
        }
        let mut out = Vec::new();
        let (ret, path) = rt
            .dispatch(&OcallRequest::new(echo, &[]), b"wake", &mut out)
            .unwrap();
        assert_eq!(ret, 4);
        assert_eq!(out, b"wake");
        assert_eq!(path, CallPath::Switchless, "sleeping worker must be woken");
    }

    #[test]
    fn concurrent_callers_all_complete() {
        let (t, echo, _) = table();
        let cfg = IntelConfig::new(2, [echo]).with_retries_before_fallback(1_000);
        let rt = Arc::new(IntelSwitchless::start(cfg, t, enclave()).unwrap());
        let mut handles = Vec::new();
        for c in 0..4 {
            let rt = Arc::clone(&rt);
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                for i in 0..25 {
                    let payload = vec![(c * 25 + i) as u8; 16];
                    let (ret, _) = rt
                        .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
                        .unwrap();
                    assert_eq!(ret, 16);
                    assert_eq!(out, payload, "caller {c} iteration {i} corrupted");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rt.stats().snapshot().total_calls(), 100);
    }

    #[test]
    fn the_worker_times_the_host_function_only_with_a_hub() {
        const N: u64 = 1_000_000;
        for hub in [None, Some(Telemetry::new())] {
            let enclave = Enclave::new_virtual(switchless_core::CpuSpec::paper_machine());
            let clock = enclave.clock();
            let mut t = OcallTable::new();
            let slow = t.register(
                "slow",
                move |_: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| {
                    clock.advance_cycles(N);
                    0
                },
            );
            let cfg = IntelConfig::new(1, [slow]).with_retries_before_fallback(2_000_000);
            let t = Arc::new(t);
            let rt = match &hub {
                None => IntelSwitchless::start(cfg, t, enclave),
                Some(h) => IntelSwitchless::start_with_telemetry(cfg, t, enclave, h.clone(), None),
            }
            .unwrap();
            let mut out = Vec::new();
            for _ in 0..20 {
                rt.dispatch(&OcallRequest::new(slow, &[]), &[], &mut out)
                    .unwrap();
            }
            rt.shutdown();
            assert!(rt.stats().snapshot().switchless > 0);
            let hints = rt.shared.pool.execute_hints();
            if hub.is_some() {
                assert!(hints.iter().any(|&h| h >= N), "{hints:?}");
            } else {
                assert!(
                    hints.iter().all(|&h| h == 0),
                    "written without a hub: {hints:?}"
                );
            }
        }
    }

    #[test]
    fn an_oversized_reply_is_clamped_and_counted() {
        use switchless_core::config::MAX_REPLY_BYTES;
        let mut t = OcallTable::new();
        let big = t.register(
            "big",
            |_: &[u64; MAX_OCALL_ARGS], _: &[u8], pout: &mut Vec<u8>| {
                pout.resize(MAX_REPLY_BYTES + 10, 1);
                0
            },
        );
        let cfg = IntelConfig::new(1, [big]).with_retries_before_fallback(2_000_000);
        let rt = IntelSwitchless::start(cfg, Arc::new(t), enclave()).unwrap();
        let mut out = Vec::new();
        let (_, path) = rt
            .dispatch(&OcallRequest::new(big, &[]), &[], &mut out)
            .unwrap();
        assert_eq!(path, CallPath::Switchless);
        assert_eq!(out.len(), MAX_REPLY_BYTES);
        let snap = rt.stats().snapshot();
        assert_eq!((snap.reply_truncations, snap.guard_violations), (1, 0));
    }

    #[test]
    fn a_fully_poisoned_pool_falls_back_on_every_call() {
        // No respawn: a slot poisoned by a detected host lie stays out
        // of service. Once every slot is poisoned, each
        // switchless-configured call takes the pool-full fallback.
        let (t, echo, _) = table();
        let workers = 2;
        let rt = IntelSwitchless::start(IntelConfig::new(workers, [echo]), t, enclave()).unwrap();
        let slots = intel_default_task_pool(workers);
        assert_eq!(rt.shared.pool.capacity(), slots);
        for i in 0..slots {
            rt.shared.pool.poison(crate::pool::SlotIdx::from_raw(i));
        }
        const N: u64 = 100;
        let mut out = Vec::new();
        for i in 0..N {
            let payload = [i as u8; 8];
            let (ret, path) = rt
                .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
                .unwrap();
            assert_eq!((ret, path), (8, CallPath::Fallback), "call {i}");
            assert_eq!(out, payload);
        }
        let usage = rt.usage();
        assert!(usage.conserves(), "{usage:?}");
        assert_eq!((usage.offered, usage.completed), (N, N));
        let snap = rt.stats().snapshot();
        assert_eq!((snap.switchless, snap.fallback), (0, N));
        assert!(rt.shutdown_with_timeout(Duration::from_secs(30)).is_clean());
    }

    #[test]
    fn crashed_worker_stays_dead_without_respawn() {
        use switchless_core::{Fault, FaultInjector, FaultPlan, FaultSchedule};
        let (t, echo, _) = table();
        // Single worker, crash injected on its first observed task: every
        // later call must degrade to the rbf-timeout fallback path, none
        // may hang.
        let cfg = IntelConfig::new(1, [echo]).with_retries_before_fallback(16);
        let faults = Arc::new(FaultInjector::new(
            FaultPlan::new().inject(Fault::WorkerCrash, FaultSchedule::at(0)),
        ));
        let rt = IntelSwitchless::start_with_faults(cfg, t, enclave(), faults).unwrap();
        let mut out = Vec::new();
        for _ in 0..5 {
            let (ret, _) = rt
                .dispatch(&OcallRequest::new(echo, &[]), b"dead", &mut out)
                .unwrap();
            assert_eq!(ret, 4);
        }
        let snap = rt.stats().snapshot();
        // After the crash the pool has no worker: at least the later
        // calls must be fallbacks (the crash-triggering call itself also
        // times out and falls back).
        assert!(snap.fallback >= 4, "expected fallbacks, got {snap:?}");
    }

    #[test]
    fn enclave_crash_replays_idempotent_in_flight_exactly_once() {
        use switchless_core::{Fault, FaultInjector, FaultPlan, FaultSchedule};
        let (t, echo, _) = table();
        let cfg = IntelConfig::new(1, [echo]).with_recovery();
        let faults = Arc::new(FaultInjector::new(
            FaultPlan::new().inject(Fault::EnclaveCrash, FaultSchedule::at(2)),
        ));
        let rt = IntelSwitchless::start_with_faults(cfg, t, enclave(), faults).unwrap();
        let mut out = Vec::new();
        for i in 0..10 {
            let req = OcallRequest::new(echo, &[]).with_idempotent();
            let (ret, _) = rt.dispatch(&req, b"rcvr", &mut out).unwrap();
            assert_eq!(ret, 4, "call {i} must complete despite the crash");
            assert_eq!(out, b"rcvr");
        }
        let snap = rt.recovery_snapshot().expect("recovery is on");
        assert_eq!(snap.crashes, 1);
        assert_eq!(snap.replayed, 1);
        assert_eq!(snap.refused_non_idempotent, 0);
        assert_eq!(snap.journal_live, 0, "every journal entry retired");
    }

    #[test]
    fn enclave_crash_refuses_non_idempotent_in_flight() {
        use switchless_core::{Fault, FaultInjector, FaultPlan, FaultSchedule};
        let (t, echo, _) = table();
        let cfg = IntelConfig::new(1, [echo]).with_recovery();
        let faults = Arc::new(FaultInjector::new(
            FaultPlan::new().inject(Fault::EnclaveCrash, FaultSchedule::at(0)),
        ));
        let rt = IntelSwitchless::start_with_faults(cfg, t, enclave(), faults).unwrap();
        let mut out = Vec::new();
        // Default requests are conservatively non-idempotent: the lost
        // in-flight call surfaces as a typed refusal, never re-executes.
        let err = rt
            .dispatch(&OcallRequest::new(echo, &[]), b"x", &mut out)
            .unwrap_err();
        assert_eq!(err, SwitchlessError::EnclaveLost { in_flight_seq: 1 });
        for _ in 0..5 {
            let (ret, _) = rt
                .dispatch(&OcallRequest::new(echo, &[]), b"ok", &mut out)
                .unwrap();
            assert_eq!(ret, 2, "dispatch must resume after the restart");
        }
        let snap = rt.recovery_snapshot().expect("recovery is on");
        assert_eq!(snap.crashes, 1);
        assert_eq!(snap.refused_non_idempotent, 1);
        assert_eq!(snap.journal_live, 0);
    }

    #[test]
    fn crash_during_replay_redelivers_without_double_execution() {
        use switchless_core::{Fault, FaultInjector, FaultPlan, FaultSchedule, MAX_OCALL_ARGS};
        let execs = Arc::new(AtomicU64::new(0));
        let mut t = OcallTable::new();
        let counted = {
            let execs = Arc::clone(&execs);
            t.register(
                "counted",
                move |_: &[u64; MAX_OCALL_ARGS], _: &[u8], pout: &mut Vec<u8>| {
                    pout.extend_from_slice(b"done");
                    execs.fetch_add(1, Ordering::AcqRel) as i64 + 1
                },
            )
        };
        let cfg = IntelConfig::new(1, [counted]).with_recovery();
        let faults = Arc::new(FaultInjector::new(
            FaultPlan::new()
                .inject(Fault::EnclaveCrash, FaultSchedule::at(0))
                .inject(Fault::EnclaveReplayCrash, FaultSchedule::at(0)),
        ));
        let rt = IntelSwitchless::start_with_faults(cfg, Arc::new(t), enclave(), faults).unwrap();
        let mut out = Vec::new();
        let req = OcallRequest::new(counted, &[]).with_idempotent();
        let (ret, path) = rt.dispatch(&req, b"x", &mut out).unwrap();
        assert_eq!(ret, 1, "the journaled replay result is redelivered");
        assert_eq!(path, CallPath::Fallback);
        assert_eq!(out, b"done");
        assert_eq!(
            execs.load(Ordering::Acquire),
            1,
            "host function ran exactly once across two crashes"
        );
        let snap = rt.recovery_snapshot().expect("recovery is on");
        assert_eq!(snap.crashes, 2);
        assert_eq!(snap.replayed, 1);
        assert_eq!(snap.redelivered, 1);
        assert_eq!(snap.journal_live, 0);
    }
}
