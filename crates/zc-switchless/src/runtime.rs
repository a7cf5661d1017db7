//! Public API of the ZC-SWITCHLESS runtime.

use crate::buffer::{SchedCommand, TransitionTracer, WorkerBuffer, WorkerSlot};
use crate::{scheduler, supervise, worker};
use parking_lot::Mutex;
use sgx_sim::frontdoor::{self, CachePadded, FrontDoor};
use sgx_sim::{CycleClock, Enclave, RegularOcall};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;
use switchless_core::stats::WorkerResidency;
use switchless_core::{
    CallPath, CallStats, DrainReport, FaultInjector, Ledger, OcallDispatcher, OcallRequest,
    OcallTable, OverloadSnapshot, RecoverySnapshot, Supervisor, SwitchlessError, ZcConfig,
};
use zc_telemetry::Telemetry;

/// State shared between callers, workers, the scheduler and the
/// supervisor.
///
/// Worker slots hold swappable buffers ([`WorkerSlot`]): the
/// supervisor *respawns* a failed slot by publishing a fresh buffer
/// (and thread) while the poisoned old buffer stays with whatever
/// thread or in-flight call still references it.
#[derive(Debug)]
pub(crate) struct Shared {
    /// Self-reference handed to the worker threads this state spawns
    /// (at start, on slot respawn and on enclave restart).
    me: Weak<Shared>,
    pub(crate) config: ZcConfig,
    pub(crate) table: Arc<OcallTable>,
    /// Clock, fallback engine, stats, injector, overload/recovery
    /// planes, telemetry hub, run flag and worker thread handles: the
    /// call front door shared with the Intel runtime (see `caller`).
    /// Its call id is journal sequence and reply-guard tag in one, so
    /// journal entries and reply guards agree on the same tag space.
    pub(crate) door: FrontDoor,
    pub(crate) workers: Vec<WorkerSlot>,
    pub(crate) active_workers: AtomicUsize,
    pub(crate) decisions: AtomicU64,
    /// Round-robin start of the idle-worker search. Like `seq`, stored
    /// by every call, so both sit on lines of their own: on a line with
    /// `table`, which a worker reads on every request, each call would
    /// pay one more cross-core line transfer.
    pub(crate) rotor: CachePadded<AtomicUsize>,
    /// Reply-guard tag source of a runtime with neither hub nor recovery
    /// plane (with either, the front door's call id is the tag): every
    /// switchless attempt carries a fresh tag so the guard can reject
    /// stale/replayed replies.
    pub(crate) seq: CachePadded<AtomicU64>,
    pub(crate) residency: Mutex<WorkerResidency>,
    /// Self-healing policy state; `Some` iff `config.supervise` is set.
    pub(crate) supervisor: Option<Mutex<Supervisor>>,
    /// Length of the supervisor's poison blacklist, stored under its
    /// lock whenever a shape is added (it never shrinks): while 0, no
    /// call takes the lock to ask whether its shape is pinned.
    pub(crate) blacklisted: AtomicUsize,
    /// Monotonic enclave incarnation, used as the worker-thread
    /// generation tag for post-restart spawns.
    pub(crate) enclave_generation: AtomicU64,
}

impl Shared {
    /// Current buffer of worker slot `i` (respawns swap it): one load,
    /// no lock and no reference count.
    #[inline]
    pub(crate) fn worker(&self, i: usize) -> &WorkerBuffer {
        self.workers[i].get()
    }

    /// Worker slots whose current buffer is quarantined (poisoned).
    fn poisoned_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.get().is_poisoned())
            .count()
    }

    /// Next reply-guard tag for a call the front door left untagged
    /// (starts at 1, so the zero a fresh reply struct carries never
    /// matches a live call).
    #[inline]
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed).wrapping_add(1)
    }

    /// Trace into the hub, if one is attached, the edges of worker
    /// `index`'s state machine that no call owns (the tracer sees them
    /// made by whichever thread performed the CAS, attributed to the
    /// buffer's worker index).
    fn trace_transitions(&self, index: usize, buf: &WorkerBuffer) {
        if let Some(hub) = &self.door.telemetry {
            buf.set_tracer(TransitionTracer::new(
                Arc::clone(hub),
                self.door.clock.clone(),
                index as u32,
            ));
        }
    }

    /// Spawn a worker thread for slot `index` serving buffer `buf`
    /// (generation 0 at startup, >0 for respawns).
    fn spawn_worker(&self, index: usize, generation: u64, buf: Arc<WorkerBuffer>) {
        let sh = self.me.upgrade().expect("runtime state is alive");
        self.door.spawn_worker(
            index,
            format!("zc-worker-{index}-g{generation}"),
            move |wedged| worker::worker_loop(&sh, index, &buf, wedged),
        );
    }

    /// Respawn slot `index`: replace its quarantined buffer by a fresh
    /// one (with the hub's transition tracer, if any) and spawn
    /// generation `generation` of the worker thread onto it.
    /// The old buffer stays with whatever thread or in-flight call
    /// still references it. Returns `false`, having done nothing, when
    /// the slot's buffer is healthy: a supervisor respawn and an
    /// enclave restart raced for the slot and the other one won.
    pub(crate) fn respawn_slot(&self, index: usize, generation: u64) -> bool {
        let Some(fresh) = self.workers[index].replace_quarantined(|| {
            let fresh = Arc::new(WorkerBuffer::new());
            self.trace_transitions(index, &fresh);
            fresh
        }) else {
            return false;
        };
        self.spawn_worker(index, generation, fresh);
        true
    }
}

/// The ZC-SWITCHLESS runtime: adaptive switchless ocalls with zero
/// workload-specific configuration.
///
/// Start with [`ZcRuntime::start`]; issue calls through the
/// [`OcallDispatcher`] impl from any number of enclave threads; the
/// embedded scheduler resizes the worker pool every quantum. Threads are
/// joined on [`shutdown`](ZcRuntime::shutdown) or drop.
#[derive(Debug)]
pub struct ZcRuntime {
    shared: Arc<Shared>,
    scheduler_handle: Mutex<Option<JoinHandle<()>>>,
    supervisor_handle: Mutex<Option<JoinHandle<()>>>,
}

impl ZcRuntime {
    /// Start the runtime: spawns `config.max_workers()` worker threads
    /// (the scheduler activates `config.initial_workers` of them) plus
    /// the scheduler thread.
    ///
    /// # Errors
    ///
    /// Returns [`SwitchlessError::InvalidConfig`] if the machine model
    /// yields zero maximum workers.
    pub fn start(
        config: ZcConfig,
        table: Arc<OcallTable>,
        enclave: Enclave,
    ) -> Result<Self, SwitchlessError> {
        Self::start_inner(config, table, enclave, None, None)
    }

    /// [`start`](ZcRuntime::start) with a telemetry hub: the scheduler
    /// traces phase starts and argmin decisions (with their `F_i`/`U_i`
    /// inputs), workers trace pause/resume/exit edges and faults,
    /// callers trace one phase-attributed span per completed call and
    /// pool reallocations.
    ///
    /// `faults` may additionally inject deterministic faults (as in
    /// [`start_with_faults`](ZcRuntime::start_with_faults)); injections
    /// are traced as fault events.
    ///
    /// # Errors
    ///
    /// Same conditions as [`start`](ZcRuntime::start).
    pub fn start_with_telemetry(
        config: ZcConfig,
        table: Arc<OcallTable>,
        enclave: Enclave,
        telemetry: Arc<Telemetry>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Self, SwitchlessError> {
        Self::start_inner(config, table, enclave, faults, Some(telemetry))
    }

    /// [`start`](ZcRuntime::start) with a [`FaultInjector`]: workers,
    /// callers and the fallback engine consult `faults` at their
    /// instrumented sites, exercising the graceful-degradation paths
    /// (poisoned-worker quarantine, pool-exhaustion retry, transition
    /// retry, drain-with-timeout).
    ///
    /// # Errors
    ///
    /// Same conditions as [`start`](ZcRuntime::start).
    pub fn start_with_faults(
        config: ZcConfig,
        table: Arc<OcallTable>,
        enclave: Enclave,
        faults: Arc<FaultInjector>,
    ) -> Result<Self, SwitchlessError> {
        Self::start_inner(config, table, enclave, Some(faults), None)
    }

    pub(crate) fn start_inner(
        config: ZcConfig,
        table: Arc<OcallTable>,
        enclave: Enclave,
        faults: Option<Arc<FaultInjector>>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, SwitchlessError> {
        let max = config.max_workers();
        if max == 0 {
            return Err(SwitchlessError::InvalidConfig(
                "machine model yields zero maximum workers".into(),
            ));
        }
        let fallback = RegularOcall::new(Arc::clone(&table), enclave);
        let workers = (0..max).map(|_| WorkerSlot::new()).collect();
        let shared = Arc::new_cyclic(|me| Shared {
            me: me.clone(),
            door: FrontDoor::new(
                fallback,
                faults,
                config.overload,
                config.recovery,
                telemetry,
            ),
            workers,
            table,
            active_workers: AtomicUsize::new(config.initial_workers.min(max)),
            decisions: AtomicU64::new(0),
            rotor: CachePadded(AtomicUsize::new(0)),
            seq: CachePadded(AtomicU64::new(0)),
            residency: Mutex::new(WorkerResidency::new(max)),
            supervisor: config
                .supervise
                .map(|params| Mutex::new(Supervisor::new(max, params))),
            blacklisted: AtomicUsize::new(0),
            enclave_generation: AtomicU64::new(0),
            config,
        });
        if shared.door.telemetry.is_some() {
            for (i, w) in shared.workers.iter().enumerate() {
                shared.trace_transitions(i, w.get());
            }
        }
        // Initial activation before any thread runs: first
        // `initial_workers` active, rest deactivated.
        scheduler::set_active_workers(&shared, shared.active_workers.load(Ordering::Relaxed));

        for i in 0..max {
            shared.spawn_worker(i, 0, shared.workers[i].current());
        }
        let sh = Arc::clone(&shared);
        let (started, first_step_applied) = std::sync::mpsc::channel();
        let scheduler_handle = std::thread::Builder::new()
            .name("zc-scheduler".into())
            .spawn(move || scheduler::scheduler_loop(&sh, started))
            .expect("failed to spawn zc scheduler");
        // "Started" means "scheduler running": its first step re-posts
        // every worker's command word, and a call racing that step
        // could have what the host wrote there overwritten unseen. An
        // `Err` is the thread gone before its first step; shutdown
        // joins it and surfaces the panic.
        let _ = first_step_applied.recv();
        let supervisor_handle = shared.supervisor.is_some().then(|| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("zc-supervisor".into())
                .spawn(move || supervise::supervise_loop(&sh))
                .expect("failed to spawn zc supervisor")
        });
        Ok(ZcRuntime {
            shared,
            scheduler_handle: Mutex::new(Some(scheduler_handle)),
            supervisor_handle: Mutex::new(supervisor_handle),
        })
    }

    /// Shared call statistics (switchless / fallback / pool reallocs).
    #[must_use]
    pub fn stats(&self) -> &Arc<CallStats> {
        &self.shared.door.stats
    }

    /// Configuration the runtime was started with.
    #[must_use]
    pub fn config(&self) -> &ZcConfig {
        &self.shared.config
    }

    /// The runtime's shared cycle clock (inherited from the enclave;
    /// virtual when the enclave was built with `Enclave::new_virtual`).
    #[must_use]
    pub fn clock(&self) -> CycleClock {
        self.shared.door.clock.clone()
    }

    /// Worker count chosen by the scheduler for the current step.
    #[must_use]
    pub fn active_workers(&self) -> usize {
        self.shared.active_workers.load(Ordering::Acquire)
    }

    /// Completed scheduler decisions (configuration phases).
    #[must_use]
    pub fn scheduler_decisions(&self) -> u64 {
        self.shared.decisions.load(Ordering::Acquire)
    }

    /// Snapshot of the worker-count residency histogram (paper §V-B).
    #[must_use]
    pub fn residency(&self) -> WorkerResidency {
        self.shared.residency.lock().clone()
    }

    /// Workers whose *current* buffer is quarantined (poisoned). With
    /// supervision on, this drops back to zero once failed slots have
    /// been respawned onto fresh buffers.
    #[must_use]
    pub fn poisoned_workers(&self) -> usize {
        self.shared.poisoned_workers()
    }

    /// Snapshot of the supervisor's policy state (health ledger,
    /// blacklist, respawn/heal totals). `None` when supervision is off.
    #[must_use]
    pub fn supervisor_state(&self) -> Option<Supervisor> {
        self.shared.supervisor.as_ref().map(|s| s.lock().clone())
    }

    /// Snapshot of the overload plane's counters and machine states
    /// (offered/shed, breaker). `None` when overload control is off.
    /// Its sheds are the `shed` column of [`usage`](Self::usage).
    #[must_use]
    pub fn overload_snapshot(&self) -> Option<OverloadSnapshot> {
        self.shared.door.overload_snapshot()
    }

    /// Snapshot of the recovery plane's counters and phase (crashes,
    /// replays, redeliveries, refused non-idempotent calls, journal
    /// occupancy). `None` when recovery is off. Its refusals are the
    /// `refused` column of [`usage`](Self::usage).
    #[must_use]
    pub fn recovery_snapshot(&self) -> Option<RecoverySnapshot> {
        self.shared.door.recovery_snapshot()
    }

    /// This runtime's conservation-ledger row (see
    /// [`FrontDoor::usage`]).
    #[must_use]
    pub fn usage(&self) -> Ledger {
        self.shared.door.usage()
    }

    /// Stop the scheduler and workers and join them. Idempotent; also
    /// runs on drop. In-flight calls complete first. Delegates to
    /// [`shutdown_with_timeout`](ZcRuntime::shutdown_with_timeout) with a
    /// generous drain budget, so even a wedged worker cannot hang
    /// shutdown forever.
    pub fn shutdown(&self) {
        let _ = self.shutdown_with_timeout(Duration::from_secs(30));
    }

    /// Stop the runtime and drain its workers. A worker that published
    /// itself as wedged (injected hang) is *abandoned* — detached rather
    /// than joined — at once; every other worker is waited for and
    /// joined. `timeout` is a backstop in real wall time (worker threads
    /// are OS threads whatever clock the runtime models): only a thread
    /// that wedged without saying so is abandoned by it, so shutdown
    /// always completes.
    pub fn shutdown_with_timeout(&self, timeout: Duration) -> DrainReport {
        self.shared.door.stop();
        if let Some(h) = self.scheduler_handle.lock().take() {
            let _ = h.join();
        }
        // Join the supervisor before posting Exit: no thread may respawn
        // a worker after the drain has started.
        if let Some(h) = self.supervisor_handle.lock().take() {
            let _ = h.join();
        }
        self.shared.door.drain(timeout, || {
            for w in &self.shared.workers {
                let w = w.get();
                w.post_command(SchedCommand::Exit);
                w.unpark();
            }
        })
    }
}

impl Drop for ZcRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl OcallDispatcher for ZcRuntime {
    fn dispatch(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<(i64, CallPath), SwitchlessError> {
        frontdoor::dispatch(&*self.shared, req, payload_in, payload_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::{CpuSpec, FuncId, MAX_OCALL_ARGS};

    fn table() -> (Arc<OcallTable>, FuncId, FuncId) {
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

    /// Small machine (2 workers max) with a fast quantum so scheduler
    /// activity is visible in short tests.
    fn test_config() -> ZcConfig {
        let mut cpu = CpuSpec::paper_machine();
        cpu.logical_cpus = 4; // max 2 workers
        ZcConfig::for_cpu(cpu)
            .with_quantum_ms(5)
            .with_initial_workers(1)
    }

    fn enclave(cfg: &ZcConfig) -> Enclave {
        Enclave::new(cfg.cpu)
    }

    #[test]
    fn calls_complete_correctly() {
        let (t, echo, add) = table();
        let cfg = test_config();
        let rt = ZcRuntime::start(cfg, t, enclave(&cfg)).unwrap();
        let mut out = Vec::new();
        for i in 0..30u64 {
            let payload = vec![i as u8; 32];
            let (ret, path) = rt
                .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
                .unwrap();
            assert_eq!(ret, 32);
            assert_eq!(out, payload);
            assert!(matches!(path, CallPath::Switchless | CallPath::Fallback));
            let (ret, _) = rt
                .dispatch(&OcallRequest::new(add, &[i, 1]), &[], &mut out)
                .unwrap();
            assert_eq!(ret, (i + 1) as i64);
        }
        let snap = rt.stats().snapshot();
        assert_eq!(snap.total_calls(), 60);
        assert_eq!(snap.regular, 0, "zc has no statically-regular path");
        rt.shutdown();
    }

    #[test]
    fn payloads_round_trip_at_the_window_edges_each_way_and_crossed() {
        const W: usize = crate::buffer::INLINE_BYTES;
        let mut t = OcallTable::new();
        // Replies `args[0]` bytes and returns the input's byte sum.
        let shape = t.register(
            "shape",
            |args: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
                pout.extend((0..args[0]).map(|i| (i as usize + pin.len()) as u8));
                pin.iter().map(|&b| i64::from(b)).sum()
            },
        );
        // One worker buffer, so every switchless call lands on it.
        let mut cpu = CpuSpec::paper_machine();
        cpu.logical_cpus = 2;
        let cfg = ZcConfig::for_cpu(cpu).with_quantum_ms(1000);
        let rt = ZcRuntime::start(cfg, Arc::new(t), enclave(&cfg)).unwrap();
        let mut out = Vec::new();
        // Each shape until one call of it went switchless (wall time is
        // only the backstop); every call must return the right bytes.
        let mut round_trip = |len_in: usize, len_out: usize| {
            let payload: Vec<u8> = (0..len_in).map(|i| (i * 7 + 1) as u8).collect();
            let expect: Vec<u8> = (0..len_out).map(|i| (i + len_in) as u8).collect();
            let sum: i64 = payload.iter().map(|&b| i64::from(b)).sum();
            let req = OcallRequest::new(shape, &[len_out as u64]);
            let backstop = std::time::Instant::now() + Duration::from_secs(30);
            loop {
                let (ret, path) = rt.dispatch(&req, &payload, &mut out).unwrap();
                assert_eq!(
                    (ret, &out[..]),
                    (sum, &expect[..]),
                    "{len_in} B in, {len_out} B out"
                );
                if path == CallPath::Switchless {
                    break;
                }
                assert!(
                    std::time::Instant::now() < backstop,
                    "{len_in} B in never went switchless"
                );
            }
        };
        for n in [0, 1, W - 1, W] {
            round_trip(n, 0);
            round_trip(0, n);
            round_trip(n, n);
        }
        // Inline-only traffic leaves the pool and `payload_out` alone.
        assert_eq!(rt.stats().snapshot().pool_reallocs, 0);
        assert!(rt.shared.worker(0).outboard_untouched());
        for (len_in, len_out) in [(W + 1, 0), (0, W + 1), (W + 1, W + 1), (4096, 8), (8, 4096)] {
            round_trip(len_in, len_out);
        }
        assert_eq!(
            rt.stats().snapshot().pool_reallocs,
            1,
            "4 KiB grew the pool"
        );
        assert!(!rt.shared.worker(0).outboard_untouched());
        rt.shutdown();
    }

    #[test]
    fn any_function_is_a_switchless_candidate() {
        // Unlike Intel, no function set is configured: with an active
        // worker available, calls go switchless.
        let (t, echo, _) = table();
        let cfg = test_config().with_quantum_ms(1000); // scheduler holds initial count
        let rt = ZcRuntime::start(cfg, t, enclave(&cfg)).unwrap();
        let mut out = Vec::new();
        let mut switchless = 0;
        for _ in 0..50 {
            let (_, path) = rt
                .dispatch(&OcallRequest::new(echo, &[]), b"p", &mut out)
                .unwrap();
            if path == CallPath::Switchless {
                switchless += 1;
            }
        }
        assert!(switchless > 0, "at least some calls must go switchless");
        rt.shutdown();
    }

    #[test]
    fn oversized_payload_grows_the_pool_once_then_goes_switchless() {
        let (t, echo, _) = table();
        // One worker buffer, so every switchless call lands on the same
        // pool.
        let mut cpu = CpuSpec::paper_machine();
        cpu.logical_cpus = 2;
        let cfg = ZcConfig::for_cpu(cpu).with_quantum_ms(1000);
        let rt = ZcRuntime::start(cfg, t, enclave(&cfg)).unwrap();
        let big = vec![7u8; 1024];
        let mut out = Vec::new();
        let backstop = std::time::Instant::now() + Duration::from_secs(30);
        while rt.stats().snapshot().switchless < 3 {
            assert!(std::time::Instant::now() < backstop, "no switchless call");
            let (ret, _) = rt
                .dispatch(&OcallRequest::new(echo, &[]), &big, &mut out)
                .unwrap();
            assert_eq!(ret, 1024);
            assert_eq!(out, big);
        }
        assert_eq!(
            rt.stats().snapshot().pool_reallocs,
            1,
            "the first switchless 1 KiB call grows the 64 B pool; the rest fit"
        );
        rt.shutdown();
    }

    #[test]
    fn repeated_payloads_never_reallocate_after_the_first_growth() {
        let (t, echo, _) = table();
        let cfg = test_config().with_quantum_ms(1000);
        let rt = ZcRuntime::start(cfg, t, enclave(&cfg)).unwrap();
        let payload = vec![1u8; 200];
        let mut out = Vec::new();
        let mut switchless_calls = 0;
        for _ in 0..20 {
            let (ret, path) = rt
                .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
                .unwrap();
            assert_eq!(ret, 200);
            assert_eq!(out, payload);
            if path == CallPath::Switchless {
                switchless_calls += 1;
            }
        }
        let reallocs = rt.stats().snapshot().pool_reallocs;
        assert!(
            reallocs <= cfg.max_workers() as u64 && (reallocs > 0) == (switchless_calls > 0),
            "each buffer grows once for 200 B and then wraps \
             (reallocs={reallocs}, switchless={switchless_calls})"
        );
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let (t, _, _) = table();
        let cfg = test_config();
        let rt = ZcRuntime::start(cfg, t, enclave(&cfg)).unwrap();
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }

    #[test]
    fn scheduler_makes_decisions_and_records_residency() {
        // Virtual clock: scheduler quanta advance logical time instantly,
        // so configuration phases complete deterministically without the
        // test betting on wall-clock timing.
        let (t, echo, _) = table();
        let cfg = test_config(); // 5 ms quantum
        let rt = ZcRuntime::start(cfg, t, Enclave::new_virtual(cfg.cpu)).unwrap();
        // Generate load until the scheduler has completed a decision
        // (wall-clock bound is only a failure backstop, never slept on).
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while rt.scheduler_decisions() < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "no scheduler decision"
            );
            let _ = rt
                .dispatch(&OcallRequest::new(echo, &[]), b"load", &mut out)
                .unwrap();
        }
        assert!(rt.scheduler_decisions() >= 1);
        let res = rt.residency();
        assert!(res.total_cycles() > 0, "residency must be recorded");
        assert!(rt.active_workers() <= rt.config().max_workers());
        rt.shutdown();
    }

    #[test]
    fn concurrent_callers_are_linearizable() {
        let (t, echo, _) = table();
        let cfg = test_config();
        let rt = Arc::new(ZcRuntime::start(cfg, t, enclave(&cfg)).unwrap());
        let mut handles = Vec::new();
        for c in 0..4u8 {
            let rt = Arc::clone(&rt);
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                for i in 0..25u8 {
                    let payload = vec![c.wrapping_mul(25).wrapping_add(i); 24];
                    let (ret, _) = rt
                        .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
                        .unwrap();
                    assert_eq!(ret, 24);
                    assert_eq!(out, payload, "caller {c} got another caller's payload");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rt.stats().snapshot().total_calls(), 100);
        rt.shutdown();
    }

    #[test]
    fn supervisor_respawns_crashed_worker_and_slot_heals() {
        use switchless_core::{Fault, FaultInjector, FaultPlan, FaultSchedule, SuperviseParams};
        let (t, echo, _) = table();
        let cfg0 = test_config();
        let params = SuperviseParams::for_cpu(cfg0.cpu)
            .with_backoff_cycles(1_000, 8_000)
            .with_probation_cycles(1_000)
            // Generous deadline: no spurious cancels while idle spinners
            // race the virtual clock forward.
            .with_watchdog_cycles(u64::MAX / 2);
        let cfg = cfg0.with_initial_workers(2).with_supervise_params(params);
        let faults = Arc::new(FaultInjector::new(
            FaultPlan::new().inject(Fault::WorkerCrash, FaultSchedule::at(2)),
        ));
        let rt = ZcRuntime::start_with_faults(
            cfg,
            t,
            Enclave::new_virtual(cfg.cpu),
            Arc::clone(&faults),
        )
        .unwrap();
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            rt.dispatch(&OcallRequest::new(echo, &[]), b"x", &mut out)
                .unwrap();
            let sup = rt.supervisor_state().expect("supervision is on");
            if sup.respawns() >= 1 && sup.heals() >= 1 && rt.poisoned_workers() == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "supervisor never recovered: respawns={} heals={} poisoned={}",
                sup.respawns(),
                sup.heals(),
                rt.poisoned_workers()
            );
        }
        assert_eq!(faults.counts()[Fault::WorkerCrash], 1);
        let report = rt.shutdown_with_timeout(Duration::from_secs(5));
        assert_eq!(report.abandoned, 0, "a crashed thread exits and joins");
        assert!(
            report.drained >= 3,
            "max workers plus the respawned generation must join: {report:?}"
        );
    }

    #[test]
    fn fallback_storm_opens_breaker_and_sheds() {
        use switchless_core::fault::{Fault, FaultInjector, FaultPlan, FaultSchedule};
        use switchless_core::{BreakerParams, OverloadParams, ShedReason};
        let (t, echo, _) = table();
        // Crash the only worker (no supervisor, so no respawn): every
        // call after the crash re-route finds no idle worker and hits
        // the breaker-guarded would-fallback point. The crash re-route
        // is a safety path — it completes the call and does NOT feed
        // the breaker; only the storm of no-idle fallbacks does, so
        // with a threshold of 3 the breaker opens after calls 1..=3 and
        // sheds the rest. A one-worker machine, because a deactivated
        // spare is not "down": a scheduler step that runs after the
        // crash activates it in the crashed worker's place (and the
        // scheduler thread's *first* step can be that late).
        let mut cpu = CpuSpec::paper_machine();
        cpu.logical_cpus = 2; // max 1 worker
        let cfg = ZcConfig::for_cpu(cpu)
            .with_quantum_ms(10_000)
            .with_initial_workers(1);
        let mut overload = OverloadParams::for_cpu(&cfg.cpu);
        overload.breaker = BreakerParams {
            failure_threshold: 3,
            window_cycles: 1 << 40,
            open_cycles: 1 << 40,
            probe_successes: 1,
        };
        let cfg = cfg.with_overload_params(overload);
        let faults = Arc::new(FaultInjector::new(
            FaultPlan::new().inject(Fault::WorkerCrash, FaultSchedule::at(0)),
        ));
        let rt = ZcRuntime::start_with_faults(cfg, t, enclave(&cfg), faults).unwrap();
        let mut out = Vec::new();
        let mut fallbacks = 0u64;
        let mut breaker_sheds = 0u64;
        for _ in 0..10 {
            match rt.dispatch(&OcallRequest::new(echo, &[]), b"s", &mut out) {
                Ok((_, CallPath::Fallback)) => fallbacks += 1,
                Ok((_, p)) => panic!("unexpected path {p:?} with all workers down"),
                Err(SwitchlessError::Overloaded { reason }) => {
                    assert_eq!(reason, ShedReason::BreakerOpen);
                    breaker_sheds += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(
            fallbacks, 4,
            "one crash re-route plus the three storm fallbacks that trip the breaker"
        );
        assert_eq!(breaker_sheds, 6, "the rest of the storm is shed");
        let snap = rt.overload_snapshot().unwrap();
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(snap.shed_for(ShedReason::BreakerOpen), 6);
        let usage = rt.usage();
        assert!(usage.conserves(), "{usage:?}");
        rt.shutdown();
    }

    #[test]
    fn the_execute_hint_comes_back_whole_in_the_payload_window() {
        use zc_telemetry::{Event, Phase, Telemetry};
        // More than `u32::MAX`: only both window words can carry it.
        const SLOW: u64 = 5_000_000_000;
        let mut cpu = CpuSpec::paper_machine();
        cpu.logical_cpus = 4;
        // A spin advances the virtual clock by `pause_cycles`: at zero
        // only the scheduler's sleep and the host function move it.
        cpu.pause_cycles = 0;
        // A long first quantum, so the test can park the scheduler at
        // its end (below) before it gets there.
        let cfg = ZcConfig::for_cpu(cpu)
            .with_quantum_ms(100_000)
            .with_initial_workers(1);
        // Stop the clock: the scheduler records residency when its first
        // quantum has been slept out, so holding the lock parks it there,
        // and once the clock reads that quantum's end nothing but the
        // host function moves time. A scheduler that got there before
        // the lock was taken is on its next step: start again.
        for _ in 0..5 {
            let enclave = Enclave::new_virtual(cpu);
            let clock = enclave.clock().clone();
            let mut t = OcallTable::new();
            let host_clock = clock.clone();
            let slow = t.register(
                "slow",
                move |_: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| {
                    // Give the caller time to pass its signal mark; a call
                    // that loses this race is recognised below and retried.
                    std::thread::sleep(Duration::from_millis(1));
                    host_clock.advance_cycles(SLOW);
                    0
                },
            );
            let sum = t.register(
                "sum",
                |args: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| {
                    args.iter().sum::<u64>() as i64
                },
            );
            let echo = t.register(
                "echo",
                |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
                    pout.extend_from_slice(pin);
                    pin.len() as i64
                },
            );
            let hub = Telemetry::new();
            let rt = ZcRuntime::start_with_telemetry(cfg, Arc::new(t), enclave, hub.clone(), None)
                .unwrap();
            let residency = rt.shared.residency.lock();
            if residency.total_cycles() != 0 {
                drop(residency);
                rt.shutdown();
                continue;
            }
            let quantum_end = hub
                .tracer()
                .drain()
                .iter()
                .find_map(|e| match e.event {
                    Event::PhaseStart {
                        duration_cycles, ..
                    } => Some(e.t_cycles + duration_cycles),
                    _ => None,
                })
                .expect("the first step is traced");
            let backstop = std::time::Instant::now() + Duration::from_secs(30);
            while clock.now_cycles() < quantum_end {
                assert!(
                    std::time::Instant::now() < backstop,
                    "quantum not slept out"
                );
                std::thread::yield_now();
            }
            let mut out = Vec::new();
            let mut exact = false;
            for _ in 0..20 {
                let (_, path) = rt
                    .dispatch(&OcallRequest::new(slow, &[]), &[], &mut out)
                    .unwrap();
                let phases = hub
                    .tracer()
                    .drain()
                    .iter()
                    .find_map(|e| match e.event {
                        Event::CallPhases { phases, .. } => Some(phases),
                        _ => None,
                    })
                    .expect("a traced call records its phases");
                // A call whose caller was still before its signal mark when
                // the clock moved books the time there and proves nothing.
                if path != CallPath::Switchless || phases[Phase::Signal.index()] != 0 {
                    continue;
                }
                assert_eq!(phases[Phase::Execute.index()], SLOW);
                assert_eq!(phases.iter().sum::<u64>(), SLOW);
                exact = true;
                break;
            }
            assert!(exact, "no switchless call passed its signal mark in time");
            // The window words are posted again on every call.
            let (ret, path) = rt
                .dispatch(&OcallRequest::new(sum, &[1, 2, 3, 4, 5, 6]), &[], &mut out)
                .unwrap();
            assert_eq!((ret, path), (21, CallPath::Switchless));
            let (ret, path) = rt
                .dispatch(&OcallRequest::new(echo, &[]), b"after the hint", &mut out)
                .unwrap();
            assert_eq!((ret, path), (14, CallPath::Switchless));
            assert_eq!(out, b"after the hint");
            drop(residency);
            rt.shutdown();
            return;
        }
        panic!("the scheduler ended its first quantum before every attempt to park it");
    }

    #[test]
    fn call_entering_during_a_restart_gives_its_claim_back() {
        use sgx_sim::frontdoor::{Rec, Transport};
        use switchless_core::WorkerState::{Reserved, Unused};

        /// The caller path past the claim: every call goes to slot 0,
        /// whose buffer the test has already claimed.
        struct Claimed<'a>(&'a Shared);
        impl Transport for Claimed<'_> {
            fn door(&self) -> &FrontDoor {
                &self.0.door
            }
            fn route(
                &self,
                req: &OcallRequest,
                payload_in: &[u8],
                payload_out: &mut Vec<u8>,
                rec: &mut Rec,
            ) -> Result<(i64, CallPath), SwitchlessError> {
                let epoch0 = self.0.door.epoch();
                crate::caller::switchless_call(
                    self.0,
                    self.0.worker(0),
                    0,
                    epoch0,
                    req,
                    payload_in,
                    payload_out,
                    rec,
                )
            }
        }

        let (t, echo, _) = table();
        // Every worker active and a scheduler that never reconfigures:
        // nothing but the call moves the claimed buffer's status word.
        let cfg = test_config()
            .with_quantum_ms(10_000)
            .with_initial_workers(2)
            .with_recovery();
        let rt = ZcRuntime::start(cfg, t, enclave(&cfg)).unwrap();
        let plane = rt.shared.door.recovery.as_ref().expect("recovery is on");
        // An enclave restart, stopped where the next incarnation's
        // buffers are already claimable but the plane has not resumed.
        assert!(plane.begin_crash());
        rt.shared.fence_workers();
        rt.shared.respawn_workers();
        let fresh = rt.shared.worker(0);
        assert!(fresh.try_transition(Unused, Reserved));
        let (left_to, result, out) = std::thread::scope(|s| {
            // The call finds the enclave lost and must hand the claim
            // back rather than post on it; either way the buffer leaves
            // RESERVED before the call blocks on the restart, which this
            // thread then completes.
            let restart = s.spawn(|| {
                let backstop = std::time::Instant::now() + Duration::from_secs(30);
                let left_to = loop {
                    match fresh.state() {
                        Ok(Reserved) if std::time::Instant::now() < backstop => {
                            std::thread::yield_now();
                        }
                        other => break other,
                    }
                };
                plane.complete_restart();
                plane.resume();
                left_to
            });
            let mut out = Vec::new();
            let req = OcallRequest::new(echo, &[]).with_idempotent();
            let result = frontdoor::dispatch(&Claimed(&rt.shared), &req, b"mid-restart", &mut out);
            (restart.join().unwrap(), result, out)
        });
        assert_eq!(
            left_to,
            Ok(Unused),
            "the claim was posted on, not given back"
        );
        let (ret, path) = result.expect("replayed after the restart");
        assert_eq!((ret, path), (11, CallPath::Fallback));
        assert_eq!(out, b"mid-restart");
        // Nothing of the new incarnation was left mid-protocol.
        for w in &rt.shared.workers {
            assert_eq!(w.get().state(), Ok(Unused));
            assert!(!w.get().is_poisoned());
        }
        rt.shutdown();
    }
}
