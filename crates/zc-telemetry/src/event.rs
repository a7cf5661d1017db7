//! Typed trace events and their origins.

use switchless_core::overload::ShedReason;
use switchless_core::policy::DecisionRecord;
use switchless_core::{CallPath, Fault, GuardKind, WorkerState};

/// Which scheduler phase a step belongs to (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// A full scheduling quantum Q at the chosen worker count.
    Schedule,
    /// One micro-quantum of the configuration phase probing a count.
    Probe,
}

impl PhaseKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Schedule => "schedule",
            PhaseKind::Probe => "probe",
        }
    }
}

/// Who recorded an event.
///
/// Identity is supplied by the recording site: workers and the
/// scheduler know their own index/role; application (caller) threads
/// get a small per-hub id from [`crate::Tracer::caller_origin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// An application thread issuing ocalls, numbered per hub in first-
    /// event order.
    Caller(u32),
    /// An untrusted worker thread (or simulated worker), by index.
    Worker(u32),
    /// The scheduler thread (or simulated scheduler actor).
    Scheduler,
    /// The DES kernel / harness itself.
    Sim,
}

impl Origin {
    /// Human-readable label, e.g. `caller-3`, `worker-0`, `scheduler`.
    pub fn label(&self) -> String {
        match self {
            Origin::Caller(i) => format!("caller-{i}"),
            Origin::Worker(i) => format!("worker-{i}"),
            Origin::Scheduler => "scheduler".to_string(),
            Origin::Sim => "sim".to_string(),
        }
    }

    /// Stable synthetic thread id for the Chrome trace exporter.
    pub(crate) fn tid(&self) -> u64 {
        match self {
            Origin::Scheduler => 1,
            Origin::Sim => 2,
            Origin::Caller(i) => 100 + u64::from(*i),
            Origin::Worker(i) => 1000 + u64::from(*i),
        }
    }
}

/// One typed trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The scheduler started a phase step at `workers` active workers.
    PhaseStart {
        /// Schedule quantum or configuration micro-quantum.
        kind: PhaseKind,
        /// Worker count held during the step.
        workers: u32,
        /// Planned step length in cycles.
        duration_cycles: u64,
    },
    /// A completed configuration phase chose a worker count from the
    /// measured per-count fallback totals `F_i` and costs `U_i`.
    Decision {
        /// The probe reports, costs and argmin (see `DecisionRecord`).
        decision: DecisionRecord,
    },
    /// A worker buffer state-machine edge no call owns: into or out of
    /// `PAUSED` or `EXIT` (scheduler deactivation/reactivation,
    /// shutdown, fence). The five edges a call walks (`U→R`, `R→P`,
    /// `P→W`, `W→U`, give-back `R→U`) are implied by the call's
    /// [`Event::CallPhases`] and are not traced. No trace is needed to
    /// keep any edge legal: `WorkerBuffer::try_transition` refuses an
    /// illegal one before its CAS and poisons the slot. Nothing checks
    /// a host that writes a *valid but wrong* state word.
    WorkerTransition {
        /// Buffer index the edge happened on.
        worker: u32,
        /// State before the CAS.
        from: WorkerState,
        /// State after the CAS.
        to: WorkerState,
    },
    /// A routed-call span. No runtime emits it any more — a completed
    /// call is one [`Event::CallPhases`] — but the frozen `benchmark/`
    /// crate builds it as its ring-probe payload, so the variant stays
    /// until ROADMAP [bench-unfreeze].
    CallRouted {
        /// Registered function id.
        func: u16,
        /// Switchless / fallback / regular.
        path: CallPath,
        /// Cycle count when the dispatch began.
        start_cycles: u64,
        /// Dispatch latency in cycles.
        duration_cycles: u64,
    },
    /// The per-worker request pool grew to satisfy an allocation.
    PoolRealloc {
        /// Id of the call whose payload forced the growth.
        call: u64,
        /// Worker buffer whose pool grew.
        worker: u32,
        /// Requested allocation in bytes.
        bytes: u64,
    },
    /// An injected fault fired.
    Fault {
        /// Which fault.
        kind: Fault,
    },
    /// Shutdown drained the worker pool.
    Drain {
        /// In-flight calls that completed during the drain window.
        drained: u64,
        /// In-flight calls abandoned at the deadline.
        abandoned: u64,
    },
    /// Shutdown gave up on one wedged worker at the drain deadline.
    WorkerAbandoned {
        /// Worker slot whose thread never joined.
        worker: u32,
    },
    /// The supervisor spawned a fresh worker (thread + buffer) for a
    /// failed slot.
    WorkerRespawned {
        /// Worker slot that was respawned.
        worker: u32,
        /// Monotonic per-slot generation (initial spawn = 0).
        generation: u64,
    },
    /// A respawned worker survived its probation window cleanly.
    WorkerHealed {
        /// Worker slot that healed.
        worker: u32,
    },
    /// The caller-side watchdog cancelled an in-flight switchless call
    /// that exceeded its deadline; the call re-routed to a regular
    /// ocall and the worker was marked for recycling.
    WatchdogCancel {
        /// Id of the cancelled call.
        call: u64,
        /// Worker slot the call was cancelled on.
        worker: u32,
        /// Registered function id of the cancelled call.
        func: u16,
        /// Cycles the call had been in flight when cancelled.
        waited_cycles: u64,
    },
    /// The trusted-side guard rejected a host-written value crossing
    /// the shared-memory boundary; the call re-routed via fallback and
    /// the worker slot was quarantined.
    GuardViolation {
        /// Id of the call whose reply or slot failed validation; 0 when
        /// a worker caught garbage on its own words and cannot know
        /// which call the host was attacking.
        call: u64,
        /// Worker slot whose shared words failed validation.
        worker: u32,
        /// Which guard rule was broken.
        kind: GuardKind,
    },
    /// A poison request shape was pinned to the regular-ocall path
    /// after killing too many workers.
    Blacklisted {
        /// Registered function id of the poison shape.
        func: u16,
        /// `log2` payload-size bucket of the poison shape.
        shape: u8,
    },
    /// One completed call: *the* per-call event of both real runtimes
    /// and the DES. Recorded at completion with the per-phase cycle
    /// breakdown (phases in [`crate::profile::Phase::ALL`] order:
    /// reserve, copy_in, signal, wait, execute, copy_out). The six
    /// entries sum to the call's total latency by construction, so the
    /// call began at the record timestamp minus their sum.
    CallPhases {
        /// Call id (see [`Event::call_id`]).
        call: u64,
        /// Registered function id.
        func: u16,
        /// Switchless / fallback / regular.
        path: CallPath,
        /// Cycles charged to each phase, pipeline order.
        phases: [u64; 6],
    },
    /// The scheduler's argmin settled on a new worker count after a
    /// load shift (see `switchless_core::policy::ConvergenceTracker`).
    Converged {
        /// Worker count before the shift.
        from_workers: u32,
        /// Worker count the argmin settled on.
        to_workers: u32,
        /// Scheduling decisions taken between shift and convergence.
        decisions: u32,
        /// Cycles from the first deviating decision to convergence.
        settle_cycles: u64,
    },
    /// The overload-control plane refused a call instead of queueing
    /// it (see `switchless_core::overload`). The caller observed a
    /// typed `Overloaded` error; no work was performed.
    CallShed {
        /// Id of the shed call.
        call: u64,
        /// Registered function id of the shed call.
        func: u16,
        /// Which admission check shed it.
        reason: ShedReason,
    },
    /// The enclave died and the recovery plane began a restart cycle
    /// (see `switchless_core::recovery`). Emitted once per loss by the
    /// caller that won the detection race.
    EnclaveCrash {
        /// Recovery epoch *before* the restart (the epoch the lost
        /// calls were posted under).
        epoch: u64,
    },
    /// Post-restart reconciliation replayed an idempotent in-flight
    /// call from its journaled intent (re-executed exactly once).
    JournalReplay {
        /// Sequence tag of the replayed call.
        seq: u64,
    },
    /// Post-restart reconciliation redelivered a journaled result
    /// without re-executing: the crash landed between completion and
    /// reply delivery.
    CallRedelivered {
        /// Sequence tag of the redelivered call.
        seq: u64,
    },
    /// Post-restart reconciliation refused a non-idempotent in-flight
    /// call; the caller observed `EnclaveLost`.
    CallRefused {
        /// Sequence tag of the refused call.
        seq: u64,
    },
    /// Free-form marker (phase labels in examples/benches).
    Marker {
        /// Static label.
        label: &'static str,
    },
}

impl Event {
    /// Stable lowercase event-kind name used by the exporters.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::PhaseStart { .. } => "phase_start",
            Event::Decision { .. } => "decision",
            Event::WorkerTransition { .. } => "worker_transition",
            Event::CallRouted { .. } => "call_routed",
            Event::PoolRealloc { .. } => "pool_realloc",
            Event::Fault { .. } => "fault",
            Event::Drain { .. } => "drain",
            Event::WorkerAbandoned { .. } => "worker_abandoned",
            Event::WorkerRespawned { .. } => "worker_respawned",
            Event::WorkerHealed { .. } => "worker_healed",
            Event::WatchdogCancel { .. } => "watchdog_cancel",
            Event::GuardViolation { .. } => "guard_violation",
            Event::Blacklisted { .. } => "blacklisted",
            Event::CallPhases { .. } => "call_phases",
            Event::Converged { .. } => "converged",
            Event::CallShed { .. } => "call_shed",
            Event::EnclaveCrash { .. } => "enclave_crash",
            Event::JournalReplay { .. } => "journal_replay",
            Event::CallRedelivered { .. } => "call_redelivered",
            Event::CallRefused { .. } => "call_refused",
            Event::Marker { .. } => "marker",
        }
    }

    /// The id of the call this event belongs to, for the events that
    /// belong to one: the front door allocates it once per offered call
    /// (the journal sequence when a recovery plane is attached, which
    /// is also zc's reply-guard tag) and every caller-side event of
    /// that call carries it, so a drained trace groups into one
    /// timeline per call. `None` for events no single call owns.
    #[must_use]
    pub fn call_id(&self) -> Option<u64> {
        match *self {
            Event::CallPhases { call, .. }
            | Event::CallShed { call, .. }
            | Event::GuardViolation { call, .. }
            | Event::WatchdogCancel { call, .. }
            | Event::PoolRealloc { call, .. }
            | Event::JournalReplay { seq: call }
            | Event::CallRedelivered { seq: call }
            | Event::CallRefused { seq: call } => Some(call),
            _ => None,
        }
    }
}

/// An event as stored in the ring: payload plus timestamp and origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Caller-provided cycle timestamp (CycleClock or DES kernel time).
    pub t_cycles: u64,
    /// Recording thread/actor.
    pub origin: Origin,
    /// The payload.
    pub event: Event,
}
