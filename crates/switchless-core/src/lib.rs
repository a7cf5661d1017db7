//! Shared vocabulary for SGX switchless-call runtimes.
//!
//! This crate contains the *thread-free* building blocks used by every
//! switchless-call implementation in this workspace:
//!
//! * [`func`] — ocall function identifiers, request/reply wire structures
//!   and the host function table ([`OcallTable`]).
//! * [`state`] — the worker state machine of the ZC-SWITCHLESS paper
//!   (Fig. 6) with its legal-transition table.
//! * [`policy`] — the *pure* scheduler mathematics: the wasted-cycle
//!   objective `U = F·T_es + M·T` and the configuration-phase argmin used
//!   to pick the worker count for the next scheduling quantum.
//! * [`cpu`] — the machine model ([`CpuSpec`]): clock frequency, logical
//!   CPU count, enclave-transition cost and `pause` latency.
//! * [`config`] — configuration types for both the Intel baseline
//!   ([`IntelConfig`]) and ZC-SWITCHLESS ([`ZcConfig`]).
//! * [`stats`] — lock-free statistics counters shared between callers,
//!   workers and the scheduler.
//! * [`supervise`] — the *pure* self-healing policy: per-worker health
//!   ledger, respawn backoff, probation windows and the poison-request
//!   blacklist ([`Supervisor`]).
//! * [`guard`] — the trusted-side validation boundary: total-function
//!   decoding of host-written shared words, release-mode transition
//!   legality, reply-length clamping and sequence-tag replay detection
//!   ([`SharedWordGuard`], [`ReplyGuard`]).
//! * [`overload`] — the overload-control plane: a pure admission
//!   verdict (an expired deadline, then the queue-depth gate) hosted
//!   lock-free by [`OverloadPlane`].
//! * [`recovery`] — the *pure* enclave-restart recovery plane: the
//!   per-call intent journal, the idempotency-class reconciliation
//!   verdict lattice and the Detect → Fence → Restart → Reconcile →
//!   Drain-resume policy state machine ([`RecoveryPlane`]).
//! * [`fleet`] — the *pure* multi-enclave fleet plane: each of M tenant
//!   shards capped at its fair share of one worker budget, a `Faulty`
//!   shard held to one worker by the [`TenantVerdict`] behaviour
//!   lattice, and the fleet-wide conservation snapshot
//!   ([`FleetSnapshot`]).
//! * [`rand`] — the workspace's one seeded PRNG ([`SplitMix64`]), so a
//!   single seed reproduces an overload+fault scenario byte-identically.
//!
//! Both the real-thread runtimes (`zc-switchless`, `intel-switchless`) and
//! the discrete-event simulator (`zc-des`) are written against these types,
//! so the policy that drives a simulated 8-core machine is byte-for-byte
//! the policy that drives real worker threads.
//!
//! # Example
//!
//! ```
//! use switchless_core::config::{PAPER_MU_INVERSE, PAPER_QUANTUM_MS};
//! use switchless_core::cpu::CpuSpec;
//! use switchless_core::policy::{choose_workers, MicroQuantumReport};
//!
//! let cpu = CpuSpec::paper_machine();
//! // Fallback counts observed while trying 0..=4 workers during the
//! // configuration phase: more workers -> fewer fallbacks.
//! let reports = [5_000u64, 400, 30, 25, 24]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &f)| MicroQuantumReport { workers: i, fallbacks: f })
//!     .collect::<Vec<_>>();
//! let micro_quantum = cpu.quantum_cycles(PAPER_QUANTUM_MS) / PAPER_MU_INVERSE;
//! let best = choose_workers(&reports, cpu.t_es_cycles, micro_quantum);
//! assert_eq!(best, 2); // extra workers past 2 cost more than they save
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod cpu;
pub mod error;
pub mod fault;
pub mod fleet;
pub mod func;
pub mod guard;
pub mod overload;
pub mod policy;
pub mod rand;
pub mod recovery;
pub mod state;
pub mod stats;
pub mod supervise;

pub use config::{IntelConfig, ZcConfig};
pub use cpu::CpuSpec;
pub use error::SwitchlessError;
pub use fault::{
    DrainReport, Fault, FaultCounts, FaultInjector, FaultPlan, FaultSchedule, FaultSite,
};
pub use fleet::{
    CapChange, FleetAccountingError, FleetAllocator, FleetController, FleetDecision, FleetParams,
    FleetSnapshot, ShardEvidence, ShardTotals, TenantDemand, TenantSignals, TenantVerdict,
};
pub use func::{FuncId, HostFn, OcallReply, OcallRequest, OcallTable, MAX_OCALL_ARGS};
pub use guard::{GuardKind, GuardViolation, ReplyGuard, ReplyVerdict, SharedWordGuard};
pub use overload::{
    Deadline, InflightGuard, OverloadParams, OverloadPlane, OverloadSnapshot, ShedReason,
};
pub use rand::SplitMix64;
pub use recovery::{
    CallJournal, EntryState, IdempotencyClass, JournalEntry, ReconcileVerdict, RecoveryParams,
    RecoveryPlane, RecoverySnapshot,
};
pub use state::WorkerState;
pub use stats::{CallStats, CallStatsSnapshot, Ledger};
pub use supervise::{PoisonKey, SuperviseDecision, SuperviseParams, Supervisor, WorkerHealth};

/// How an individual ocall was ultimately executed.
///
/// Returned by dispatchers so callers and tests can verify routing
/// decisions (e.g. that a misconfigured function never went switchless).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallPath {
    /// Executed by a worker thread without an enclave transition.
    Switchless,
    /// A switchless attempt failed (no idle worker / pool full / timed
    /// out) and the call fell back to a regular transition.
    Fallback,
    /// Executed as a regular ocall without any switchless attempt.
    Regular,
}

impl CallPath {
    /// Stable lowercase name used by the trace and SLO exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CallPath::Switchless => "switchless",
            CallPath::Fallback => "fallback",
            CallPath::Regular => "regular",
        }
    }
}

/// A dispatcher routes ocall requests from enclave caller threads to the
/// untrusted world, by whatever mechanism it implements.
///
/// Implemented by the regular (always-transition) path, the Intel
/// switchless reimplementation and the ZC-SWITCHLESS runtime, allowing
/// workloads to be written once and executed under any mechanism.
pub trait OcallDispatcher: Send + Sync {
    /// Execute `req`, writing any returned bytes into `payload_out`.
    ///
    /// `payload_in` carries caller-provided bytes (e.g. a write buffer)
    /// that must be copied to untrusted memory; `payload_out` receives
    /// bytes produced by the host function (e.g. a read buffer).
    ///
    /// # Errors
    ///
    /// Returns [`SwitchlessError::UnknownFunc`] if `req.func` is not
    /// registered, or [`SwitchlessError::RuntimeStopped`] if the backing
    /// runtime has shut down.
    fn dispatch(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<(i64, CallPath), SwitchlessError>;
}
