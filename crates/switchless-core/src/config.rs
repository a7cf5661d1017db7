//! Configuration types for the two switchless mechanisms under study.
//!
//! [`IntelConfig`] captures everything an SGX developer must decide *at
//! build time* with the Intel SDK's switchless library — the exact
//! friction ZC-SWITCHLESS removes. [`ZcConfig`] by contrast carries only
//! machine-derived scheduler constants; there is nothing workload-specific
//! to tune ("configless").

use crate::cpu::CpuSpec;
use crate::func::FuncId;
use crate::overload::OverloadParams;
use crate::policy::PolicyParams;
use crate::recovery::RecoveryParams;
use crate::supervise::SuperviseParams;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

// The paper's and the SDK's constants, one definition each: every
// default of the real runtimes and of the DES (`ZcSimParams`,
// `IntelSimConfig`, `FleetSpec`, `CostModel`) is derived from this
// table.

/// Scheduling quantum `Q` in milliseconds (paper §IV-A: 10 ms).
pub const PAPER_QUANTUM_MS: u64 = 10;

/// Inverse micro-quantum fraction `µ⁻¹` (paper §IV-A: `µ = 1/100`).
pub const PAPER_MU_INVERSE: u64 = 100;

/// Default scheduler fallback weight (see
/// [`PolicyParams::fallback_weight`]).
pub const DEFAULT_FALLBACK_WEIGHT: u64 = 8;

/// Per-worker untrusted request-pool size in bytes of the DES's ZC
/// model (paper §IV-B: a preallocated bump pool, reallocated via an
/// ocall when full — the Fig. 8 spikes). The real runtime sizes each
/// pool from the payloads it carries instead.
pub const DEFAULT_POOL_BYTES: usize = 64 * 1024;

/// Default retry counts of the Intel SDK (developer reference §III-C):
/// both `retries_before_fallback` and `retries_before_sleep` are 20 000.
pub const INTEL_DEFAULT_RETRIES: u32 = 20_000;

/// The most reply payload a single ZC ocall may copy back into the
/// enclave: host-declared reply lengths are clamped to this bound by the
/// trusted-side guard, so it bounds the enclave memory one hostile reply
/// can touch.
pub const MAX_REPLY_BYTES: usize = 1024 * 1024;

/// DES boundary cost of claiming a worker or task slot and publishing
/// a request (CAS, request-struct copy, cache-line transfer), in
/// cycles. Assumed: PAPER.md states none.
pub const HANDOFF_CYCLES: u64 = 600;

/// DES boundary cost of collecting a result and releasing the worker
/// or task slot, in cycles. Assumed: PAPER.md states none.
pub const COLLECT_CYCLES: u64 = 300;

/// DES boundary copy cost per 16 bytes, in cycles (the optimised
/// `memcpy` moves ~16 B/cycle). Assumed: PAPER.md states none.
pub const COPY_CYCLES_PER_16B: u64 = 1;

/// Intel task-pool capacity: two slots per worker, at least 4.
#[must_use]
pub fn intel_default_task_pool(workers: usize) -> usize {
    (2 * workers).max(4)
}

/// Static build-time configuration of the Intel SGX SDK switchless
/// library (reimplemented in the `intel-switchless` crate).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntelConfig {
    /// Ocall functions marked `transition_using_threads` in the EDL: only
    /// these may execute switchlessly.
    pub switchless_funcs: BTreeSet<FuncId>,
    /// Fixed number of untrusted worker threads.
    pub num_uworkers: usize,
    /// Pauses a *caller* spends waiting for a worker to pick up its task
    /// before cancelling and falling back to a regular ocall (`rbf`).
    pub retries_before_fallback: u32,
    /// Pauses a *worker* spends polling for tasks before sleeping (`rbs`).
    pub retries_before_sleep: u32,
    /// Overload control ([`OverloadParams`]). `None` (the default,
    /// SDK-faithful) admits every call unconditionally; `Some` enables
    /// the admission/deadline plane shared with the ZC runtime.
    pub overload: Option<OverloadParams>,
    /// Enclave-restart recovery ([`RecoveryParams`]). `None` (the
    /// default, SDK-faithful) means an enclave loss strands in-flight
    /// calls; `Some` enables the durable call journal and
    /// exactly-once redelivery plane shared with the ZC runtime.
    pub recovery: Option<RecoveryParams>,
}

impl IntelConfig {
    /// SDK-default configuration with `workers` untrusted workers and the
    /// given switchless function set.
    #[must_use]
    pub fn new(workers: usize, switchless: impl IntoIterator<Item = FuncId>) -> Self {
        IntelConfig {
            switchless_funcs: switchless.into_iter().collect(),
            num_uworkers: workers,
            retries_before_fallback: INTEL_DEFAULT_RETRIES,
            retries_before_sleep: INTEL_DEFAULT_RETRIES,
            overload: None,
            recovery: None,
        }
    }

    /// Is `func` configured to attempt switchless execution?
    #[must_use]
    pub fn is_switchless(&self, func: FuncId) -> bool {
        self.switchless_funcs.contains(&func)
    }

    /// Builder-style override of `retries_before_fallback`.
    #[must_use]
    pub fn with_retries_before_fallback(mut self, rbf: u32) -> Self {
        self.retries_before_fallback = rbf;
        self
    }

    /// Builder-style enable of overload control with explicit
    /// parameters.
    #[must_use]
    pub fn with_overload_params(mut self, params: OverloadParams) -> Self {
        self.overload = Some(params);
        self
    }

    /// Builder-style enable of enclave-restart recovery with default
    /// parameters ([`RecoveryParams::default`]).
    #[must_use]
    pub fn with_recovery(mut self) -> Self {
        self.recovery = Some(RecoveryParams::default());
        self
    }
}

impl Default for IntelConfig {
    /// Two workers, no switchless functions, SDK-default retries.
    fn default() -> Self {
        IntelConfig::new(2, [])
    }
}

/// Configuration of the ZC-SWITCHLESS runtime.
///
/// All fields derive from the machine model; none encode workload
/// knowledge. This is the paper's headline property: *configless*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZcConfig {
    /// Machine model (costs and core count).
    pub cpu: CpuSpec,
    /// Scheduling-phase quantum `Q` in cycles (paper: 10 ms).
    pub quantum_cycles: u64,
    /// Workers created at startup (paper §V: `N/2`, the scheduler then
    /// adapts within `0..=N/2`).
    pub initial_workers: usize,
    /// Self-healing supervision ([`SuperviseParams`]). `None` (the
    /// default) preserves the paper's original lifecycle: crashed
    /// workers stay quarantined and hung workers are abandoned at
    /// drain. `Some` enables the supervisor thread: respawn with
    /// backoff, probation healing, the caller-side watchdog and the
    /// poison-request blacklist.
    pub supervise: Option<SuperviseParams>,
    /// Overload control ([`OverloadParams`]). `None` (the default)
    /// preserves the paper's unconditional admission: every call
    /// queues or falls back, however hopeless. `Some` enables the
    /// admission gate and deadline shedding — both machine-derived, so
    /// the runtime stays configless.
    pub overload: Option<OverloadParams>,
    /// Enclave-restart recovery ([`RecoveryParams`]). `None` (the
    /// default) preserves the paper's lifecycle: an enclave loss
    /// strands in-flight callers until the watchdog fires. `Some`
    /// enables the durable call journal, whole-enclave restart and
    /// exactly-once redelivery (see [`crate::recovery`]) — all
    /// machine-derived, so the runtime stays configless.
    pub recovery: Option<RecoveryParams>,
}

impl ZcConfig {
    /// Paper-faithful configuration for the given machine.
    #[must_use]
    pub fn for_cpu(cpu: CpuSpec) -> Self {
        ZcConfig {
            cpu,
            quantum_cycles: cpu.quantum_cycles(PAPER_QUANTUM_MS),
            initial_workers: cpu.zc_max_workers(),
            supervise: None,
            overload: None,
            recovery: None,
        }
    }

    /// Maximum worker count the scheduler will use (`N/2`).
    #[must_use]
    pub fn max_workers(&self) -> usize {
        self.cpu.zc_max_workers().max(1)
    }

    /// Scheduler policy parameters corresponding to this configuration
    /// (`µ⁻¹` and the fallback weight are the table's constants).
    #[must_use]
    pub fn policy_params(&self) -> PolicyParams {
        PolicyParams::new(
            &self.cpu,
            self.quantum_cycles,
            PAPER_MU_INVERSE,
            self.max_workers(),
            DEFAULT_FALLBACK_WEIGHT,
        )
    }

    /// Builder-style override of the scheduling quantum (milliseconds).
    #[must_use]
    pub fn with_quantum_ms(mut self, ms: u64) -> Self {
        self.quantum_cycles = self.cpu.quantum_cycles(ms);
        self
    }

    /// Builder-style override of the initial worker count.
    #[must_use]
    pub fn with_initial_workers(mut self, n: usize) -> Self {
        self.initial_workers = n;
        self
    }

    /// Builder-style enable of supervision with explicit parameters.
    #[must_use]
    pub fn with_supervise_params(mut self, params: SuperviseParams) -> Self {
        self.supervise = Some(params);
        self
    }

    /// Builder-style enable of overload control with explicit
    /// parameters.
    #[must_use]
    pub fn with_overload_params(mut self, params: OverloadParams) -> Self {
        self.overload = Some(params);
        self
    }

    /// Builder-style enable of enclave-restart recovery with
    /// machine-derived defaults ([`RecoveryParams::for_cpu`]).
    #[must_use]
    pub fn with_recovery(mut self) -> Self {
        self.recovery = Some(RecoveryParams::for_cpu(self.cpu));
        self
    }
}

impl Default for ZcConfig {
    fn default() -> Self {
        ZcConfig::for_cpu(CpuSpec::paper_machine())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel_defaults_match_sdk() {
        let c = IntelConfig::default();
        assert_eq!(c.retries_before_fallback, 20_000);
        assert_eq!(c.retries_before_sleep, 20_000);
        assert_eq!(c.num_uworkers, 2);
        assert!(c.switchless_funcs.is_empty());
    }

    #[test]
    fn intel_switchless_membership() {
        let c = IntelConfig::new(4, [FuncId(1), FuncId(3)]);
        assert!(c.is_switchless(FuncId(1)));
        assert!(c.is_switchless(FuncId(3)));
        assert!(!c.is_switchless(FuncId(2)));
        assert_eq!(intel_default_task_pool(c.num_uworkers), 8);
    }

    #[test]
    fn intel_builder_overrides() {
        let c = IntelConfig::new(2, []).with_retries_before_fallback(100);
        assert_eq!(c.retries_before_fallback, 100);
    }

    #[test]
    fn zc_defaults_are_paper_faithful() {
        let c = ZcConfig::default();
        assert_eq!(c.quantum_cycles, 38_000_000);
        assert_eq!(c.initial_workers, 4);
        assert_eq!(c.max_workers(), 4);
        let p = c.policy_params();
        assert_eq!(p.mu_inverse, 100);
        assert_eq!(p.max_workers, 4);
        assert_eq!(p.t_es_cycles, 13_500);
    }

    #[test]
    fn zc_builder_overrides() {
        let c = ZcConfig::default()
            .with_quantum_ms(20)
            .with_initial_workers(1);
        assert_eq!(c.quantum_cycles, 76_000_000);
        assert_eq!(c.initial_workers, 1);
    }

    #[test]
    fn supervision_is_opt_in() {
        assert!(ZcConfig::default().supervise.is_none());
        let custom = SuperviseParams::default().with_poison_threshold(5);
        assert_eq!(
            ZcConfig::default().with_supervise_params(custom).supervise,
            Some(custom)
        );
    }

    #[test]
    fn recovery_is_opt_in() {
        assert!(ZcConfig::default().recovery.is_none());
        assert!(IntelConfig::default().recovery.is_none());
        let zc = ZcConfig::default().with_recovery();
        assert_eq!(
            zc.recovery,
            Some(RecoveryParams::for_cpu(CpuSpec::paper_machine()))
        );
        assert!(IntelConfig::default().with_recovery().recovery.is_some());
    }

    #[test]
    fn zc_max_workers_never_zero() {
        let mut cpu = CpuSpec::paper_machine();
        cpu.logical_cpus = 1;
        let c = ZcConfig::for_cpu(cpu);
        assert_eq!(c.max_workers(), 1);
    }
}
