//! Switchless-call mechanisms as virtual-thread protocols.
//!
//! Each mechanism implements [`Dispatcher`]: a per-caller dialogue state
//! machine that the caller actor drives one blocking [`Syscall`] at a
//! time.
//! Protocol state shared between callers, workers and schedulers lives in
//! `Rc<RefCell<…>>` worlds — kernel event processing is serialized, so
//! each `step` executes atomically (the analogue of the word-sized atomic
//! operations the real runtimes use).
//!
//! * [`regular`] — every call pays the enclave transition and runs the
//!   host function on the caller's own core (`no_sl`).
//! * [`intel`] — the Intel SDK mechanism: static switchless set, task
//!   queue, `rbf`-bounded caller spin, `rbs`-bounded worker poll + sleep.
//! * [`zc`] — ZC-SWITCHLESS: idle-worker claim, immediate fallback, and
//!   the adaptive worker scheduler from [`switchless_core::policy`].
//! * [`hotcalls`] — HotCalls (Weisse et al., ISCA'17): always-spinning
//!   dedicated workers, no fallback — the prior art in the paper's
//!   related work.

pub mod hotcalls;
pub mod intel;
pub(crate) mod prof;
pub mod regular;
pub mod zc;

use crate::kernel::{StepCx, Syscall, SyscallResult};
use serde::{Deserialize, Serialize};
use switchless_core::config::COPY_CYCLES_PER_16B;
use switchless_core::{CallPath, CpuSpec};

/// Description of one ocall a workload wants to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CallDesc {
    /// Workload-defined class index (e.g. 0 = `f`, 1 = `g`; or
    /// 0 = `fseeko`, 1 = `fread`, 2 = `fwrite`). Drives the static
    /// switchless sets and per-class statistics.
    pub class: usize,
    /// In-enclave computation preceding the call (e.g. AES encryption of
    /// the chunk about to be written).
    pub pre_compute_cycles: u64,
    /// Untrusted host-function duration.
    pub host_cycles: u64,
    /// Payload bytes crossing the boundary into untrusted memory.
    pub payload_bytes: u64,
    /// Result bytes crossing back into the enclave.
    pub ret_bytes: u64,
    /// The call has effects that must happen exactly once: after an
    /// enclave loss its fate cannot be guessed, so reconciliation
    /// refuses it instead of replaying (see
    /// [`switchless_core::recovery::IdempotencyClass`]). Default
    /// `false` — most modelled ocalls (reads, clock, stat) are
    /// replay-safe.
    #[serde(default)]
    pub non_idempotent: bool,
}

impl CallDesc {
    /// The recovery-plane idempotency class of this call.
    #[must_use]
    pub fn idempotency_class(&self) -> switchless_core::recovery::IdempotencyClass {
        if self.non_idempotent {
            switchless_core::recovery::IdempotencyClass::NonIdempotent
        } else {
            switchless_core::recovery::IdempotencyClass::Idempotent
        }
    }
}

/// Cost model of the boundary machinery, in cycles: the simulated
/// machine's transition round trip `T_es` plus the hand-off, collect
/// and copy constants of [`switchless_core::config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Enclave transition round trip `T_es` ([`CpuSpec::t_es_cycles`]).
    pub(crate) t_es_cycles: u64,
}

impl CostModel {
    /// The cost model of machine `cpu`.
    #[must_use]
    pub fn on(cpu: &CpuSpec) -> Self {
        CostModel {
            t_es_cycles: cpu.t_es_cycles,
        }
    }

    /// Cycles to copy `bytes` across the boundary (the DES always
    /// models the optimised copy; the vanilla-vs-zc comparison runs on
    /// real hardware).
    #[must_use]
    pub fn copy_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(16) * COPY_CYCLES_PER_16B
    }

    /// Total cycles of a full regular-ocall execution of `call`
    /// (transition + both copies + host time).
    #[must_use]
    pub fn regular_call_cycles(&self, call: &CallDesc) -> u64 {
        self.t_es_cycles
            + self.copy_cycles(call.payload_bytes)
            + call.host_cycles
            + self.copy_cycles(call.ret_bytes)
    }
}

/// Next move in an ocall dialogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Execute this syscall and call `advance` with its result.
    Next(Syscall),
    /// The call finished via the given path.
    Complete(CallPath),
    /// Post-crash reconciliation refused the (non-idempotent) call:
    /// the enclave was lost with the call's fate unknown, so it ends
    /// without completing — the DES mirror of
    /// [`SwitchlessError::EnclaveLost`](switchless_core::SwitchlessError::EnclaveLost).
    Refused,
}

/// Per-caller dialogue driver for one mechanism.
///
/// The caller actor calls [`begin`](Dispatcher::begin) to start an ocall,
/// executes the returned syscall, then repeatedly feeds results to
/// [`advance`](Dispatcher::advance) until it yields
/// [`Step::Complete`]. Both run inside the caller's [`Actor::step`]
/// and issue its instant ops (doorbell rings, wakes) through `cx`, so
/// one protocol turn — ring, then spin — is one kernel step.
///
/// [`Actor::step`]: crate::kernel::Actor::step
pub trait Dispatcher {
    /// Start a new ocall dialogue. Must only be called when the previous
    /// dialogue has completed.
    fn begin(&mut self, call: &CallDesc, now: u64, cx: &mut StepCx) -> Syscall;

    /// Continue the dialogue after the previous syscall finished.
    fn advance(&mut self, call: &CallDesc, res: SyscallResult, now: u64, cx: &mut StepCx) -> Step;

    /// Mechanism label for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_rounds_up_to_16b_granules() {
        let m = CostModel::on(&CpuSpec::paper_machine());
        assert_eq!(m.copy_cycles(0), 0);
        assert_eq!(m.copy_cycles(1), 1);
        assert_eq!(m.copy_cycles(16), 1);
        assert_eq!(m.copy_cycles(17), 2);
        assert_eq!(m.copy_cycles(4096), 256);
    }

    #[test]
    fn regular_call_cost_composition() {
        let m = CostModel::on(&CpuSpec::paper_machine());
        let call = CallDesc {
            class: 0,
            pre_compute_cycles: 0,
            host_cycles: 1_000,
            payload_bytes: 160,
            ret_bytes: 32,
            ..CallDesc::default()
        };
        assert_eq!(m.regular_call_cycles(&call), 13_500 + 10 + 1_000 + 2);
    }
}
