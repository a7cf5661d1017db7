//! The regular (transition-paying) ocall path.
//!
//! A regular ocall is `EEXIT + untrusted host processing + EENTER`
//! (paper §II). [`RegularOcall`] injects the transition cost (`T_es`
//! cycles), marshals the payload through untrusted staging memory with a
//! configurable [`MemcpyKind`] and [`Alignment`] (the Fig. 7/13 axis),
//! dispatches the host function, and marshals results back.
//!
//! This dispatcher is also the *fallback engine* used by both switchless
//! runtimes when no worker is available.

use crate::clock::CycleClock;
use crate::enclave::Enclave;
use crate::memory::{Alignment, UntrustedArena};
use crate::tlibc::MemcpyKind;
use std::cell::RefCell;
use std::sync::Arc;
use switchless_core::{
    CallPath, CallStats, FaultInjector, FaultSite, OcallDispatcher, OcallRequest, OcallTable,
    SwitchlessError,
};

/// Retries granted after a failed transition attempt before giving up
/// with [`SwitchlessError::TransitionFailed`].
const TRANSITION_RETRY_MAX: u32 = 3;

thread_local! {
    static STAGING: RefCell<(UntrustedArena, Vec<u8>)> =
        RefCell::new((UntrustedArena::default(), Vec::new()));
}

/// Dispatcher executing every ocall as a regular enclave transition.
///
/// # Example
///
/// ```
/// use sgx_sim::{Enclave, RegularOcall};
/// use switchless_core::{CpuSpec, OcallDispatcher, OcallRequest, OcallTable, CallPath};
/// use std::sync::Arc;
///
/// let mut table = OcallTable::new();
/// let null_write = table.register("write_null", |args: &[u64; 6], pin: &[u8], _out: &mut Vec<u8>| {
///     debug_assert_eq!(args[0] as usize, pin.len());
///     pin.len() as i64
/// });
/// let enclave = Enclave::new(CpuSpec::paper_machine());
/// let ocall = RegularOcall::new(Arc::new(table), enclave.clone());
/// let mut out = Vec::new();
/// let (ret, path) = ocall.dispatch(&OcallRequest::new(null_write, &[5]), b"hello", &mut out)?;
/// assert_eq!(ret, 5);
/// assert_eq!(path, CallPath::Regular);
/// assert_eq!(enclave.ocalls(), 1);
/// # Ok::<(), switchless_core::SwitchlessError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RegularOcall {
    table: Arc<OcallTable>,
    enclave: Enclave,
    clock: CycleClock,
    memcpy: MemcpyKind,
    alignment: Alignment,
    stats: Arc<CallStats>,
    inject_cost: bool,
    faults: Option<Arc<FaultInjector>>,
}

impl RegularOcall {
    /// Regular-ocall dispatcher with the optimised (`zc`) memcpy and
    /// aligned staging.
    #[must_use]
    pub fn new(table: Arc<OcallTable>, enclave: Enclave) -> Self {
        let clock = enclave.clock();
        RegularOcall {
            table,
            enclave,
            clock,
            memcpy: MemcpyKind::Zc,
            alignment: Alignment::Aligned,
            stats: Arc::new(CallStats::new()),
            inject_cost: true,
            faults: None,
        }
    }

    /// Builder-style choice of the boundary `memcpy` implementation.
    #[must_use]
    pub fn with_memcpy(mut self, kind: MemcpyKind) -> Self {
        self.memcpy = kind;
        self
    }

    /// Builder-style choice of staging alignment relative to the source.
    #[must_use]
    pub fn with_alignment(mut self, alignment: Alignment) -> Self {
        self.alignment = alignment;
        self
    }

    /// Disable the `T_es` spin (unit tests that only care about
    /// marshalling semantics).
    #[must_use]
    pub fn without_cost_injection(mut self) -> Self {
        self.inject_cost = false;
        self
    }

    /// Builder-style fault injection: transitions consult `faults` and
    /// retry (with bounded pause backoff) when a failure is injected.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Shared statistics of this dispatcher.
    #[must_use]
    pub fn stats(&self) -> &Arc<CallStats> {
        &self.stats
    }

    /// The enclave whose transitions this dispatcher records.
    #[must_use]
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Ocall table served by this dispatcher.
    #[must_use]
    pub fn table(&self) -> &Arc<OcallTable> {
        &self.table
    }

    /// Execute `req` as a transition-paying ocall *without* recording it
    /// in [`CallStats`] — used by switchless runtimes for their fallback
    /// path, which does its own `record_fallback`.
    ///
    /// # Errors
    ///
    /// Propagates [`SwitchlessError::UnknownFunc`] from the table, and
    /// returns [`SwitchlessError::TransitionFailed`] if fault injection
    /// fails the transition more times than the bounded retry budget.
    pub fn execute_transition(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<i64, SwitchlessError> {
        // Graceful degradation: an injected transition failure is retried
        // with exponential pause backoff (1, 2, 4 pauses) before the call
        // is abandoned — a transient EEXIT/EENTER hiccup should not kill
        // an application-level ocall.
        if let Some(faults) = &self.faults {
            let mut attempts: u32 = 0;
            loop {
                attempts += 1;
                if faults.fire(FaultSite::Transition).is_none() {
                    break;
                }
                if attempts > TRANSITION_RETRY_MAX {
                    return Err(SwitchlessError::TransitionFailed { attempts });
                }
                self.clock
                    .spin_cycles(self.clock.spec().pause_cycles << (attempts - 1));
            }
        }
        self.enclave.record_ocall();
        if self.inject_cost {
            self.clock.enclave_transition();
        }
        STAGING.with(|cell| {
            let (arena, untrusted_out) = &mut *cell.borrow_mut();
            let staged = arena.stage_in(payload_in, self.memcpy, self.alignment);
            // Contain host-function panics, as the switchless workers
            // do: the host side is untrusted, and a crash there maps to
            // an error return instead of unwinding through the enclave
            // caller — whichever path the call happened to take.
            let ret = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.table.invoke(req, staged, untrusted_out)
            }))
            .unwrap_or(Ok(-1))?;
            UntrustedArena::stage_out(untrusted_out, payload_out, self.memcpy);
            Ok(ret)
        })
    }
}

impl OcallDispatcher for RegularOcall {
    fn dispatch(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<(i64, CallPath), SwitchlessError> {
        let ret = self.execute_transition(req, payload_in, payload_out)?;
        self.stats.record_regular();
        Ok((ret, CallPath::Regular))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::{FuncId, MAX_OCALL_ARGS};

    fn setup() -> (RegularOcall, FuncId, FuncId) {
        let mut table = OcallTable::new();
        let echo = table.register(
            "echo",
            |_: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
                pout.extend_from_slice(pin);
                pin.len() as i64
            },
        );
        let add = table.register(
            "add",
            |args: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| (args[0] + args[1]) as i64,
        );
        let enclave = Enclave::new(switchless_core::CpuSpec::paper_machine());
        (
            RegularOcall::new(Arc::new(table), enclave).without_cost_injection(),
            echo,
            add,
        )
    }

    #[test]
    fn payload_round_trips_through_staging() {
        let (d, echo, _) = setup();
        let mut out = Vec::new();
        let (ret, path) = d
            .dispatch(&OcallRequest::new(echo, &[]), b"boundary bytes", &mut out)
            .unwrap();
        assert_eq!(ret, 14);
        assert_eq!(out, b"boundary bytes");
        assert_eq!(path, CallPath::Regular);
    }

    #[test]
    fn scalar_args_pass_through() {
        let (d, _, add) = setup();
        let mut out = Vec::new();
        let (ret, _) = d
            .dispatch(&OcallRequest::new(add, &[40, 2]), &[], &mut out)
            .unwrap();
        assert_eq!(ret, 42);
        assert!(out.is_empty());
    }

    #[test]
    fn every_dispatch_counts_a_transition_and_regular_call() {
        let (d, echo, _) = setup();
        let mut out = Vec::new();
        for _ in 0..3 {
            d.dispatch(&OcallRequest::new(echo, &[]), b"x", &mut out)
                .unwrap();
        }
        assert_eq!(d.enclave().ocalls(), 3);
        let snap = d.stats().snapshot();
        assert_eq!(snap.regular, 3);
        assert_eq!(snap.switchless, 0);
    }

    #[test]
    fn execute_transition_skips_stats() {
        let (d, echo, _) = setup();
        let mut out = Vec::new();
        d.execute_transition(&OcallRequest::new(echo, &[]), b"y", &mut out)
            .unwrap();
        assert_eq!(d.stats().snapshot().total_calls(), 0);
        assert_eq!(d.enclave().ocalls(), 1, "transition still counted");
    }

    #[test]
    fn unknown_func_propagates() {
        let (d, _, _) = setup();
        let mut out = Vec::new();
        let err = d
            .dispatch(&OcallRequest::new(FuncId(99), &[]), &[], &mut out)
            .unwrap_err();
        assert_eq!(err, SwitchlessError::UnknownFunc(FuncId(99)));
    }

    #[test]
    fn unaligned_vanilla_configuration_still_correct() {
        let (d, echo, _) = setup();
        let d = d
            .with_memcpy(MemcpyKind::Vanilla)
            .with_alignment(Alignment::Unaligned);
        let payload: Vec<u8> = (0..1000).map(|i| i as u8).collect();
        let mut out = Vec::new();
        let (ret, _) = d
            .dispatch(&OcallRequest::new(echo, &[]), &payload, &mut out)
            .unwrap();
        assert_eq!(ret, 1000);
        assert_eq!(out, payload);
    }

    #[test]
    fn injected_transition_failures_are_retried() {
        use switchless_core::{Fault, FaultInjector, FaultPlan, FaultSchedule};
        let (d, echo, _) = setup();
        let faults = Arc::new(FaultInjector::new(
            FaultPlan::new().inject(Fault::TransitionFailure, FaultSchedule::first(2)),
        ));
        let d = d.with_faults(Arc::clone(&faults));
        let mut out = Vec::new();
        // Attempts 1 and 2 fail, attempt 3 succeeds within the retry budget.
        let ret = d
            .execute_transition(&OcallRequest::new(echo, &[]), b"retry", &mut out)
            .unwrap();
        assert_eq!(ret, 5);
        assert_eq!(out, b"retry");
        assert_eq!(faults.counts()[Fault::TransitionFailure], 2);
    }

    #[test]
    fn exhausted_transition_retries_error_out() {
        use switchless_core::{Fault, FaultInjector, FaultPlan, FaultSchedule};
        let (d, echo, _) = setup();
        let faults = Arc::new(FaultInjector::new(
            FaultPlan::new().inject(Fault::TransitionFailure, FaultSchedule::first(100)),
        ));
        let d = d.with_faults(faults);
        let mut out = Vec::new();
        let err = d
            .execute_transition(&OcallRequest::new(echo, &[]), b"doomed", &mut out)
            .unwrap_err();
        assert_eq!(err, SwitchlessError::TransitionFailed { attempts: 4 });
        // Later transitions past the failure window succeed again.
        let d2 = d.with_faults(Arc::new(FaultInjector::new(FaultPlan::new())));
        assert!(d2
            .execute_transition(&OcallRequest::new(echo, &[]), b"ok", &mut out)
            .is_ok());
    }

    #[test]
    fn cost_injection_spins_t_es() {
        let mut table = OcallTable::new();
        let nop = table.register(
            "nop",
            |_: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| 0,
        );
        let enclave = Enclave::new(switchless_core::CpuSpec::paper_machine());
        let clock = enclave.clock();
        let d = RegularOcall::new(Arc::new(table), enclave);
        let t0 = clock.now_cycles();
        let mut out = Vec::new();
        d.dispatch(&OcallRequest::new(nop, &[]), &[], &mut out)
            .unwrap();
        assert!(clock.now_cycles() - t0 >= 13_500);
    }
}
