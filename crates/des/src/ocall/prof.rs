//! Per-call phase profiling for the DES dispatchers.
//!
//! [`Prof`] is the simulator-side analogue of the real runtimes'
//! `sgx_sim::frontdoor::Rec`: each dispatcher owns one and marks phase
//! boundaries with kernel virtual time as its dialogue advances. On
//! completion the per-phase breakdown is accumulated into the hub's
//! [`CallPhaseProfiler`] and emitted as a `call_phases` event — the one
//! per-call event, here as on the real runtimes — so a DES run produces
//! the same SLO report schema. With no hub attached every method is one
//! branch and no work.
//!
//! The profiler sees *every* call; the trace ring is bounded, so only
//! the first [`TRACE_CALL_LIMIT`] completions per dispatcher emit a
//! `call_phases` event. Without the cap a million-op sim floods the
//! ring and evicts the low-rate events (decisions, faults) that the
//! trace exists to capture.
//!
//! [`CallPhaseProfiler`]: zc_telemetry::CallPhaseProfiler

pub(crate) use zc_telemetry::Phase;

use super::{CallDesc, CostModel};
use switchless_core::CallPath;

/// Per-dispatcher cap on traced `call_phases` events (aggregation into
/// the phase profiler is never capped).
const TRACE_CALL_LIMIT: u64 = 64;

/// Per-dispatcher phase profiling state: the hub (if attached) plus the
/// recorder of the in-flight call.
#[derive(Debug, Clone)]
pub(crate) struct Prof {
    hub: Option<(std::sync::Arc<zc_telemetry::Telemetry>, u32)>,
    rec: Option<zc_telemetry::PhaseRecorder>,
    /// Id of the in-flight call: this caller's index (from 1) above
    /// bit 32 and its call count below, unless the dispatcher journals
    /// the call and says so ([`Prof::set_call`]).
    call: u64,
    begun: u64,
    traced: u64,
}

impl Prof {
    /// Profiler of `caller`'s calls into `hub`, traced at
    /// `Origin::Caller(caller)`; with no hub every method is a no-op.
    pub(crate) fn new(hub: Option<std::sync::Arc<zc_telemetry::Telemetry>>, caller: usize) -> Self {
        Prof {
            hub: hub.map(|h| (h, caller as u32)),
            rec: None,
            call: 0,
            begun: 0,
            traced: 0,
        }
    }

    /// Trace `event` at this caller's origin, stamped with `now`.
    pub(crate) fn trace(&self, now: u64, event: zc_telemetry::Event) {
        if let Some((hub, caller)) = &self.hub {
            hub.record(now, zc_telemetry::Origin::Caller(*caller), event);
        }
    }

    /// Open the recording for one call at virtual time `now`.
    #[inline]
    pub(crate) fn begin(&mut self, now: u64) {
        if let Some((_, caller)) = &self.hub {
            self.rec = Some(zc_telemetry::PhaseRecorder::start(|| now));
            self.begun += 1;
            self.call = ((u64::from(*caller) + 1) << 32) | self.begun;
        }
    }

    /// The in-flight call is journaled under `seq`: trace it under that
    /// id, which its recovery events carry too.
    #[inline]
    pub(crate) fn set_call(&mut self, seq: u64) {
        self.call = seq;
    }

    /// Charge the cycles since the previous boundary to `phase`.
    #[inline]
    pub(crate) fn mark(&mut self, phase: Phase, now: u64) {
        if let Some(r) = &mut self.rec {
            r.mark(phase, || now);
        }
    }

    /// Re-attribute up to `cycles` already charged to `from` onto `to`.
    #[inline]
    pub(crate) fn transfer(&mut self, from: Phase, to: Phase, cycles: u64) {
        if let Some(r) = &mut self.rec {
            r.transfer(from, to, cycles);
        }
    }

    /// Declare the modelled host-function cycles, carved out of the
    /// wait span when the recording closes.
    #[inline]
    pub(crate) fn set_execute_hint(&mut self, cycles: u64) {
        if let Some(r) = &mut self.rec {
            r.set_execute_hint(cycles);
        }
    }

    /// Drop the in-flight recording without accumulating it: the call
    /// was refused by post-crash reconciliation, so there is no
    /// completed path to attribute its phases to.
    #[inline]
    pub(crate) fn discard(&mut self) {
        self.rec = None;
    }

    /// Close a recording whose last compute was one regular-ocall
    /// execution of `call`: attribute the transition to signal and the
    /// boundary copies to copy-in/copy-out, leaving the host function in
    /// execute. `copy_in_bytes` is the payload that compute copied in —
    /// 0 when an earlier phase already charged the copy.
    #[inline]
    pub(crate) fn complete_regular(
        &mut self,
        costs: &CostModel,
        call: &CallDesc,
        copy_in_bytes: u64,
        path: CallPath,
        now: u64,
    ) {
        self.mark(Phase::Execute, now);
        self.transfer(Phase::Execute, Phase::Signal, costs.t_es_cycles);
        self.transfer(
            Phase::Execute,
            Phase::CopyIn,
            costs.copy_cycles(copy_in_bytes),
        );
        self.transfer(
            Phase::Execute,
            Phase::CopyOut,
            costs.copy_cycles(call.ret_bytes),
        );
        self.complete(call.class, path, now);
    }

    /// Close the recording at `now`: accumulate into the hub profiler
    /// and — for the first [`TRACE_CALL_LIMIT`] calls — emit a
    /// `call_phases` event for call class `class`.
    #[inline]
    pub(crate) fn complete(&mut self, class: usize, path: CallPath, now: u64) {
        let (Some((hub, caller)), Some(rec)) = (&self.hub, self.rec.take()) else {
            return;
        };
        let (phases, total) = rec.finish(|| now);
        hub.profile().record_call(path, total, &phases);
        if self.traced < TRACE_CALL_LIMIT {
            self.traced += 1;
            hub.record(
                now,
                zc_telemetry::Origin::Caller(*caller),
                zc_telemetry::Event::CallPhases {
                    call: self.call,
                    func: class as u16,
                    path,
                    phases,
                },
            );
        }
    }
}
