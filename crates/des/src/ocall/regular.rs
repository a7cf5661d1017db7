//! The `no_sl` baseline: every ocall pays the enclave transition and the
//! caller's own core runs the host function (EEXIT → host → EENTER).

use super::prof::Prof;
use super::{CallDesc, CostModel, Dispatcher, Step};
use crate::kernel::{StepCx, Syscall, SyscallResult};
use switchless_core::CallPath;

/// Dispatcher executing every call as a regular ocall.
#[derive(Debug, Clone)]
pub struct RegularDispatcher {
    costs: CostModel,
    in_call: bool,
    prof: Prof,
}

impl RegularDispatcher {
    /// Regular-ocall dispatcher for `caller` with the given cost model.
    /// With a hub, every completed call accumulates its per-phase cycle
    /// breakdown into the hub's
    /// [`CallPhaseProfiler`](zc_telemetry::CallPhaseProfiler) and is
    /// traced as a `call_phases` event at
    /// [`Origin::Caller`](zc_telemetry::Origin::Caller), stamped with
    /// kernel virtual time.
    #[must_use]
    pub fn new(
        costs: CostModel,
        caller: usize,
        telemetry: Option<std::sync::Arc<zc_telemetry::Telemetry>>,
    ) -> Self {
        RegularDispatcher {
            costs,
            in_call: false,
            prof: Prof::new(telemetry, caller),
        }
    }
}

impl Dispatcher for RegularDispatcher {
    fn begin(&mut self, call: &CallDesc, now: u64, _cx: &mut StepCx) -> Syscall {
        debug_assert!(!self.in_call, "begin during an active dialogue");
        self.in_call = true;
        self.prof.begin(now);
        Syscall::Compute(self.costs.regular_call_cycles(call))
    }

    fn advance(&mut self, call: &CallDesc, res: SyscallResult, now: u64, _cx: &mut StepCx) -> Step {
        debug_assert_eq!(res, SyscallResult::Ok);
        debug_assert!(self.in_call);
        self.in_call = false;
        // One compute covered the whole call.
        let path = CallPath::Regular;
        self.prof
            .complete_regular(&self.costs, call, call.payload_bytes, path, now);
        Step::Complete(path)
    }

    fn name(&self) -> &'static str {
        "no_sl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dialogue_is_one_compute_then_done() {
        let mut d = RegularDispatcher::new(
            CostModel::on(&switchless_core::CpuSpec::paper_machine()),
            0,
            None,
        );
        let call = CallDesc {
            host_cycles: 500,
            ..CallDesc::default()
        };
        let cx = &mut StepCx::default();
        let s = d.begin(&call, 0, cx);
        assert_eq!(s, Syscall::Compute(13_500 + 500));
        let step = d.advance(&call, SyscallResult::Ok, 14_000, cx);
        assert_eq!(step, Step::Complete(CallPath::Regular));
        // Reusable for the next call.
        let _ = d.begin(&call, 14_000, cx);
    }
}
