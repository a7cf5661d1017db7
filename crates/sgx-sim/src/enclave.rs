//! Enclave model: the CPU it runs on, its clock and the transition
//! counters.

use crate::clock::CycleClock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use switchless_core::cpu::CpuSpec;

#[derive(Debug)]
struct Inner {
    spec: CpuSpec,
    clock: CycleClock,
    ecalls: AtomicU64,
    ocalls: AtomicU64,
}

/// Handle to a simulated enclave instance (cheaply cloneable).
///
/// # Example
///
/// ```
/// use sgx_sim::Enclave;
/// use switchless_core::CpuSpec;
///
/// let enclave = Enclave::new(CpuSpec::paper_machine());
/// assert_eq!(enclave.record_ocall(), 1);
/// assert_eq!(enclave.clone().ocalls(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Enclave {
    inner: Arc<Inner>,
}

impl Enclave {
    /// New enclave on the wall clock.
    #[must_use]
    pub fn new(spec: CpuSpec) -> Self {
        Self::with_clock(spec, CycleClock::new(spec))
    }

    /// New enclave running on *virtual* time:
    /// every runtime built on this enclave inherits a
    /// [`CycleClock::new_virtual`] clock, so scheduler quanta, injected
    /// costs and drain timeouts advance logical time instead of sleeping
    /// or spinning on the wall clock. This is the constructor the
    /// deterministic fault-injection tests use.
    #[must_use]
    pub fn new_virtual(spec: CpuSpec) -> Self {
        Self::with_clock(spec, CycleClock::new_virtual(spec))
    }

    fn with_clock(spec: CpuSpec, clock: CycleClock) -> Self {
        Enclave {
            inner: Arc::new(Inner {
                spec,
                clock,
                ecalls: AtomicU64::new(0),
                ocalls: AtomicU64::new(0),
            }),
        }
    }

    /// Machine model of the CPU hosting this enclave.
    #[must_use]
    pub fn spec(&self) -> &CpuSpec {
        &self.inner.spec
    }

    /// The enclave's cycle clock (shared epoch across clones).
    #[must_use]
    pub fn clock(&self) -> CycleClock {
        self.inner.clock.clone()
    }

    /// Record an enclave entry (ecall). Returns the new total.
    pub fn record_ecall(&self) -> u64 {
        self.inner.ecalls.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record an enclave exit/re-entry pair (regular ocall). Returns the
    /// new total.
    pub fn record_ocall(&self) -> u64 {
        self.inner.ocalls.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Total ecalls recorded.
    #[must_use]
    pub fn ecalls(&self) -> u64 {
        self.inner.ecalls.load(Ordering::Relaxed)
    }

    /// Total regular ocalls recorded.
    #[must_use]
    pub fn ocalls(&self) -> u64 {
        self.inner.ocalls.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_counters_are_shared_across_clones() {
        let e = Enclave::new(CpuSpec::paper_machine());
        assert_eq!(e.spec().logical_cpus, 8);
        let e2 = e.clone();
        assert_eq!(e.record_ecall(), 1);
        assert_eq!(e.record_ocall(), 1);
        assert_eq!(e2.record_ocall(), 2);
        assert_eq!(e2.ecalls(), 1);
        assert_eq!(e.ocalls(), 2);
    }

    #[test]
    fn virtual_enclave_hands_out_a_virtual_clock() {
        let e = Enclave::new_virtual(CpuSpec::paper_machine());
        assert_eq!(e.clock().now_cycles(), 0);
        e.clock().spin_cycles(38_000);
        assert_eq!(e.clock().now_cycles(), 38_000, "a virtual spin is exact");
    }
}
