//! Cycle clock and cost injection for the modelled CPU.
//!
//! The clock maps time onto cycles of the *modelled* machine
//! (`CpuSpec::freq_hz`) through one of two backends:
//!
//! * **Real** (default): cycles are derived from host wall-clock time,
//!   and injected costs — enclave transitions, `pause` instructions —
//!   are realised as calibrated busy-spins so they consume real CPU
//!   exactly like the hardware they stand in for.
//! * **Virtual** ([`CycleClock::new_virtual`]): cycles come from a
//!   shared logical counter that only advances when someone *spends*
//!   time on it. Spins and sleeps advance the counter instantly, so
//!   scheduler quanta, micro-quanta and drain timeouts step through in
//!   microseconds of wall time, deterministically. This is the backend
//!   the fault-injection test harness runs on.
//!
//! Both backends support [`CycleClock::advance_cycles`], which the fault
//! injector uses to model clock skew (on the real backend it is an
//! offset added to every subsequent reading).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchless_core::cpu::CpuSpec;

/// Clock measuring elapsed cycles of the modelled CPU and providing
/// cost-injection spins.
///
/// Cheap to clone ([`Arc`] inside); all methods take `&self` and are
/// thread-safe. Clones share the backend, so cycles advanced through one
/// handle are visible through every other.
///
/// # Example
///
/// ```
/// use sgx_sim::CycleClock;
/// use switchless_core::CpuSpec;
///
/// let clock = CycleClock::new(CpuSpec::paper_machine());
/// let t0 = clock.now_cycles();
/// clock.spin_cycles(10_000); // burn ~10k modelled cycles (~2.6 us)
/// assert!(clock.now_cycles() - t0 >= 10_000);
///
/// // Virtual backend: the same spin is instantaneous wall-clock-wise.
/// let vclock = CycleClock::new_virtual(CpuSpec::paper_machine());
/// vclock.spin_cycles(38_000_000_000); // 10 modelled seconds, ~no wall time
/// assert!(vclock.now_secs() >= 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct CycleClock {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    spec: CpuSpec,
    backend: Backend,
}

#[derive(Debug)]
enum Backend {
    /// Wall-clock driven; `skew_cycles` is added to every reading so the
    /// fault injector can skew even a wall clock forward.
    Real {
        epoch: Instant,
        skew_cycles: AtomicU64,
    },
    /// Logical time: advances only via spins, sleeps and explicit
    /// `advance_cycles`.
    Virtual { now_cycles: AtomicU64 },
}

impl CycleClock {
    /// New wall-clock-backed clock for the given machine model; cycle
    /// zero is "now".
    #[must_use]
    pub fn new(spec: CpuSpec) -> Self {
        CycleClock {
            inner: Arc::new(Inner {
                spec,
                backend: Backend::Real {
                    epoch: Instant::now(),
                    skew_cycles: AtomicU64::new(0),
                },
            }),
        }
    }

    /// New virtual-time clock for the given machine model, starting at
    /// cycle zero. Spins and sleeps advance logical time instantly.
    #[must_use]
    pub fn new_virtual(spec: CpuSpec) -> Self {
        CycleClock {
            inner: Arc::new(Inner {
                spec,
                backend: Backend::Virtual {
                    now_cycles: AtomicU64::new(0),
                },
            }),
        }
    }

    /// Machine model this clock measures.
    #[must_use]
    pub fn spec(&self) -> &CpuSpec {
        &self.inner.spec
    }

    /// Cycles of the modelled CPU elapsed since clock creation.
    #[must_use]
    pub fn now_cycles(&self) -> u64 {
        match &self.inner.backend {
            Backend::Real { epoch, skew_cycles } => {
                let ns = epoch.elapsed().as_nanos();
                // cycles = ns * freq / 1e9, in u128 to avoid overflow.
                let elapsed = (ns * u128::from(self.inner.spec.freq_hz) / 1_000_000_000) as u64;
                elapsed.saturating_add(skew_cycles.load(Ordering::Acquire))
            }
            Backend::Virtual { now_cycles } => now_cycles.load(Ordering::Acquire),
        }
    }

    /// Spend `cycles` modelled cycles. On the real backend this
    /// busy-spins, consuming host CPU for the whole duration (cost
    /// injection); on the virtual backend it advances logical time
    /// instantly and yields once to keep concurrent threads live.
    pub fn spin_cycles(&self, cycles: u64) {
        match &self.inner.backend {
            Backend::Real { .. } => {
                let start = Instant::now();
                let target_ns =
                    u128::from(cycles) * 1_000_000_000 / u128::from(self.inner.spec.freq_hz);
                while start.elapsed().as_nanos() < target_ns {
                    std::hint::spin_loop();
                }
            }
            Backend::Virtual { now_cycles } => {
                now_cycles.fetch_add(cycles, Ordering::AcqRel);
                // A virtual spin is instantaneous; yield so busy-wait
                // loops built on pause() cannot starve other threads.
                std::thread::yield_now();
            }
        }
    }

    /// Sleep for `duration` of modelled time. On the real backend this is
    /// a host `thread::sleep`; on the virtual backend logical time jumps
    /// forward instantly.
    pub fn sleep(&self, duration: Duration) {
        match &self.inner.backend {
            Backend::Real { .. } => std::thread::sleep(duration),
            Backend::Virtual { now_cycles } => {
                now_cycles.fetch_add(self.duration_to_cycles(duration), Ordering::AcqRel);
                std::thread::yield_now();
            }
        }
    }

    /// Jump the clock forward by `cycles` without spending host time (the
    /// fault injector's clock-skew primitive). On the real backend the
    /// skew becomes a permanent offset on every subsequent reading.
    pub fn advance_cycles(&self, cycles: u64) {
        match &self.inner.backend {
            Backend::Real { skew_cycles, .. } => {
                skew_cycles.fetch_add(cycles, Ordering::AcqRel);
            }
            Backend::Virtual { now_cycles } => {
                now_cycles.fetch_add(cycles, Ordering::AcqRel);
            }
        }
    }

    /// Modelled cycles corresponding to `duration` on this machine.
    #[must_use]
    pub fn duration_to_cycles(&self, duration: Duration) -> u64 {
        (duration.as_nanos() * u128::from(self.inner.spec.freq_hz) / 1_000_000_000) as u64
    }

    /// One modelled `asm("pause")`: spins for `CpuSpec::pause_cycles`.
    pub fn pause(&self) {
        self.spin_cycles(self.inner.spec.pause_cycles);
    }

    /// One enclave transition round trip: spins for
    /// `CpuSpec::t_es_cycles` (the paper's `T_es` ≈ 13 500 cycles).
    pub fn enclave_transition(&self) {
        self.spin_cycles(self.inner.spec.t_es_cycles);
    }

    /// Elapsed seconds of the modelled machine since clock creation.
    #[must_use]
    pub fn now_secs(&self) -> f64 {
        self.inner.spec.cycles_to_secs(self.now_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_advance_monotonically() {
        let clock = CycleClock::new(CpuSpec::paper_machine());
        let a = clock.now_cycles();
        let b = clock.now_cycles();
        assert!(b >= a);
    }

    #[test]
    fn spin_consumes_at_least_requested_cycles() {
        let clock = CycleClock::new(CpuSpec::paper_machine());
        let t0 = clock.now_cycles();
        clock.spin_cycles(100_000); // ~26 us
        let dt = clock.now_cycles() - t0;
        assert!(dt >= 100_000, "spun only {dt} cycles");
        // Sanity bound: should not be wildly more (allow generous 100x
        // slack for CI preemption).
        assert!(dt < 10_000_000, "spun {dt} cycles, far over target");
    }

    #[test]
    fn pause_is_short() {
        let clock = CycleClock::new(CpuSpec::paper_machine());
        let t0 = clock.now_cycles();
        for _ in 0..10 {
            clock.pause();
        }
        assert!(clock.now_cycles() - t0 >= 10 * 140);
    }

    #[test]
    fn transition_costs_t_es() {
        let clock = CycleClock::new(CpuSpec::paper_machine());
        let t0 = clock.now_cycles();
        clock.enclave_transition();
        assert!(clock.now_cycles() - t0 >= 13_500);
    }

    #[test]
    fn clones_share_the_epoch() {
        let clock = CycleClock::new(CpuSpec::paper_machine());
        let c2 = clock.clone();
        clock.spin_cycles(50_000);
        assert!(c2.now_cycles() >= 50_000);
    }

    #[test]
    fn now_secs_tracks_cycles() {
        let clock = CycleClock::new(CpuSpec::paper_machine());
        clock.spin_cycles(38_000); // 10 us modelled
        assert!(clock.now_secs() >= 9e-6);
    }

    #[test]
    fn virtual_clock_starts_at_zero_and_spins_instantly() {
        let clock = CycleClock::new_virtual(CpuSpec::paper_machine());
        assert!(matches!(clock.inner.backend, Backend::Virtual { .. }));
        assert_eq!(clock.now_cycles(), 0);
        let wall = Instant::now();
        clock.spin_cycles(38_000_000_000); // 10 modelled seconds
        assert_eq!(clock.now_cycles(), 38_000_000_000);
        assert!(
            wall.elapsed() < Duration::from_secs(1),
            "virtual spin blocked on wall time"
        );
    }

    #[test]
    fn virtual_sleep_advances_exact_cycles() {
        let clock = CycleClock::new_virtual(CpuSpec::paper_machine());
        let wall = Instant::now();
        clock.sleep(Duration::from_secs(3600)); // one modelled hour
        assert_eq!(clock.now_cycles(), 3_600 * 3_800_000_000);
        assert!(
            wall.elapsed() < Duration::from_secs(1),
            "virtual sleep blocked on wall time"
        );
    }

    #[test]
    fn virtual_clones_share_logical_time() {
        let clock = CycleClock::new_virtual(CpuSpec::paper_machine());
        let c2 = clock.clone();
        clock.pause();
        c2.enclave_transition();
        assert_eq!(clock.now_cycles(), 140 + 13_500);
        assert_eq!(clock.now_cycles(), c2.now_cycles());
    }

    #[test]
    fn advance_cycles_skews_both_backends() {
        let vclock = CycleClock::new_virtual(CpuSpec::paper_machine());
        vclock.advance_cycles(1_000);
        assert_eq!(vclock.now_cycles(), 1_000);

        let rclock = CycleClock::new(CpuSpec::paper_machine());
        assert!(matches!(rclock.inner.backend, Backend::Real { .. }));
        let before = rclock.now_cycles();
        rclock.advance_cycles(1_000_000_000);
        assert!(rclock.now_cycles() >= before + 1_000_000_000);
    }

    #[test]
    fn duration_to_cycles_uses_modelled_frequency() {
        let clock = CycleClock::new(CpuSpec::paper_machine());
        assert_eq!(
            clock.duration_to_cycles(Duration::from_millis(10)),
            38_000_000
        );
        assert_eq!(
            clock.duration_to_cycles(Duration::from_secs(1)),
            3_800_000_000
        );
    }
}
