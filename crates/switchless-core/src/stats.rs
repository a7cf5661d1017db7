//! Lock-free statistics shared between callers, workers and the scheduler.
//!
//! [`CallStats`] is the feedback channel of the ZC scheduler: callers bump
//! `fallback` on every non-switchless execution and the scheduler samples
//! the counter at micro-quantum boundaries to compute `F_i`. It also
//! powers the evaluation: switchless/regular/fallback mixes, enclave
//! transition counts and pool reallocations (the Fig. 8 latency spikes).

use crate::policy::wasted_cycles;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters for one switchless runtime instance.
///
/// All methods use relaxed atomics: counters are monotonically increasing
/// telemetry, never synchronisation points.
#[derive(Debug, Default)]
pub struct CallStats {
    issued: AtomicU64,
    switchless: AtomicU64,
    fallback: AtomicU64,
    regular: AtomicU64,
    cancelled: AtomicU64,
    pool_reallocs: AtomicU64,
    reply_truncations: AtomicU64,
    guard_violations: AtomicU64,
}

impl CallStats {
    /// New zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one call entering dispatch (before any routing decision).
    /// At quiescence every issued call resolves to exactly one terminal
    /// outcome: switchless, fallback, regular, or watchdog-cancelled
    /// (see [`CallStatsSnapshot::is_conserved`]).
    pub fn record_issued(&self) {
        self.issued.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one call executed switchlessly (no transition).
    pub fn record_switchless(&self) {
        self.switchless.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one switchless attempt cancelled by the caller-side
    /// watchdog (the call still completed, via the regular path, but is
    /// accounted here rather than as a fallback).
    pub fn record_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one call that attempted switchless execution but fell back
    /// to a regular ocall (one transition).
    pub fn record_fallback(&self) {
        self.fallback.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one call executed as a plain regular ocall (one transition,
    /// no switchless attempt).
    pub fn record_regular(&self) {
        self.regular.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one untrusted-pool reallocation (costs a real ocall).
    pub fn record_pool_realloc(&self) {
        self.pool_reallocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one host-written reply clamped to the caller-declared
    /// output capacity (the call still completed switchlessly).
    pub fn record_reply_truncation(&self) {
        self.reply_truncations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one trusted-side guard violation (the call re-routed
    /// through the regular-ocall fallback; the lying worker slot was
    /// poisoned).
    pub fn record_guard_violation(&self) {
        self.guard_violations.fetch_add(1, Ordering::Relaxed);
    }

    /// Current fallback count: the one counter the scheduler step
    /// differences against its own previous reading to get `F_i`.
    ///
    /// Prefer [`CallStats::snapshot`] for anything that combines
    /// counters: mixing this getter with other individual reads
    /// produces torn totals (each read samples a different moment).
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallback.load(Ordering::Relaxed)
    }

    /// Single-pass snapshot: each counter is read exactly once, in one
    /// pass, and every derived total ([`CallStatsSnapshot::total_calls`],
    /// [`CallStatsSnapshot::transitions`], …) is computed from those
    /// same four readings — so totals are never torn across reads.
    /// Counters updated concurrently may still skew between each other
    /// by in-flight calls (relaxed ordering), which is inherent and
    /// harmless for monotonic telemetry.
    #[must_use]
    pub fn snapshot(&self) -> CallStatsSnapshot {
        CallStatsSnapshot {
            issued: self.issued.load(Ordering::Relaxed),
            switchless: self.switchless.load(Ordering::Relaxed),
            fallback: self.fallback.load(Ordering::Relaxed),
            regular: self.regular.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            pool_reallocs: self.pool_reallocs.load(Ordering::Relaxed),
            reply_truncations: self.reply_truncations.load(Ordering::Relaxed),
            guard_violations: self.guard_violations.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`CallStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CallStatsSnapshot {
    /// Calls that entered dispatch (0 for dispatchers that predate the
    /// supervision layer and never call `record_issued`).
    pub issued: u64,
    /// Calls executed switchlessly.
    pub switchless: u64,
    /// Calls that fell back to a regular ocall after a switchless attempt.
    pub fallback: u64,
    /// Calls executed as plain regular ocalls.
    pub regular: u64,
    /// Switchless attempts cancelled by the caller-side watchdog (each
    /// still completed via the regular path).
    pub cancelled: u64,
    /// Untrusted-pool reallocations (each cost one extra real ocall).
    pub pool_reallocs: u64,
    /// Host-written replies clamped to the caller-declared capacity
    /// (each call still completed switchlessly, minus excess bytes).
    pub reply_truncations: u64,
    /// Trusted-side guard violations detected (each call re-routed via
    /// fallback, so conservation still holds).
    pub guard_violations: u64,
}

impl CallStatsSnapshot {
    /// Total ocalls completed (every terminal outcome).
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.switchless + self.fallback + self.regular + self.cancelled
    }

    /// Enclave transitions paid (fallback + regular + watchdog-cancelled
    /// calls + pool reallocations).
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.fallback + self.regular + self.cancelled + self.pool_reallocs
    }

    /// Conservation invariant of the supervision layer: every issued
    /// call resolved to exactly one terminal outcome
    /// (`issued = switchless + fallback + regular + cancelled`). Only
    /// meaningful at quiescence (no calls in flight) and for runtimes
    /// that record issuance.
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.issued == self.switchless + self.fallback + self.regular + self.cancelled
    }

    /// Wasted cycles attributable to transitions over an interval with
    /// `workers` active workers: the paper's `U = F·T_es + M·T` with `F`
    /// taken as all transition-paying calls.
    #[must_use]
    pub fn wasted_cycles(&self, t_es_cycles: u64, workers: usize, interval_cycles: u64) -> u64 {
        wasted_cycles(self.transitions(), t_es_cycles, workers, interval_cycles)
    }

    /// Counter-wise difference `self - earlier` (saturating), for per-
    /// interval deltas.
    #[must_use]
    pub fn delta_since(&self, earlier: &CallStatsSnapshot) -> CallStatsSnapshot {
        CallStatsSnapshot {
            issued: self.issued.saturating_sub(earlier.issued),
            switchless: self.switchless.saturating_sub(earlier.switchless),
            fallback: self.fallback.saturating_sub(earlier.fallback),
            regular: self.regular.saturating_sub(earlier.regular),
            cancelled: self.cancelled.saturating_sub(earlier.cancelled),
            pool_reallocs: self.pool_reallocs.saturating_sub(earlier.pool_reallocs),
            reply_truncations: self
                .reply_truncations
                .saturating_sub(earlier.reply_truncations),
            guard_violations: self
                .guard_violations
                .saturating_sub(earlier.guard_violations),
        }
    }
}

/// Histogram of how long the runtime spent with each active worker count,
/// in cycles. Used for the paper's §V-B residency observation (zc ran with
/// 2 workers for 84.4 % of the OpenSSL benchmark).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerResidency {
    cycles_at: Vec<u64>,
}

impl WorkerResidency {
    /// Residency histogram supporting worker counts `0..=max_workers`.
    #[must_use]
    pub fn new(max_workers: usize) -> Self {
        WorkerResidency {
            cycles_at: vec![0; max_workers + 1],
        }
    }

    /// Record `cycles` spent with `workers` active.
    pub fn record(&mut self, workers: usize, cycles: u64) {
        if workers >= self.cycles_at.len() {
            self.cycles_at.resize(workers + 1, 0);
        }
        self.cycles_at[workers] += cycles;
    }

    /// Total recorded cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles_at.iter().sum()
    }

    /// Fraction of time spent at each worker count (empty if nothing
    /// recorded).
    #[must_use]
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total_cycles();
        if total == 0 {
            return vec![0.0; self.cycles_at.len()];
        }
        self.cycles_at
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Time-weighted mean worker count.
    #[must_use]
    pub fn mean_workers(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        self.cycles_at
            .iter()
            .enumerate()
            .map(|(w, &c)| w as f64 * c as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Cycles recorded at each worker count.
    #[must_use]
    pub fn cycles(&self) -> &[u64] {
        &self.cycles_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CallStats::new();
        s.record_switchless();
        s.record_switchless();
        s.record_fallback();
        s.record_regular();
        s.record_pool_realloc();
        let snap = s.snapshot();
        assert_eq!(snap.switchless, 2);
        assert_eq!(snap.fallback, 1);
        assert_eq!(snap.regular, 1);
        assert_eq!(snap.pool_reallocs, 1);
        assert_eq!(snap.total_calls(), 4);
        assert_eq!(snap.transitions(), 3);
    }

    #[test]
    fn issued_and_cancelled_conserve() {
        let s = CallStats::new();
        for _ in 0..5 {
            s.record_issued();
        }
        s.record_switchless();
        s.record_switchless();
        s.record_fallback();
        s.record_regular();
        s.record_cancelled();
        let snap = s.snapshot();
        assert_eq!(snap.issued, 5);
        assert_eq!(snap.cancelled, 1);
        assert!(snap.is_conserved(), "5 issued = 2 sl + 1 fb + 1 reg + 1 cx");
        assert_eq!(snap.total_calls(), 5);
        s.record_issued(); // in flight: conservation does not hold
        assert!(!s.snapshot().is_conserved());
    }

    #[test]
    fn cancelled_counts_as_a_transition() {
        let snap = CallStatsSnapshot {
            cancelled: 2,
            fallback: 1,
            ..CallStatsSnapshot::default()
        };
        assert_eq!(snap.transitions(), 3);
    }

    #[test]
    fn truncations_and_violations_are_side_counters() {
        // Neither counter participates in the conservation identity:
        // a truncated call completed switchlessly and a violated call
        // completed via fallback.
        let s = CallStats::new();
        s.record_issued();
        s.record_reply_truncation();
        s.record_switchless();
        s.record_issued();
        s.record_guard_violation();
        s.record_fallback();
        let snap = s.snapshot();
        assert_eq!(snap.reply_truncations, 1);
        assert_eq!(snap.guard_violations, 1);
        assert!(snap.is_conserved());
        assert_eq!(snap.total_calls(), 2);
        let d = snap.delta_since(&CallStatsSnapshot::default());
        assert_eq!((d.reply_truncations, d.guard_violations), (1, 1));
    }

    #[test]
    fn fallbacks_fast_path_matches_snapshot() {
        let s = CallStats::new();
        for _ in 0..5 {
            s.record_fallback();
        }
        assert_eq!(s.fallbacks(), 5);
        assert_eq!(s.snapshot().fallback, 5);
    }

    #[test]
    fn delta_since_is_saturating_per_counter() {
        let a = CallStatsSnapshot {
            switchless: 10,
            fallback: 3,
            regular: 1,
            ..CallStatsSnapshot::default()
        };
        let b = CallStatsSnapshot {
            switchless: 4,
            fallback: 5,
            regular: 0,
            ..CallStatsSnapshot::default()
        };
        let d = a.delta_since(&b);
        assert_eq!(d.switchless, 6);
        assert_eq!(d.fallback, 0, "negative deltas clamp to zero");
        assert_eq!(d.regular, 1);
    }

    #[test]
    fn snapshot_wasted_cycles_counts_all_transitions() {
        let snap = CallStatsSnapshot {
            switchless: 100,
            fallback: 2,
            regular: 3,
            pool_reallocs: 1,
            ..CallStatsSnapshot::default()
        };
        // (2+3+1) * 13_500 + 2 * 1_000
        assert_eq!(snap.wasted_cycles(13_500, 2, 1_000), 6 * 13_500 + 2_000);
    }

    #[test]
    fn residency_fractions_and_mean() {
        let mut r = WorkerResidency::new(4);
        r.record(0, 100);
        r.record(2, 300);
        r.record(2, 100);
        assert_eq!(r.total_cycles(), 500);
        let f = r.fractions();
        assert!((f[0] - 0.2).abs() < 1e-12);
        assert!((f[2] - 0.8).abs() < 1e-12);
        assert!((r.mean_workers() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn residency_grows_on_demand() {
        let mut r = WorkerResidency::new(1);
        r.record(5, 10);
        assert_eq!(r.cycles().len(), 6);
        assert_eq!(r.cycles()[5], 10);
    }

    #[test]
    fn empty_residency_is_well_behaved() {
        let r = WorkerResidency::new(2);
        assert_eq!(r.total_cycles(), 0);
        assert_eq!(r.fractions(), vec![0.0, 0.0, 0.0]);
        assert_eq!(r.mean_workers(), 0.0);
    }

    #[test]
    fn stats_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CallStats>();
    }
}
