//! Property tests of the histogram percentile estimators: the log₂
//! buckets lose precision but must never lose *bracketing* — every
//! histogram-derived percentile bounds the exact sample percentile
//! within one bucket.

use proptest::prelude::*;
use switchless_core::policy::ConvergenceTracker;
use switchless_core::rand::SplitMix64;
use zc_telemetry::quantile::{
    bucket_index, bucket_lower, bucket_upper, nearest_rank, percentile_bounds,
};
use zc_telemetry::{Quantiles, HIST_BUCKETS};

/// Exact nearest-rank percentile of a sample set.
fn exact_percentile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = nearest_rank(sorted.len() as u64, q);
    sorted[(rank as usize).saturating_sub(1)]
}

/// Histogram of a sample set in the telemetry-wide bucket geometry.
fn histogram(samples: &[u64]) -> [u64; HIST_BUCKETS] {
    let mut counts = [0u64; HIST_BUCKETS];
    for &s in samples {
        counts[bucket_index(s)] += 1;
    }
    counts
}

/// Minimal two-state MMPP-shaped sample stream: calm dwells draw near
/// `low`, burst dwells near `high`, dwell lengths random — the bursty
/// input of the overload experiments, kept self-contained so this
/// crate needs no dev-dependency on the DES arrival module.
fn mmpp_samples(seed: u64, n: usize, low: u64, high: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut bursting = false;
    let mut dwell = 4 + rng.next_below(8);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if dwell == 0 {
            bursting = !bursting;
            dwell = 4 + rng.next_below(8);
        }
        dwell -= 1;
        let base = if bursting { high } else { low };
        out.push(base + rng.next_below(base.max(2)));
    }
    out
}

proptest! {
    /// For arbitrary sample sets, each derived p50/p99/p99.9 brackets
    /// the exact nearest-rank percentile within one log₂ bucket: the
    /// returned bounds are precisely the edges of the bucket holding
    /// the exact value.
    #[test]
    fn percentiles_bracket_exact_within_one_bucket(
        samples in prop::collection::vec(0u64..1u64 << 50, 1..200),
    ) {
        let counts = histogram(&samples);
        for q in [0.50, 0.99, 0.999] {
            let exact = exact_percentile(&samples, q);
            let (lo, hi) = percentile_bounds(&counts, q).expect("non-empty histogram");
            prop_assert!(lo <= exact && exact <= hi,
                "q={}: exact {} outside [{}, {}]", q, exact, lo, hi);
            let b = bucket_index(exact);
            prop_assert_eq!(lo, bucket_lower(b));
            prop_assert_eq!(hi, bucket_upper(b));
        }
    }

    /// Derived quantiles are monotone: p50 <= p99 <= p99.9 on any
    /// histogram.
    #[test]
    fn quantiles_are_monotone(
        samples in prop::collection::vec(0u64..1u64 << 50, 1..200),
    ) {
        let q = Quantiles::from_counts(&histogram(&samples));
        prop_assert!(q.p50 <= q.p99);
        prop_assert!(q.p99 <= q.p999);
    }

    /// Bracketing survives bursty MMPP-shaped input: bimodal samples
    /// concentrated in two far-apart bucket clusters (the overload
    /// experiments' arrival shape) still have every derived percentile
    /// bounding the exact one within its bucket, and the tail
    /// percentile must sit in the burst cluster — a bursty tail is
    /// precisely what a log₂ histogram must never smooth away.
    #[test]
    fn percentiles_bracket_exact_on_bursty_mmpp_input(
        seed in any::<u64>(),
        low in 1u64..2048,
        shift in 6u32..14,
    ) {
        let high = low << shift;
        let samples = mmpp_samples(seed, 300, low, high);
        let counts = histogram(&samples);
        for q in [0.50, 0.99, 0.999] {
            let exact = exact_percentile(&samples, q);
            let (lo, hi) = percentile_bounds(&counts, q).expect("non-empty histogram");
            prop_assert!(lo <= exact && exact <= hi,
                "q={}: exact {} outside [{}, {}]", q, exact, lo, hi);
            let b = bucket_index(exact);
            prop_assert_eq!(lo, bucket_lower(b));
            prop_assert_eq!(hi, bucket_upper(b));
        }
        let qs = Quantiles::from_counts(&counts);
        prop_assert!(qs.p50 <= qs.p99 && qs.p99 <= qs.p999);
        if samples.iter().any(|&s| s >= high) {
            prop_assert!(qs.p999 >= bucket_lower(bucket_index(high)),
                "p999 {} must reach the burst cluster at {}", qs.p999, high);
        }
    }

    /// The convergence tracker follows MMPP-modulated load: argmin
    /// decisions alternate between a calm and a burst worker count on
    /// random dwells of ≥ 2 decisions, so every state flip must yield
    /// exactly one convergence record between those two counts, and the
    /// tracker must end settled.
    #[test]
    fn convergence_tracker_follows_mmpp_load_states(
        seed in any::<u64>(),
        burst_workers in 2usize..32,
        dwell in 2u64..6,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut tracker = ConvergenceTracker::new();
        let mut bursting = false;
        let mut records = Vec::new();
        let mut now = 0u64;
        const DWELLS: usize = 12;
        for _ in 0..DWELLS {
            let workers = if bursting { burst_workers } else { 1 };
            for _ in 0..dwell + rng.next_below(3) {
                now += 100 + rng.next_below(50);
                if let Some(rec) = tracker.observe(workers, now) {
                    records.push(rec);
                }
            }
            bursting = !bursting;
        }
        // The first dwell sets the baseline; each of the 11 subsequent
        // flips re-settles (dwells are ≥ 2 decisions long).
        prop_assert_eq!(records.len(), DWELLS - 1);
        for (i, rec) in records.iter().enumerate() {
            let (from, to) = if i % 2 == 0 {
                (1u32, burst_workers as u32)
            } else {
                (burst_workers as u32, 1u32)
            };
            prop_assert_eq!(rec.from_workers, from);
            prop_assert_eq!(rec.to_workers, to);
            prop_assert!(rec.settle_cycles > 0);
            prop_assert!(rec.decisions >= 2);
        }
        prop_assert!(!tracker.shifting());
        // 12 dwells starting calm: the last dwell is a burst one.
        prop_assert_eq!(tracker.settled_workers(), Some(burst_workers));
    }
}
