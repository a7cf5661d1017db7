//! Percentile math over log-linear histograms.
//!
//! One source of truth for the bucket geometry shared by the phase
//! profiler ([`crate::profile`]) and the benchmark-only
//! [`crate::metrics::Histogram`]. The geometry is *log-linear*: each
//! power-of-two octave `[2^o, 2^(o+1))` is split into four linear
//! sub-buckets, so a bucket's width is at most 1/4 of its lower edge
//! (25% relative error) instead of the 2× of plain log₂ buckets. Values
//! 0–3 get exact singleton buckets; the last bucket absorbs everything
//! larger than its lower edge.
//!
//! Plain log₂ buckets proved too coarse at call-overhead scale: every
//! latency sample of a homogeneous workload landed in one bucket and
//! `p50 == p99 == p99.9` in the SLO reports. Four sub-buckets per octave
//! keeps the array small (`HIST_BUCKETS = 160` spans to ~1.9e12 cycles)
//! while separating percentiles that differ by ≥25%.
//!
//! A bucketed histogram cannot recover exact order statistics, but it
//! bounds them: the q-th percentile of the recorded samples is
//! guaranteed to lie inside the bucket that [`percentile_bounds`]
//! returns — the one-bucket bracketing property the proptest suite pins
//! down. Reports quote the conservative upper edge.

/// Number of log-linear latency buckets: values 0–3 get singleton
/// buckets, then each power-of-two octave splits into four linear
/// sub-buckets (see [`bucket_index`]); the last bucket absorbs
/// everything larger (lower edge `7·2^38 ≈ 1.9e12` cycles).
pub const HIST_BUCKETS: usize = 160;

/// Bucket index of a value. Values below 4 map to their own singleton
/// buckets; a value in octave `o = floor(log2 v)` maps to
/// `(o-1)·4 + sub` where `sub` is the top two mantissa bits below the
/// leading one. Clamped to the last bucket. This is the exact formula
/// every histogram in this crate uses.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < 4 {
        return value as usize;
    }
    let o = 63 - value.leading_zeros() as usize;
    let sub = ((value >> (o - 2)) & 3) as usize;
    ((o - 1) * 4 + sub).min(HIST_BUCKETS - 1)
}

/// Smallest value that lands in bucket `i` (bucket 0 holds exactly 0).
#[must_use]
pub fn bucket_lower(i: usize) -> u64 {
    if i < 4 {
        i as u64
    } else {
        // Octave o = i/4 + 1, sub-bucket i%4: lower edge
        // (4 + sub) · 2^(o-2).
        (4 + (i & 3) as u64) << ((i / 4 - 1).min(60))
    }
}

/// Largest value that lands in bucket `i`. The final bucket absorbs
/// everything, so its upper edge is `u64::MAX`.
#[must_use]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 || bucket_lower(i) >= bucket_lower(i + 1) {
        u64::MAX
    } else {
        bucket_lower(i + 1) - 1
    }
}

/// Nearest-rank index (1-based) of the q-th percentile among `total`
/// samples: `ceil(q · total)`, clamped to `[1, total]`.
#[must_use]
pub fn nearest_rank(total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let r = (q * total as f64).ceil() as u64;
    r.clamp(1, total)
}

/// `[lower, upper]` value bounds of the bucket holding the q-th
/// percentile (nearest-rank) of the samples in `counts`. `None` when the
/// histogram is empty. The exact percentile of the underlying samples is
/// guaranteed to lie within the returned bounds.
#[must_use]
pub fn percentile_bounds(counts: &[u64], q: f64) -> Option<(u64, u64)> {
    let total: u64 = counts.iter().sum();
    let rank = nearest_rank(total, q);
    if rank == 0 {
        return None;
    }
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some((bucket_lower(i), bucket_upper(i)));
        }
    }
    None
}

/// Conservative (upper-edge) q-th percentile estimate, or `None` for an
/// empty histogram. SLO reports quote this value: the true percentile is
/// at most this, and at least half of it.
#[must_use]
pub fn percentile(counts: &[u64], q: f64) -> Option<u64> {
    percentile_bounds(counts, q).map(|(_, hi)| hi)
}

/// The three SLO percentiles, estimated from one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Median (upper bucket edge).
    pub p50: u64,
    /// 99th percentile (upper bucket edge).
    pub p99: u64,
    /// 99.9th percentile (upper bucket edge).
    pub p999: u64,
}

impl Quantiles {
    /// Estimate p50/p99/p99.9 from per-bucket counts (zero for an empty
    /// histogram).
    #[must_use]
    pub fn from_counts(counts: &[u64]) -> Quantiles {
        Quantiles {
            p50: percentile(counts, 0.50).unwrap_or(0),
            p99: percentile(counts, 0.99).unwrap_or(0),
            p999: percentile(counts, 0.999).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_round_trips() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v, "lower({i}) > {v}");
            assert!(v <= bucket_upper(i), "{v} > upper({i})");
        }
        // Values 0..4 are singleton buckets; octaves then split in four.
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_lower(3), 3);
        assert_eq!(bucket_upper(3), 3);
        assert_eq!(bucket_lower(8), 8, "octave [8,16) starts at index 8");
        assert_eq!(bucket_upper(8), 9, "first quarter of [8,16)");
        assert_eq!(bucket_lower(10), 12);
        assert_eq!(bucket_upper(HIST_BUCKETS - 1), u64::MAX);
        // Buckets tile the value axis with no gaps or overlaps.
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1), "gap at {i}");
        }
    }

    #[test]
    fn sub_buckets_separate_same_octave_values() {
        // 1000 and 1900 share octave [1024/2, 2048)'s neighbourhood but
        // differ by ~2x; log-linear sub-buckets must keep them apart
        // (plain log2 buckets merged them, collapsing p50 == p99).
        assert_ne!(bucket_index(1000), bucket_index(1900));
        assert_ne!(bucket_index(1024), bucket_index(1500));
        // Relative bucket width is bounded by 25% above the singletons.
        for i in 4..HIST_BUCKETS - 1 {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert!((hi - lo) * 4 <= lo, "bucket {i} wider than lo/4");
        }
    }

    #[test]
    fn percentile_of_uniform_histogram() {
        // 100 samples of exactly 1000 cycles -> bucket [896, 1024).
        let mut counts = vec![0u64; HIST_BUCKETS];
        counts[bucket_index(1000)] = 100;
        let (lo, hi) = percentile_bounds(&counts, 0.99).unwrap();
        assert!(lo <= 1000 && 1000 <= hi);
        assert_eq!(percentile(&counts, 0.5), Some(1023));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let counts = vec![0u64; HIST_BUCKETS];
        assert_eq!(percentile(&counts, 0.5), None);
        assert_eq!(Quantiles::from_counts(&counts), Quantiles::default());
    }

    #[test]
    fn tail_lands_in_higher_bucket() {
        // 99 fast samples (bucket of 100) + 1 slow (bucket of 1e6):
        // p50 stays in the fast bucket, p99.9 reaches the slow one.
        let mut counts = vec![0u64; HIST_BUCKETS];
        counts[bucket_index(100)] = 99;
        counts[bucket_index(1_000_000)] = 1;
        let q = Quantiles::from_counts(&counts);
        assert_eq!(q.p50, bucket_upper(bucket_index(100)));
        assert_eq!(q.p999, bucket_upper(bucket_index(1_000_000)));
    }
}
