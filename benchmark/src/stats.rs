//! Order statistics used by every report: exact percentiles of one
//! segment's samples, and the median and quartiles over segments.

/// Nearest-rank percentile (`q` in 0..=1) of an ascending slice: the
/// smallest sample with at least `q` of the samples at or below it.
/// Returns `None` for an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank percentile position.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// Sort in place (total order, so a stray NaN cannot panic the harness).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Median, quartiles and range of a set of per-segment (or per-run)
/// values. Quartiles follow Python's `statistics.quantiles(v, n=4)`
/// (exclusive method), because that is what the acceptance driver
/// computes its spreads with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values summarised.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarise `values`; `None` when empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        sort(&mut v);
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: quantile_exclusive(&v, 1),
            median: quantile_exclusive(&v, 2),
            q3: quantile_exclusive(&v, 3),
            max: v[v.len() - 1],
        })
    }

    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0): the spread figure the bounds are calibrated against.
    #[must_use]
    pub fn iqr_ratio(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `i`-th of the three quartile cut points of an ascending slice,
/// Python's exclusive method: position `i·(n+1)/4` with linear
/// interpolation, clamped to the data.
fn quantile_exclusive(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Median of `values` (`None` when empty).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), Some(50.0));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(percentile_sorted(&[7.0], 0.99), Some(7.0));
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(100_000, 0.99), 1000);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.iqr_ratio() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.0, 2.0, 3.0, 3.0)
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5] — the
        // exclusive method extrapolates past two points.
        let s = Summary::of(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_of_segments_ignores_one_disturbed_segment() {
        // Nine quiet segments and one fallback-heavy second: the median
        // over segments stays with the quiet ones, the mean does not.
        let mut segs = vec![1180.0; 9];
        segs.push(9000.0);
        assert_eq!(median(&segs), Some(1180.0));
        let mean = segs.iter().sum::<f64>() / segs.len() as f64;
        assert!(mean > 1900.0);
    }
}
