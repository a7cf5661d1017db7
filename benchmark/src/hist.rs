//! Exact latency percentiles without storing every sample.
//!
//! A segment of the nop workloads holds ~10^6 op timings. Sorting them
//! between segments would leave the runtime idle for tens of
//! milliseconds (long enough for its scheduler to probe an empty queue
//! and park the worker), and keeping them all would make the harness,
//! not the program, set `peak_rss_mb`. Op timings are whole nanoseconds,
//! so counting them per nanosecond gives the same nearest-rank
//! percentile a sort would, in constant memory; the few samples beyond
//! the counted range are kept and sorted.

use crate::stats;

/// Nanoseconds counted one bucket each; anything slower is kept as is.
const COUNTED_NS: usize = 1 << 17;

/// Per-nanosecond counts of one segment's op timings.
#[derive(Debug)]
pub struct LatencyHist {
    counts: Vec<u32>,
    slow: Vec<u64>,
    n: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// Empty histogram with every page of the count table already
    /// touched, so resident memory does not depend on what is recorded.
    #[must_use]
    pub fn new() -> Self {
        let mut counts = vec![1u32; COUNTED_NS];
        counts.fill(0);
        LatencyHist {
            counts,
            slow: Vec::new(),
            n: 0,
        }
    }

    /// Record one timing.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.n += 1;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile (`q` in 0..=1), identical to
    /// [`stats::percentile_sorted`] over the recorded samples.
    #[must_use]
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(ns as f64);
            }
        }
        self.slow.sort_unstable();
        Some(self.slow[(rank - seen - 1) as usize] as f64)
    }

    /// Samples strictly beyond the `q` percentile position.
    #[must_use]
    pub fn beyond(&self, q: f64) -> usize {
        stats::samples_beyond(self.n as usize, q)
    }

    /// Forget everything recorded.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.slow.clear();
        self.n = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::SplitMix64;

    #[test]
    fn matches_a_sort_including_the_slow_tail() {
        let mut rng = SplitMix64::new(7);
        let mut h = LatencyHist::new();
        let mut all = Vec::new();
        for i in 0..50_000u64 {
            // Mostly ~1 us, one in a hundred far beyond the counted range.
            let ns = if i % 100 == 0 {
                COUNTED_NS as u64 + rng.next_below(5_000_000)
            } else {
                900 + rng.next_below(600)
            };
            h.record(ns);
            all.push(ns as f64);
        }
        stats::sort(&mut all);
        for q in [0.0, 0.5, 0.99, 0.995, 0.999, 1.0] {
            assert_eq!(h.percentile(q), stats::percentile_sorted(&all, q), "q={q}");
        }
        assert_eq!(h.count(), 50_000);
        assert_eq!(h.beyond(0.99), 500);
        h.clear();
        assert_eq!(h.percentile(0.5), None);
    }
}
