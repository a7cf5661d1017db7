//! A named registry of log-linear histograms.
//!
//! Nothing in the runtimes or the simulator records into it: calls are
//! counted by the typed snapshots (`CallStats`, the plane snapshots,
//! `SimReport`) and timed by [`crate::CallPhaseProfiler`]. It stays for
//! one reader only, the standalone benchmark crate's
//! `zc-telemetry.hist.record_ns` probe (`MetricsRegistry::new()
//! .histogram("probe")`), which must keep building against this tree.
//! ROADMAP [bench-unfreeze], part (g), retargets that probe and
//! deletes this module.

use crate::quantile::HIST_BUCKETS;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Log-linear histogram handle (relaxed updates, saturating sum).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Record one observation. Values beyond the last bucket's lower
    /// edge clamp into it rather than indexing out of range.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = crate::quantile::bucket_index(value);
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: a pathological sum must not wrap and corrupt means.
        let mut cur = self.0.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match self
                .0
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// Histograms by name, get-or-create, so two handles of one name share
/// storage. It exists only because the standalone benchmark's
/// `zc-telemetry.hist.record_ns` probe builds one; ROADMAP
/// [bench-unfreeze], part (g), retires both.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Histogram(Arc::clone(
            histograms.entry(name.to_string()).or_insert_with(|| {
                Arc::new(HistogramInner {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                })
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_clamps_oversized_values() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        h.record(0); // -> bucket 0 (the zero singleton)
        h.record(1u64 << 62); // beyond the last bucket's lower edge
        h.record(u64::MAX); // extreme: must clamp, sum must saturate
        let bucket = |i: usize| h.0.buckets[i].load(Ordering::Relaxed);
        assert_eq!(reg.histogram("lat").count(), 3, "one name, one storage");
        assert_eq!(bucket(0), 1);
        assert_eq!(
            bucket(HIST_BUCKETS - 1),
            2,
            "oversized values clamp to last"
        );
        assert_eq!(
            h.0.sum.load(Ordering::Relaxed),
            u64::MAX,
            "sum saturates instead of wrapping"
        );
    }
}
