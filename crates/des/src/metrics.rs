//! Counters and time series collected during a simulation.

use serde::{Deserialize, Serialize};

/// Shared event counters, mutated by actors as the protocol runs.
///
/// Lives in an `Rc<RefCell<_>>` world: kernel event processing is
/// serialized, so plain fields suffice.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCounters {
    /// Calls executed switchlessly (no transition).
    pub switchless: u64,
    /// Calls that attempted switchless execution and fell back.
    pub fallback: u64,
    /// Calls executed as plain regular ocalls (statically non-switchless).
    pub regular: u64,
    /// Untrusted-pool reallocations (each costs one extra transition).
    pub pool_reallocs: u64,
    /// In-flight switchless calls cancelled by a caller watchdog. Each
    /// cancelled call then completed on the regular path, so this is a
    /// subset of [`fallback`](SimCounters::fallback), not an extra term
    /// in [`total_calls`](SimCounters::total_calls).
    #[serde(default)]
    pub cancelled: u64,
    /// Completed ocalls per caller index.
    pub ops_per_caller: Vec<u64>,
    /// Completed ocalls per call class (workload-defined, e.g.
    /// `f`/`g` or `fseeko`/`fread`/`fwrite`).
    pub ops_per_class: Vec<u64>,
    /// Callers that have not yet finished their workload.
    pub callers_live: usize,
    /// Virtual time at which the last caller finished (0 until then).
    pub last_completion: u64,
    /// Calls the workload put on offer: one per closed-loop issue, one
    /// per period-quota slot for phased load, one per generated arrival
    /// for open-loop load. The conservation target of
    /// [`conserves`](SimCounters::conserves).
    #[serde(default)]
    pub offered: u64,
    /// Offered calls an open-loop client dropped because their deadline
    /// budget expired while they queued (client-side admission — the
    /// runtimes' own shed counters live in their overload snapshots).
    #[serde(default)]
    pub ops_shed: u64,
    /// Offered calls abandoned un-issued: a phased period's unfinished
    /// quota at its boundary, whole periods overrun by a slow dialogue,
    /// or an open-loop backlog left when the traffic stopped. Before
    /// this counter existed the phased workload lost this work
    /// silently.
    #[serde(default)]
    pub ops_abandoned: u64,
    /// Offered calls refused by post-crash reconciliation: the enclave
    /// was lost with a non-idempotent call's fate unknown, so neither
    /// completing nor re-executing it could be proven safe
    /// ([`Step::Refused`](crate::ocall::Step::Refused)). Zero without
    /// enclave faults.
    #[serde(default)]
    pub refused_non_idempotent: u64,
    /// Log-linear histogram of open-loop sojourn times
    /// (arrival → completion, cycles), bucketed by
    /// [`zc_telemetry::quantile`]: values 0–3 are singleton buckets,
    /// then four linear sub-buckets per power-of-two octave, so a
    /// bucket is at most 25% wide relative to its lower edge.
    /// Empty until an open-loop caller records one.
    #[serde(default)]
    pub sojourn_hist: Vec<u64>,
}

impl SimCounters {
    /// Counters for `callers` caller threads and `classes` call classes.
    #[must_use]
    pub fn new(callers: usize, classes: usize) -> Self {
        SimCounters {
            ops_per_caller: vec![0; callers],
            ops_per_class: vec![0; classes],
            callers_live: callers,
            ..SimCounters::default()
        }
    }

    /// Record one completed ocall.
    pub fn record_call(&mut self, caller: usize, class: usize, path: switchless_core::CallPath) {
        match path {
            switchless_core::CallPath::Switchless => self.switchless += 1,
            switchless_core::CallPath::Fallback => self.fallback += 1,
            switchless_core::CallPath::Regular => self.regular += 1,
        }
        if caller < self.ops_per_caller.len() {
            self.ops_per_caller[caller] += 1;
        }
        if class < self.ops_per_class.len() {
            self.ops_per_class[class] += 1;
        }
    }

    /// Total completed ocalls.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.switchless + self.fallback + self.regular
    }

    /// Transitions paid (fallback + regular + pool reallocations).
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.fallback + self.regular + self.pool_reallocs
    }

    /// The conservation ledger `[offered, completed, shed, abandoned,
    /// refused]` — the row the deterministic suites pin exactly, so a
    /// model change that is deterministic but different fails a test.
    #[must_use]
    pub fn ledger(&self) -> [u64; 5] {
        [
            self.offered,
            self.total_calls(),
            self.ops_shed,
            self.ops_abandoned,
            self.refused_non_idempotent,
        ]
    }

    /// Exact conservation: every offered call either completed on some
    /// path, was shed by a deadline, was abandoned un-issued, or was
    /// refused by post-crash reconciliation — nothing lost, nothing
    /// double-counted.
    #[must_use]
    pub fn conserves(&self) -> bool {
        let [offered, outcomes @ ..] = self.ledger();
        offered == outcomes.iter().sum::<u64>()
    }

    /// Goodput as a fraction of offered load (1.0 when nothing was
    /// offered — an idle generator is not failing).
    #[must_use]
    pub fn goodput_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.total_calls() as f64 / self.offered as f64
    }

    /// Record one open-loop sojourn (arrival → completion) in the
    /// log-linear histogram.
    pub fn record_sojourn(&mut self, cycles: u64) {
        let bucket = zc_telemetry::quantile::bucket_index(cycles);
        if self.sojourn_hist.len() <= bucket {
            self.sojourn_hist.resize(bucket + 1, 0);
        }
        self.sojourn_hist[bucket] += 1;
    }

    /// Upper bound (cycles) of the histogram bucket containing the
    /// `q`-quantile sojourn (`q` in 0..=100), or 0 with no samples.
    /// Log-linear buckets make this exact to within 25% — tight enough
    /// for "p99 within 2× of baseline" isolation gates, which log₂
    /// buckets (factor-of-two error) could not support.
    #[must_use]
    pub fn sojourn_quantile_cycles(&self, q: u32) -> u64 {
        let total: u64 = self.sojourn_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (total.saturating_mul(u64::from(q.min(100))))
            .div_ceil(100)
            .max(1);
        let mut seen = 0u64;
        for (bucket, &count) in self.sojourn_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return zc_telemetry::quantile::bucket_upper(bucket);
            }
        }
        u64::MAX
    }
}

/// One timeline sample, taken by the simulation driver at a fixed virtual
/// interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Virtual time of the sample (cycles).
    pub t_cycles: u64,
    /// Cumulative completed ops per caller.
    pub ops_per_caller: Vec<u64>,
    /// Cumulative busy cycles over all simulated threads.
    pub busy_cycles: u64,
    /// Cumulative fallback count.
    pub fallbacks: u64,
    /// Cumulative switchless count.
    pub switchless: u64,
    /// Active ZC workers at sample time (0 for other mechanisms).
    pub active_workers: usize,
}

/// Timeline of samples with per-interval derived series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Samples in increasing time order.
    pub samples: Vec<Sample>,
}

impl Timeline {
    /// Per-interval throughput of `caller` in ops per second, given the
    /// modelled clock frequency.
    #[must_use]
    pub fn throughput_ops_per_sec(&self, caller: usize, freq_hz: u64) -> Vec<f64> {
        self.samples
            .windows(2)
            .map(|w| {
                let dt = (w[1].t_cycles - w[0].t_cycles) as f64 / freq_hz as f64;
                if dt <= 0.0 {
                    return 0.0;
                }
                let dops = w[1].ops_per_caller.get(caller).copied().unwrap_or(0)
                    - w[0].ops_per_caller.get(caller).copied().unwrap_or(0);
                dops as f64 / dt
            })
            .collect()
    }

    /// Per-interval machine CPU utilisation in percent for a machine with
    /// `cores` cores.
    #[must_use]
    pub fn cpu_percent(&self, cores: usize) -> Vec<f64> {
        self.samples
            .windows(2)
            .map(|w| {
                let dt = (w[1].t_cycles - w[0].t_cycles) as f64 * cores as f64;
                if dt <= 0.0 {
                    return 0.0;
                }
                let dbusy = (w[1].busy_cycles - w[0].busy_cycles) as f64;
                (dbusy / dt * 100.0).min(100.0)
            })
            .collect()
    }

    /// Interval midpoints in seconds (x-axis for the per-interval
    /// series).
    #[must_use]
    pub fn interval_midpoints_secs(&self, freq_hz: u64) -> Vec<f64> {
        self.samples
            .windows(2)
            .map(|w| (w[0].t_cycles + w[1].t_cycles) as f64 / 2.0 / freq_hz as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::CallPath;

    #[test]
    fn counters_record_by_path_and_class() {
        let mut c = SimCounters::new(2, 3);
        c.record_call(0, 1, CallPath::Switchless);
        c.record_call(1, 1, CallPath::Fallback);
        c.record_call(0, 2, CallPath::Regular);
        assert_eq!(c.switchless, 1);
        assert_eq!(c.fallback, 1);
        assert_eq!(c.regular, 1);
        assert_eq!(c.total_calls(), 3);
        assert_eq!(c.ops_per_caller, vec![2, 1]);
        assert_eq!(c.ops_per_class, vec![0, 2, 1]);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let mut c = SimCounters::new(1, 1);
        c.record_call(5, 9, CallPath::Switchless);
        assert_eq!(c.switchless, 1);
        assert_eq!(c.ops_per_caller, vec![0]);
    }

    #[test]
    fn sojourn_histogram_separates_same_octave_values() {
        // 1000 and 1900 differ by <2x; log2 buckets merged them and the
        // quantile gate saw p50 == p99. Log-linear buckets keep them
        // apart and quote an upper edge within 25% of the sample.
        let mut c = SimCounters::new(1, 1);
        for _ in 0..99 {
            c.record_sojourn(1000);
        }
        c.record_sojourn(1900);
        let p50 = c.sojourn_quantile_cycles(50);
        let p99 = c.sojourn_quantile_cycles(99);
        let p100 = c.sojourn_quantile_cycles(100);
        assert_eq!(p50, 1023, "upper edge of [896, 1024)");
        assert_eq!(p99, p50, "rank 99 of 100 still in the 1000s bucket");
        assert!(p100 > p99, "the 1900 sample lands in a higher bucket");
        assert!((1900..1900 + 1900 / 2).contains(&p100));
        // Extremes: zero samples and huge values stay in range.
        let mut z = SimCounters::new(1, 1);
        assert_eq!(z.sojourn_quantile_cycles(99), 0);
        z.record_sojourn(u64::MAX);
        assert_eq!(z.sojourn_quantile_cycles(99), u64::MAX);
    }

    #[test]
    fn transitions_include_pool_reallocs() {
        let mut c = SimCounters::new(1, 1);
        c.fallback = 2;
        c.regular = 3;
        c.pool_reallocs = 4;
        assert_eq!(c.transitions(), 9);
    }

    fn sample(t: u64, ops: u64, busy: u64) -> Sample {
        Sample {
            t_cycles: t,
            ops_per_caller: vec![ops],
            busy_cycles: busy,
            fallbacks: 0,
            switchless: 0,
            active_workers: 0,
        }
    }

    #[test]
    fn throughput_series() {
        let tl = Timeline {
            samples: vec![sample(0, 0, 0), sample(1_000, 10, 0), sample(2_000, 30, 0)],
        };
        // freq 1000 Hz -> each interval is 1 s.
        let tput = tl.throughput_ops_per_sec(0, 1_000);
        assert_eq!(tput, vec![10.0, 20.0]);
    }

    #[test]
    fn cpu_percent_series_clamped() {
        let tl = Timeline {
            samples: vec![
                sample(0, 0, 0),
                sample(1_000, 0, 500),
                sample(2_000, 0, 5_000),
            ],
        };
        let cpu = tl.cpu_percent(2);
        assert_eq!(cpu[0], 25.0); // 500 busy / 2000 capacity
        assert_eq!(cpu[1], 100.0, "overshoot clamps to 100");
    }

    #[test]
    fn empty_timeline_yields_empty_series() {
        let tl = Timeline::default();
        assert!(tl.throughput_ops_per_sec(0, 1).is_empty());
        assert!(tl.cpu_percent(1).is_empty());
        assert!(tl.interval_midpoints_secs(1).is_empty());
    }
}
