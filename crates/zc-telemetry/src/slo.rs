//! SLO reporting: per-path latency percentiles, goodput and
//! wasted-cycle ratios derived from a [`crate::profile::ProfileSnapshot`].
//!
//! One schema serves every producer — DES runs and ad-hoc runtime
//! dumps emit the same shape, so before/after numbers across PRs line
//! up field-for-field. Two
//! exporters: deterministic JSONL (hand-rolled, fixed-precision floats,
//! byte-identical for identical inputs — pinned by CI) and a
//! human-readable table via `Display`.

use crate::export::json_escape;
use crate::profile::{PathSnapshot, Phase, ProfileSnapshot};
use std::fmt;
use switchless_core::CallPath;

/// Fixed-precision float formatting so exports are byte-stable across
/// runs and platforms (no shortest-repr jitter).
#[must_use]
pub fn fmt_f64(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "0.0".to_string()
    }
}

/// Per-phase SLO line: mean and percentile cycles for one phase of one
/// call path.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSlo {
    /// Phase name (`reserve`, `copy_in`, ...).
    pub phase: &'static str,
    /// Observations.
    pub count: u64,
    /// Total cycles charged to this phase.
    pub sum_cycles: u64,
    /// Mean cycles per call.
    pub mean_cycles: f64,
    /// Median cycles (conservative upper bucket edge).
    pub p50: u64,
    /// 99th percentile cycles.
    pub p99: u64,
    /// 99.9th percentile cycles.
    pub p999: u64,
}

/// Per-path SLO summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSlo {
    /// Which call path.
    pub path: CallPath,
    /// Completed calls on this path.
    pub calls: u64,
    /// Sum of whole-call latencies.
    pub total_cycles: u64,
    /// Sum of the six per-phase sums; conservation requires this to be
    /// within 1% of `total_cycles`.
    pub phase_sum_cycles: u64,
    /// Calls per second, from `calls`, the report's `elapsed_cycles`
    /// and `freq_hz`.
    pub goodput_cps: f64,
    /// Fraction of call cycles *not* spent executing the host function:
    /// `1 - execute_sum / total_cycles`. This is the per-call analogue
    /// of the paper's wasted-cycles objective `U`.
    pub wasted_ratio: f64,
    /// Mean whole-call latency in cycles.
    pub mean_cycles: f64,
    /// Median whole-call latency (upper bucket edge).
    pub p50: u64,
    /// 99th percentile whole-call latency.
    pub p99: u64,
    /// 99.9th percentile whole-call latency.
    pub p999: u64,
    /// Per-phase breakdown in pipeline order.
    pub phases: Vec<PhaseSlo>,
}

impl PathSlo {
    fn from_snapshot(snap: &PathSnapshot, freq_hz: u64, elapsed_cycles: u64) -> PathSlo {
        let calls = snap.total.count;
        let total_cycles = snap.total.sum;
        let q = snap.total.quantiles();
        let exec_sum = snap.phases[Phase::Execute.index()].sum;
        let wasted_ratio = if total_cycles == 0 {
            0.0
        } else {
            (1.0 - exec_sum as f64 / total_cycles as f64).clamp(0.0, 1.0)
        };
        let goodput_cps = if elapsed_cycles == 0 {
            0.0
        } else {
            calls as f64 * freq_hz as f64 / elapsed_cycles as f64
        };
        let phases = Phase::ALL
            .iter()
            .map(|&ph| {
                let s = &snap.phases[ph.index()];
                let pq = s.quantiles();
                PhaseSlo {
                    phase: ph.name(),
                    count: s.count,
                    sum_cycles: s.sum,
                    mean_cycles: s.mean(),
                    p50: pq.p50,
                    p99: pq.p99,
                    p999: pq.p999,
                }
            })
            .collect();
        PathSlo {
            path: snap.path,
            calls,
            total_cycles,
            phase_sum_cycles: snap.phase_sum(),
            goodput_cps,
            wasted_ratio,
            mean_cycles: snap.total.mean(),
            p50: q.p50,
            p99: q.p99,
            p999: q.p999,
            phases,
        }
    }

    /// Relative conservation error `|phase_sum - total| / total`
    /// (0.0 for an idle path).
    #[must_use]
    pub fn conservation_error(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            (self.phase_sum_cycles as f64 - self.total_cycles as f64).abs()
                / self.total_cycles as f64
        }
    }

    fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"path\":\"{}\",\"calls\":{},\"total_cycles\":{},\"phase_sum_cycles\":{},\
             \"goodput_cps\":{},\"wasted_ratio\":{},\"mean_cycles\":{},\
             \"p50\":{},\"p99\":{},\"p999\":{},\"phases\":[",
            self.path.name(),
            self.calls,
            self.total_cycles,
            self.phase_sum_cycles,
            fmt_f64(self.goodput_cps, 3),
            fmt_f64(self.wasted_ratio, 6),
            fmt_f64(self.mean_cycles, 3),
            self.p50,
            self.p99,
            self.p999,
        ));
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"phase\":\"{}\",\"count\":{},\"sum_cycles\":{},\"mean_cycles\":{},\
                 \"p50\":{},\"p99\":{},\"p999\":{}}}",
                p.phase,
                p.count,
                p.sum_cycles,
                fmt_f64(p.mean_cycles, 3),
                p.p50,
                p.p99,
                p.p999,
            ));
        }
        s.push_str("]}");
        s
    }
}

/// The SLO report: one [`PathSlo`] per call path that saw traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Producer label (bench scenario / sim name).
    pub label: String,
    /// Cycle frequency used to convert cycles to seconds.
    pub freq_hz: u64,
    /// Run length in cycles (for goodput).
    pub elapsed_cycles: u64,
    /// Per-path summaries in Switchless/Fallback/Regular order,
    /// paths with zero calls omitted.
    pub paths: Vec<PathSlo>,
}

impl SloReport {
    /// Build a report from a profiler snapshot. Paths with zero calls
    /// are omitted.
    #[must_use]
    pub fn from_profile(
        label: &str,
        snap: &ProfileSnapshot,
        freq_hz: u64,
        elapsed_cycles: u64,
    ) -> SloReport {
        SloReport {
            label: label.to_string(),
            freq_hz,
            elapsed_cycles,
            paths: snap
                .paths
                .iter()
                .filter(|p| p.total.count > 0)
                .map(|p| PathSlo::from_snapshot(p, freq_hz, elapsed_cycles))
                .collect(),
        }
    }

    /// Summary for one path, if it saw traffic.
    #[must_use]
    pub fn path(&self, path: CallPath) -> Option<&PathSlo> {
        self.paths.iter().find(|p| p.path == path)
    }

    /// Worst per-path conservation error (0.0 for an empty report).
    #[must_use]
    pub fn max_conservation_error(&self) -> f64 {
        self.paths
            .iter()
            .map(PathSlo::conservation_error)
            .fold(0.0, f64::max)
    }

    /// Single-object JSON document (`"schema":"slo_report_v1"`).
    /// Deterministic for identical inputs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"schema\":\"slo_report_v1\",\"label\":\"{}\",\"freq_hz\":{},\
             \"elapsed_cycles\":{},\"max_conservation_error\":{},\"paths\":[",
            json_escape(&self.label),
            self.freq_hz,
            self.elapsed_cycles,
            fmt_f64(self.max_conservation_error(), 6),
        ));
        for (i, p) in self.paths.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&p.to_json());
        }
        s.push_str("]}");
        s
    }

    /// JSONL: one header line, then one line per path. Deterministic
    /// for identical inputs — the determinism suite pins this
    /// byte-for-byte across same-seed virtual-clock runs.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"kind\":\"slo_report\",\"label\":\"{}\",\"freq_hz\":{},\
             \"elapsed_cycles\":{},\"paths\":{}}}\n",
            json_escape(&self.label),
            self.freq_hz,
            self.elapsed_cycles,
            self.paths.len(),
        ));
        for p in &self.paths {
            s.push_str(&p.to_json());
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for SloReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SLO report '{}' ({} cycles @ {} Hz)",
            self.label, self.elapsed_cycles, self.freq_hz
        )?;
        if self.paths.is_empty() {
            return writeln!(f, "  (no calls recorded)");
        }
        for p in &self.paths {
            writeln!(
                f,
                "  {:<10} calls={:<8} goodput={:>12}/s mean={:>10} p50={:<8} p99={:<8} p99.9={:<8} wasted={}",
                p.path.name(),
                p.calls,
                fmt_f64(p.goodput_cps, 0),
                fmt_f64(p.mean_cycles, 0),
                p.p50,
                p.p99,
                p.p999,
                fmt_f64(p.wasted_ratio, 3),
            )?;
            for ph in &p.phases {
                if ph.sum_cycles == 0 && ph.count == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "    {:<9} mean={:>10} p50={:<8} p99={:<8} p99.9={:<8} sum={}",
                    ph.phase,
                    fmt_f64(ph.mean_cycles, 1),
                    ph.p50,
                    ph.p99,
                    ph.p999,
                    ph.sum_cycles,
                )?;
            }
            let err = p.conservation_error();
            writeln!(
                f,
                "    conservation: phase_sum={} total={} (err {})",
                p.phase_sum_cycles,
                p.total_cycles,
                fmt_f64(err, 6),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CallPhaseProfiler;

    fn sample_report() -> SloReport {
        let prof = CallPhaseProfiler::new();
        for _ in 0..100 {
            prof.record_call(CallPath::Switchless, 350, &[10, 20, 5, 50, 250, 15]);
        }
        for _ in 0..10 {
            prof.record_call(CallPath::Fallback, 14_000, &[0, 100, 13_000, 0, 800, 100]);
        }
        SloReport::from_profile("unit", &prof.snapshot(), 3_800_000_000, 38_000_000)
    }

    #[test]
    fn report_summarises_paths_and_conserves() {
        let r = sample_report();
        assert_eq!(r.paths.len(), 2, "regular path idle, omitted");
        let zc = r.path(CallPath::Switchless).unwrap();
        assert_eq!(zc.calls, 100);
        assert_eq!(zc.total_cycles, 35_000);
        assert_eq!(zc.phase_sum_cycles, 35_000);
        assert!(zc.conservation_error() == 0.0);
        assert!((zc.wasted_ratio - (1.0 - 25_000.0 / 35_000.0)).abs() < 1e-9);
        // 100 calls in 38M cycles at 3.8GHz = 10ms -> 10_000 calls/s.
        assert!((zc.goodput_cps - 10_000.0).abs() < 1e-6);
        assert!(r.max_conservation_error() < 0.01);
        assert!(r.path(CallPath::Regular).is_none());
    }

    #[test]
    fn exporters_are_deterministic_and_well_formed() {
        let a = sample_report();
        let b = sample_report();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        let json = a.to_json();
        assert!(json.starts_with("{\"schema\":\"slo_report_v1\""));
        assert!(json.contains("\"path\":\"switchless\""));
        assert!(json.contains("\"path\":\"fallback\""));
        assert!(json.contains("\"phase\":\"reserve\""));
        assert!(json.contains("\"phase\":\"copy_out\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let jsonl = a.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3, "header + two paths");
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        let human = a.to_string();
        assert!(human.contains("switchless"));
        assert!(human.contains("conservation"));
    }

    #[test]
    fn empty_profile_yields_empty_report() {
        let prof = CallPhaseProfiler::new();
        let r = SloReport::from_profile("empty", &prof.snapshot(), 1, 0);
        assert!(r.paths.is_empty());
        assert_eq!(r.max_conservation_error(), 0.0);
        assert!(r.to_string().contains("no calls"));
        assert_eq!(r.to_jsonl().lines().count(), 1);
    }
}
