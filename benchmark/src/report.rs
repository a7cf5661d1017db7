//! One workload's report: named metrics with units, the checks that
//! passed or failed, and the host it ran on. Written as JSON for
//! `compare`, printed line by line for people, and condensed to the one
//! result line the acceptance driver reads.

use crate::host;
use crate::json::Json;
use crate::spec;
use crate::stats::Summary;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value compared (median or better quartile over segments /
    /// repeats where there are several).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Spread of the per-segment values the median was taken over.
    pub summary: Option<Summary>,
    /// A percentile: the samples beyond it in the median segment (a
    /// percentile with under ten is the host's tail, not the program's).
    pub samples_beyond: Option<usize>,
}

impl Metric {
    /// A single measured number.
    #[must_use]
    pub fn single(value: f64, unit: &'static str) -> Metric {
        Metric {
            value,
            unit,
            summary: None,
            samples_beyond: None,
        }
    }

    /// The median of per-segment values, with their quartiles kept
    /// (`None` when there are no values).
    #[must_use]
    pub fn median_of(values: &[f64], unit: &'static str) -> Option<Metric> {
        Summary::of(values).map(|s| Metric {
            value: s.median,
            unit,
            summary: Some(s),
            samples_beyond: None,
        })
    }

    /// The quartile on the good side of per-segment values (the upper
    /// one of a rate, the lower one of a cost), with all quartiles kept.
    /// Everything the host does to a segment makes it slower, never
    /// faster, so the better quartile sits closer to the program's own
    /// speed than the median and repeats better from run to run (README
    /// "Calibration").
    #[must_use]
    pub fn better_quartile_of(
        values: &[f64],
        unit: &'static str,
        better: spec::Better,
    ) -> Option<Metric> {
        Summary::of(values).map(|s| Metric {
            value: match better {
                spec::Better::Higher => s.q3,
                spec::Better::Lower => s.q1,
            },
            unit,
            summary: Some(s),
            samples_beyond: None,
        })
    }

    /// The best of per-repeat values (the largest rate, the smallest
    /// cost), with the quartiles kept. For repeats of one fixed piece of
    /// deterministic work: the host only ever adds time to a repeat, so
    /// the best one is the closest to the program's own speed, and it
    /// repeats from run to run where the median follows the neighbours'
    /// load (README "Calibration").
    #[must_use]
    pub fn best_of(values: &[f64], unit: &'static str, better: spec::Better) -> Option<Metric> {
        Summary::of(values).map(|s| Metric {
            value: match better {
                spec::Better::Higher => s.max,
                spec::Better::Lower => s.min,
            },
            unit,
            summary: Some(s),
            samples_beyond: None,
        })
    }

    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("value", self.value)
            .with("unit", self.unit);
        if let Some(s) = &self.summary {
            j.set("n", s.n);
            j.set("min", s.min);
            j.set("q1", s.q1);
            j.set("median", s.median);
            j.set("q3", s.q3);
            j.set("max", s.max);
        }
        if let Some(n) = self.samples_beyond {
            j.set("samples_beyond", n);
        }
        j
    }
}

/// A correctness or conservation check the run performed on itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Metrics and checks gathered while a workload runs.
#[derive(Debug, Default)]
pub struct Findings {
    /// The run records spans (and reads the runtimes' phase profiler).
    pub traced: bool,
    /// Per-layer metrics, in the order found.
    pub per_layer: Vec<(String, Metric)>,
    /// Checks, in the order made.
    pub checks: Vec<Check>,
    /// Traced run: whole-call time the runtime's own profiler summed
    /// over the window, for `benchmark.span.phase_sum_ratio`.
    pub profiled_call_ns: Option<f64>,
}

impl Findings {
    /// Record a per-layer metric; the unit comes from [`spec::per_layer`].
    ///
    /// # Panics
    ///
    /// On a name the spec does not list: a typo in this crate.
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = spec::per_layer_unit(name).unwrap_or_else(|| panic!("unlisted metric {name}"));
        self.per_layer
            .push((name.to_string(), Metric::single(value, unit)));
    }

    /// Fold in the findings of a run's instances: a metric reads the
    /// median over the instances that reported it, a check holds when it
    /// held on every one of them (the detail is the first failure's, or
    /// the last instance's).
    pub fn absorb_instances(&mut self, instances: Vec<Findings>) {
        let mut metrics: Vec<(String, &'static str, Vec<f64>)> = Vec::new();
        let mut checks: Vec<Check> = Vec::new();
        for f in instances {
            for (name, m) in f.per_layer {
                match metrics.iter_mut().find(|(n, ..)| *n == name) {
                    Some((.., values)) => values.push(m.value),
                    None => metrics.push((name, m.unit, vec![m.value])),
                }
            }
            for c in f.checks {
                match checks.iter_mut().find(|seen| seen.name == c.name) {
                    Some(seen) if seen.ok => *seen = c,
                    Some(_) => {}
                    None => checks.push(c),
                }
            }
        }
        for (name, unit, values) in metrics {
            let value = crate::stats::median(&values).expect("pushed with a value");
            self.per_layer.push((name, Metric::single(value, unit)));
        }
        self.checks.extend(checks);
    }

    /// Record a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Recorded spans (per-layer run) or not (end-to-end run).
    pub traced: bool,
    /// Smoke mode: numbers are flagged and never compared.
    pub quick: bool,
    /// Workload seed.
    pub seed: u64,
    /// Timed segments (real-thread) or repeats (DES).
    pub segments: usize,
    /// Ops issued in the timed window.
    pub attempted: u64,
    /// Ops that errored, were refused, or failed their output check.
    pub failed: u64,
    /// The nine end-to-end metrics this workload reports.
    pub end_to_end: Vec<(String, Metric)>,
    /// Per-layer metrics.
    pub per_layer: Vec<(String, Metric)>,
    /// Self-checks.
    pub checks: Vec<Check>,
    /// `host.loadavg_start` etc. at the start of the run.
    pub host: Json,
}

/// The identity block every report carries.
#[must_use]
pub fn host_json() -> Json {
    Json::obj()
        .with("git_commit", host::git_commit())
        .with("rustc", host::rustc_version())
        .with("nproc", host::nproc())
        .with("cpu_model", host::cpu_model())
        .with("loadavg_start", host::loadavg())
}

impl Report {
    /// `true` when every op was right and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Value of a metric by name, end-to-end or per-layer.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map(|(_, m)| m.value)
    }

    /// Full JSON form (what `results.json` holds per workload).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let metrics = |list: &[(String, Metric)]| {
            let mut j = Json::obj();
            for (name, m) in list {
                j.set(name, m.to_json());
            }
            j
        };
        let checks: Vec<Json> = self
            .checks
            .iter()
            .map(|c| {
                Json::obj()
                    .with("name", c.name.as_str())
                    .with("ok", c.ok)
                    .with("detail", c.detail.as_str())
            })
            .collect();
        Json::obj()
            .with("schema", spec::SCHEMA)
            .with("workload", self.workload.as_str())
            .with("mode", if self.quick { "quick" } else { "full" })
            .with("traced", self.traced)
            .with("seed", self.seed)
            .with("segments", self.segments)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("correct", self.correct())
            .with("host", self.host.clone())
            .with("end_to_end", metrics(&self.end_to_end))
            .with("per_layer", metrics(&self.per_layer))
            .with("checks", checks)
    }

    /// Every metric by name with its unit, then the checks.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ({}{}, seed {}, {} segments) ==",
            self.workload,
            if self.quick {
                "QUICK - not comparable"
            } else {
                "full"
            },
            if self.traced { ", traced" } else { "" },
            self.seed,
            self.segments
        );
        for (name, m) in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = write!(out, "{name:<52} {:>16.4} {}", m.value, m.unit);
            if let Some(s) = &m.summary {
                let _ = write!(out, "   [q1 {:.4}, q3 {:.4}, n {}]", s.q1, s.q3, s.n);
            }
            out.push('\n');
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {:<46} {} ({})",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        out
    }

    /// The acceptance driver's result line: with tracing off every
    /// driver end-to-end metric, with tracing on every per-layer metric
    /// (0 for one this workload does not exercise).
    #[must_use]
    pub fn driver_line(&self) -> String {
        let mut metrics = Json::obj();
        if self.traced {
            for (name, unit) in spec::per_layer() {
                let value = self.value(name).unwrap_or(0.0);
                metrics.set(name, Json::obj().with("value", value).with("unit", *unit));
            }
        } else {
            for name in spec::DRIVER_END_TO_END {
                let unit = spec::end_to_end(name).map_or("", |m| m.unit);
                // A metric this run could not produce is a failed run,
                // not a silent zero.
                let value = self.value(name).unwrap_or(f64::NAN);
                metrics.set(name, Json::obj().with("value", value).with("unit", unit));
            }
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(traced: bool) -> Report {
        let mut f = Findings::default();
        f.layer("host.nproc", 2.0);
        f.check("conserved", true, "1 == 1".into());
        Report {
            workload: "zc_nop".into(),
            traced,
            quick: false,
            seed: 3,
            segments: 10,
            attempted: 1000,
            failed: 0,
            end_to_end: vec![
                (
                    "ops_per_s".into(),
                    Metric::median_of(&[9.0, 10.0, 11.0], "1/s").unwrap(),
                ),
                ("op_ns_p50".into(), Metric::single(1200.0, "ns")),
                ("op_ns_p99".into(), Metric::single(4000.5, "ns")),
                ("cpu_ns_per_op".into(), Metric::single(2400.0, "ns")),
                ("peak_rss_mb".into(), Metric::single(5.5, "MB")),
                ("setup_s".into(), Metric::single(0.2, "s")),
                ("failed_share".into(), Metric::single(0.0, "ratio")),
            ],
            per_layer: f.per_layer,
            checks: f.checks,
            host: host_json(),
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample(false).driver_line();
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = j
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, spec::DRIVER_END_TO_END);
        assert_eq!(
            j.get("metrics")
                .unwrap()
                .get("ops_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );

        let traced = Json::parse(&sample(true).driver_line()).unwrap();
        let metrics = traced.get("metrics").unwrap();
        assert_eq!(metrics.entries().len(), spec::per_layer().len());
        assert_eq!(
            metrics
                .get("host.nproc")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        // Re-homed end-to-end metric is found; an unexercised layer reads 0.
        assert_eq!(
            metrics
                .get("failed_share")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(
            metrics
                .get("zc-des.arrival.gen_ns")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn robust_statistics_pick_the_good_side() {
        // Nine repeats the host slowed by varying amounts and one it left
        // alone: the best one is the program's, the quartiles are kept.
        let ns = [
            455.0, 700.0, 520.0, 480.0, 900.0, 610.0, 470.0, 530.0, 650.0, 490.0,
        ];
        let best = Metric::best_of(&ns, "ns", spec::Better::Lower).unwrap();
        assert_eq!(best.value, 455.0);
        assert_eq!(best.summary.unwrap().median, 525.0);
        let rate = Metric::best_of(&[1.0, 3.0, 2.0], "1/s", spec::Better::Higher).unwrap();
        assert_eq!(rate.value, 3.0);
        let quartile = Metric::better_quartile_of(&ns, "ns", spec::Better::Lower).unwrap();
        assert_eq!(quartile.value, quartile.summary.unwrap().q1);
        assert!(Metric::best_of(&[], "ns", spec::Better::Lower).is_none());
    }

    #[test]
    fn report_json_round_trips_and_flags_a_failed_check() {
        let mut r = sample(false);
        let j = Json::parse(&r.to_json().pretty()).unwrap();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(spec::SCHEMA));
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let ops = j.get("end_to_end").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("q1").and_then(Json::as_f64), Some(9.0));
        assert_eq!(ops.get("q3").and_then(Json::as_f64), Some(11.0));
        r.checks[0].ok = false;
        assert!(!r.correct());
        assert!(r.render().contains("FAILED"));
    }
}
