//! `compare A/results.json B/results.json`: one row per (workload,
//! end-to-end metric) with both values, the relative change against its
//! base, the bound, and a verdict. Any `worse` makes the command fail.

use crate::json::Json;
use crate::spec::{self, Better, Bound};
use std::fmt::Write as _;

/// How B reads against A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound, and the segments agree tightly enough to say so.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound, but the spread inside either run is wider than
    /// the bound: not shown to be unchanged.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric value with the spread of the segments behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Median over segments (or the single value).
    pub value: f64,
    /// Inter-quartile range of the segments as a share of the median (0
    /// for a single value).
    pub iqr_ratio: f64,
}

/// Relative change of `b` against base `a`, signed so that positive is
/// worse whatever the metric's direction.
#[must_use]
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge one metric.
#[must_use]
pub fn judge(a: Reading, b: Reading, better: Better, bound: Bound) -> Verdict {
    let change = worsening(a.value, b.value, better);
    match bound {
        Bound::Exact => {
            if a.value == b.value {
                Verdict::Same
            } else {
                Verdict::Worse
            }
        }
        Bound::NoRise => {
            if change > 0.0 {
                Verdict::Worse
            } else if change < 0.0 {
                Verdict::Better
            } else {
                Verdict::Same
            }
        }
        Bound::RelativeWithFloor(_, floor) if a.value < floor && b.value < floor => Verdict::Same,
        Bound::Relative(limit) | Bound::RelativeWithFloor(limit, _) => {
            if change > limit {
                Verdict::Worse
            } else if change < -limit {
                Verdict::Better
            } else if a.iqr_ratio.max(b.iqr_ratio) > limit {
                Verdict::Unresolved
            } else {
                Verdict::Same
            }
        }
    }
}

fn reading(metric: &Json) -> Option<Reading> {
    let value = metric.get("value")?.as_f64()?;
    let iqr_ratio = match (
        metric.get("q1").and_then(Json::as_f64),
        metric.get("q3").and_then(Json::as_f64),
    ) {
        (Some(q1), Some(q3)) if value != 0.0 => (q3 - q1) / value.abs(),
        _ => 0.0,
    };
    Some(Reading { value, iqr_ratio })
}

fn bound_text(bound: Bound) -> String {
    match bound {
        Bound::Relative(b) => format!("{b:.2}"),
        Bound::RelativeWithFloor(b, floor) => format!("{b:.2} (floor {floor})"),
        Bound::NoRise => "no rise".to_string(),
        Bound::Exact => "exact".to_string(),
    }
}

/// The comparison table and whether any row is `worse`.
///
/// # Errors
///
/// A report that is not `zc-benchmark/1`, is a quick run, or lacks a
/// workload the other has.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (side, doc) in [("A", a), ("B", b)] {
        if doc.get("schema").and_then(Json::as_str) != Some(spec::SCHEMA) {
            return Err(format!("{side} is not a {} results file", spec::SCHEMA));
        }
        if doc.get("mode").and_then(Json::as_str) != Some("full") {
            return Err(format!(
                "{side} is a quick run; quick numbers are never compared"
            ));
        }
    }
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<20} {:<24} {:>16} {:>16} {:>9}  {:<18} verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut any_worse = false;
    let mut notes = String::new();
    for w in &spec::WORKLOADS {
        let side = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            return Err(format!("workload {} is missing from one side", w.name));
        };
        for (name, report) in [("A", &wa), ("B", &wb)] {
            let disturbed = report
                .get("per_layer")
                .and_then(|l| l.get("host.disturbed_segments"))
                .and_then(reading)
                .map_or(0.0, |r| r.value);
            let segments = report.get("segments").and_then(Json::as_f64).unwrap_or(0.0);
            if disturbed * 2.0 > segments {
                let _ = writeln!(
                    notes,
                    "note: {name} {}: the host disturbed {disturbed} of {segments} segments; its numbers are the host's, not the program's",
                    w.name
                );
            }
        }
        for m in &spec::END_TO_END {
            let metric = |doc: &Json| {
                doc.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(reading)
            };
            let (ra, rb) = match (metric(&wa), metric(&wb)) {
                (Some(ra), Some(rb)) => (ra, rb),
                // A workload omits the metrics not marked for it.
                (None, None) => continue,
                _ => return Err(format!("{}: {} is on one side only", w.name, m.name)),
            };
            let verdict = judge(ra, rb, m.better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            // Signed as measured (B against base A), not as "worsening".
            let change = if ra.value == 0.0 {
                0.0
            } else {
                (rb.value - ra.value) / ra.value.abs()
            };
            let _ = writeln!(
                table,
                "{:<20} {:<24} {:>16.4} {:>16.4} {:>+8.2}%  {:<18} {}",
                w.name,
                format!("{} [{}]", m.name, m.unit),
                ra.value,
                rb.value,
                change * 100.0,
                bound_text(m.bound),
                verdict.name()
            );
        }
    }
    table.push_str(&notes);
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64) -> Reading {
        Reading {
            value,
            iqr_ratio: 0.01,
        }
    }

    #[test]
    fn verdicts_at_and_around_a_bound() {
        let bound = Bound::Relative(0.10);
        // Lower is better: +10% exactly is still within the bound.
        assert_eq!(
            judge(r(1000.0), r(1100.0), Better::Lower, bound),
            Verdict::Same
        );
        assert_eq!(
            judge(r(1000.0), r(1101.0), Better::Lower, bound),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(1000.0), r(900.0), Better::Lower, bound),
            Verdict::Same
        );
        assert_eq!(
            judge(r(1000.0), r(899.0), Better::Lower, bound),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            judge(r(1000.0), r(899.0), Better::Higher, bound),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(1000.0), r(900.0), Better::Higher, bound),
            Verdict::Same
        );
        assert_eq!(
            judge(r(1000.0), r(1101.0), Better::Higher, bound),
            Verdict::Better
        );
        // Within the bound but the segments spread wider than it.
        let noisy = Reading {
            value: 1050.0,
            iqr_ratio: 0.2,
        };
        assert_eq!(
            judge(r(1000.0), noisy, Better::Lower, bound),
            Verdict::Unresolved
        );
        // Beyond the bound stays worse however noisy.
        let noisy_bad = Reading {
            value: 1300.0,
            iqr_ratio: 0.2,
        };
        assert_eq!(
            judge(r(1000.0), noisy_bad, Better::Lower, bound),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_no_rise_and_floor_rules() {
        assert_eq!(
            judge(r(8180.0), r(8180.0), Better::Lower, Bound::Exact),
            Verdict::Same
        );
        assert_eq!(
            judge(r(8180.0), r(8179.0), Better::Lower, Bound::Exact),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(0.0), r(0.0), Better::Lower, Bound::NoRise),
            Verdict::Same
        );
        assert_eq!(
            judge(r(0.0), r(1e-6), Better::Lower, Bound::NoRise),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(1e-3), r(0.0), Better::Lower, Bound::NoRise),
            Verdict::Better
        );
        let setup = Bound::RelativeWithFloor(0.25, 0.05);
        assert_eq!(
            judge(r(0.010), r(0.030), Better::Lower, setup),
            Verdict::Same
        );
        assert_eq!(
            judge(r(0.200), r(0.251), Better::Lower, setup),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(0.200), r(0.250), Better::Lower, setup),
            Verdict::Same
        );
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert!(worsening(0.0, 1.0, Better::Lower).is_infinite());
    }

    fn results(ops_per_s: f64, makespan: Option<f64>) -> Json {
        let mut workloads = Json::obj();
        for w in &spec::WORKLOADS {
            let mut e2e = Json::obj().with(
                "ops_per_s",
                Json::obj()
                    .with("value", ops_per_s)
                    .with("q1", ops_per_s * 0.99)
                    .with("q3", ops_per_s * 1.01),
            );
            if let (Some(m), spec::Kind::Des) = (makespan, w.kind) {
                e2e.set("sim_makespan_cycles", Json::obj().with("value", m));
            }
            workloads.set(w.name, Json::obj().with("end_to_end", e2e));
        }
        Json::obj()
            .with("schema", spec::SCHEMA)
            .with("mode", "full")
            .with("workloads", workloads)
    }

    #[test]
    fn table_has_a_row_per_reported_metric_and_flags_worse() {
        let a = results(1000.0, Some(5.0));
        let (table, worse) = compare(&a, &results(1040.0, Some(5.0))).unwrap();
        assert!(!worse);
        // Header + 7 ops_per_s rows + 2 makespan rows.
        assert_eq!(table.lines().count(), 1 + 7 + 2, "{table}");
        assert!(table.contains("+4.00%") && table.contains("same"));
        let (table, worse) = compare(&a, &results(740.0, Some(5.0))).unwrap();
        assert!(worse && table.contains("worse"));
        let (_, worse) = compare(&a, &results(1000.0, Some(6.0))).unwrap();
        assert!(worse, "a simulated statistic moved");
        assert!(compare(&a, &results(1000.0, None))
            .unwrap_err()
            .contains("one side only"));
        // A run the interference guard flagged is pointed out.
        let mut workloads = a.get("workloads").unwrap().clone();
        let stormy = workloads
            .get("zc_nop")
            .unwrap()
            .clone()
            .with("segments", 20u64)
            .with(
                "per_layer",
                Json::obj().with("host.disturbed_segments", Json::obj().with("value", 17u64)),
            );
        workloads.set("zc_nop", stormy);
        let (table, _) = compare(&a, &a.clone().with("workloads", workloads)).unwrap();
        assert!(
            table.contains("note: B zc_nop: the host disturbed 17 of 20 segments"),
            "{table}"
        );
        let quick = results(1000.0, None).with("mode", "quick");
        assert!(compare(&a, &quick).unwrap_err().contains("quick"));
    }
}
