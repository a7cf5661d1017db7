//! One run of one workload, from set-up to report.

use crate::des;
use crate::harness::{self, Instance};
use crate::host;
use crate::layers;
use crate::real::{self, Ctx};
use crate::report::{host_json, Findings, Metric, Report};
use crate::spans::{self, SpanLog};
use crate::spec::{self, Kind};
use crate::stats;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use switchless_core::SplitMix64;

/// Instances of the system a real-thread run sets up, warms up and
/// measures one after another. The timed segments of all of them are
/// pooled, so the latency level one instance happened to land on does not
/// set the others, and `setup_s` is the lower quartile of their set-up
/// times: a set-up is a tenth of a second of thread spawns and mean-rate
/// warm-up, which a busy host stretches by half (the median follows that)
/// and a stretch of close vCPUs halves (the minimum follows that).
const INSTANCES: usize = 10;

/// Spans of one workload written to the trace file (about; whole ops).
const TRACE_FILE_SPANS: usize = 60_000;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed.
    pub seed: u64,
    /// Timed seconds: one-second segments for real-thread workloads, a
    /// time budget for DES repeats.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Smoke mode (3 segments / 1 repeat): flagged, never compared.
    pub quick: bool,
    /// Traced run: also run the single-threaded layer probes afterwards,
    /// so the driver's result line carries every per-layer metric.
    pub probes: bool,
    /// Traced run: write the first spans of the run here as JSON lines.
    pub trace_out: Option<PathBuf>,
}

/// Run `workload`.
///
/// # Errors
///
/// An unknown workload name, too few CPUs for a real-thread workload, or
/// an unwritable trace file.
pub fn run(workload: &str, opts: &RunOpts) -> Result<Report, String> {
    let spec = spec::workload(workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload:?}; one of {}", names.join(", "))
    })?;
    let host = host_json();
    let mut out = Findings {
        traced: opts.traced,
        ..Findings::default()
    };
    out.layer("host.nproc", host::nproc() as f64);
    out.layer("host.loadavg_start", host::loadavg());
    out.layer("benchmark.timer_ns", layers::timer_ns());
    let log = opts.traced.then(SpanLog::new);

    let (mut report, profiled_call_ns) = match spec.kind {
        Kind::RealThread => run_real(spec.name, opts, log.as_ref(), out)?,
        Kind::Des => (des::run(spec.name, opts, log.as_ref(), out), None),
    };
    report.host = host;

    if let Some(log) = &log {
        let (caller, host_spans) = log.take();
        let des = spec.kind == Kind::Des;
        let s = spans::summarise(&caller, &host_spans, !des);
        let mut f = Findings::default();
        f.check(
            "every_op_has_its_spans",
            spans::fully_covered(&s) && s.roots == if des { report.segments as u64 } else { report.attempted },
            format!(
                "{} roots for {} ops, {} children, {} host_fns; {} roots without child, {} orphans, {} unmatched host_fns",
                s.roots,
                if des { report.segments as u64 } else { report.attempted },
                s.children,
                s.host_fns,
                s.roots_without_child,
                s.orphan_children,
                s.unmatched_host_fns
            ),
        );
        if !des && s.children > 0 {
            let layer = spec::runtime_layer(spec.name);
            f.layer(
                &format!("{layer}.dispatch_self_ns_mean"),
                s.child_self_ns as f64 / s.children as f64,
            );
            if spec.name == "kissdb_mixed" {
                f.layer(
                    "zc-workloads.self_ns_mean",
                    s.root_self_ns as f64 / s.roots as f64,
                );
            }
            if let Some(profiled) = profiled_call_ns {
                f.layer(
                    "benchmark.span.phase_sum_ratio",
                    profiled / s.child_ns as f64,
                );
            }
        }
        report.per_layer.extend(f.per_layer);
        report.checks.extend(f.checks);
        if let Some(path) = &opts.trace_out {
            let text = spans::to_jsonl(
                spec.name,
                &caller,
                &host_spans,
                TRACE_FILE_SPANS,
                &des::MECHANISMS,
            );
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    if opts.traced && opts.probes {
        let mut f = Findings::default();
        layers::cheap_probes(&mut f);
        if spec.name == "zc_planes" {
            layers::plane_costs(&mut f, opts.quick);
        }
        if spec.name == "des_event_fleet128" {
            layers::event_closed(&mut f, opts.quick);
        }
        report.per_layer.extend(f.per_layer);
    }
    // Last, so that it covers everything the process did.
    report.end_to_end.push((
        "peak_rss_mb".to_string(),
        Metric::single(host::peak_rss_mb(), "MB"),
    ));
    Ok(report)
}

/// Returns the report and, on a traced run, the whole-call time the
/// runtimes' own profilers summed over the timed windows.
fn run_real(
    name: &str,
    opts: &RunOpts,
    log: Option<&Arc<SpanLog>>,
    mut out: Findings,
) -> Result<(Report, Option<f64>), String> {
    if host::nproc() < 2 {
        return Err(format!(
            "{name} busy-spins a caller and a worker: it needs 2 CPUs, this host has {}",
            host::nproc()
        ));
    }
    let instances = if opts.quick { 1 } else { INSTANCES };
    let per_instance = if opts.quick {
        3
    } else {
        let total = opts.seconds.max(1) as usize * harness::SEGMENTS_PER_SECOND;
        total.div_ceil(instances)
    };
    let warmup_ops = if name == "kissdb_mixed" {
        real::WARMUP_KISSDB_OPS
    } else {
        real::WARMUP_CALL_OPS
    };
    let ctx = Ctx {
        seed: opts.seed,
        spans: log.cloned(),
    };
    let mut rng = SplitMix64::new(opts.seed);
    let mut setup_s = Vec::with_capacity(instances);
    let mut shutdown_ms = Vec::with_capacity(instances);
    let mut segments = Vec::with_capacity(instances * per_instance);
    let mut found = Vec::with_capacity(instances);
    let (mut attempted, mut failed, mut warmup_failed) = (0, 0, 0);
    for _ in 0..instances {
        let t0 = Instant::now();
        let mut body = |inst: &mut dyn Instance| {
            warmup_failed += harness::warm_up(inst, &mut rng, warmup_ops);
            setup_s.push(t0.elapsed().as_secs_f64());
            let (window, done) = harness::measure(
                inst,
                &mut rng,
                per_instance,
                warmup_ops,
                log.map(Arc::as_ref),
            );
            let mut f = Findings {
                traced: opts.traced,
                ..Findings::default()
            };
            inst.end_window(&window, &mut f);
            attempted += window.ops;
            failed += window.failed;
            segments.extend(done);
            found.push(f);
        };
        shutdown_ms
            .push(real::with_instance(name, &ctx, &mut body).expect("spec says real-thread"));
    }
    let profiled_call_ns = found
        .iter()
        .filter_map(|f| f.profiled_call_ns)
        .reduce(|a, b| a + b);
    out.absorb_instances(found);
    let layer = spec::runtime_layer(name);
    out.layer(
        &format!("{layer}.shutdown_ms"),
        stats::median(&shutdown_ms).unwrap_or(0.0),
    );
    out.check(
        "warm_up_ops_all_correct",
        warmup_failed == 0,
        format!("{warmup_failed} warm-up ops failed"),
    );
    let mut end_to_end = harness::summarise(&segments, &mut out);
    end_to_end.push((
        "failed_share".to_string(),
        Metric::single(failed as f64 / attempted as f64, "ratio"),
    ));
    end_to_end.push((
        "setup_s".to_string(),
        Metric::better_quartile_of(&setup_s, "s", spec::Better::Lower)
            .expect("at least one instance"),
    ));
    let report = Report {
        workload: name.to_string(),
        traced: opts.traced,
        quick: opts.quick,
        seed: opts.seed,
        segments: segments.len(),
        attempted,
        failed,
        end_to_end,
        per_layer: out.per_layer,
        checks: out.checks,
        host: crate::json::Json::obj(),
    };
    Ok((report, profiled_call_ns))
}
