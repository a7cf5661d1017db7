//! `all`: every workload strictly one after another, one process each
//! (so `peak_rss_mb` is the workload's own and nothing runs beside a
//! timed window), then the layer probes, then — with `--traced` — every
//! workload again at a quarter of its length with spans recorded.

use crate::json::Json;
use crate::report::host_json;
use crate::spec::{self, Kind};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Options of the `all` command.
#[derive(Debug, Clone)]
pub struct AllOpts {
    /// Workload seed.
    pub seed: u64,
    /// Smoke mode.
    pub quick: bool,
    /// Also make the traced runs.
    pub traced: bool,
    /// Directory the reports are written to.
    pub out: PathBuf,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Run this executable with `args`, wait for it, and read the report it
/// wrote. `Ok(None)` when the child failed before writing one.
fn child(args: &[String], report: &Path) -> Result<(bool, Option<Json>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let _ = std::fs::remove_file(report);
    let status = Command::new(exe)
        .args(args)
        .status()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let json = report.exists().then(|| read_json(report)).transpose()?;
    Ok((status.success(), json))
}

fn value(report: &Json, section: &str, metric: &str) -> Option<f64> {
    report.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// Simulated statistics of a DES report that a traced run must reproduce.
fn simulated(report: &Json) -> Vec<(String, f64)> {
    let mut v = Vec::new();
    for name in ["sim_busy_cycles_per_op", "sim_makespan_cycles"] {
        if let Some(x) = value(report, "end_to_end", name) {
            v.push((name.to_string(), x));
        }
    }
    for (name, metric) in report.get("per_layer").map_or(&[][..], Json::entries) {
        if name.starts_with("zc-des.sim.") && !name.contains(".phase.") {
            if let Some(x) = metric.get("value").and_then(Json::as_f64) {
                v.push((name.clone(), x));
            }
        }
    }
    v
}

/// Run everything; `Ok(true)` when every run was correct.
///
/// # Errors
///
/// The output directory cannot be written, or a child cannot be started.
pub fn all(opts: &AllOpts) -> Result<bool, String> {
    let tmp = opts.out.join("parts");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let mut ok = true;
    let common = |name: &str, seconds: u64| -> Vec<String> {
        let mut a = vec![
            "run".to_string(),
            "--workload".to_string(),
            name.to_string(),
            "--seed".to_string(),
            opts.seed.to_string(),
            "--seconds".to_string(),
            seconds.to_string(),
            "--result-line".to_string(),
            "0".to_string(),
        ];
        if opts.quick {
            a.push("--quick".to_string());
        }
        a
    };
    let header = |traced: bool| {
        Json::obj()
            .with("schema", spec::SCHEMA)
            .with("mode", if opts.quick { "quick" } else { "full" })
            .with("traced", traced)
            .with("seed", opts.seed)
            .with("host", host_json())
    };

    let mut untraced = Json::obj();
    for w in &spec::WORKLOADS {
        let report = tmp.join(format!("{}.json", w.name));
        let mut args = common(w.name, w.full_seconds);
        args.extend(["--report".to_string(), report.display().to_string()]);
        let (success, json) = child(&args, &report)?;
        ok &= success;
        if let Some(json) = json {
            untraced.set(w.name, json);
        }
    }
    write(
        &opts.out.join("results.json"),
        &header(false).with("workloads", untraced.clone()).pretty(),
    )?;

    let layers = tmp.join("layers.json");
    let mut args = vec![
        "layers".to_string(),
        "--report".to_string(),
        layers.display().to_string(),
    ];
    if opts.quick {
        args.push("--quick".to_string());
    }
    let (success, json) = child(&args, &layers)?;
    ok &= success;
    write(
        &opts.out.join("layers.json"),
        &header(false)
            .with("per_layer", json.unwrap_or_else(Json::obj))
            .pretty(),
    )?;

    if opts.traced {
        let mut traced = Json::obj();
        let mut trace = String::new();
        for w in &spec::WORKLOADS {
            let report = tmp.join(format!("{}.traced.json", w.name));
            let spans = tmp.join(format!("{}.trace.jsonl", w.name));
            let mut args = common(w.name, (w.full_seconds / 4).max(1));
            args.extend([
                "--trace".to_string(),
                "1".to_string(),
                "--probes".to_string(),
                "0".to_string(),
                "--report".to_string(),
                report.display().to_string(),
                "--trace-out".to_string(),
                spans.display().to_string(),
            ]);
            let (success, json) = child(&args, &report)?;
            ok &= success;
            let Some(mut json) = json else { continue };
            if let Ok(text) = std::fs::read_to_string(&spans) {
                trace.push_str(&text);
                let _ = std::fs::remove_file(&spans);
            }
            let base = untraced.get(w.name);
            if let (Some(plain), Some(with_spans)) = (
                base.and_then(|b| value(b, "end_to_end", "ops_per_s")),
                value(&json, "end_to_end", "ops_per_s"),
            ) {
                let mut per_layer = json.get("per_layer").cloned().unwrap_or_else(Json::obj);
                per_layer.set(
                    "benchmark.trace_overhead_ratio",
                    Json::obj()
                        .with("value", plain / with_spans - 1.0)
                        .with("unit", "ratio"),
                );
                json.set("per_layer", per_layer);
            }
            if let (Kind::Des, Some(base)) = (w.kind, base) {
                let (a, b) = (simulated(base), simulated(&json));
                if a != b {
                    ok = false;
                    eprintln!("{}: simulated statistics differ between the untraced and the traced run:\n  {a:?}\n  {b:?}", w.name);
                }
            }
            traced.set(w.name, json);
        }
        write(
            &opts.out.join("results_traced.json"),
            &header(true).with("workloads", traced).pretty(),
        )?;
        write(&opts.out.join("trace.jsonl"), &trace)?;
    }
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(ok)
}
