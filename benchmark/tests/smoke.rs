//! `--quick` smoke of the whole benchmark through its command line: all
//! seven workloads untraced and traced, the layer probes, the report
//! files, the driver's result line, and `compare` refusing quick numbers.
//! One test, so the timed runs never overlap each other.

use std::path::Path;
use std::process::Command;
use zc_benchmark::json::Json;
use zc_benchmark::spec;

fn exe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zc-benchmark"))
}

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn quick_run_of_everything_is_correct_and_self_describing() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let status = exe()
        .args(["all", "--quick", "--traced", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success(), "all --quick --traced failed: {status}");

    let layer_names: Vec<String> = spec::per_layer().iter().map(|(n, _)| n.clone()).collect();
    let mut seen_layers = std::collections::BTreeSet::new();
    for file in ["results.json", "results_traced.json"] {
        let doc = read(&out.join(file));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(spec::SCHEMA));
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("quick"));
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(7.0));
        for key in ["git_commit", "rustc", "nproc", "cpu_model", "loadavg_start"] {
            assert!(
                doc.get("host").unwrap().get(key).is_some(),
                "{file}: host.{key}"
            );
        }
        for w in &spec::WORKLOADS {
            let report = doc
                .get("workloads")
                .unwrap()
                .get(w.name)
                .unwrap_or_else(|| panic!("{file}: {}", w.name));
            assert_eq!(
                report.get("correct"),
                Some(&Json::Bool(true)),
                "{file}: {}: {}",
                w.name,
                report.pretty()
            );
            assert_eq!(report.get("failed").and_then(Json::as_f64), Some(0.0));
            let e2e = report.get("end_to_end").unwrap();
            for m in &spec::END_TO_END {
                // The fleet report has no busy-cycle total (README).
                let expected = m.only.is_none_or(|kind| kind == w.kind)
                    && !(w.name == "des_event_fleet128" && m.name == "sim_busy_cycles_per_op");
                assert_eq!(
                    e2e.get(m.name).is_some(),
                    expected,
                    "{file}: {}: {}",
                    w.name,
                    m.name
                );
            }
            for (name, metric) in report.get("per_layer").unwrap().entries() {
                assert!(
                    layer_names.contains(name),
                    "{file}: unlisted per-layer metric {name}"
                );
                assert!(
                    metric.get("value").and_then(Json::as_f64).is_some(),
                    "{name} is not a number"
                );
                seen_layers.insert(name.clone());
            }
        }
    }
    for (name, _) in read(&out.join("layers.json"))
        .get("per_layer")
        .unwrap()
        .entries()
    {
        assert!(
            layer_names.contains(name),
            "layers.json: unlisted metric {name}"
        );
        seen_layers.insert(name.clone());
    }
    // Between them the three files report every listed per-layer metric
    // (the three re-homed end-to-end names live under `end_to_end`; a
    // path's p50 is left out when a segment saw under ten such calls,
    // and a lone closed-loop caller hardly ever makes Intel fall back).
    let missing: Vec<&String> = layer_names
        .iter()
        .filter(|n| {
            !seen_layers.contains(*n)
                && spec::end_to_end(n).is_none()
                && !n.ends_with(".fallback_ns_p50")
        })
        .collect();
    assert!(missing.is_empty(), "never reported: {missing:?}");

    // Every workload left spans, parents first.
    let trace = std::fs::read_to_string(out.join("trace.jsonl")).unwrap();
    for w in &spec::WORKLOADS {
        let root = if w.kind == spec::Kind::Des {
            "repeat"
        } else {
            "op"
        };
        assert!(
            trace
                .lines()
                .any(|l| l.contains(&format!("\"workload\":\"{}\"", w.name))
                    && l.contains(&format!("\"name\":\"{root}\""))),
            "no {root} span of {}",
            w.name
        );
    }
    assert!(trace.contains("\"name\":\"host_fn\"") && trace.contains("\"name\":\"sim\""));
    for line in trace.lines().take(200) {
        Json::parse(line).unwrap();
    }

    // The driver's result line, untraced and traced.
    for (trace, names) in [
        ("0", spec::DRIVER_END_TO_END.map(str::to_string).to_vec()),
        ("1", layer_names.clone()),
    ] {
        let run = exe()
            .args([
                "run",
                "--workload",
                "des_event_fleet128",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--quick",
                "--trace",
                trace,
            ])
            .output()
            .unwrap();
        assert!(run.status.success());
        let stdout = String::from_utf8(run.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let got: Vec<String> = line
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(got, names);
    }

    // Quick numbers are never compared; an unknown workload is an error.
    let results = out.join("results.json");
    let compare = exe()
        .arg("compare")
        .arg(&results)
        .arg(&results)
        .output()
        .unwrap();
    assert_eq!(compare.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&compare.stderr).contains("quick"));
    let unknown = exe().args(["run", "--workload", "nope"]).output().unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty());
}
