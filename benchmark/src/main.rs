//! `zc-benchmark`: `all`, `run --workload <name>`, `layers`, `compare`.
//! See `benchmark/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use zc_benchmark::all::{self, AllOpts};
use zc_benchmark::json::Json;
use zc_benchmark::report::{Findings, Report};
use zc_benchmark::run::{self, RunOpts};
use zc_benchmark::{compare, layers, spec};

const USAGE: &str = "usage:
  zc-benchmark all [--seed N] [--quick] [--traced] [--out DIR]
  zc-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
                   [--report FILE] [--trace-out FILE] [--probes 0|1]
  zc-benchmark layers [--quick] [--report FILE]
  zc-benchmark compare A/results.json B/results.json
workloads: zc_nop zc_payload zc_planes intel_nop kissdb_mixed des_rr_paper8 des_event_fleet128";

/// `--name value` pairs and bare `--flags` after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} takes a whole number, got {v:?}")),
        }
    }

    fn switch(&self, name: &str, default: bool) -> Result<bool, String> {
        Ok(self.number(name, u64::from(default))? != 0)
    }
}

fn write_report(path: Option<&str>, json: &Json) -> Result<(), String> {
    match path {
        None => Ok(()),
        Some(p) => std::fs::write(p, json.pretty()).map_err(|e| format!("cannot write {p}: {e}")),
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let workload = args
        .value("--workload")
        .ok_or("run needs --workload NAME")?;
    let spec = spec::workload(workload);
    let traced = args.switch("--trace", false)?;
    let opts = RunOpts {
        seed: args.number("--seed", 1)?,
        seconds: args.number("--seconds", spec.map_or(10, |w| w.full_seconds))?,
        traced,
        quick: args.flag("--quick"),
        probes: args.switch("--probes", true)?,
        trace_out: args.value("--trace-out").map(PathBuf::from),
    };
    let report: Report = run::run(workload, &opts)?;
    print!("{}", report.render());
    write_report(args.value("--report"), &report.to_json())?;
    if args.switch("--result-line", true)? {
        println!("{}", report.driver_line());
    }
    Ok(report.correct())
}

fn cmd_layers(args: &Args) -> Result<bool, String> {
    let quick = args.flag("--quick");
    let mut f = Findings::default();
    f.layer("benchmark.timer_ns", layers::timer_ns());
    layers::cheap_probes(&mut f);
    layers::event_closed(&mut f, quick);
    layers::plane_costs(&mut f, quick);
    let mut json = Json::obj();
    for (name, m) in &f.per_layer {
        println!("{name:<52} {:>16.4} {}", m.value, m.unit);
        json.set(
            name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    write_report(args.value("--report"), &json)?;
    Ok(true)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("compare takes two results.json files".to_string());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, worse) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(!worse)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next();
    let args = Args(argv.collect());
    let outcome = match command.as_deref() {
        Some("all") => (|| {
            all::all(&AllOpts {
                seed: args.number("--seed", 1)?,
                quick: args.flag("--quick"),
                traced: args.flag("--traced"),
                out: PathBuf::from(args.value("--out").unwrap_or("benchmark/out")),
            })
        })(),
        Some("run") => cmd_run(&args),
        Some("layers") => cmd_layers(&args),
        Some("compare") => cmd_compare(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("zc-benchmark: a check failed or a metric got worse (see above)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("zc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
