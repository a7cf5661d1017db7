//! Fig. 8 / Fig. 9: kissdb SET latency and CPU usage.
//!
//! The *real* kissdb port runs against a trace recorder to capture the
//! exact ocall sequence of `n` SETs (8-byte keys and values, as in the
//! paper); the trace then replays on the simulated 8-core machine under
//! every mechanism configuration the paper compares: `no_sl`,
//! `i-{fseeko,fread,fwrite,frw,all}-{2,4}` and `zc`.

use super::fscommon::{self, NamedMechanism};
use crate::table::{f2, Table};
use zc_des::ocall::CallDesc;
use zc_des::{SimConfig, SimReport, WorkloadSpec};
use zc_workloads::efile::{regular_fixture, EnclaveIo};
use zc_workloads::trace::{fs_trace_to_calls, HostCostModel, TraceRecorder};
use zc_workloads::KissDb;

/// Record the ocall trace of `n_keys` kissdb SETs (8 B keys/values).
#[must_use]
pub fn set_trace(n_keys: u64) -> Vec<CallDesc> {
    let (_fs, disp, funcs) = regular_fixture();
    let rec = TraceRecorder::new(disp);
    let io = EnclaveIo::new(&rec, funcs);
    let mut db = KissDb::open(io, "/bench.db", 1024, 8, 8).expect("open kissdb");
    for i in 0..n_keys {
        db.put(&i.to_le_bytes(), &(i ^ 0xdead_beef).to_le_bytes())
            .expect("put");
    }
    db.close().expect("close");
    fs_trace_to_calls(
        &rec.trace(),
        &funcs,
        &HostCostModel::default(),
        |f| fscommon::class_of(f, &funcs),
        // kissdb's in-enclave work per op (hashing, slot bookkeeping) is
        // tiny; 100 cycles keeps callers from being pure ocall loops.
        |_| 100,
    )
}

/// The paper's ten Intel configurations for kissdb (×2 worker counts)
/// plus `no_sl` and `zc`.
#[must_use]
pub fn configs(workers: usize) -> Vec<NamedMechanism> {
    fscommon::lineup(
        &[
            ("fseeko", vec![fscommon::FSEEKO]),
            ("fread", vec![fscommon::FREAD]),
            ("fwrite", vec![fscommon::FWRITE]),
            ("frw", vec![fscommon::FREAD, fscommon::FWRITE]),
            (
                "all",
                vec![fscommon::FSEEKO, fscommon::FREAD, fscommon::FWRITE],
            ),
        ],
        workers,
    )
}

/// Enclave client threads issuing SETs concurrently (the paper's CPU
/// figures — ~55 % machine-wide for 2-worker configurations on 8 logical
/// CPUs — imply more than one client).
pub const KISSDB_CALLERS: usize = 2;

/// Replay a kissdb trace under one mechanism, split across
/// [`KISSDB_CALLERS`] enclave threads.
#[must_use]
pub fn run(trace: &[CallDesc], mech: &NamedMechanism) -> SimReport {
    let per = trace.len().div_ceil(KISSDB_CALLERS);
    let workloads: Vec<WorkloadSpec> = trace
        .chunks(per.max(1))
        .map(|chunk| WorkloadSpec::ClosedLoop {
            pattern: chunk.to_vec(),
            total_ops: chunk.len() as u64,
        })
        .collect();
    zc_des::run(&SimConfig::new(
        mech.mechanism.clone(),
        workloads,
        fscommon::CLASS_COUNT,
    ))
}

/// One figure row: average SET latency (µs) per key count.
fn latency_us(report: &SimReport, n_keys: u64) -> f64 {
    report.duration_secs() * 1e6 / n_keys as f64
}

/// Fig. 8 (average SET latency) and Fig. 9 (average CPU usage, %) for
/// each configuration over `key_counts`, with `workers` Intel workers:
/// two views of the same runs.
#[must_use]
pub fn fig8_fig9(key_counts: &[u64], workers: usize) -> (Table, Table) {
    let table = |title: String, unit: &str| {
        let mut headers = vec!["config".to_string()];
        headers.extend(key_counts.iter().map(|k| format!("{k} keys ({unit})")));
        Table::new(
            title,
            &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        )
    };
    let mut latency = table(
        format!("Fig 8: kissdb avg SET latency, {workers} Intel workers"),
        "us",
    );
    let mut cpu = table(
        format!("Fig 9: kissdb avg %CPU, {workers} Intel workers"),
        "%cpu",
    );
    let traces: Vec<(u64, Vec<CallDesc>)> = key_counts.iter().map(|&k| (k, set_trace(k))).collect();
    for mech in configs(workers) {
        let (mut lat_row, mut cpu_row) = (vec![mech.label.clone()], vec![mech.label.clone()]);
        for (k, trace) in &traces {
            let report = run(trace, &mech);
            lat_row.push(f2(latency_us(&report, *k)));
            cpu_row.push(f2(report.cpu_percent()));
        }
        latency.row(lat_row);
        cpu.row(cpu_row);
    }
    (latency, cpu)
}

/// Emit Fig. 8 and Fig. 9 for 2 and 4 Intel workers
/// (`results/fig{8_kissdb_latency,9_kissdb_cpu}_{2,4}w.csv`); `quick`
/// thins the paper's key counts.
pub fn emit(quick: bool) {
    let keys: &[u64] = if quick {
        &[500, 2_000]
    } else {
        &[500, 1_000, 2_500, 5_000, 7_500, 10_000]
    };
    for w in [2usize, 4] {
        let (latency, cpu) = fig8_fig9(keys, w);
        latency.emit(&format!("fig8_kissdb_latency_{w}w"));
        cpu.emit(&format!("fig9_kissdb_cpu_{w}w"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_seek_dominated() {
        let trace = set_trace(500);
        let seeks = trace.iter().filter(|c| c.class == fscommon::FSEEKO).count();
        let reads = trace.iter().filter(|c| c.class == fscommon::FREAD).count();
        let writes = trace.iter().filter(|c| c.class == fscommon::FWRITE).count();
        assert!(
            seeks > reads && seeks > writes,
            "paper: fseeko most frequent"
        );
        assert!(reads > 0 && writes > 0);
    }

    #[test]
    fn zc_beats_no_sl_and_misconfigured_intel() {
        // Take-away 4 at small scale.
        let trace = set_trace(400);
        let by_label = |label: &str, workers: usize| {
            let mech = configs(workers)
                .into_iter()
                .find(|m| m.label == label || m.label == format!("{label}-{workers}"))
                .expect("config exists");
            run(&trace, &mech).duration_cycles
        };
        let no_sl = by_label("no_sl", 2);
        let zc = by_label("zc", 2);
        let i_fread = by_label("i-fread", 2);
        assert!(zc < no_sl, "zc ({zc}) must beat no_sl ({no_sl})");
        assert!(
            zc < i_fread,
            "zc ({zc}) must beat the misconfigured i-fread-2 ({i_fread})"
        );
    }

    #[test]
    fn all_configs_complete_the_trace() {
        let trace = set_trace(200);
        for mech in configs(2) {
            let r = run(&trace, &mech);
            assert_eq!(
                r.counters.total_calls(),
                trace.len() as u64,
                "{} must complete every ocall",
                mech.label
            );
        }
    }

    #[test]
    fn config_lineup_matches_paper() {
        let labels: Vec<String> = configs(4).into_iter().map(|m| m.label).collect();
        assert_eq!(
            labels,
            vec![
                "no_sl",
                "i-fseeko-4",
                "i-fread-4",
                "i-fwrite-4",
                "i-frw-4",
                "i-all-4",
                "zc"
            ]
        );
    }
}
