//! Fig. 11 / Fig. 12: the dynamic lmbench benchmark.
//!
//! One reader thread (`read` of `/dev/zero`) and one writer thread
//! (`write` to `/dev/null`) under a three-phase load: per-period op
//! quotas double for a third of the run, stay constant, then halve
//! (paper: 3 × 20 s with τ = 0.5 s; we default to a 5×-compressed time
//! axis — 3 × 4 s with τ = 0.2 s — to bound simulation cost; shapes are
//! unaffected).

use super::fscommon::NamedMechanism;
use crate::table::{f2, Table};
use zc_des::ocall::intel::IntelSimConfig;
use zc_des::ocall::CallDesc;
use zc_des::workload::PhasedLoad;
use zc_des::{Mechanism, SimConfig, SimReport, WorkloadSpec, ZcSimParams};

/// Call class of the reader thread's `read`.
pub const CLASS_READ: usize = 0;
/// Call class of the writer thread's `write`.
pub const CLASS_WRITE: usize = 1;

/// Parameters of the dynamic benchmark.
#[derive(Debug, Clone, Copy)]
pub struct LmbenchParams {
    /// Duration of each of the three phases, in seconds.
    pub phase_secs: u64,
    /// Load period τ in milliseconds.
    pub tau_ms: u64,
    /// Ops per period at the start of the doubling phase.
    pub initial_ops: u64,
    /// Host-side duration of one `read`/`write` syscall, in cycles.
    pub host_cycles: u64,
}

impl Default for LmbenchParams {
    fn default() -> Self {
        LmbenchParams {
            phase_secs: 4,
            tau_ms: 200,
            initial_ops: 512,
            host_cycles: 3_000,
        }
    }
}

/// The reader's call.
#[must_use]
pub fn read_call(p: &LmbenchParams) -> CallDesc {
    CallDesc {
        class: CLASS_READ,
        host_cycles: p.host_cycles,
        ret_bytes: 8,
        ..CallDesc::default()
    }
}

/// The writer's call.
#[must_use]
pub fn write_call(p: &LmbenchParams) -> CallDesc {
    CallDesc {
        class: CLASS_WRITE,
        host_cycles: p.host_cycles.saturating_sub(200),
        payload_bytes: 8,
        ..CallDesc::default()
    }
}

fn phased(call: CallDesc, p: &LmbenchParams, freq_hz: u64) -> WorkloadSpec {
    WorkloadSpec::Phased(PhasedLoad::dynamic(
        call,
        freq_hz,
        p.phase_secs,
        p.tau_ms,
        p.initial_ops,
    ))
}

/// The paper's six Intel configurations (for one worker count) plus
/// `no_sl` and `zc`.
#[must_use]
pub fn configs(workers: usize) -> Vec<NamedMechanism> {
    vec![
        NamedMechanism {
            label: "no_sl".into(),
            mechanism: Mechanism::NoSl,
        },
        NamedMechanism {
            label: format!("i-read-{workers}"),
            mechanism: Mechanism::Intel(IntelSimConfig::new(workers, [CLASS_READ])),
        },
        NamedMechanism {
            label: format!("i-write-{workers}"),
            mechanism: Mechanism::Intel(IntelSimConfig::new(workers, [CLASS_WRITE])),
        },
        NamedMechanism {
            label: format!("i-all-{workers}"),
            mechanism: Mechanism::Intel(IntelSimConfig::new(workers, [CLASS_READ, CLASS_WRITE])),
        },
        NamedMechanism {
            label: "zc".into(),
            mechanism: Mechanism::Zc(ZcSimParams::default()),
        },
    ]
}

/// Run the dynamic benchmark under one mechanism, sampling every τ.
#[must_use]
pub fn run(p: &LmbenchParams, mech: &NamedMechanism) -> SimReport {
    let cpu = switchless_core::CpuSpec::paper_machine();
    let workloads = vec![
        phased(read_call(p), p, cpu.freq_hz),
        phased(write_call(p), p, cpu.freq_hz),
    ];
    let total = cpu.freq_hz * 3 * p.phase_secs;
    zc_des::run(
        &SimConfig::new(mech.mechanism.clone(), workloads, 2)
            .with_sampling(cpu.freq_hz / 1_000 * p.tau_ms)
            .with_deadline(total + total / 10),
    )
}

/// Mean over the middle (constant-load) third of a per-interval series.
fn plateau_mean(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let third = series.len() / 3;
    let mid = &series[third..(2 * third).max(third + 1).min(series.len())];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Fig. 11 summary: plateau throughput of reader/writer per config.
/// Full per-τ series go to `results/fig11_<label>.csv` via
/// [`series_table`].
#[must_use]
pub fn fig11(p: &LmbenchParams, reports: &[(String, SimReport)], workers: usize) -> Table {
    let mut table = Table::new(
        format!(
            "Fig 11: lmbench plateau throughput (ops/s), {workers} Intel workers, \
             3x{}s phases",
            p.phase_secs
        ),
        &["config", "reader (ops/s)", "writer (ops/s)"],
    );
    for (label, r) in reports {
        let freq = r.cpu.freq_hz;
        table.row(vec![
            label.clone(),
            f2(plateau_mean(&r.timeline.throughput_ops_per_sec(0, freq))),
            f2(plateau_mean(&r.timeline.throughput_ops_per_sec(1, freq))),
        ]);
    }
    table
}

/// Fig. 12 summary: plateau CPU usage per config.
#[must_use]
pub fn fig12(reports: &[(String, SimReport)], workers: usize) -> Table {
    let mut table = Table::new(
        format!("Fig 12: lmbench plateau %CPU, {workers} Intel workers"),
        &["config", "%cpu (plateau)", "%cpu (mean)"],
    );
    for (label, r) in reports {
        table.row(vec![
            label.clone(),
            f2(plateau_mean(&r.timeline.cpu_percent(r.cpu.logical_cpus))),
            f2(r.cpu_percent()),
        ]);
    }
    table
}

/// Per-τ series of one report as a table (`t`, reader tput, writer tput,
/// `%cpu`, active zc workers).
#[must_use]
pub fn series_table(label: &str, r: &SimReport) -> Table {
    let freq = r.cpu.freq_hz;
    let ts = r.timeline.interval_midpoints_secs(freq);
    let rd = r.timeline.throughput_ops_per_sec(0, freq);
    let wr = r.timeline.throughput_ops_per_sec(1, freq);
    let cpu = r.timeline.cpu_percent(r.cpu.logical_cpus);
    let mut table = Table::new(
        format!("lmbench series: {label}"),
        &["t (s)", "read ops/s", "write ops/s", "%cpu", "zc workers"],
    );
    for i in 0..ts.len() {
        table.row(vec![
            f2(ts[i]),
            f2(rd[i]),
            f2(wr[i]),
            f2(cpu[i]),
            r.timeline.samples[i + 1].active_workers.to_string(),
        ]);
    }
    table
}

/// Emit Fig. 11, Fig. 12 and the per-τ series for 2 and 4 Intel workers,
/// all from one run per configuration
/// (`results/fig1{1_lmbench_tput,2_lmbench_cpu}_{2,4}w.csv`,
/// `results/fig11_series_<config>.csv`); `quick` runs 1 s phases.
pub fn emit(quick: bool) {
    let mut p = LmbenchParams::default();
    if quick {
        p.phase_secs = 1;
    }
    for w in [2usize, 4] {
        let reports: Vec<(String, SimReport)> = configs(w)
            .into_iter()
            .map(|mech| (mech.label.clone(), run(&p, &mech)))
            .collect();
        fig11(&p, &reports, w).emit(&format!("fig11_lmbench_tput_{w}w"));
        fig12(&reports, w).emit(&format!("fig12_lmbench_cpu_{w}w"));
        for (label, r) in &reports {
            series_table(label, r).write_csv(&format!("fig11_series_{label}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> LmbenchParams {
        LmbenchParams {
            phase_secs: 1,
            tau_ms: 100,
            initial_ops: 64,
            host_cycles: 3_000,
        }
    }

    #[test]
    fn throughput_ramps_and_falls() {
        let mech = &configs(2)[4]; // zc
        assert_eq!(mech.label, "zc");
        let r = run(&quick(), mech);
        let tput = r.timeline.throughput_ops_per_sec(0, r.cpu.freq_hz);
        assert!(tput.len() >= 9, "periods sampled: {}", tput.len());
        let first = tput[1];
        let mid = tput[tput.len() / 2];
        let last = *tput.last().unwrap();
        assert!(mid > first, "load must ramp: first={first} mid={mid}");
        assert!(mid > last, "load must fall: mid={mid} last={last}");
    }

    #[test]
    fn misconfigured_write_only_hurts_the_reader() {
        let p = quick();
        let cfgs = configs(2);
        let find = |l: &str| cfgs.iter().find(|m| m.label == l).unwrap();
        let i_write = run(&p, find("i-write-2"));
        let i_all = run(&p, find("i-all-2"));
        // The reader's calls are never switchless under i-write.
        assert_eq!(
            i_write.counters.ops_per_class[CLASS_READ], i_write.counters.regular,
            "all reads regular under i-write"
        );
        assert!(
            i_all.counters.ops_per_caller[0] >= i_write.counters.ops_per_caller[0],
            "reader completes at least as many ops under i-all"
        );
    }

    #[test]
    fn run_finishes_within_deadline() {
        let p = quick();
        let r = run(&p, &configs(2)[0]);
        let total = r.cpu.freq_hz * 3 * p.phase_secs;
        assert!(r.duration_cycles <= total + total / 10 + 1);
        assert_eq!(r.counters.callers_live, 0, "both callers must finish");
    }

    #[test]
    fn plateau_mean_takes_middle_third() {
        let s = vec![0.0, 0.0, 0.0, 9.0, 9.0, 9.0, 1.0, 1.0, 1.0];
        assert!((plateau_mean(&s) - 9.0).abs() < 1e-9);
        assert_eq!(plateau_mean(&[]), 0.0);
    }
}
