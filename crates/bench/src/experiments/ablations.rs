//! Ablations beyond the paper's figures.
//!
//! * [`rbf_sweep`] — demonstrates the §III-C `retries_before_fallback`
//!   pathology directly: with more callers than workers, every blocked
//!   caller burns `rbf` pauses (2.8 M cycles at the SDK default) before
//!   falling back, instead of paying one 13.5 k-cycle transition.
//! * [`quantum_sweep`] — sensitivity of the ZC scheduler to its quantum
//!   `Q` and micro-quantum fraction `µ` (the paper fixes `Q` = 10 ms,
//!   `µ` = 1/100 "empirically"; this shows the neighbourhood is flat).

use super::fscommon::{self, NamedMechanism};
use super::kissdb;
use crate::table::{f2, f3, Table};
use switchless_core::config::INTEL_DEFAULT_RETRIES;
use zc_des::ocall::intel::IntelSimConfig;
use zc_des::ocall::CallDesc;
use zc_des::{Mechanism, SimConfig, SimReport, WorkloadSpec, ZcSimFaults, ZcSimParams};

/// Run an oversubscribed Intel configuration (`callers` > `workers`) with
/// a given `rbf`.
#[must_use]
pub fn run_rbf(
    rbf: u64,
    callers: usize,
    workers: usize,
    ops_per_caller: u64,
    host_cycles: u64,
) -> SimReport {
    let call = CallDesc {
        class: 0,
        host_cycles,
        ..CallDesc::default()
    };
    let cfg = IntelSimConfig::new(workers, [0]).with_rbf(rbf);
    let workloads = vec![
        WorkloadSpec::ClosedLoop {
            pattern: vec![call],
            total_ops: ops_per_caller,
        };
        callers
    ];
    zc_des::run(&SimConfig::new(Mechanism::Intel(cfg), workloads, 1))
}

/// A1: runtime and waste as a function of `rbf`.
#[must_use]
pub fn rbf_sweep(
    rbfs: &[u64],
    callers: usize,
    workers: usize,
    ops_per_caller: u64,
    host_cycles: u64,
) -> Table {
    let mut table = Table::new(
        format!(
            "Ablation A1: Intel rbf sweep ({callers} callers, {workers} workers, \
             {ops_per_caller} ops each, {host_cycles}-cycle host calls)"
        ),
        &[
            "rbf (pauses)",
            "runtime (s)",
            "%cpu",
            "switchless",
            "fallback",
        ],
    );
    for &rbf in rbfs {
        let r = run_rbf(rbf, callers, workers, ops_per_caller, host_cycles);
        table.row(vec![
            rbf.to_string(),
            f3(r.duration_secs()),
            f2(r.cpu_percent()),
            r.counters.switchless.to_string(),
            r.counters.fallback.to_string(),
        ]);
    }
    table
}

/// Run the kissdb trace under ZC with overridden scheduler constants.
#[must_use]
pub fn run_quantum(trace: &[CallDesc], quantum_ms: u64, mu_inverse: u64) -> SimReport {
    let mech = NamedMechanism {
        label: format!("zc-q{quantum_ms}-mu{mu_inverse}"),
        mechanism: Mechanism::Zc(ZcSimParams {
            quantum_ms,
            mu_inverse,
            ..ZcSimParams::default()
        }),
    };
    kissdb::run(trace, &mech)
}

/// A3: sweep the scheduler's fallback weight on a kissdb workload.
/// `weight = 1` is the paper's literal `U = F·T_es + M·T` objective (see
/// the reproduction note on
/// [`switchless_core::policy::PolicyParams::fallback_weight`]).
#[must_use]
pub fn fallback_weight_sweep(n_keys: u64, weights: &[u64]) -> Table {
    let trace = kissdb::set_trace(n_keys);
    let mut table = Table::new(
        format!("Ablation A3: zc fallback-weight sweep (kissdb, {n_keys} keys)"),
        &[
            "weight",
            "runtime (s)",
            "%cpu",
            "mean workers",
            "switchless",
            "fallback",
        ],
    );
    for &w in weights {
        let mech = NamedMechanism {
            label: format!("zc-w{w}"),
            mechanism: Mechanism::Zc(ZcSimParams {
                fallback_weight: w,
                ..ZcSimParams::default()
            }),
        };
        let r = kissdb::run(&trace, &mech);
        table.row(vec![
            w.to_string(),
            f3(r.duration_secs()),
            f2(r.cpu_percent()),
            f2(r.mean_active_workers),
            r.counters.switchless.to_string(),
            r.counters.fallback.to_string(),
        ]);
    }
    table
}

/// A2: ZC scheduler constants sweep on a kissdb workload.
#[must_use]
pub fn quantum_sweep(n_keys: u64, quanta_ms: &[u64], mu_inverses: &[u64]) -> Table {
    let trace = kissdb::set_trace(n_keys);
    let mut table = Table::new(
        format!("Ablation A2: zc scheduler Q/µ sweep (kissdb, {n_keys} keys)"),
        &[
            "Q (ms)",
            "1/µ",
            "runtime (s)",
            "%cpu",
            "mean workers",
            "fallback",
        ],
    );
    for &q in quanta_ms {
        for &mu in mu_inverses {
            let r = run_quantum(&trace, q, mu);
            table.row(vec![
                q.to_string(),
                mu.to_string(),
                f3(r.duration_secs()),
                f2(r.cpu_percent()),
                f2(r.mean_active_workers),
                r.counters.fallback.to_string(),
            ]);
        }
    }
    table
}

/// ZC immediate-fallback ablation: compare zc against an Intel
/// configuration identical except for the rbf busy-wait, on the same
/// oversubscribed workload — isolating the paper's "no busy-waiting on
/// claim" design choice (§IV-C).
#[must_use]
pub fn fallback_ablation(callers: usize, ops_per_caller: u64) -> Table {
    let call = CallDesc {
        class: fscommon::FREAD,
        host_cycles: 2_000,
        ..CallDesc::default()
    };
    let workloads = vec![
        WorkloadSpec::ClosedLoop {
            pattern: vec![call],
            total_ops: ops_per_caller,
        };
        callers
    ];
    let mut table = Table::new(
        format!("Ablation: immediate fallback vs rbf busy-wait ({callers} callers)"),
        &["mechanism", "runtime (s)", "%cpu", "fallback"],
    );
    let zc = zc_des::run(&SimConfig::new(
        Mechanism::Zc(ZcSimParams {
            // Pin the worker count to 2 so only the claim path differs.
            max_workers: Some(2),
            initial_workers: Some(2),
            quantum_ms: 10_000, // effectively static for the run
            ..ZcSimParams::default()
        }),
        workloads.clone(),
        fscommon::CLASS_COUNT,
    ));
    let intel = zc_des::run(&SimConfig::new(
        Mechanism::Intel(IntelSimConfig::new(2, [fscommon::FREAD])),
        workloads,
        fscommon::CLASS_COUNT,
    ));
    for (label, r) in [
        ("zc (immediate fallback)", &zc),
        ("intel (rbf=20000)", &intel),
    ] {
        table.row(vec![
            label.to_string(),
            f3(r.duration_secs()),
            f2(r.cpu_percent()),
            r.counters.fallback.to_string(),
        ]);
    }
    table
}

/// A5: CPU-waste profile across all four mechanisms (no_sl, HotCalls,
/// Intel, zc) on a bursty workload with idle gaps — the design-space
/// comparison behind the paper's related-work positioning: HotCalls buys
/// latency with permanently pinned cores; zc approaches its latency
/// while releasing cores in the gaps.
#[must_use]
pub fn mechanism_comparison(n_keys: u64) -> Table {
    use zc_des::ocall::hotcalls::HotcallsConfig;
    let trace = kissdb::set_trace(n_keys);
    // Insert idle gaps longer than Intel's rbs sleep threshold
    // (20 000 pauses = 2.8 M cycles): sleeping Intel workers and parked
    // zc workers release their cores through the gaps, hot workers spin.
    let sparse: Vec<CallDesc> = trace
        .iter()
        .map(|c| CallDesc {
            pre_compute_cycles: c.pre_compute_cycles + 5_000_000,
            ..*c
        })
        .collect();
    let fs_classes = [fscommon::FSEEKO, fscommon::FREAD, fscommon::FWRITE];
    let mechanisms: Vec<(&str, Mechanism)> = vec![
        ("no_sl", Mechanism::NoSl),
        (
            "hotcalls-2",
            Mechanism::Hotcalls(HotcallsConfig::new(2, fs_classes)),
        ),
        (
            "i-all-2",
            Mechanism::Intel(IntelSimConfig::new(2, fs_classes)),
        ),
        ("zc", Mechanism::Zc(ZcSimParams::default())),
    ];
    let mut table = Table::new(
        format!("Ablation A5: mechanism comparison (kissdb + 5M-cycle think, {n_keys} keys)"),
        &[
            "mechanism",
            "runtime (s)",
            "%cpu",
            "worker busy Mcyc",
            "switchless",
            "fallback",
        ],
    );
    for (label, mech) in mechanisms {
        let per = sparse.len().div_ceil(2);
        let workloads: Vec<WorkloadSpec> = sparse
            .chunks(per.max(1))
            .map(|c| WorkloadSpec::ClosedLoop {
                pattern: c.to_vec(),
                total_ops: c.len() as u64,
            })
            .collect();
        let r = zc_des::run(&SimConfig::new(mech, workloads, fscommon::CLASS_COUNT));
        table.row(vec![
            label.to_string(),
            f3(r.duration_secs()),
            f2(r.cpu_percent()),
            f2(r.worker_busy_cycles as f64 / 1e6),
            r.counters.switchless.to_string(),
            r.counters.fallback.to_string(),
        ]);
    }
    table
}

/// A4: sensitivity of the mechanism ranking to the transition cost
/// `T_es` — from TrustZone-like world switches (~3.5 k cycles, paper
/// §IV-D) through SGX v1 (13.5 k) to pessimistic microcode (50 k).
/// Switchless mechanisms matter more as transitions get dearer.
#[must_use]
pub fn tes_sweep(n_keys: u64, tes_values: &[u64]) -> Table {
    let trace = kissdb::set_trace(n_keys);
    let mut table = Table::new(
        format!("Ablation A4: transition-cost sweep (kissdb, {n_keys} keys)"),
        &[
            "T_es (cycles)",
            "no_sl (s)",
            "i-all-2 (s)",
            "zc (s)",
            "zc vs no_sl",
        ],
    );
    for &tes in tes_values {
        let mut cpu = switchless_core::CpuSpec::paper_machine();
        cpu.t_es_cycles = tes;
        let run_with = |mech: Mechanism| {
            let per = trace.len().div_ceil(2);
            let workloads: Vec<WorkloadSpec> = trace
                .chunks(per.max(1))
                .map(|c| WorkloadSpec::ClosedLoop {
                    pattern: c.to_vec(),
                    total_ops: c.len() as u64,
                })
                .collect();
            let mut cfg = SimConfig::new(mech, workloads, fscommon::CLASS_COUNT);
            cfg.cpu = cpu;
            zc_des::run(&cfg)
        };
        let no_sl = run_with(Mechanism::NoSl);
        let intel = run_with(Mechanism::Intel(IntelSimConfig::new(
            2,
            [fscommon::FSEEKO, fscommon::FREAD, fscommon::FWRITE],
        )));
        let zc = run_with(Mechanism::Zc(ZcSimParams::default()));
        table.row(vec![
            tes.to_string(),
            f3(no_sl.duration_secs()),
            f3(intel.duration_secs()),
            f3(zc.duration_secs()),
            format!(
                "{:.2}x",
                no_sl.duration_secs() / zc.duration_secs().max(1e-12)
            ),
        ]);
    }
    table
}

/// Run a closed-loop ZC workload under an optional chaos schedule
/// (2 callers: with the 4 workers, scheduler and supervisor this fills
/// the paper machine's 8 cores exactly, so supervisor timers fire at
/// their nominal virtual times).
#[must_use]
pub fn run_chaos(faults: Option<ZcSimFaults>, ops_per_caller: u64, host_cycles: u64) -> SimReport {
    let call = CallDesc {
        class: 0,
        host_cycles,
        ..CallDesc::default()
    };
    let workloads = vec![
        WorkloadSpec::ClosedLoop {
            pattern: vec![call],
            total_ops: ops_per_caller,
        };
        2
    ];
    let mut cfg = SimConfig::new(Mechanism::Zc(ZcSimParams::default()), workloads, 1);
    cfg.zc_faults = faults;
    zc_des::run(&cfg)
}

/// The seeded chaos schedule shared with `tests/chaos_soak.rs`:
/// 3 crashes + 2 hangs inside the first ~1.3 virtual ms.
#[must_use]
pub fn chaos_schedule(respawn_delay: u64, watchdog_pauses: u64) -> ZcSimFaults {
    ZcSimFaults::new()
        .crash_at(1_000_000, 0)
        .crash_at(3_000_000, 1)
        .crash_at(5_000_000, 0)
        .hang_at(2_000_000, 2)
        .hang_at(4_000_000, 3)
        .with_respawn_delay(respawn_delay)
        .with_watchdog_pauses(watchdog_pauses)
}

/// A6: cost of chaos and of recovery latency. A fault-free baseline
/// against the seeded 3-crash/2-hang schedule across supervisor
/// respawn delays: the longer failed slots stay dead, the more calls
/// pay the fallback transition, while conservation holds throughout.
#[must_use]
pub fn chaos_sweep(ops_per_caller: u64, respawn_delays: &[u64]) -> Table {
    let mut table = Table::new(
        format!(
            "Ablation A6: chaos soak, 3 crashes + 2 hangs \
             (2 callers, {ops_per_caller} ops each)"
        ),
        &[
            "respawn delay (us)",
            "runtime (s)",
            "%cpu",
            "switchless",
            "fallback",
            "cancelled",
            "respawns",
        ],
    );
    let mut emit = |label: String, r: &SimReport| {
        table.row(vec![
            label,
            f3(r.duration_secs()),
            f2(r.cpu_percent()),
            r.counters.switchless.to_string(),
            r.counters.fallback.to_string(),
            r.counters.cancelled.to_string(),
            r.fault_recovery.respawns.to_string(),
        ]);
    };
    let baseline = run_chaos(None, ops_per_caller, 500);
    emit("no faults".into(), &baseline);
    for &delay in respawn_delays {
        let r = run_chaos(Some(chaos_schedule(delay, 5_000)), ops_per_caller, 500);
        assert_eq!(
            r.counters.total_calls(),
            2 * ops_per_caller,
            "chaos must not lose calls"
        );
        let cycles_per_us = switchless_core::CpuSpec::paper_machine().freq_hz / 1_000_000;
        emit((delay / cycles_per_us).to_string(), &r);
    }
    table
}

/// Emit ablations A1–A6 (`results/ablation_*.csv`); `quick` shrinks
/// every run.
pub fn emit(quick: bool) {
    // A1: 6 callers over 2 workers, 200 k-cycle host calls, `rbf` swept
    // through the SDK default.
    let ops = if quick { 500 } else { 5_000 };
    let sdk_rbf = u64::from(INTEL_DEFAULT_RETRIES);
    rbf_sweep(&[0, 64, 1_000, sdk_rbf, 200_000], 6, 2, ops, 200_000).emit("ablation_rbf");
    fallback_ablation(6, ops).emit("ablation_fallback");
    let keys = if quick { 1_000 } else { 5_000 };
    quantum_sweep(keys, &[1, 5, 10, 50], &[10, 100, 1_000]).emit("ablation_quantum");
    fallback_weight_sweep(keys, &[1, 2, 4, 8, 16, 32]).emit("ablation_weight");
    // A4: TrustZone-like (3.5 k) to pessimistic (50 k) transition costs.
    tes_sweep(keys, &[1_000, 3_500, 13_500, 25_000, 50_000]).emit("ablation_tes");
    mechanism_comparison(if quick { 500 } else { 3_000 }).emit("ablation_mechanisms");
    // A6: 100 µs to 1 ms of dead time per fault at 3.8 GHz.
    chaos_sweep(
        if quick { 2_000 } else { 10_000 },
        &[380_000, 800_000, 3_800_000],
    )
    .emit("ablation_chaos");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_rbf_hurts_oversubscribed_intel() {
        // 6 callers, 2 workers, LONG host calls (the paper's Take-away
        // 7 precondition): with the SDK default a blocked caller spins
        // through its queue wait and then serializes behind 2 workers;
        // with rbf=64 it falls back and runs the host call on its own
        // core in parallel.
        let small = run_rbf(64, 6, 2, 300, 200_000);
        let huge = run_rbf(20_000, 6, 2, 300, 200_000);
        assert!(
            huge.duration_cycles > small.duration_cycles,
            "rbf=20000 ({}) must be slower than rbf=64 ({})",
            huge.duration_cycles,
            small.duration_cycles
        );
    }

    #[test]
    fn zc_immediate_fallback_beats_intel_spin_when_oversubscribed() {
        let t = fallback_ablation(6, 1_500);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mechanism_comparison_includes_all_four() {
        let t = mechanism_comparison(300);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn tes_sweep_shows_switchless_value_grows_with_transition_cost() {
        let t = tes_sweep(400, &[3_500, 13_500, 50_000]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn quantum_sweep_produces_grid() {
        let t = quantum_sweep(200, &[5, 10], &[50, 100]);
        assert_eq!(t.len(), 4);
    }
}
