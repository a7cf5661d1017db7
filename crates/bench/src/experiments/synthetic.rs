//! §III synthetic benchmark: configurations C1–C5 over the `f`/`g` mix
//! (Fig. 2 and Fig. 3).
//!
//! `n = α + β` ocalls with `α = 3β`: `f` is empty, `g` spins a pause
//! loop. Five static Intel-switchless configurations:
//!
//! * **C1** — all `f` switchless, `g` regular (expected best);
//! * **C2** — only `g` switchless (expected worst);
//! * **C3** — half of `f` and half of `g` switchless;
//! * **C4** — everything switchless;
//! * **C5** — everything regular.
//!
//! C3 needs per-*call-site* marking, so the pattern splits each function
//! into two classes (`f_a`/`f_b`, `g_a`/`g_b`) and C3 marks the `_a`
//! halves switchless.

use crate::table::{f3, Table};
use zc_des::ocall::intel::IntelSimConfig;
use zc_des::ocall::CallDesc;
use zc_des::{Mechanism, SimConfig, SimReport, WorkloadSpec};

/// Call classes of the split synthetic pattern.
pub const CLASS_F_A: usize = 0;
/// Second half of the `f` call sites.
pub const CLASS_F_B: usize = 1;
/// First half of the `g` call sites.
pub const CLASS_G_A: usize = 2;
/// Second half of the `g` call sites.
pub const CLASS_G_B: usize = 3;

/// The five §III configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthConfig {
    /// All `f` switchless.
    C1,
    /// All `g` switchless.
    C2,
    /// Half of `f` and half of `g` switchless.
    C3,
    /// Everything switchless.
    C4,
    /// Everything regular.
    C5,
}

impl SynthConfig {
    /// All five configurations in order.
    pub const ALL: [SynthConfig; 5] = [
        SynthConfig::C1,
        SynthConfig::C2,
        SynthConfig::C3,
        SynthConfig::C4,
        SynthConfig::C5,
    ];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SynthConfig::C1 => "C1",
            SynthConfig::C2 => "C2",
            SynthConfig::C3 => "C3",
            SynthConfig::C4 => "C4",
            SynthConfig::C5 => "C5",
        }
    }

    /// The statically switchless classes of this configuration.
    #[must_use]
    pub fn switchless_classes(self) -> Vec<usize> {
        match self {
            SynthConfig::C1 => vec![CLASS_F_A, CLASS_F_B],
            SynthConfig::C2 => vec![CLASS_G_A, CLASS_G_B],
            SynthConfig::C3 => vec![CLASS_F_A, CLASS_G_A],
            SynthConfig::C4 => vec![CLASS_F_A, CLASS_F_B, CLASS_G_A, CLASS_G_B],
            SynthConfig::C5 => vec![],
        }
    }
}

/// The α = 3β pattern with split call sites: 6 `f` + 2 `g` per 8 calls,
/// half of each in the `_a` classes.
#[must_use]
pub fn split_pattern(g_pauses: u64, pause_cycles: u64) -> Vec<CallDesc> {
    let f = |class| CallDesc {
        class,
        ..CallDesc::default()
    };
    let g = |class| CallDesc {
        class,
        host_cycles: g_pauses * pause_cycles,
        ..CallDesc::default()
    };
    vec![
        f(CLASS_F_A),
        f(CLASS_F_B),
        f(CLASS_F_A),
        g(CLASS_G_A),
        f(CLASS_F_B),
        f(CLASS_F_A),
        f(CLASS_F_B),
        g(CLASS_G_B),
    ]
}

/// Parameters of one synthetic run.
#[derive(Debug, Clone, Copy)]
pub struct SynthParams {
    /// Total ocalls across all threads (paper: 100 000).
    pub total_ops: u64,
    /// Enclave caller threads (paper: 8).
    pub threads: usize,
    /// Pause loop length of `g` (paper Fig. 3: 0–500).
    pub g_pauses: u64,
    /// Intel switchless worker threads (paper Fig. 2/3: 1–5).
    pub workers: usize,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            total_ops: 100_000,
            threads: 8,
            g_pauses: 500,
            workers: 2,
        }
    }
}

/// Run one configuration, returning the simulation report.
#[must_use]
pub fn run_synthetic(cfg: SynthConfig, p: SynthParams) -> SimReport {
    let cpu = switchless_core::CpuSpec::paper_machine();
    let pattern = split_pattern(p.g_pauses, cpu.pause_cycles);
    let per_thread = p.total_ops / p.threads as u64;
    let workloads = vec![
        WorkloadSpec::ClosedLoop {
            pattern,
            total_ops: per_thread,
        };
        p.threads
    ];
    let mech = Mechanism::Intel(IntelSimConfig::new(p.workers, cfg.switchless_classes()));
    zc_des::run(&SimConfig::new(mech, workloads, 4))
}

/// Fig. 2: runtime of C1–C5 for worker counts `workers`.
#[must_use]
pub fn fig2(params: SynthParams, workers: &[usize]) -> Table {
    let mut headers = vec!["config".to_string()];
    headers.extend(workers.iter().map(|w| format!("{w}w (s)")));
    let mut table = Table::new(
        format!(
            "Fig 2: runtime for {} ocalls (3:1 f:g, g = {} pauses, {} threads)",
            params.total_ops, params.g_pauses, params.threads
        ),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for cfg in SynthConfig::ALL {
        let mut row = vec![cfg.label().to_string()];
        for &w in workers {
            let report = run_synthetic(
                cfg,
                SynthParams {
                    workers: w,
                    ..params
                },
            );
            row.push(f3(report.duration_secs()));
        }
        table.row(row);
    }
    table
}

/// Fig. 3: runtime grid over `g` durations × worker counts for the four
/// configurations the paper plots (C3 omitted, as in the paper).
#[must_use]
pub fn fig3(params: SynthParams, g_pauses: &[u64], workers: &[usize]) -> Table {
    let mut headers = vec!["config".to_string(), "g pauses".to_string()];
    headers.extend(workers.iter().map(|w| format!("{w}w (s)")));
    let mut table = Table::new(
        format!(
            "Fig 3: runtime for {} ocalls, {} enclave threads, varying g duration",
            params.total_ops, params.threads
        ),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for cfg in [
        SynthConfig::C1,
        SynthConfig::C2,
        SynthConfig::C4,
        SynthConfig::C5,
    ] {
        for &g in g_pauses {
            let mut row = vec![cfg.label().to_string(), g.to_string()];
            for &w in workers {
                let report = run_synthetic(
                    cfg,
                    SynthParams {
                        g_pauses: g,
                        workers: w,
                        ..params
                    },
                );
                row.push(f3(report.duration_secs()));
            }
            table.row(row);
        }
    }
    table
}

/// Emit the §III-A inline numbers (C1–C5 at 2 workers), Fig. 2 and
/// Fig. 3 (`results/{sec3a_inline,fig2_selection,fig3_duration}.csv`).
/// `quick` runs a tenth of the paper's ocalls and thins Fig. 3's `g`
/// durations; worker counts stay 1–5 (the committed columns).
pub fn emit(quick: bool) {
    let params = SynthParams {
        total_ops: if quick { 10_000 } else { 100_000 },
        ..SynthParams::default()
    };
    let mut inline = Table::new(
        "Sec III-A: C1..C5 runtime (paper: 0.9 / 1.6 / 1.3 / 1.3 / 1.0 s)",
        &["config", "runtime (s)", "vs C1"],
    );
    let secs = SynthConfig::ALL.map(|c| run_synthetic(c, params).duration_secs());
    for (c, s) in SynthConfig::ALL.iter().zip(secs) {
        inline.row(vec![
            c.label().to_string(),
            f3(s),
            format!("{:.2}x", s / secs[0]),
        ]);
    }
    inline.emit("sec3a_inline");
    fig2(params, &[1, 2, 3, 4, 5]).emit("fig2_selection");
    let g_pauses: &[u64] = if quick {
        &[0, 500]
    } else {
        &[0, 100, 200, 300, 400, 500]
    };
    fig3(params, g_pauses, &[1, 2, 3, 4, 5]).emit("fig3_duration");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: SynthConfig, workers: usize, g_pauses: u64) -> SimReport {
        run_synthetic(
            cfg,
            SynthParams {
                total_ops: 8_000,
                threads: 8,
                g_pauses,
                workers,
            },
        )
    }

    #[test]
    fn pattern_mix_is_three_to_one() {
        let p = split_pattern(500, 140);
        let f = p.iter().filter(|c| c.host_cycles == 0).count();
        let g = p.iter().filter(|c| c.host_cycles > 0).count();
        assert_eq!((f, g), (6, 2));
        // Class split: half of each function in the _a classes.
        assert_eq!(p.iter().filter(|c| c.class == CLASS_F_A).count(), 3);
        assert_eq!(p.iter().filter(|c| c.class == CLASS_F_B).count(), 3);
        assert_eq!(p.iter().filter(|c| c.class == CLASS_G_A).count(), 1);
        assert_eq!(p.iter().filter(|c| c.class == CLASS_G_B).count(), 1);
    }

    #[test]
    fn all_configs_complete_all_ops() {
        for cfg in SynthConfig::ALL {
            let r = quick(cfg, 2, 100);
            assert_eq!(r.counters.total_calls(), 8_000, "{}", cfg.label());
        }
    }

    #[test]
    fn takeaway1_c1_beats_c2_with_long_g() {
        // Improper selection (switchless g, regular f) must lose to the
        // proper selection (switchless f, regular g).
        let c1 = quick(SynthConfig::C1, 2, 500);
        let c2 = quick(SynthConfig::C2, 2, 500);
        assert!(
            c1.duration_cycles < c2.duration_cycles,
            "C1 ({}) must beat C2 ({})",
            c1.duration_cycles,
            c2.duration_cycles
        );
    }

    #[test]
    fn c5_runs_everything_regular() {
        let r = quick(SynthConfig::C5, 2, 100);
        assert_eq!(r.counters.regular, 8_000);
        assert_eq!(r.counters.switchless, 0);
    }

    #[test]
    fn c4_runs_mostly_switchless() {
        let r = quick(SynthConfig::C4, 4, 0);
        assert!(
            r.counters.switchless > r.counters.regular,
            "C4 must be switchless-dominated: {:?}",
            r.counters
        );
    }

    #[test]
    fn fig2_table_has_five_rows() {
        let t = fig2(
            SynthParams {
                total_ops: 2_000,
                ..SynthParams::default()
            },
            &[1, 2],
        );
        assert_eq!(t.len(), 5);
    }
}
