//! Run every figure, table and ablation of the reproduction in one go.
//!
//! Usage: `all_figures [--quick]` — `--quick` trades scale for speed
//! (seconds instead of ~15 minutes). Tables print to stdout; CSVs land
//! under `results/`, along with one `telemetry_<figure>.jsonl` per
//! figure (metrics snapshot + event trace of the runs behind it).

use std::path::Path;
use zc_bench::experiments::{ablations, kissdb, lmbench, memcpy, openssl, synthetic};
use zc_bench::telemetry::FigureScope;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let banner = |s: &str| println!("\n=== {s} ===\n");

    banner("Sec III-A / Fig 2: switchless selection");
    let params = synthetic::SynthParams {
        total_ops: if quick { 10_000 } else { 100_000 },
        ..synthetic::SynthParams::default()
    };
    let scope = FigureScope::begin("fig2_selection");
    synthetic::fig2(params, &[1, 2, 3, 4, 5]).emit(Some(Path::new("results/fig2_selection.csv")));
    scope.finish();

    banner("Fig 3: g-duration sweep");
    let scope = FigureScope::begin("fig3_duration");
    synthetic::fig3_sweep(params, quick).emit(Some(Path::new("results/fig3_duration.csv")));
    scope.finish();

    banner("Fig 7 / Fig 13: memcpy (real hardware)");
    let ops = if quick { 2_000 } else { 20_000 };
    let scope = FigureScope::begin("fig7_fig13_memcpy");
    memcpy::fig7(ops, &memcpy::PAPER_SIZES)
        .emit(Some(Path::new("results/fig7_memcpy_vanilla.csv")));
    memcpy::fig13(ops, &memcpy::PAPER_SIZES).emit(Some(Path::new("results/fig13_memcpy_zc.csv")));
    scope.finish();

    banner("Fig 8 / Fig 9: kissdb");
    let keys: Vec<u64> = if quick {
        vec![500, 2_000]
    } else {
        vec![500, 1_000, 2_500, 5_000, 7_500, 10_000]
    };
    let scope = FigureScope::begin("fig8_fig9_kissdb");
    for w in [2usize, 4] {
        kissdb::fig8(&keys, w).emit(Some(Path::new(&format!(
            "results/fig8_kissdb_latency_{w}w.csv"
        ))));
        kissdb::fig9(&keys, w).emit(Some(Path::new(&format!(
            "results/fig9_kissdb_cpu_{w}w.csv"
        ))));
    }
    scope.finish();

    banner("Fig 10: OpenSSL-substitute");
    let (fb, ch) = if quick {
        (256 * 1024, 4 * 1024)
    } else {
        (8 * 1024 * 1024, 16 * 1024)
    };
    let scope = FigureScope::begin("fig10_openssl");
    for w in [2usize, 4] {
        openssl::fig10(fb, ch, w).emit(Some(Path::new(&format!("results/fig10_openssl_{w}w.csv"))));
    }
    openssl::zc_residency(fb, ch).emit(Some(Path::new("results/fig10_zc_residency.csv")));
    scope.finish();

    banner("Fig 11 / Fig 12: lmbench dynamic");
    let p = if quick {
        lmbench::LmbenchParams {
            phase_secs: 1,
            ..lmbench::LmbenchParams::default()
        }
    } else {
        lmbench::LmbenchParams::default()
    };
    let scope = FigureScope::begin("fig11_fig12_lmbench");
    for w in [2usize, 4] {
        let reports = lmbench::run_all(&p, w);
        lmbench::fig11(&p, &reports, w).emit(Some(Path::new(&format!(
            "results/fig11_lmbench_tput_{w}w.csv"
        ))));
        lmbench::fig12(&reports, w).emit(Some(Path::new(&format!(
            "results/fig12_lmbench_cpu_{w}w.csv"
        ))));
    }
    scope.finish();

    banner("Ablations A1-A6");
    let ops = if quick { 500 } else { 5_000 };
    let scope = FigureScope::begin("ablations");
    ablations::rbf_sweep(&[0, 64, 1_000, 20_000, 200_000], 6, 2, ops, 200_000)
        .emit(Some(Path::new("results/ablation_rbf.csv")));
    ablations::fallback_ablation(6, ops).emit(Some(Path::new("results/ablation_fallback.csv")));
    let k = if quick { 1_000 } else { 5_000 };
    ablations::quantum_sweep(k, &[1, 5, 10, 50], &[10, 100, 1_000])
        .emit(Some(Path::new("results/ablation_quantum.csv")));
    ablations::fallback_weight_sweep(k, &[1, 2, 4, 8, 16, 32])
        .emit(Some(Path::new("results/ablation_weight.csv")));
    ablations::tes_sweep(k, &[1_000, 3_500, 13_500, 25_000, 50_000])
        .emit(Some(Path::new("results/ablation_tes.csv")));
    ablations::mechanism_comparison(if quick { 500 } else { 3_000 })
        .emit(Some(Path::new("results/ablation_mechanisms.csv")));
    ablations::chaos_sweep(
        if quick { 2_000 } else { 10_000 },
        &[380_000, 800_000, 3_800_000],
    )
    .emit(Some(Path::new("results/ablation_chaos.csv")));
    scope.finish();
}
