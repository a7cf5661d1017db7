//! Run every figure, table and ablation of the reproduction in one go:
//! each `experiments` module's `emit`, the same function its own
//! binary calls, so parameters and output paths exist once.
//!
//! Usage: `all_figures [--quick]` — `--quick` trades scale for speed
//! (seconds instead of minutes). Tables print to stdout; CSVs land under
//! `results/`, along with one `telemetry_<figures>.jsonl` per module
//! (metrics snapshot + event trace of the runs behind it).

use zc_bench::experiments::{ablations, kissdb, lmbench, memcpy, openssl, synthetic};
use zc_bench::telemetry::FigureScope;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let run = |banner: &str, scope: &str, emit: fn(bool)| {
        println!("\n=== {banner} ===\n");
        let scope = FigureScope::begin(scope);
        emit(quick);
        scope.finish();
    };
    run(
        "Sec III-A / Fig 2 / Fig 3: switchless selection",
        "fig2_fig3_synthetic",
        synthetic::emit,
    );
    run(
        "Fig 7 / Fig 13: memcpy (real hardware)",
        "fig7_fig13_memcpy",
        memcpy::emit,
    );
    run("Fig 8 / Fig 9: kissdb", "fig8_fig9_kissdb", kissdb::emit);
    run("Fig 10: OpenSSL-substitute", "fig10_openssl", openssl::emit);
    run(
        "Fig 11 / Fig 12: lmbench dynamic",
        "fig11_fig12_lmbench",
        lmbench::emit,
    );
    run("Ablations A1-A6", "ablations", ablations::emit);
}
