//! Fig. 3: runtime for 100 000 ocalls with 8 enclave threads, for `g`
//! durations of 0–500 pauses and 1–5 workers (C1, C2, C4, C5).
//!
//! Usage: `fig3_duration [--quick]`

use zc_bench::experiments::synthetic::{fig3_sweep, SynthParams};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let params = SynthParams {
        total_ops: if quick { 10_000 } else { 100_000 },
        ..SynthParams::default()
    };
    let t = fig3_sweep(params, quick);
    t.emit(Some(std::path::Path::new("results/fig3_duration.csv")));
}
