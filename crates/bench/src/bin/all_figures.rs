//! Run every figure, table and ablation of the reproduction in one go:
//! each `experiments` module's `emit`, the same function its own
//! binary calls, so parameters and output paths exist once.
//!
//! Usage: `all_figures [--quick]` — `--quick` trades scale for speed
//! (seconds instead of minutes). Tables print to stdout; CSVs land under
//! `results/`.

use zc_bench::experiments::{ablations, kissdb, lmbench, memcpy, openssl, synthetic};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let modules = [
        (
            "Sec III-A / Fig 2 / Fig 3: switchless selection",
            synthetic::emit as fn(bool),
        ),
        ("Fig 7 / Fig 13: memcpy (real hardware)", memcpy::emit),
        ("Fig 8 / Fig 9: kissdb", kissdb::emit),
        ("Fig 10: OpenSSL-substitute", openssl::emit),
        ("Fig 11 / Fig 12: lmbench dynamic", lmbench::emit),
        ("Ablations A1-A6", ablations::emit),
    ];
    for (banner, emit) in modules {
        println!("\n=== {banner} ===\n");
        emit(quick);
    }
}
