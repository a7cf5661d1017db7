//! Fig. 11: dynamic lmbench read/write throughput (plateau summary to
//! stdout, per-τ series to `results/fig11_series_<config>.csv`). Each
//! configuration is simulated once; Fig. 12's CPU summary comes out of
//! the same `experiments::lmbench::emit`.
//!
//! Usage: `fig11_lmbench_tput [--quick]`

fn main() {
    zc_bench::experiments::lmbench::emit(std::env::args().any(|a| a == "--quick"));
}
