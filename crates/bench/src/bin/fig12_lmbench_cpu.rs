//! Fig. 12: dynamic lmbench CPU usage (plateau summary; the per-τ CPU
//! series is the `%cpu` column of the fig11 series CSVs). Comes out of
//! the same runs and the same `experiments::lmbench::emit` as Fig. 11.
//!
//! Usage: `fig12_lmbench_cpu [--quick]`

fn main() {
    zc_bench::experiments::lmbench::emit(std::env::args().any(|a| a == "--quick"));
}
