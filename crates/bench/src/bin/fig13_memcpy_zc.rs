//! Fig. 13: write-ocall throughput with vanilla vs zc memcpy (aligned
//! and unaligned), with speedups. Runs on REAL hardware; emitted with
//! Fig. 7 by `experiments::memcpy::emit`.
//!
//! Usage: `fig13_memcpy_zc [--quick]`

fn main() {
    zc_bench::experiments::memcpy::emit(std::env::args().any(|a| a == "--quick"));
}
