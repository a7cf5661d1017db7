//! Ablation A1: the Intel `retries_before_fallback` pathology, directly.
//! Oversubscribed callers (6) vs workers (2) with long (200 k-cycle)
//! host calls: large rbf serializes callers behind the worker pool.
//! Emitted with the other ablations by `experiments::ablations::emit`.
//!
//! Usage: `ablation_rbf [--quick]`

fn main() {
    zc_bench::experiments::ablations::emit(std::env::args().any(|a| a == "--quick"));
}
