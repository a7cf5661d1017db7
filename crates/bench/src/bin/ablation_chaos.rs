//! Ablation A6: chaos soak — the seeded 3-crash/2-hang schedule of
//! `tests/chaos_soak.rs` against the supervised ZC runtime in the DES,
//! swept over supervisor respawn delays. Shows the throughput cost of
//! faults and of recovery latency, with call conservation asserted on
//! every run. Emitted with the other ablations by
//! `experiments::ablations::emit`.
//!
//! Usage: `ablation_chaos [--quick]`

fn main() {
    zc_bench::experiments::ablations::emit(std::env::args().any(|a| a == "--quick"));
}
