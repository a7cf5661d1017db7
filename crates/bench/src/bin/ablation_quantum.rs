//! Ablation A2: sensitivity of the ZC scheduler to its quantum `Q` and
//! micro-quantum fraction `µ` (paper: Q = 10 ms, µ = 1/100, chosen
//! empirically). Emitted with the other ablations by
//! `experiments::ablations::emit`.
//!
//! Usage: `ablation_quantum [--quick]`

fn main() {
    zc_bench::experiments::ablations::emit(std::env::args().any(|a| a == "--quick"));
}
