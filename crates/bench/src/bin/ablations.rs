//! Ablations A1–A6 (ours, not the paper's): the Intel
//! `retries_before_fallback` pathology, the ZC scheduler's sensitivity
//! to its quantum `Q` and micro-quantum fraction `µ`, the fallback
//! weight, the mechanisms side by side, `T_es` and the chaos soak swept
//! over supervisor respawn delays — `experiments::ablations::emit`.
//!
//! Usage: `ablations [--quick]`

fn main() {
    zc_bench::experiments::ablations::emit(std::env::args().any(|a| a == "--quick"));
}
