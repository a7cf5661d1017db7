//! Fig. 3: runtime for 100 000 ocalls with 8 enclave threads, for `g`
//! durations of 0–500 pauses and 1–5 workers (C1, C2, C4, C5). Emitted
//! with Fig. 2 by `experiments::synthetic::emit`.
//!
//! Usage: `fig3_duration [--quick]`

fn main() {
    zc_bench::experiments::synthetic::emit(std::env::args().any(|a| a == "--quick"));
}
