//! Fig. 2 + §III-A inline numbers: runtime of configurations C1–C5 for
//! 100 000 ocalls (3:1 `f`:`g` mix) over 1–5 Intel switchless workers.
//! Emitted with Fig. 3 by `experiments::synthetic::emit`.
//!
//! Usage: `fig2_selection [--quick]`

fn main() {
    zc_bench::experiments::synthetic::emit(std::env::args().any(|a| a == "--quick"));
}
