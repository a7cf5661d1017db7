//! Fig. 9: kissdb average %CPU for the same configurations as Fig. 8.
//! Emitted with Fig. 8 by `experiments::kissdb::emit`.
//!
//! Usage: `fig9_kissdb_cpu [--quick]`

fn main() {
    zc_bench::experiments::kissdb::emit(std::env::args().any(|a| a == "--quick"));
}
