//! Fig. 8: kissdb average SET latency for no_sl,
//! i-{fseeko,fread,fwrite,frw,all}-{2,4} and zc over 500–10 000 keys.
//! Emitted with Fig. 9 by `experiments::kissdb::emit`.
//!
//! Usage: `fig8_kissdb_latency [--quick]`

fn main() {
    zc_bench::experiments::kissdb::emit(std::env::args().any(|a| a == "--quick"));
}
