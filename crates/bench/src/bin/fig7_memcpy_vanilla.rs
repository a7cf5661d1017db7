//! Fig. 7: write-ocall throughput with the vanilla (Intel tlibc) memcpy,
//! aligned vs unaligned buffers, 512 B – 32 kB. Runs on REAL hardware;
//! emitted with Fig. 13 by `experiments::memcpy::emit`.
//!
//! Usage: `fig7_memcpy_vanilla [--quick]`

fn main() {
    zc_bench::experiments::memcpy::emit(std::env::args().any(|a| a == "--quick"));
}
