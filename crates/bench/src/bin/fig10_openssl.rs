//! Fig. 10: OpenSSL-substitute file encryption/decryption — latency and
//! CPU usage for no_sl, i-{fr,fw,frw,foc,frwoc}-{2,4} and zc — and the
//! §V-B zc worker-count residency table.
//!
//! Usage: `fig10_openssl [--quick]`

fn main() {
    zc_bench::experiments::openssl::emit(std::env::args().any(|a| a == "--quick"));
}
