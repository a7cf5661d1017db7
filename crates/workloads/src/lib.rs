//! Application workloads for switchless-call evaluation.
//!
//! Every workload here is *real code* whose I/O goes through an
//! [`OcallDispatcher`](switchless_core::OcallDispatcher) — exactly like
//! enclave applications whose unsupported calls are relayed to the
//! untrusted runtime:
//!
//! * [`kissdb`] — a from-scratch port of the kissdb key/value store
//!   (hash-table pages chained in a single file), the paper's first
//!   static benchmark (§V-A): its SETs are dominated by `fseeko`,
//!   `fread` and `fwrite` ocalls.
//! * [`crypto`] — AES-256-CBC implemented from scratch (the OpenSSL
//!   substitute) plus the two-thread file encryption/decryption pipeline
//!   of §V-B: `fopen`/`fread`/`fwrite`/`fclose` ocalls around in-enclave
//!   crypto.
//! * [`synthetic`] — the §III `f`/`g` microbenchmark (α empty calls vs β
//!   pause-loop calls).
//! * [`efile`] — `FILE*`-style helpers turning a dispatcher + registered
//!   fs ocalls into seek/read/write calls.
//! * [`trace`] — record the ocall sequence of a real workload run and
//!   convert it into a deterministic DES workload
//!   ([`zc_des::WorkloadSpec`]) using a documented host-cost model.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crypto;
pub mod efile;
pub mod kissdb;
pub mod synthetic;
pub mod trace;

pub use efile::EnclaveIo;
pub use kissdb::KissDb;
pub use trace::{HostCostModel, TraceRecorder};
