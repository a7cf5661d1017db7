//! ZC-SWITCHLESS: configless, adaptive SGX switchless calls.
//!
//! Implementation of the system described in *SGX Switchless Calls Made
//! Configless* (DSN 2023). Compared to the Intel SDK mechanism
//! (`intel-switchless`), ZC-SWITCHLESS:
//!
//! * treats **any** ocall as a switchless candidate — no build-time
//!   selection ([`caller`]): a caller that finds an idle worker runs
//!   switchlessly, otherwise it falls back to a regular ocall
//!   **immediately**, with no `rbf` busy-wait;
//! * sizes the worker pool **dynamically** ([`scheduler`]): every quantum
//!   `Q` the scheduler probes worker counts `0..=N/2` for one
//!   micro-quantum each and keeps the count minimising the wasted-cycle
//!   objective `U_i = F_i·T_es + i·µQ` (the pure math lives in
//!   [`switchless_core::policy`]);
//! * hands requests over through per-worker shared buffers with the
//!   `UNUSED → RESERVED → PROCESSING → WAITING → UNUSED` state machine
//!   ([`buffer`]) and untrusted request pools that wrap for free and
//!   grow, via one real ocall, only for a larger payload ([`pool`]).
//!
//! # Quickstart
//!
//! ```
//! use zc_switchless::ZcRuntime;
//! use sgx_sim::Enclave;
//! use switchless_core::{CpuSpec, OcallDispatcher, OcallRequest, OcallTable, ZcConfig};
//! use std::sync::Arc;
//!
//! let mut table = OcallTable::new();
//! let write = table.register("write", |_: &[u64; 6], pin: &[u8], _: &mut Vec<u8>| {
//!     pin.len() as i64
//! });
//! let enclave = Enclave::new(CpuSpec::paper_machine());
//! let rt = ZcRuntime::start(ZcConfig::default(), Arc::new(table), enclave)?;
//! let mut out = Vec::new();
//! let (ret, _path) = rt.dispatch(&OcallRequest::new(write, &[]), b"hello", &mut out)?;
//! assert_eq!(ret, 5);
//! rt.shutdown();
//! # Ok::<(), switchless_core::SwitchlessError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod caller;
pub mod pool;
pub mod runtime;
pub mod scheduler;
pub mod supervise;
pub mod worker;

pub use buffer::{SchedCommand, WorkerBuffer};
pub use pool::RequestPool;
pub use runtime::ZcRuntime;
pub use switchless_core::ZcConfig;
