//! Umbrella crate for the ZC-SWITCHLESS reproduction.
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests read naturally. See the individual crates for the
//! real APIs:
//!
//! * [`zc_switchless`] — the paper's contribution: adaptive switchless
//!   ocalls (real threads).
//! * [`intel_switchless`] — the Intel SDK switchless baseline.
//! * [`sgx_sim`] — the simulated SGX machine (costs, memory, tlibc,
//!   host filesystem).
//! * [`switchless_core`] — shared vocabulary (requests, states, policy).
//! * [`zc_des`] — the deterministic multi-core simulator behind the
//!   figure reproductions.
//! * [`zc_workloads`] — kissdb, AES-256-CBC file crypto, synthetic
//!   benchmarks, ocall-trace capture into DES workloads.
//!
//! # Telemetry quickstart
//!
//! The README's telemetry snippet, compiled and run here: a hub carries
//! the typed events (exported as JSONL), the runtime's typed stats
//! snapshot carries the counts.
//!
//! ```rust
//! use std::sync::Arc;
//! use switchless_core::{CpuSpec, OcallDispatcher, OcallRequest, OcallTable, ZcConfig};
//! use sgx_sim::Enclave;
//! use zc_switchless::ZcRuntime;
//!
//! let mut table = OcallTable::new();
//! let nop = table.register("nop", |_: &[u64; 6], _: &[u8], _: &mut Vec<u8>| 0);
//! let hub = zc_telemetry::Telemetry::new();
//! let enclave = Enclave::new_virtual(CpuSpec::paper_machine());
//! let rt = ZcRuntime::start_with_telemetry(
//!     ZcConfig::for_cpu(*enclave.spec()), Arc::new(table), enclave,
//!     Arc::clone(&hub), None)?;
//! let mut out = Vec::new();
//! rt.dispatch(&OcallRequest::new(nop, &[]), &[], &mut out)?;
//! rt.shutdown();
//! let events = hub.tracer().drain();                     // typed events
//! let jsonl = zc_telemetry::export::events_to_jsonl(&events);
//! // One event per completed call, carrying the call's id — every other
//! // event that call leaves (shed, guard violation, watchdog cancel,
//! // journal replay) carries the same "call":N:
//! // {"t":8120,"origin":"caller-0","kind":"call_phases","call":1,"func":0,
//! //  "path":"switchless","phases":[420,180,160,1400,280,360]}
//! assert!(jsonl.contains(r#""kind":"call_phases","call":1,"#));
//! let stats = rt.stats().snapshot();                     // typed counts
//! assert_eq!(stats.total_calls(), 1);
//! # Ok::<(), switchless_core::SwitchlessError>(())
//! ```

pub use intel_switchless;
pub use sgx_sim;
pub use switchless_core;
pub use zc_des;
pub use zc_switchless;
pub use zc_telemetry;
pub use zc_workloads;
