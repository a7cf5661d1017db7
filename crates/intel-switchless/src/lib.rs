//! Reimplementation of the Intel SGX SDK switchless-call library.
//!
//! Mirrors the mechanism described in the Intel SGX developer reference
//! and the ZC-SWITCHLESS paper (§II–III):
//!
//! * Functions must be *statically* marked switchless at build time
//!   ([`switchless_core::IntelConfig::switchless_funcs`]); all others always pay a regular
//!   enclave transition.
//! * A fixed pool of `num_uworkers` untrusted **worker threads** polls a
//!   shared [`TaskPool`] for submitted calls.
//! * A caller submits a task, then busy-waits up to
//!   `retries_before_fallback` (`rbf`) pauses for a worker to *accept*
//!   it; if none does, the caller cancels the task and falls back to a
//!   regular ocall.
//! * An idle worker polls for `retries_before_sleep` (`rbs`) pauses, then
//!   goes to sleep; task submission wakes sleeping workers.
//!
//! The SDK defaults (`rbf = rbs = 20 000` pauses ≈ 2.8 M cycles) are the
//! pathology the paper's §III-C identifies: with long host functions a
//! caller can wait ~200× the cost of the transition it was avoiding.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pool;
pub mod runtime;

pub use pool::{SlotIdx, SlotState, TaskPool};
pub use runtime::IntelSwitchless;
