//! Simulated Intel SGX machine.
//!
//! Real SGX hardware is unavailable in this environment, so this crate
//! substitutes the *costs* that make the switchless-call problem
//! interesting, while keeping everything else real code:
//!
//! * [`clock`] — a cycle clock for a modelled CPU ([`CpuSpec`]) plus
//!   calibrated busy-spins used to *inject* enclave-transition and
//!   `pause` costs into real threads.
//! * [`enclave`] — the enclave model: CPU spec, clock and transition
//!   counters.
//! * [`transition`] — the regular (switch-paying) ocall path: cost
//!   injection + boundary copy + host dispatch.
//! * [`frontdoor`] — the call pipeline both switchless runtimes share:
//!   plane ordering (admission → journal → route → retire), fallback
//!   and recovery policy, traced dispatch wrapper, shutdown drain.
//! * [`memory`] — untrusted memory arenas with explicit alignment
//!   control, used to stage ocall payloads exactly like the SDK's
//!   boundary marshalling.
//! * [`tlibc`] — the trusted-libc model: Intel's vanilla `memcpy`
//!   (word-by-word aligned / byte-by-byte unaligned) versus the paper's
//!   optimised `rep movsb`-style copy.
//! * [`hostfs`] — an in-memory untrusted host filesystem exposing
//!   `fopen`/`fclose`/`fseeko`/`fread`/`fwrite` plus `/dev/zero` and
//!   `/dev/null`, registered as ocall host functions.
//!
//! The simulation philosophy (see `DESIGN.md` §2): all *relative* costs —
//! transition vs. call duration vs. pause latency — come from the paper's
//! published measurements, so protocols built on this substrate face the
//! same trade-off space as on the paper's Xeon E3-1275 v6.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(not(target_arch = "x86_64"))]
compile_error!("sgx-sim models Intel SGX, which is x86_64-only: its cycle clock reads the x86_64 time-stamp counter");

pub mod clock;
pub mod enclave;
pub mod frontdoor;
pub mod hostfs;
pub mod memory;
pub mod tlibc;
pub mod transition;

pub use clock::CycleClock;
pub use enclave::Enclave;
pub use frontdoor::{FrontDoor, Transport};
pub use hostfs::{FsFuncs, HostFs};
pub use memory::{Alignment, UntrustedArena};
pub use switchless_core::cpu::CpuSpec;
pub use tlibc::MemcpyKind;
pub use transition::RegularOcall;
