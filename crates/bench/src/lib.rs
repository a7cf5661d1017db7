//! Benchmark harness regenerating every table and figure of the
//! ZC-SWITCHLESS paper.
//!
//! Each `experiments` module has one binary under `src/bin/`
//! (`fig2_selection`, `fig8_kissdb_latency`, …) that prints the same
//! rows/series the paper reports; the experiment logic lives in
//! [`experiments`] so integration tests can assert the *shapes* (who
//! wins, by roughly what factor) without parsing stdout. See `DESIGN.md` §4 for the experiment index
//! and `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod table;

pub use table::Table;
