//! Wall-clock benchmark of the real-thread switchless runtimes and the
//! DES, measured from outside through the crates' public APIs only. See
//! `benchmark/README.md` for how to run it and how to read its reports.

#![warn(missing_docs)]

pub mod all;
pub mod compare;
pub mod des;
pub mod harness;
pub mod hist;
pub mod host;
pub mod json;
pub mod layers;
pub mod real;
pub mod report;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
