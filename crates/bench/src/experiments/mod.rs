//! Experiment logic behind each figure/table binary.
//!
//! Each module has one `emit(quick)` — its tables, their
//! `results/*.csv` names and the quick/full parameters — which its
//! one binary and `all_figures` call. Per-experiment index (see also
//! `DESIGN.md` §4):
//!
//! | module | paper item | binary |
//! |---|---|---|
//! | [`synthetic`] | §III-A numbers, Fig. 2, Fig. 3 | `fig2_selection` |
//! | [`kissdb`] | Fig. 8, Fig. 9 | `fig8_kissdb_latency` |
//! | [`openssl`] | Fig. 10, §V-B residency | `fig10_openssl` |
//! | [`lmbench`] | Fig. 11, Fig. 12 | `fig11_lmbench_tput` |
//! | [`memcpy`] | Fig. 7, Fig. 13 | `fig7_memcpy_vanilla` |
//! | [`ablations`] | ours: A1–A6 | `ablations` |

pub mod ablations;
pub mod fscommon;
pub mod kissdb;
pub mod lmbench;
pub mod memcpy;
pub mod openssl;
pub mod synthetic;
