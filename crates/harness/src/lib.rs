//! # swn-harness — the experiment suite
//!
//! One module per experiment of DESIGN.md §4; each exposes `Params`
//! (`full()` / `quick()` presets), a `measure`/`run_cells` layer returning
//! raw data (used by the tests) and a `run` layer rendering the printable
//! [`table::Table`] the paper-style report is built from. The
//! `experiments` binary drives them:
//!
//! ```text
//! cargo run -p swn-harness --release --bin experiments -- all --quick
//! cargo run -p swn-harness --release --bin experiments -- e3
//! ```

#![forbid(unsafe_code)]
// Libraries return strings or take writers; only binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod ablations;
pub mod e10_faults;
pub mod e1_convergence;
pub mod e2_distribution;
pub mod e3_routing;
pub mod e4_probing;
pub mod e5_join_leave;
pub mod e7_robustness;
pub mod e8_watts_strogatz;
pub mod e9_overhead;
pub mod probe_walk;
pub mod report;
pub mod runlog;
pub mod table;
pub mod testbed;
pub mod x1_multidim;
