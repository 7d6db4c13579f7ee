//! # swn-topology — graph analysis toolkit
//!
//! Measures the properties the paper claims for the stabilized network:
//!
//! * [`graph`] — compact adjacency graphs, extracted from protocol
//!   snapshots (indexed by id rank, so ring distances are meaningful);
//! * [`connectivity`] — weak/strong connectivity and component sizes;
//! * [`paths`] — BFS distances, diameter and characteristic path length
//!   (exact and sampled), plus the ring (rank) metric;
//! * [`clustering`] — Watts–Strogatz clustering coefficients;
//! * [`distribution`] — long-range-link length histograms and the
//!   harmonic-law fit (KS distance, log–log slope) of Fact 4.21;
//! * [`routing`] — Kleinberg greedy routing and its hop statistics
//!   (Theorem 4.22 / Lemma 4.23);
//! * [`robustness`] — failure/attack sweeps (giant component, routing
//!   success);
//! * [`export`] — Graphviz DOT rendering of graphs and snapshots.

#![forbid(unsafe_code)]
// Libraries return strings or take writers; only binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod clustering;
pub mod connectivity;
pub mod distribution;
pub mod export;
pub mod graph;
pub mod paths;
pub mod robustness;
pub mod routing;

pub use graph::Graph;
