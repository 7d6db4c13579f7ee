//! # self-stabilizing-smallworld
//!
//! A full reproduction of *"A Self-Stabilization Process for Small-World
//! Networks"* (Kniesburges, Koutsopoulos, Scheideler — IPPS 2012): a
//! distributed, asynchronous protocol that converges from **any weakly
//! connected initial topology** to a sorted ring with one harmonic
//! long-range link per node — a navigable 1-D small-world overlay with
//! polylogarithmic greedy routing, polylogarithmic join/leave recovery
//! and graceful failure degradation.
//!
//! This crate is the façade: it re-exports the workspace members so
//! applications can depend on a single crate.
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `swn-core` | the protocol: ids, messages, node state machine (Algorithms 1–10), φ(α), connectivity views, phase invariants |
//! | [`sim`] | `swn-sim` | discrete-event simulator for the paper's asynchronous model: channels, adversarial initial states, convergence & churn measurement, parallel trials |
//! | [`topology`] | `swn-topology` | analysis: connectivity, paths, clustering, harmonic-law fits, greedy routing, robustness sweeps |
//! | [`baselines`] | `swn-baselines` | Kleinberg, Watts–Strogatz, Chord, Erdős–Rényi, ring lattices, and the pure move-and-forget process |
//! | [`runtime`] | this crate | a genuinely concurrent execution: one thread per node over `std::sync::mpsc` channels |
//!
//! ## Quickstart
//!
//! ```
//! use self_stabilizing_smallworld::prelude::*;
//!
//! // Sixteen nodes in an adversarial initial topology (a star).
//! let ids = evenly_spaced_ids(16);
//! let cfg = ProtocolConfig::default();
//! let init = generate(InitialTopology::Star, &ids, cfg, 7);
//! let mut net = init.into_network(7);
//!
//! // Run the protocol until RCP solves the sorted-ring problem.
//! let report = run_to_ring(&mut net, 100_000);
//! assert!(report.stabilized());
//!
//! // The stabilized overlay is a small world: greedy routing works.
//! let g = Graph::from_view(&net.view(), View::Cp);
//! let stats = evaluate_routing(&g, 100, 1_000, 1, None);
//! assert_eq!(stats.success_rate(), 1.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment-by-experiment reproduction record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use swn_baselines as baselines;
pub use swn_core as core;
pub use swn_sim as sim;
pub use swn_topology as topology;

pub mod runtime;

/// Everything a typical application needs, in one import.
pub mod prelude {
    pub use swn_core::prelude::*;
    pub use swn_sim::churn::{join, leave, leave_random, RecoveryReport};
    pub use swn_sim::convergence::{run_to_ring, ConvergenceReport};
    pub use swn_sim::init::{generate, InitialState, InitialTopology};
    pub use swn_sim::{DeliveryPolicy, Network};
    pub use swn_topology::distribution::{ks_to_harmonic, log_log_slope, lrl_lengths_view};
    pub use swn_topology::routing::{evaluate_routing, greedy_route, RouteResult, RoutingStats};
    pub use swn_topology::Graph;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        use crate::prelude::*;
        let ids = evenly_spaced_ids(3);
        assert_eq!(ids.len(), 3);
        let cfg = ProtocolConfig::default();
        assert!(cfg.validate().is_ok());
    }
}
