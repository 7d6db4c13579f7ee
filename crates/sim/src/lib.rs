//! # swn-sim — discrete-event simulator for the self-stabilization process
//!
//! Implements exactly the computational model of Section II: unbounded,
//! unordered, lossless channels with fair receipt; weakly fair execution
//! of the receive/regular actions; atomic actions in a sequential
//! interleaving. One simulator **round** executes every node's regular
//! action once and offers every in-flight message for delivery, which is
//! the time unit all experiments are reported in.
//!
//! * [`channel`] — the unordered channel and the delivery policies
//!   (including adversarial random-delay asynchrony);
//! * [`network`] — the node table and the deterministic, seeded round
//!   loop;
//! * [`init`] — adversarial initial-state families (random weakly
//!   connected digraphs, stars, cliques, corrupted rings, ...);
//! * [`trace`] — per-round message/event accounting;
//! * [`convergence`] — run-to-stabilization with phase milestones;
//! * [`churn`] — join/leave injection and recovery measurement
//!   (Theorem 4.24);
//! * [`parallel`] — multi-seed trial execution across threads;
//! * [`persist`] — JSON checkpointing of global states;
//! * [`slots`] — the dense id→slot index behind O(1) message routing,
//!   with the incrementally maintained sorted order;
//! * [`sched`] — the active-set scheduler: O(work) rounds and
//!   quiescence detection on stabilized networks;
//! * [`obs`] — zero-overhead observability: pluggable sinks, sampled
//!   phase timers, online histograms, causal repair tracing and the
//!   anomaly-triggered flight recorder;
//! * [`faults`] — deterministic fault injection (loss/duplication
//!   windows, partitions, crash+restart, state perturbation) and the
//!   sole-carrier recovery watchdog.
//!
//! ## Example
//!
//! ```
//! use swn_core::prelude::*;
//! use swn_sim::init::{generate, InitialTopology};
//! use swn_sim::convergence::run_to_ring;
//!
//! let ids = evenly_spaced_ids(16);
//! let cfg = ProtocolConfig::default();
//! let mut net = generate(InitialTopology::Star, &ids, cfg, 42).into_network(42);
//! let report = run_to_ring(&mut net, 10_000);
//! assert!(report.stabilized());
//! ```

#![forbid(unsafe_code)]
// Libraries return strings or take writers; only binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod channel;
pub mod chaos;
pub mod churn;
pub mod convergence;
pub mod faults;
pub mod init;
mod mailbox;
pub mod network;
pub mod obs;
pub mod parallel;
pub mod persist;
mod placement;
pub mod sched;
pub mod slots;
pub mod trace;

pub use channel::DeliveryPolicy;
pub use network::Network;
pub use sched::ScheduleMode;
