//! # swn-core — the self-stabilizing small-world protocol
//!
//! A faithful implementation of *"A Self-Stabilization Process for
//! Small-World Networks"* (Kniesburges, Koutsopoulos, Scheideler,
//! IPPS 2012): a distributed, asynchronous message-passing protocol whose
//! computations converge, from **any weakly connected initial state**, to
//! a sorted ring enhanced with one long-range link per node, the link
//! lengths following the 1-harmonic distribution of Chaintreau et
//! al.'s *move-and-forget* process — i.e. a navigable one-dimensional
//! small-world network with polylogarithmic greedy routing.
//!
//! ## Layout
//!
//! * [`id`] — identifiers in `[0,1)` and the `±∞` sentinels;
//! * [`message`] — the seven message types of Section III;
//! * [`config`] — the protocol parameters (ε, ablation knobs);
//! * [`node`] — per-node state and the receive/regular actions
//!   (Algorithm 1), with the handlers split by concern:
//!   linearization (Algorithm 2), long-range links (Algorithms 3–4),
//!   ring edges (Algorithms 7–8), probing (Algorithms 5, 6, 10);
//! * [`forget`] — the forget probability φ(α);
//! * [`outbox`] — the effect buffer decoupling protocol logic from
//!   transport (simulator, threaded runtime, tests);
//! * [`views`] — the connectivity graphs CC/CP/LCC/LCP/RCC/RCP of
//!   Definition 4.2, extracted from a borrowed view of the global state;
//! * [`invariants`] — the phase predicates of the convergence proof
//!   (sorted list, sorted ring, classification).
//!
//! The crate is deliberately transport-free: handlers are pure state
//! transitions emitting sends into an [`outbox::Outbox`]. Drive them with
//! `swn-sim` (the discrete-event simulator used for every experiment) or
//! the umbrella crate's `runtime` module (one thread per node). The one
//! piece of transport policy that is protocol semantics — what a sender
//! does when its destination is gone — is [`node::Node::undeliverable`],
//! which both call.
//!
//! ## Example
//!
//! ```
//! use swn_core::prelude::*;
//! use rand::SeedableRng;
//!
//! let cfg = ProtocolConfig::default();
//! let mut node = Node::new(NodeId::from_fraction(0.5), cfg);
//! let mut out = Outbox::new();
//!
//! // Another node announces itself: it becomes our right neighbour.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! node.on_message(Message::Lin(NodeId::from_fraction(0.7)), &mut rng, &mut out);
//! assert_eq!(node.right().fin(), Some(NodeId::from_fraction(0.7)));
//! ```

#![forbid(unsafe_code)]
// Libraries return strings or take writers; only binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]
// Dispatch must break when a message kind is added, not fall into `_`.
#![deny(clippy::wildcard_enum_match_arm)]
#![warn(missing_docs)]

pub mod config;
pub mod forget;
pub mod id;
pub mod invariants;
mod linearize;
mod lrl;
pub mod message;
pub mod node;
pub mod outbox;
mod probing;
mod ring;
pub mod views;

/// One-stop imports for users of the protocol crate.
pub mod prelude {
    pub use crate::config::ProtocolConfig;
    pub use crate::forget::phi;
    pub use crate::id::{evenly_spaced_ids, random_ids, Extended, NodeId};
    pub use crate::invariants::{
        classify_view, is_small_world_structure_view, is_sorted_list_view, is_sorted_ring_view,
        make_sorted_ring, weakly_connected_view, Phase,
    };
    pub use crate::message::{Message, MessageKind};
    pub use crate::node::Node;
    pub use crate::outbox::{Outbox, ProtocolEvent};
    pub use crate::views::{NetView, Snapshot, View};
}
