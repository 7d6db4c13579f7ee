//! Small-scope model checker for the protocol.
//!
//! The simulator and the threaded runtime each exercise *one* delivery
//! order per seed. This crate explores **all** of them, for networks small
//! enough to enumerate (n ≤ 5). A *scope* is one seeded initial state
//! ([`families::Family`]) at a given n and budget; for each, the crate
//! builds **one** explicit graph ([`explore::FairGraph`]) of every
//! configuration that any message-delivery order and regular-action
//! schedule can reach, and judges the scope once, on every property,
//! from that graph. While it is built, every transition is monitored:
//!
//! * the phase predicates of `swn_core::invariants` are **monotone** —
//!   weak connectivity of the CC view, `is_sorted_list` and
//!   `is_sorted_ring` are never true in a state and false in a successor
//!   (LCC connectivity is deliberately *not* monitored: a `lin` edge
//!   legitimately leaves the linearization view while its identifier rides
//!   an `lrl`/`ring` variable, so LCC flickers by design);
//! * no handler emits a **self-addressed message** — except the two
//!   declared self-delivery idioms of the lrl-at-origin loop: `inclrl`
//!   sent by `sendid` while the long-range token sits at its origin
//!   (`lrl = id`), and the `reslrl` a node sends back to itself when
//!   answering its own `inclrl` (how the token first leaves the origin);
//! * no single activation emits the same `(destination, message)` pair
//!   twice — probes excepted: Algorithm 10 launches a ring-target probe
//!   and an lrl probe in one activation, and when ring = lrl the two
//!   legitimately coincide (probes are idempotent).
//!
//! A [`Stepper`] runs each receive action, so a mutant can replace
//! the protocol's; regular actions run `Node::on_regular` itself.
//!
//! Randomness is branched on, not sampled: `move-forget` is the only
//! handler that draws, one coin for the candidate and one for the
//! forget, and handlers draw from [`Coins`] that land on a given
//! outcome. The graph applies every outcome of every activation, so the
//! coins are as adversarial as the scheduler and each verdict holds for
//! every coin sequence.
//!
//! The model is *small-scope* in three bounded dimensions: network size
//! (n ≤ 5), a per-node budget of regular actions (regular actions are
//! always enabled, so an unbounded schedule never quiesces), and
//! channels that are *sets* — the transport coalesces identical in-flight
//! messages to one destination (see [`state::State::initial`]). Violations
//! found inside the scope are real executions; exhaustiveness is
//! relative to the scope, per the small-scope hypothesis.
//!
//! States are stored once, keyed by the fingerprint of their canonical
//! symmetry key ([`symmetry`]: id-rank renaming, age saturation). There
//! is no partial-order reduction: the sleep sets this crate once carried
//! executed 1.4× the transitions of the plain graph at 3× the memory per
//! state (DESIGN.md §7.2).
//!
//! The first violation stops the construction and comes back as a
//! shortest schedule from the initial state;
//! [`minimize`](minimize::minimize) shrinks it greedily (delta debugging
//! with chunk size 1) and [`format_trace`] prints the replay step by
//! step. [`liveness::analyze`] then asks what monotonicity cannot, from
//! one scan of the edges and one SCC sweep: livelock-freedom under weak
//! fairness, closure of the ring-stable region, and the ranking
//! certificate of [`ranking`].

#![forbid(unsafe_code)]
// Libraries return strings or take writers; only binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod explore;
pub mod families;
pub mod liveness;
pub mod minimize;
pub mod ranking;
pub mod state;
pub mod stepper;
pub mod symmetry;

pub use explore::{FairGraph, FoundViolation};
pub use families::Family;
pub use liveness::{analyze, replay_states, validate_lasso, Lasso, Report};
pub use minimize::{format_trace, minimize, minimize_lasso, minimize_with, replay};
pub use ranking::{rank_of, Rank, GOAL_RANK};
pub use state::{PredVector, State, Transition, Violation};
pub use stepper::{BounceLinStepper, Coins, DropLinStepper, RealStepper, SelfEchoStepper, Stepper};
pub use symmetry::{canonical_key, AGE_SATURATION};
