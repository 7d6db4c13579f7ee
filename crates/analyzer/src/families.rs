//! Seeded initial-state families for the small-scope search.
//!
//! Three families reuse `swn_sim::init::generate`, so the checker
//! explores exactly the adversarial initial states the simulator's
//! stabilization experiments start from — line (a shuffled directed
//! chain), star (everyone points at a hub) and clique (well-typed
//! neighbours plus overflow links preloaded as stale `lin` messages).
//! The fourth, ring, is the canonical sorted ring ([`ring_state`]): the
//! scope on which closure says every reachable state stays ring-stable.

use crate::state::State;
use swn_core::config::ProtocolConfig;
use swn_core::id::evenly_spaced_ids;
use swn_core::invariants::make_sorted_ring;
use swn_core::message::Message;
use swn_core::node::Node;
use swn_sim::init::{generate, InitialTopology};

/// An initial-topology family the checker knows how to seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Shuffled directed chain ([`InitialTopology::RandomChain`]).
    Line,
    /// All nodes point at one hub ([`InitialTopology::Star`]).
    Star,
    /// Complete digraph; overflow edges ride as stale `lin` preloads
    /// ([`InitialTopology::Clique`]).
    Clique,
    /// The sorted ring with empty channels ([`ring_state`]); the seed
    /// plays no part.
    Ring,
}

impl Family {
    /// Every family, in CLI order.
    pub const ALL: [Family; 4] = [Family::Line, Family::Star, Family::Clique, Family::Ring];

    /// CLI spelling / report label.
    pub fn label(self) -> &'static str {
        match self {
            Family::Line => "line",
            Family::Star => "star",
            Family::Clique => "clique",
            Family::Ring => "ring",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.label() == s)
    }

    /// Builds the seeded initial [`State`] for this family on `n` evenly
    /// spaced identifiers, with `budget` regular actions per node and
    /// set-semantics channels (channel bound 1).
    pub fn initial_state(self, n: usize, budget: u32, seed: u64) -> State {
        let ids = evenly_spaced_ids(n);
        let cfg = ProtocolConfig::default();
        let topology = match self {
            Family::Line => InitialTopology::RandomChain,
            Family::Star => InitialTopology::Star,
            Family::Clique => InitialTopology::Clique,
            Family::Ring => return State::initial(make_sorted_ring(&ids, cfg), &[], budget),
        };
        let init = generate(topology, &ids, cfg, seed);
        State::initial(init.nodes, &init.preloads, budget)
    }
}

/// The fixture behind `analyzer --mutant drop-lin`: two fresh nodes whose only
/// connection is a `lin` message in flight. Under the real protocol the
/// delivery linearizes the carried identifier; under
/// [`DropLinStepper`](crate::stepper::DropLinStepper) it vanishes and CC
/// disconnects, which is the smallest possible monotonicity
/// counterexample.
pub fn demo_fault_state(budget: u32) -> State {
    let ids = evenly_spaced_ids(2);
    let nodes: Vec<Node> = ids
        .iter()
        .map(|&id| Node::new(id, ProtocolConfig::default()))
        .collect();
    State::initial(nodes, &[(ids[0], Message::Lin(ids[1]))], budget)
}

/// The fixture behind `analyzer --mutant bounce-lin`: three nodes
/// `a < b < c` where `a` and `c` already know each other (`a.r = c`,
/// `c.l = a`) and the middle node `b` is fresh — its only connection to
/// the rest is a `lin(b)` in flight to `a`. The real protocol adopts `b`
/// on delivery and converges to the ring; under
/// [`BounceLinStepper`](crate::stepper::BounceLinStepper) the message
/// bounces `a → c → a → …` forever while every safety monitor stays
/// green — the minimal convergence (fair-cycle) counterexample.
pub fn livelock_demo_state() -> State {
    let ids = evenly_spaced_ids(3);
    let cfg = ProtocolConfig::default();
    use swn_core::id::Extended;
    let nodes = vec![
        Node::with_state(
            ids[0],
            Extended::NegInf,
            Extended::Fin(ids[2]),
            ids[0],
            None,
            cfg,
        ),
        Node::new(ids[1], cfg),
        Node::with_state(
            ids[2],
            Extended::Fin(ids[0]),
            Extended::PosInf,
            ids[2],
            None,
            cfg,
        ),
    ];
    State::initial(nodes, &[(ids[0], Message::Lin(ids[1]))], 0)
}

/// The canonical sorted-ring configuration on `n` evenly spaced ids with
/// empty channels and `budget` regular actions per node — the
/// [`Family::Ring`] scope: every state reachable from here, through any
/// interleaving of the ring's own chatter, must stay ring-stable.
pub fn ring_state(n: usize, budget: u32) -> State {
    Family::Ring.initial_state(n, budget, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.label()), Some(f));
        }
        assert_eq!(Family::parse("torus"), None);
    }

    #[test]
    fn families_are_connected_at_seed_time() {
        for f in Family::ALL {
            for seed in 0..3 {
                let s = f.initial_state(3, 2, seed);
                assert_eq!(s.nodes.len(), 3);
                assert!(
                    s.eval().connected,
                    "family {} seed {seed} must start connected",
                    f.label()
                );
            }
        }
    }

    #[test]
    fn demo_fixture_is_connected_through_the_channel() {
        let s = demo_fault_state(0);
        assert!(s.eval().connected);
        assert_eq!(s.enabled().len(), 1, "exactly the lin delivery");
    }
}
