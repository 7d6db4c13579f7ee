//! The small scopes the acceptance suite and CI explore, each built
//! once: its pinned size, its clean exhaustive verdict, the edge-local
//! facts the verdicts are built from, and the violation each seeded
//! mutant is caught with.
//!
//! The real-protocol scopes are the runs the paper's safety lemmas
//! predict to be clean: every message-delivery order and regular-action
//! schedule (one regular action per node, set-semantics channels)
//! preserves weak CC-connectivity and the monotone phase predicates, and
//! every quiescent state is reached without a single monitor firing.
//! Each graph branches on every coin outcome of `move-forget`, so it
//! covers the all-`0` and all-`MAX` coin sequences and every mixed one.
//! On each of them, read straight off [`FairGraph`]'s fields with no
//! analysis in between:
//!
//! * the ranking potential never increases along an edge;
//! * every sorted-ring (goal) state sits at [`GOAL_RANK`];
//! * no edge leads from an `is_ring_stable_config` state to one that is
//!   not (closure of the ring-stable region);
//! * from the ring seed, every reachable state is ring-stable.
//!
//! Any analysis that reports these verdicts must agree with this file.
//! The sizes are properties of the budgeted model (reachable states,
//! quiescent states, and transitions counted once per action and
//! distinct successor), not of the search that walks it: any exhaustive
//! exploration of the same scope must reproduce them.

use rand::Rng;
use swn_analyzer::families::{demo_fault_state, livelock_demo_state, ring_state};
use swn_analyzer::{
    BounceLinStepper, Coins, DropLinStepper, FairGraph, Family, RealStepper, SelfEchoStepper,
    State, Stepper, Violation, GOAL_RANK,
};
use swn_core::id::{evenly_spaced_ids, Extended};
use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::outbox::Outbox;

/// The state cap every scope here stays far below.
const MAX_STATES: usize = 2_000_000;

/// Builds a real-protocol scope's graph once and checks it: explored
/// exhaustively with no violation, at least one quiescent state, and the
/// edge-local rank, closure and goal facts. Returns the graph.
fn clean_scope(initial: &State, scope: &str) -> FairGraph {
    let g = FairGraph::build(initial, &RealStepper, MAX_STATES);
    assert!(
        !g.truncated && g.violation.is_none(),
        "{scope}: violation={:?}",
        g.violation
    );
    assert!(g.terminals().count() > 0, "{scope}: never quiesces");
    for (v, out) in g.edges.iter().enumerate() {
        for &(_, w) in out {
            let w = w as usize;
            assert!(g.rank[w] <= g.rank[v], "{scope}: rank rises {v} -> {w}");
            assert!(
                !g.stable[v] || g.stable[w],
                "{scope}: edge {v} -> {w} leaves the ring-stable region"
            );
        }
        assert!(
            !g.pred[v].sorted_ring || g.rank[v] == GOAL_RANK,
            "{scope}: goal state {v} above the minimum rank"
        );
    }
    g
}

/// States, quiescent states and transitions.
fn sizes(g: &FairGraph) -> (usize, usize, usize) {
    (g.len(), g.terminals().count(), g.edge_count())
}

#[test]
fn n3_budget1_line_sizes() {
    let g = clean_scope(&Family::Line.initial_state(3, 1, 1), "line n=3");
    assert_eq!(sizes(&g), (107_919, 25, 636_288));
}

#[test]
fn n3_budget1_star_sizes() {
    let g = clean_scope(&Family::Star.initial_state(3, 1, 1), "star n=3");
    assert_eq!(sizes(&g), (157_257, 18, 948_423));
}

#[test]
fn clique_is_clean_and_exhaustive() {
    let g = clean_scope(&Family::Clique.initial_state(3, 1, 1), "clique n=3");
    assert!(g.len() > 1_000, "search must be non-trivial");
}

#[test]
fn n2_budget3_line_sizes() {
    let g = clean_scope(&Family::Line.initial_state(2, 3, 1), "line n=2 budget=3");
    assert_eq!(sizes(&g), (551_943, 28, 4_259_937));
}

#[test]
fn n2_budget1_family_scopes() {
    for (family, want) in [
        (Family::Line, (1_005, 4_048)),
        (Family::Star, (1_005, 4_048)),
        (Family::Clique, (1_801, 8_450)),
    ] {
        let scope = family.label();
        let g = clean_scope(&family.initial_state(2, 1, 1), scope);
        assert_eq!((g.len(), g.edge_count()), want, "{scope}");
    }
}

#[test]
fn ring_seed_stays_ring_stable() {
    for (n, want) in [(2, (1_369, 6_290)), (3, (154_541, 1_100_840))] {
        let scope = format!("ring n={n}");
        let g = clean_scope(&ring_state(n, 1), &scope);
        assert_eq!((g.len(), g.edge_count()), want, "{scope}");
        assert!(
            g.stable.iter().all(|&b| b),
            "{scope}: a state is not ring-stable"
        );
    }
}

/// What one exhaustive exploration of a mutant's scope reports.
#[derive(Debug, PartialEq)]
struct Explored {
    states: usize,
    terminals: usize,
    transitions: usize,
    violation: Option<Violation>,
}

fn explore(initial: &State, stepper: &dyn Stepper) -> Explored {
    let g = FairGraph::build(initial, stepper, MAX_STATES);
    assert_eq!(g.truncated, g.violation.is_some(), "state cap hit");
    let (states, terminals, transitions) = sizes(&g);
    Explored {
        states,
        terminals,
        transitions,
        violation: g.violation.map(|f| f.violation),
    }
}

#[test]
fn each_mutant_is_caught_with_its_violation() {
    let ids = evenly_spaced_ids(2);
    let demo = demo_fault_state(1);
    assert_eq!(
        explore(&demo, &DropLinStepper).violation,
        Some(Violation::MonotonicityBroken {
            predicate: "weakly_connected(Cc)"
        })
    );
    assert_eq!(
        explore(&demo, &SelfEchoStepper).violation,
        Some(Violation::SelfSend {
            node: ids[0],
            msg: Message::Lin(ids[1]),
        })
    );
    // bounce-lin keeps every safety monitor green; only the fair-cycle
    // detector catches it (`liveness::tests`, `liveness_crosscheck.rs`).
    assert_eq!(
        explore(&livelock_demo_state(), &BounceLinStepper),
        Explored {
            states: 2,
            terminals: 0,
            transitions: 2,
            violation: None,
        }
    );
}

/// The words a handler draws from the wrapped generator, in order.
struct Recorder<'a, R: Rng> {
    inner: &'a mut R,
    words: Vec<u64>,
}

impl<R: Rng> Rng for Recorder<'_, R> {
    fn next_u64(&mut self) -> u64 {
        let w = self.inner.next_u64();
        self.words.push(w);
        w
    }
}

/// Mutant that misbehaves only on a mixed move-and-forget outcome: the
/// real handlers, plus a self-echo of the message whenever one `reslrl`
/// activation drew two coins that differ ("first, keep" or "second,
/// forget").
struct MixedCoinStepper;

impl Stepper for MixedCoinStepper {
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut Coins, out: &mut Outbox) {
        let mut rec = Recorder {
            inner: rng,
            words: Vec::new(),
        };
        node.on_message(msg, &mut rec, out);
        if let [a, b] = rec.words[..] {
            if a != b {
                out.send(node.id(), msg); // the bug, on mixed coins only
            }
        }
    }

    fn label(&self) -> &'static str {
        "mixed-coin"
    }
}

#[test]
fn mixed_coin_mutant_at_n2_budget3() {
    // The graph branches on both coins of a reslrl activation, so it
    // reaches the mixed outcomes the mutant echoes on, in every family.
    let ids = evenly_spaced_ids(2);
    let echo = |node: usize, cand: usize| {
        Some(Violation::SelfSend {
            node: ids[node],
            msg: Message::ResLrl(Extended::Fin(ids[cand]), Extended::Fin(ids[cand])),
        })
    };
    for (family, states, transitions, violation) in [
        (Family::Line, 238, 398, echo(1, 0)),
        (Family::Star, 238, 398, echo(1, 0)),
        (Family::Clique, 197, 357, echo(0, 1)),
    ] {
        assert_eq!(
            explore(&family.initial_state(2, 3, 1), &MixedCoinStepper),
            Explored {
                states,
                terminals: 0,
                transitions,
                violation,
            },
            "{}",
            family.label()
        );
    }
}
