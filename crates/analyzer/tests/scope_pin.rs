//! Pinned sizes of the small scopes the acceptance suite and CI explore,
//! and the violation each seeded mutant is caught with.
//!
//! The numbers are properties of the budgeted model (reachable states,
//! quiescent states, and transitions counted once per action and
//! distinct successor), not of the search that walks it: any exhaustive
//! exploration of the same scope must reproduce them.
//! Only `explore` below knows which search that is.

use rand::Rng;
use swn_analyzer::families::{demo_fault_state, livelock_demo_state};
use swn_analyzer::{
    BounceLinStepper, Coins, DropLinStepper, FairGraph, Family, RealStepper, SelfEchoStepper,
    State, Stepper, Violation,
};
use swn_core::id::{evenly_spaced_ids, Extended};
use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::outbox::Outbox;

/// What one exhaustive exploration of a scope reports.
#[derive(Debug, PartialEq)]
struct Explored {
    states: usize,
    terminals: usize,
    transitions: usize,
    violation: Option<Violation>,
}

fn explore(initial: &State, stepper: &dyn Stepper) -> Explored {
    let g = FairGraph::build(initial, stepper, 2_000_000);
    assert_eq!(g.truncated, g.violation.is_some(), "state cap hit");
    Explored {
        states: g.len(),
        terminals: g.terminals().count(),
        transitions: g.edge_count(),
        violation: g.violation.map(|f| f.violation),
    }
}

fn assert_clean_sizes(
    family: Family,
    n: usize,
    budget: u32,
    (states, terminals, transitions): (usize, usize, usize),
) {
    assert_eq!(
        explore(&family.initial_state(n, budget, 1), &RealStepper),
        Explored {
            states,
            terminals,
            transitions,
            violation: None,
        },
        "{} n={n} budget={budget}",
        family.label()
    );
}

#[test]
fn n3_budget1_line_sizes() {
    assert_clean_sizes(Family::Line, 3, 1, (107_919, 25, 636_288));
}

#[test]
fn n3_budget1_star_sizes() {
    assert_clean_sizes(Family::Star, 3, 1, (157_257, 18, 948_423));
}

#[test]
fn n2_budget3_line_sizes() {
    assert_clean_sizes(Family::Line, 2, 3, (551_943, 28, 4_259_937));
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
