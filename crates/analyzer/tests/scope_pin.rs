//! Pinned sizes of the small scopes the acceptance suite and CI explore,
//! and the violation each seeded mutant is caught with.
//!
//! The numbers are properties of the budgeted model (reachable states,
//! quiescent states, applied transitions), not of the search that walks
//! it: any exhaustive exploration of the same scope must reproduce them.
//! Only `explore` below knows which search that is.

use swn_analyzer::families::{demo_fault_state, livelock_demo_state};
use swn_analyzer::{
    BounceLinStepper, DropLinStepper, FairGraph, Family, Policy, RealStepper, SelfEchoStepper,
    State, Stepper, Violation,
};
use swn_core::id::evenly_spaced_ids;
use swn_core::message::Message;

/// What one exhaustive exploration of a scope reports.
#[derive(Debug, PartialEq)]
struct Explored {
    states: usize,
    terminals: usize,
    transitions: usize,
    violation: Option<Violation>,
}

fn explore(initial: &State, stepper: &dyn Stepper, policy: Policy) -> Explored {
    let g = FairGraph::build(initial, stepper, policy, 2_000_000);
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
    policy: Policy,
    (states, terminals, transitions): (usize, usize, usize),
) {
    assert_eq!(
        explore(&family.initial_state(n, budget, 1), &RealStepper, policy),
        Explored {
            states,
            terminals,
            transitions,
            violation: None,
        },
        "{} n={n} budget={budget} under {}",
        family.label(),
        policy.label()
    );
}

#[test]
fn n3_budget1_line_sizes() {
    assert_clean_sizes(Family::Line, 3, 1, Policy::Zeros, (106_959, 23, 601_136));
    assert_clean_sizes(Family::Line, 3, 1, Policy::Ones, (79_743, 10, 462_236));
}

#[test]
fn n3_budget1_star_sizes() {
    assert_clean_sizes(Family::Star, 3, 1, Policy::Zeros, (127_101, 11, 753_467));
    assert_clean_sizes(Family::Star, 3, 1, Policy::Ones, (153_477, 18, 893_451));
}

#[test]
fn n2_budget3_line_sizes() {
    assert_clean_sizes(Family::Line, 2, 3, Policy::Zeros, (378_007, 12, 2_642_841));
}

#[test]
fn each_mutant_is_caught_with_its_violation() {
    let ids = evenly_spaced_ids(2);
    let demo = demo_fault_state(1);
    assert_eq!(
        explore(&demo, &DropLinStepper, Policy::Zeros).violation,
        Some(Violation::MonotonicityBroken {
            predicate: "weakly_connected(Cc)"
        })
    );
    assert_eq!(
        explore(&demo, &SelfEchoStepper, Policy::Zeros).violation,
        Some(Violation::SelfSend {
            node: ids[0],
            msg: Message::Lin(ids[1]),
        })
    );
    // bounce-lin keeps every safety monitor green; only the fair-cycle
    // detector catches it (`liveness::tests`, `liveness_crosscheck.rs`).
    assert_eq!(
        explore(&livelock_demo_state(), &BounceLinStepper, Policy::Zeros),
        Explored {
            states: 2,
            terminals: 0,
            transitions: 2,
            violation: None,
        }
    );
}
