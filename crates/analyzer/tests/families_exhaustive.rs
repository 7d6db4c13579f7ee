//! Acceptance suite: the checker's graph exhaustively covers the n = 3
//! line and star families to quiescence with zero violations.
//!
//! These are the real-protocol runs the paper's safety lemmas predict to
//! be clean: every message-delivery order and regular-action schedule
//! (one regular action per node, set-semantics channels) preserves weak
//! CC-connectivity and the monotone phase predicates, and every
//! quiescent state is reached without a single monitor firing. Each
//! graph branches on every coin outcome of `move-forget`, so it covers
//! the all-`0` and all-`MAX` coin sequences and every mixed one.
//! `scope_pin.rs` pins these two scopes' sizes and checks the clique.

use swn_analyzer::{FairGraph, Family, RealStepper};

fn check(family: Family) {
    let initial = family.initial_state(3, 1, 1);
    let g = FairGraph::build(&initial, &RealStepper, 2_000_000);
    assert!(
        !g.truncated,
        "{}: violation={:?}",
        family.label(),
        g.violation
    );
    assert!(g.terminals().count() >= 1, "must reach quiescence");
    assert!(g.len() > 1_000, "search must be non-trivial");
}

#[test]
fn line_is_clean_and_exhaustive_under_both_policies() {
    check(Family::Line);
}

#[test]
fn star_is_clean_and_exhaustive_under_both_policies() {
    check(Family::Star);
}
