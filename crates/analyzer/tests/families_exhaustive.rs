//! Acceptance suite: the checker's graph exhaustively covers every seeded
//! n = 3 topology family to quiescence with zero violations.
//!
//! These are the real-protocol runs the paper's safety lemmas predict to
//! be clean: every message-delivery order and regular-action schedule
//! (one regular action per node, set-semantics channels) preserves weak
//! CC-connectivity and the monotone phase predicates, and every
//! quiescent state is reached without a single monitor firing. The
//! heavier clique family runs under one policy here; the full
//! two-policy sweep is the `analyzer` binary's default mode, which CI
//! runs in release.

use swn_analyzer::{FairGraph, Family, Policy, RealStepper};

fn check(family: Family, policy: Policy) {
    let initial = family.initial_state(3, 1, 1);
    let g = FairGraph::build(&initial, &RealStepper, policy, 2_000_000);
    assert!(
        !g.truncated,
        "{} under {}: violation={:?}",
        family.label(),
        policy.label(),
        g.violation
    );
    assert!(g.terminals().count() >= 1, "must reach quiescence");
    assert!(g.len() > 1_000, "search must be non-trivial");
}

#[test]
fn line_is_clean_and_exhaustive_under_both_policies() {
    for policy in Policy::ALL {
        check(Family::Line, policy);
    }
}

#[test]
fn star_is_clean_and_exhaustive_under_both_policies() {
    for policy in Policy::ALL {
        check(Family::Star, policy);
    }
}

#[test]
fn clique_is_clean_and_exhaustive() {
    check(Family::Clique, Policy::Zeros);
}

#[test]
#[ignore = "heavy (~1.3M states); the analyzer binary's default sweep covers it"]
fn clique_is_clean_and_exhaustive_under_ones() {
    check(Family::Clique, Policy::Ones);
}
