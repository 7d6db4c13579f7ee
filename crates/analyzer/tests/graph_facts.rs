//! Per-state facts of the n = 2 budget-3 line scope, read straight off
//! [`FairGraph`]'s fields with no analysis in between: its size and the
//! edge-local facts the verdicts are built from.
//!
//! * the ranking potential never increases along an edge;
//! * every sorted-ring (goal) state sits at [`GOAL_RANK`];
//! * no edge leads from an `is_ring_stable_config` state to one that is
//!   not (closure of the ring-stable region).
//!
//! `scope_pin.rs` checks the same facts on the other scopes.

use swn_analyzer::{FairGraph, Family, RealStepper, GOAL_RANK};

#[test]
fn n2_budget3_line_scope() {
    let initial = Family::Line.initial_state(2, 3, 1);
    let g = FairGraph::build(&initial, &RealStepper, 2_000_000);
    assert!(g.terminals().count() > 0, "line: never quiesces");
    for (v, out) in g.edges.iter().enumerate() {
        for &(_, w) in out {
            let w = w as usize;
            assert!(g.rank[w] <= g.rank[v], "line: rank rises {v} -> {w}");
            assert!(
                !g.stable[v] || g.stable[w],
                "line: edge {v} -> {w} leaves the ring-stable region"
            );
        }
        assert!(
            !g.pred[v].sorted_ring || g.rank[v] == GOAL_RANK,
            "line: goal state {v} above the minimum rank"
        );
    }
    assert_eq!((g.len(), g.edge_count()), (551_943, 4_259_937));
}
