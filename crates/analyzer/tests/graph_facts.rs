//! Per-state facts of the scope graphs, read straight off
//! [`FairGraph`]'s fields with no analysis in between.
//!
//! For small scopes of every seed — the line, star and clique families
//! and the canonical sorted ring — this pins the graph's size and the
//! four edge-local facts the verdicts are built from:
//!
//! * the ranking potential never increases along an edge;
//! * every sorted-ring (goal) state sits at [`GOAL_RANK`];
//! * no edge leads from an `is_ring_stable_config` state to one that is
//!   not (closure of the ring-stable region);
//! * from the ring seed, every reachable state is ring-stable.
//!
//! Any analysis that reports these verdicts must agree with this file.

use swn_analyzer::families::ring_state;
use swn_analyzer::{FairGraph, Family, RealStepper, State, GOAL_RANK};

/// Builds the scope's graph, checks the edge-local facts, and returns
/// the graph.
fn facts(initial: &State, scope: &str) -> FairGraph {
    let g = FairGraph::build(initial, &RealStepper, 2_000_000);
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

fn size(g: &FairGraph) -> (usize, usize) {
    (g.len(), g.edge_count())
}

#[test]
fn n2_budget1_family_scopes() {
    for (family, want) in [
        (Family::Line, (1_005, 4_048)),
        (Family::Star, (1_005, 4_048)),
        (Family::Clique, (1_801, 8_450)),
    ] {
        let scope = family.label();
        let g = facts(&family.initial_state(2, 1, 1), scope);
        assert_eq!(size(&g), want, "{scope}");
    }
}

#[test]
fn n2_budget3_line_scope() {
    let initial = Family::Line.initial_state(2, 3, 1);
    assert_eq!(size(&facts(&initial, "line")), (551_943, 4_259_937));
}

#[test]
fn ring_seed_stays_ring_stable() {
    for (n, want) in [(2, (1_369, 6_290)), (3, (154_541, 1_100_840))] {
        let scope = format!("ring n={n}");
        let g = facts(&ring_state(n, 1), &scope);
        assert_eq!(size(&g), want, "{scope}");
        assert!(
            g.stable.iter().all(|&b| b),
            "{scope}: a state is not ring-stable"
        );
    }
}
