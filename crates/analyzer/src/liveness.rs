//! Every verdict on one [`FairGraph`] of [`crate::explore`] —
//! livelock-freedom, closure and the ranking certificate — reached by
//! [`analyze`] from one scan of the edges and one SCC sweep.
//!
//! The monitors that run while the graph is built prove *monotonicity*:
//! once a phase predicate holds it never un-holds. That says nothing
//! about whether executions ever *reach* the sorted ring — a protocol
//! that loops forever without making progress passes every safety
//! monitor. This module closes that gap on the same graph.
//!
//! **The graph.** Per-node regular-action budgets, set-semantics
//! channels, a branch per coin outcome of `move-forget`. Budgets make
//! the graph finite, and they interact with fairness exactly right
//! rather than being an obstacle: a regular action strictly decreases
//! its node's budget, so **every cycle is delivery-only**, and on any
//! cycle where some node still has budget that node's regular action is
//! continuously enabled but never taken — the cycle is not weakly fair
//! and is correctly discarded. The fair cycles that remain are genuine
//! livelocks: message exchanges that sustain themselves forever.
//!
//! **Fairness.** An infinite execution is *weakly fair* when every
//! action that is continuously enabled is eventually taken: a budgeted
//! regular action stays enabled until taken, and a pending delivery
//! stays enabled until delivered (handlers only append to channels). In
//! a finite graph every infinite execution settles into one SCC,
//! visiting a subset of it infinitely often; a weakly fair one must take
//! every action enabled in *all* states it keeps visiting. Hence the
//! detector's SCC criterion: an SCC `C` supports a fair cycle iff every
//! action enabled in **every** state of `C` (the *obligations*) is
//! taken by some edge internal to `C`. Fairness constrains the
//! scheduler only: obligations compare scheduler actions
//! ([`action_of`]), and which coin outcome an edge took is the
//! adversary's choice, so "livelock-free" holds for every coin sequence.
//! If an obligation has no internal
//! edge, any run staying inside `C` starves a continuously enabled
//! action — not fair; conversely a tour of all of `C` taking each
//! obligation edge is a concrete fair lasso cycle, which
//! [`validate_lasso`] re-checks by replay, independently of the graph.
//!
//! **Livelock-freedom**: no fair SCC contains a non-goal state (goal =
//! `is_sorted_ring`). Terminal (quiescent) states are tallied as goal
//! vs. budget-starved; a terminal non-goal state means the scope's
//! budget ran out mid-stabilization, a scope artifact reported apart
//! from livelocks. A livelock comes back as a minimized lasso — stem
//! from the BFS tree, cycle from an obligation-covering tour — replayed
//! before it is believed.
//!
//! **Closure**: no edge leads from an `is_ring_stable_config` state
//! (sorted ring plus only declared benign chatter) to one that is not.
//! From the `ring` seed every reachable state is therefore ring-stable;
//! from an adversarial seed the check covers every ring-stable state
//! the scope reaches.
//!
//! **Ranking**: the certificate of [`crate::ranking`] — the potential
//! never increases along an edge and goal states sit at [`GOAL_RANK`].
//! Its third obligation, no fair equal-rank (stutter) cycle through a
//! non-goal state, is the livelock sweep itself: when the rank is
//! monotone, each edge inside an SCC is rank-constant (its target
//! reaches its source back), so the equal-rank subgraph has exactly the
//! full graph's SCCs, internal edges and witnesses. The per-edge part is
//! transition-local, so its validity does not depend on the budget that
//! bounded the search.

use crate::explore::{action_of, graph_fp, pack_label, unpack_label, FairGraph};
use crate::minimize::{minimize_lasso, minimize_with};
use crate::ranking::{Rank, GOAL_RANK};
use crate::state::{State, Transition};
use crate::stepper::Stepper;
#[expect(
    clippy::disallowed_types,
    reason = "BFS parent lookup; iteration order is never observed"
)]
use std::collections::{HashMap, VecDeque};
use swn_core::invariants::{is_ring_stable_config_view, is_sorted_ring_view};

/// Iterative Tarjan: strongly connected components of `edges`.
/// Returns the component id per vertex (ids in reverse topological
/// order of discovery) and the component count.
fn tarjan(edges: &[Vec<(u64, u32)>]) -> (Vec<u32>, u32) {
    const UNSET: u32 = u32::MAX;
    let n = edges.len();
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut comp = vec![UNSET; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;
    // Vertex ids are u32 by construction (max_states bounds the graph).
    #[allow(clippy::cast_possible_truncation)]
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        call.push((root, 0));
        while let Some(&(v, ei)) = call.last() {
            let vu = v as usize;
            if ei == 0 {
                index[vu] = next_index;
                lowlink[vu] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vu] = true;
            }
            if let Some(&(_, w)) = edges[vu].get(ei) {
                call.last_mut().expect("nonempty").1 += 1;
                let wu = w as usize;
                if index[wu] == UNSET {
                    call.push((w, 0));
                } else if on_stack[wu] {
                    lowlink[vu] = lowlink[vu].min(index[wu]);
                }
            } else {
                if lowlink[vu] == index[vu] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
                call.pop();
                if let Some(&(u, _)) = call.last() {
                    let uu = u as usize;
                    lowlink[uu] = lowlink[uu].min(lowlink[vu]);
                }
            }
        }
    }
    (comp, comp_count)
}

/// Sorted, deduplicated scheduler actions of `v`'s out-edges — its
/// enabled actions.
fn out_labels(edges: &[Vec<(u64, u32)>], v: u32) -> Vec<u64> {
    let mut ls: Vec<u64> = edges[v as usize].iter().map(|e| action_of(e.0)).collect();
    ls.sort_unstable();
    ls.dedup();
    ls
}

/// A fair SCC containing a non-goal state, with everything lasso
/// construction needs.
struct FairBadScc {
    /// Members of the component.
    members: Vec<u32>,
    /// Actions enabled in every member (must all appear on internal
    /// cycle edges for the component to be fair).
    obligations: Vec<u64>,
    /// A non-goal member with the smallest BFS index (shortest stem).
    bad: u32,
}

/// Outcome of the SCC sweep.
struct SccSweep {
    comp_count: usize,
    max_size: usize,
    /// Nontrivial components whose obligations are all internally
    /// available — each supports a fair cycle.
    fair_nontrivial: usize,
    /// The first (shallowest witness) fair component with a non-goal
    /// state, if any.
    violation: Option<FairBadScc>,
}

/// SCC + fairness sweep over the whole graph.
fn sweep_fair_sccs(g: &FairGraph) -> SccSweep {
    let (comp, comp_count) = tarjan(&g.edges);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); comp_count as usize];
    // Vertex ids are u32 by construction (max_states bounds the graph).
    #[allow(clippy::cast_possible_truncation)]
    for v in 0..comp.len() as u32 {
        members[comp[v as usize] as usize].push(v);
    }
    let mut sweep = SccSweep {
        comp_count: comp_count as usize,
        max_size: members.iter().map(Vec::len).max().unwrap_or(0),
        fair_nontrivial: 0,
        violation: None,
    };
    for (cid, ms) in members.iter().enumerate() {
        let nontrivial = ms.len() > 1 || g.edges[ms[0] as usize].iter().any(|&(_, w)| w == ms[0]);
        if !nontrivial {
            continue;
        }
        let mut obligations = out_labels(&g.edges, ms[0]);
        for &v in &ms[1..] {
            let here = out_labels(&g.edges, v);
            obligations.retain(|l| here.binary_search(l).is_ok());
            if obligations.is_empty() {
                break;
            }
        }
        let internal: Vec<u64> = {
            let mut ls: Vec<u64> = ms
                .iter()
                .flat_map(|&v| g.edges[v as usize].iter())
                .filter(|&&(_, w)| comp[w as usize] as usize == cid)
                .map(|&(l, _)| action_of(l))
                .collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        };
        let fair = obligations
            .iter()
            .all(|l| internal.binary_search(l).is_ok());
        if !fair {
            continue;
        }
        sweep.fair_nontrivial += 1;
        if let Some(&bad) = ms
            .iter()
            .filter(|&&v| !g.pred[v as usize].sorted_ring)
            .min()
        {
            let better = sweep.violation.as_ref().is_none_or(|prev| bad < prev.bad);
            if better {
                sweep.violation = Some(FairBadScc {
                    members: ms.clone(),
                    obligations,
                    bad,
                });
            }
        }
    }
    sweep
}

/// Shortest path inside one component of `edges` from `from` to `to`
/// (`from == to` gives the empty path), as `(label, target)` hops.
fn path_within(edges: &[Vec<(u64, u32)>], members: &[u32], from: u32, to: u32) -> Vec<(u64, u32)> {
    if from == to {
        return Vec::new();
    }
    #[expect(
        clippy::disallowed_types,
        reason = "membership + BFS parent lookups only"
    )]
    let mut parent: HashMap<u32, (u32, u64)> = HashMap::new();
    let member = |v: u32| members.binary_search(&v).is_ok();
    let mut queue = VecDeque::new();
    queue.push_back(from);
    'bfs: while let Some(v) = queue.pop_front() {
        for &(l, w) in &edges[v as usize] {
            if !member(w) || w == from || parent.contains_key(&w) {
                continue;
            }
            parent.insert(w, (v, l));
            if w == to {
                break 'bfs;
            }
            queue.push_back(w);
        }
    }
    let mut hops = Vec::new();
    let mut cur = to;
    while cur != from {
        let &(p, l) = parent
            .get(&cur)
            .expect("SCC members are mutually reachable");
        hops.push((l, cur));
        cur = p;
    }
    hops.reverse();
    hops
}

/// A concrete non-converging fair execution: finite `stem` from the
/// initial state, then `cycle` repeated forever.
#[derive(Clone, Debug)]
pub struct Lasso {
    /// Schedule from the initial state to the cycle's anchor state.
    pub stem: Vec<Transition>,
    /// Schedule that returns to the anchor, is weakly fair, and visits a
    /// non-goal state.
    pub cycle: Vec<Transition>,
}

/// Builds a concrete cycle through `scc.bad`: a tour visiting **every**
/// member (so any action enabled on the whole tour is enabled on the
/// whole component, i.e. an obligation) and taking every obligation
/// edge, closed back to the anchor.
fn build_cycle(edges: &[Vec<(u64, u32)>], scc: &FairBadScc) -> Vec<(u64, u32)> {
    fn append_hops(seq: &mut Vec<(u64, u32)>, cur: &mut u32, hops: Vec<(u64, u32)>) {
        for (l, w) in hops {
            *cur = w;
            seq.push((l, w));
        }
    }
    let mut members = scc.members.clone();
    members.sort_unstable();
    let anchor = scc.bad;
    let mut seq: Vec<(u64, u32)> = Vec::new();
    let mut cur = anchor;
    for &m in &members {
        let hops = path_within(edges, &members, cur, m);
        append_hops(&mut seq, &mut cur, hops);
    }
    for &obl in &scc.obligations {
        if seq.iter().any(|&(l, _)| action_of(l) == obl) {
            continue;
        }
        let (src, edge) = members
            .iter()
            .find_map(|&v| {
                edges[v as usize]
                    .iter()
                    .find(|&&(l, w)| action_of(l) == obl && members.binary_search(&w).is_ok())
                    .map(|&edge| (v, edge))
            })
            .expect("fair SCC has an internal edge per obligation");
        let hops = path_within(edges, &members, cur, src);
        append_hops(&mut seq, &mut cur, hops);
        append_hops(&mut seq, &mut cur, vec![edge]);
    }
    let hops = path_within(edges, &members, cur, anchor);
    append_hops(&mut seq, &mut cur, hops);
    if seq.is_empty() {
        // Single state with a self-loop: the loop is the cycle.
        let &(l, w) = edges[anchor as usize]
            .iter()
            .find(|&&(_, w)| w == anchor)
            .expect("nontrivial singleton has a self-loop");
        seq.push((l, w));
    }
    seq
}

/// Replays `trace`, returning every configuration along the way
/// (`result[0]` is `initial`); `None` when a transition is not enabled.
pub fn replay_states(
    initial: &State,
    stepper: &dyn Stepper,
    trace: &[Transition],
) -> Option<Vec<State>> {
    let mut states = vec![initial.clone()];
    for t in trace {
        let a = states.last().expect("nonempty").apply(stepper, t)?;
        states.push(a.next);
    }
    Some(states)
}

/// Replay-validates a lasso independently of the graph: the stem
/// replays, the cycle replays and returns to its anchor (canonical
/// symmetry key, budgets included), visits a non-goal state, and is
/// weakly fair — every scheduler action enabled in all of its states is
/// taken by it, under whatever coin outcome. Budget equality at the
/// anchor means a valid cycle spends no budget, i.e. it is
/// delivery-only.
pub fn validate_lasso(
    initial: &State,
    stepper: &dyn Stepper,
    stem: &[Transition],
    cycle: &[Transition],
) -> bool {
    if cycle.is_empty() {
        return false;
    }
    let Some(stem_states) = replay_states(initial, stepper, stem) else {
        return false;
    };
    let anchor = stem_states.last().expect("nonempty");
    let Some(cycle_states) = replay_states(anchor, stepper, cycle) else {
        return false;
    };
    if graph_fp(cycle_states.last().expect("nonempty")) != graph_fp(anchor) {
        return false;
    }
    let on_cycle = &cycle_states[..cycle_states.len() - 1];
    let some_non_goal = on_cycle.iter().any(|s| !is_sorted_ring_view(&s.view()));
    if !some_non_goal {
        return false;
    }
    let mut obligations = out_label_set_of(initial, &on_cycle[0]);
    for s in &on_cycle[1..] {
        let here = out_label_set_of(initial, s);
        obligations.retain(|l| here.binary_search(l).is_ok());
    }
    let taken: Vec<u64> = cycle
        .iter()
        .map(|t| action_of(pack_label(initial, t)))
        .collect();
    obligations.iter().all(|l| taken.contains(l))
}

/// Sorted enabled-action labels of `s` (labels are node-vector relative,
/// so any state of the run can carry the encoding context). Enabled
/// actions name no coins, so each label is its own [`action_of`].
fn out_label_set_of(ctx: &State, s: &State) -> Vec<u64> {
    let mut ls: Vec<u64> = s.enabled().iter().map(|t| pack_label(ctx, t)).collect();
    ls.sort_unstable();
    ls.dedup();
    ls
}

/// Every verdict [`analyze`] reaches on one graph. Whether the graph is
/// exhaustive is the graph's own fact ([`FairGraph::truncated`]); a
/// counterexample found in a truncated graph is still real.
#[derive(Clone, Debug)]
pub struct Report {
    /// States satisfying the goal predicate, `is_sorted_ring`.
    pub goal_states: usize,
    /// States also satisfying the stricter `is_ring_stable_config`.
    pub stable_states: usize,
    /// Terminal (quiescent) states: budgets spent, channels drained.
    pub terminals: usize,
    /// Terminal states that are *not* the sorted ring — executions the
    /// scope's budget cut off mid-stabilization. A scope artifact, kept
    /// apart from livelocks: growing the budget shrinks this number,
    /// while a livelock survives every budget.
    pub terminal_nongoal: usize,
    /// Strongly connected components.
    pub scc_count: usize,
    /// Largest component size.
    pub max_scc: usize,
    /// Nontrivial components supporting a fair cycle.
    pub fair_sccs: usize,
    /// A minimized, replay-validated fair lasso that avoids the goal.
    pub lasso: Option<Lasso>,
    /// A minimized schedule whose last step leaves the ring-stable
    /// region.
    pub escape: Option<Vec<Transition>>,
    /// A schedule ending in a rank-increasing transition, with the ranks
    /// around it.
    pub increase: Option<(Vec<Transition>, Rank, Rank)>,
    /// True when every goal state sits at [`GOAL_RANK`].
    pub goal_at_minimum: bool,
}

impl Report {
    /// No fair cycle passes through a non-goal state: no execution in
    /// scope loops forever outside the sorted ring.
    pub fn livelock_free(&self) -> bool {
        self.lasso.is_none()
    }

    /// No edge leaves the ring-stable region.
    pub fn closed(&self) -> bool {
        self.escape.is_none()
    }

    /// The potential never increased along an edge.
    pub fn monotone(&self) -> bool {
        self.increase.is_none()
    }

    /// The ranking certificate: monotone, goal at the minimum, and — the
    /// stutter obligation, which monotonicity reduces to the livelock
    /// sweep — no fair rank-constant cycle through a non-goal state.
    pub fn certified(&self) -> bool {
        self.monotone() && self.goal_at_minimum && self.livelock_free()
    }
}

/// Judges a built graph on every property: one scan of the edges for
/// closure and rank monotonicity, one SCC sweep for fair cycles.
///
/// # Panics
/// Panics if an extracted lasso fails replay validation — that would
/// mean the detector and the protocol semantics disagree, which is a
/// checker bug, never a protocol bug.
pub fn analyze(g: &FairGraph, stepper: &dyn Stepper) -> Report {
    let trace_to = |v: u32, label: u64| {
        let mut trace = g.stem_to(v);
        trace.push(unpack_label(&g.initial, label));
        trace
    };
    let mut increase = None;
    let mut escape = None;
    for (v, out) in (0u32..).zip(&g.edges) {
        let (from, stable) = (g.rank[v as usize], g.stable[v as usize]);
        for &(l, w) in out {
            let to = g.rank[w as usize];
            if increase.is_none() && to > from {
                increase = Some((trace_to(v, l), from, to));
            }
            if escape.is_none() && stable && !g.stable[w as usize] {
                escape = Some(trace_to(v, l));
            }
        }
    }
    let escape = escape.map(|trace| {
        let escapes = |trace: &[Transition]| {
            replay_states(&g.initial, stepper, trace).is_some_and(|states| {
                states.windows(2).any(|p| {
                    is_ring_stable_config_view(&p[0].view())
                        && !is_ring_stable_config_view(&p[1].view())
                })
            })
        };
        minimize_with(&trace, &escapes)
    });
    let sweep = sweep_fair_sccs(g);
    let lasso = sweep.violation.as_ref().map(|scc| {
        let lasso = extract_lasso(g, stepper, scc);
        assert!(
            validate_lasso(&g.initial, stepper, &lasso.stem, &lasso.cycle),
            "minimized lasso must replay as a fair non-goal cycle"
        );
        lasso
    });
    let terminal: Vec<u32> = g.terminals().collect();
    Report {
        goal_states: g.pred.iter().filter(|p| p.sorted_ring).count(),
        stable_states: g.stable.iter().filter(|&&b| b).count(),
        terminals: terminal.len(),
        terminal_nongoal: terminal
            .iter()
            .filter(|&&v| !g.pred[v as usize].sorted_ring)
            .count(),
        scc_count: sweep.comp_count,
        max_scc: sweep.max_size,
        fair_sccs: sweep.fair_nontrivial,
        lasso,
        escape,
        increase,
        goal_at_minimum: g
            .pred
            .iter()
            .zip(&g.rank)
            .all(|(p, &r)| !p.sorted_ring || r == GOAL_RANK),
    }
}

/// Stem from the BFS tree + obligation-covering tour, then independent
/// stem/cycle shrinking under replay validation.
fn extract_lasso(g: &FairGraph, stepper: &dyn Stepper, scc: &FairBadScc) -> Lasso {
    let stem = g.stem_to(scc.bad);
    let cycle: Vec<Transition> = build_cycle(&g.edges, scc)
        .into_iter()
        .map(|(l, _)| unpack_label(&g.initial, l))
        .collect();
    assert!(
        validate_lasso(&g.initial, stepper, &stem, &cycle),
        "raw lasso must replay before minimization"
    );
    let valid = |stem: &[Transition], cycle: &[Transition]| {
        validate_lasso(&g.initial, stepper, stem, cycle)
    };
    let (stem, cycle) = minimize_lasso(&stem, &cycle, &valid);
    Lasso { stem, cycle }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{livelock_demo_state, ring_state};
    use crate::state::Violation;
    use crate::stepper::{BounceLinStepper, RealStepper, SelfEchoStepper};

    #[test]
    fn tarjan_on_a_known_shape() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3; SCCs: {0}, {1,2}, {3}.
        let edges: Vec<Vec<(u64, u32)>> =
            vec![vec![(0, 1)], vec![(1, 2)], vec![(2, 1), (3, 3)], vec![]];
        let (comp, count) = tarjan(&edges);
        assert_eq!(count, 3);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[1]);
        assert_ne!(comp[3], comp[1]);
    }

    #[test]
    fn real_protocol_pair_is_livelock_free() {
        let s = crate::families::Family::Line.initial_state(2, 2, 1);
        let g = FairGraph::build(&s, &RealStepper, 500_000);
        let report = analyze(&g, &RealStepper);
        assert!(report.livelock_free(), "fair sccs: {}", report.fair_sccs);
        assert!(report.goal_states > 0, "the pair must reach its ring");
        assert!(report.terminals > 0, "budgets exhaust, schedules quiesce");
    }

    #[test]
    fn bounce_mutant_produces_validated_lasso() {
        let s = livelock_demo_state();
        let g = FairGraph::build(&s, &BounceLinStepper, 500_000);
        let report = analyze(&g, &BounceLinStepper);
        assert!(!g.truncated);
        let lasso = report.lasso.expect("livelock must be detected");
        assert!(!lasso.cycle.is_empty());
        // Validation already ran inside analyze; re-assert the replay
        // here as the outermost end-to-end check.
        assert!(validate_lasso(
            &s,
            &BounceLinStepper,
            &lasso.stem,
            &lasso.cycle
        ));
    }

    #[test]
    fn bounce_verdict_is_monotone_but_not_certified() {
        // The rank never rises and the goal sits at the minimum, yet the
        // livelock — a rank-constant fair cycle — denies the certificate.
        let s = livelock_demo_state();
        let g = FairGraph::build(&s, &BounceLinStepper, 500_000);
        let report = analyze(&g, &BounceLinStepper);
        assert!(report.monotone() && report.goal_at_minimum);
        assert!(!report.livelock_free() && !report.certified());
        assert_eq!(report.fair_sccs, 1);
        let lasso = report.lasso.expect("the stutter cycle is the lasso");
        assert!(validate_lasso(
            &s,
            &BounceLinStepper,
            &lasso.stem,
            &lasso.cycle
        ));
    }

    #[test]
    fn ring_pair_is_closed() {
        let s = ring_state(2, 2);
        let g = FairGraph::build(&s, &RealStepper, 500_000);
        let report = analyze(&g, &RealStepper);
        assert!(!g.truncated);
        assert!(report.closed(), "escape: {:?}", report.escape);
        assert!(report.certified());
        assert_eq!(report.stable_states, g.len());
    }

    #[test]
    fn monitors_run_under_closure_too() {
        // The ring's own chatter delivers messages, so the echo mutant
        // self-sends on a clean-looking ring; the graph stops there.
        let g = FairGraph::build(&ring_state(3, 1), &SelfEchoStepper, 500_000);
        analyze(&g, &SelfEchoStepper);
        assert!(g.truncated);
        let found = g.violation.expect("the self-send monitor fires");
        assert!(matches!(found.violation, Violation::SelfSend { .. }));
        let r = crate::minimize::replay(&g.initial, &SelfEchoStepper, &found.trace);
        assert!(r.complete);
        assert_eq!(r.first_violation(), Some(found.violation));
    }

    #[test]
    fn labels_round_trip() {
        let s = livelock_demo_state();
        for t in s.enabled() {
            let l = pack_label(&s, &t);
            assert_eq!(unpack_label(&s, l), t);
        }
    }
}
