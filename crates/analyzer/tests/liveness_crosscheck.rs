//! Independent cross-checks of the liveness machinery.
//!
//! Two oracles, both deliberately dumber than the production code:
//!
//! * **Brute-force lasso enumeration** — the fair-cycle detector of
//!   `swn_analyzer::liveness` works per SCC (an SCC supports a fair
//!   lasso iff every obligation label appears on an internal edge). Here
//!   the same question is answered by enumerating simple cycles directly
//!   with a depth-first path search and testing each cycle against the
//!   weak-fairness definition, then asserting the two answers agree on
//!   graphs small enough to enumerate — the bounce-lin livelock fixture
//!   (where the answer is *yes*) and real-protocol pairs (where it is
//!   *no*, and the brute force additionally certifies the stronger fact
//!   that the budgeted graph has no cycle at all).
//!
//! * **Random storage permutations** — `canonical_key` claims two
//!   configurations differing only in node-vector storage order get the
//!   same key. The property test drives a seeded random walk (random
//!   action, random coin outcome, both drawn from what
//!   `State::outcomes` — the graph's own expansion — offers) to an
//!   arbitrary reachable state, scrambles the storage order with a
//!   random permutation (nodes, channels and budgets move together),
//!   and asserts key equality.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use swn_analyzer::explore::action_of;
use swn_analyzer::families::livelock_demo_state;
use swn_analyzer::{
    analyze, canonical_key, BounceLinStepper, FairGraph, Family, RealStepper, State, Stepper,
};

/// Three-color depth-first search for cycle existence — linear, and a
/// different algorithm from the detector's Tarjan SCCs. Gates the
/// exponential cycle enumeration: acyclic graphs skip it entirely.
fn has_cycle(g: &FairGraph) -> bool {
    let n = g.len();
    // 0 = white, 1 = on the current path, 2 = finished.
    let mut color = vec![0u8; n];
    #[allow(clippy::cast_possible_truncation)] // vertex ids are u32 by construction
    for root in 0..n as u32 {
        if color[root as usize] != 0 {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        color[root as usize] = 1;
        while let Some(&mut (v, ref mut k)) = stack.last_mut() {
            if let Some(&(_, t)) = g.edges[v as usize].get(*k) {
                *k += 1;
                match color[t as usize] {
                    0 => {
                        color[t as usize] = 1;
                        stack.push((t, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                color[v as usize] = 2;
                stack.pop();
            }
        }
    }
    false
}

/// All simple cycles of `g` up to `max_len` edges, as vertex sequences
/// `v0 -> … -> v0` (first vertex repeated at the end is implicit).
fn simple_cycles(g: &FairGraph, max_len: usize) -> Vec<Vec<u32>> {
    let mut cycles = Vec::new();
    #[allow(clippy::cast_possible_truncation)] // vertex ids are u32 by construction
    let n = g.len() as u32;
    for start in 0..n {
        // Paths restricted to vertices >= start so each cycle is found
        // once, rooted at its smallest vertex.
        let mut path = vec![start];
        let mut stack = vec![g.edges[start as usize]
            .iter()
            .map(|&(_, t)| t)
            .collect::<Vec<_>>()];
        while let Some(frontier) = stack.last_mut() {
            let Some(next) = frontier.pop() else {
                path.pop();
                stack.pop();
                continue;
            };
            if next == start {
                cycles.push(path.clone());
                continue;
            }
            if next < start || path.contains(&next) || path.len() >= max_len {
                continue;
            }
            path.push(next);
            stack.push(g.edges[next as usize].iter().map(|&(_, t)| t).collect());
        }
    }
    cycles
}

/// The weak-fairness definition applied literally to one cycle: the
/// scheduler actions enabled in *every* cycle state (its obligations)
/// must all be taken by the cycle, under any coin outcome, and some
/// cycle state must miss the goal.
fn cycle_is_fair_nongoal(g: &FairGraph, cycle: &[u32]) -> bool {
    let label_set = |v: u32| -> Vec<u64> {
        let mut l: Vec<u64> = g.edges[v as usize]
            .iter()
            .map(|&(lab, _)| action_of(lab))
            .collect();
        l.sort_unstable();
        l
    };
    let mut obligations = label_set(cycle[0]);
    for &v in &cycle[1..] {
        let here = label_set(v);
        obligations.retain(|l| here.binary_search(l).is_ok());
    }
    let mut taken = Vec::new();
    for (k, &v) in cycle.iter().enumerate() {
        let w = cycle[(k + 1) % cycle.len()];
        for &(lab, t) in &g.edges[v as usize] {
            if t == w {
                taken.push(action_of(lab));
            }
        }
    }
    obligations.iter().all(|l| taken.contains(l))
        && cycle.iter().any(|&v| !g.pred[v as usize].sorted_ring)
}

/// Runs both the production detector and the brute force on one scope
/// and asserts they agree.
fn cross_check(initial: &State, stepper: &dyn Stepper) -> bool {
    let g = FairGraph::build(initial, stepper, 200_000);
    assert!(!g.truncated, "cross-check scopes must be exhaustive");
    let report = analyze(&g, stepper);
    let brute = has_cycle(&g)
        && simple_cycles(&g, g.len().min(32))
            .iter()
            .any(|c| cycle_is_fair_nongoal(&g, c));
    assert_eq!(
        report.lasso.is_some(),
        brute,
        "SCC detector and brute-force lasso enumeration disagree \
         ({} states, {} fair SCCs)",
        g.len(),
        report.fair_sccs
    );
    brute
}

#[test]
fn brute_force_confirms_the_bounce_livelock() {
    assert!(
        cross_check(&livelock_demo_state(), &BounceLinStepper),
        "the bounce-lin fixture must livelock under both oracles"
    );
}

#[test]
fn brute_force_confirms_the_real_protocol_on_the_fixture() {
    // Same fixture, correct stepper: the preloaded Lin is absorbed and
    // both oracles must report no fair non-goal cycle.
    assert!(!cross_check(&livelock_demo_state(), &RealStepper));
}

#[test]
fn brute_force_finds_no_cycle_in_budgeted_pair_graphs() {
    // Real-protocol pair scopes: the brute force proves the stronger
    // fact that the budgeted graph is acyclic (every cycle would have to
    // be delivery-only, and deliveries strictly drain the channels once
    // budgets stop refilling them).
    for family in [Family::Line, Family::Clique] {
        let initial = family.initial_state(2, 1, 1);
        assert!(
            !cross_check(&initial, &RealStepper),
            "{:?} pair must be livelock-free",
            family.label()
        );
    }
}

#[test]
#[ignore = "heavy in debug (n = 3 graphs up to 1.8M states); CI's analyzer job runs it in release"]
fn brute_force_finds_no_cycle_in_n3_families() {
    for family in [Family::Line, Family::Star, Family::Clique] {
        let initial = family.initial_state(3, 1, 1);
        let g = FairGraph::build(&initial, &RealStepper, 2_000_000);
        assert!(!g.truncated);
        let report = analyze(&g, &RealStepper);
        assert!(
            !has_cycle(&g) && report.livelock_free(),
            "{} n=3 must be acyclic and livelock-free",
            family.label()
        );
    }
}

/// A random reachable state of the line-3 scope: `steps` seeded-random
/// transitions from the initial state, each a random enabled action
/// under a random one of its coin outcomes.
fn random_walk(seed: u64, steps: usize) -> State {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Family::Line.initial_state(3, 2, 1);
    for _ in 0..steps {
        let enabled = s.enabled();
        if enabled.is_empty() {
            break;
        }
        let t = &enabled[rng.random_range(0..enabled.len())];
        let mut outcomes = s.outcomes(&RealStepper, t);
        let k = rng.random_range(0..outcomes.len());
        s = outcomes.swap_remove(k).1.next;
    }
    s
}

/// `s` with its storage order scrambled by the permutation drawn from
/// `seed`: entry `i` moves to slot `perm[i]` in every parallel vector.
fn permuted(s: &State, seed: u64) -> State {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = s.nodes.len();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    let mut out = s.clone();
    for (i, &slot) in perm.iter().enumerate() {
        out.nodes[slot] = s.nodes[i].clone();
        out.channels[slot] = s.channels[i].clone();
        out.budgets[slot] = s.budgets[i];
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn canonical_keys_survive_random_storage_permutations(
        walk_seed in 0u64..1_000_000,
        steps in 0usize..24,
        perm_seed in 0u64..1_000_000,
    ) {
        let s = random_walk(walk_seed, steps);
        let p = permuted(&s, perm_seed);
        prop_assert_eq!(
            canonical_key(&s),
            canonical_key(&p),
            "canonical keys must not see storage order"
        );
    }
}
