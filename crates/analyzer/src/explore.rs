//! The analyzer's one state-space exploration: the explicit transition
//! graph of the budgeted [`State`]/[`Stepper`] model, with the safety
//! monitors checked on every edge as it is built.
//!
//! [`FairGraph::build`] walks the reachable configurations breadth
//! first. Each is stored once, under the fingerprint of its canonical
//! symmetry key ([`crate::symmetry`]: id-rank renaming, age
//! saturation), so the graph is the symmetry quotient; a schedule read
//! off it replays concretely because the BFS tree follows the stored
//! representatives. Every enabled scheduler action of every state is
//! applied under every outcome of the coins it draws
//! ([`State::outcomes`]); each distinct successor becomes one labelled
//! edge, and on every applied outcome the monitors run: the
//! per-activation checks of [`State::apply`] (self-send, duplicate
//! send) and monotonicity of the [`PredVector`] —
//! the predicates are pure functions of the configuration, so "true
//! before, false after" is a property of the edge alone. The first
//! violation stops the construction and comes back as the BFS-tree stem
//! plus the offending transition, a *shortest* violating schedule.
//!
//! The graph is built once per scope, and [`crate::liveness::analyze`]
//! judges livelock-freedom, closure and the ranking certificate on it,
//! so every verdict rests on monitored edges. There is deliberately no
//! partial-order reduction (DESIGN.md §7.2 has the measurements that
//! retired one).

use crate::ranking::{rank_of, Rank};
use crate::state::{decode_msg, msg_code, Key, PredVector, State, Transition, Violation};
use crate::stepper::{Coins, Stepper};
use crate::symmetry::canonical_key;
#[expect(
    clippy::disallowed_types,
    reason = "fingerprint-keyed lookup table; iteration order is never observed"
)]
use std::collections::{HashMap, VecDeque};
use swn_core::invariants::is_ring_stable_config_view;

/// 128-bit FNV-1a fingerprint of a canonical state key. The state index
/// stores fingerprints instead of full keys (hash compaction): at ~40
/// words per key and millions of states the exact keys dominate memory.
/// A collision would silently merge two states; at 128 bits the
/// probability across 10^7 states is ~10^-25, far below any hardware
/// error rate, so the search is exhaustive for all practical purposes.
pub fn fingerprint(key: &Key) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for w in key {
        for byte in w.to_le_bytes() {
            h ^= u128::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Fingerprint of the canonical symmetry key, budgets included — the
/// budget vector is part of the budgeted model's state, and a lasso
/// cycle closes only when it returns with budgets intact (which forces
/// cycles to be delivery-only, as they must be).
pub(crate) fn graph_fp(s: &State) -> u128 {
    fingerprint(&canonical_key(s))
}

/// Packs a transition into a `u64` edge label: the scheduler action in
/// the low 33 bits ([`action_of`]), a delivery's coins above them.
/// Labels are stable across the whole graph (the node vector's order
/// never changes), so equal actions on different states are the *same
/// action* — which is exactly what the fairness obligations compare.
pub fn pack_label(s: &State, t: &Transition) -> u64 {
    match *t {
        Transition::Regular { node } => node as u64,
        Transition::Deliver {
            dest,
            ref msg,
            coins,
        } => {
            let [k, a, b] = msg_code(&s.nodes, msg);
            let coins = (u64::from(coins.outcome) << 40) | (u64::from(coins.drawn) << 33);
            coins | (1 << 32) | ((dest as u64) << 24) | (k << 16) | (a << 8) | b
        }
    }
}

/// The scheduler action of an edge label, its coin outcome masked off.
/// Weak fairness constrains the scheduler only; the coins are
/// adversarial.
pub fn action_of(label: u64) -> u64 {
    label & ((1 << 33) - 1)
}

/// Inverse of [`pack_label`].
pub fn unpack_label(s: &State, label: u64) -> Transition {
    if label & (1 << 32) == 0 {
        Transition::Regular {
            node: usize::try_from(label).expect("packed node index"),
        }
    } else {
        let dest = usize::try_from((label >> 24) & 0xff).expect("packed dest index");
        let code = [(label >> 16) & 0xff, (label >> 8) & 0xff, label & 0xff];
        #[allow(clippy::cast_possible_truncation)] // packed from u32 fields
        let coins = Coins {
            outcome: (label >> 40) as u32,
            drawn: ((label >> 33) & 0x7f) as u32,
        };
        Transition::Deliver {
            dest,
            msg: decode_msg(&s.nodes, code),
            coins,
        }
    }
}

/// A monitor violation with the schedule that reaches it.
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// What went wrong on the trace's final transition.
    pub violation: Violation,
    /// Transition sequence from the initial state; the last entry is the
    /// violating transition.
    pub trace: Vec<Transition>,
    /// Predicates before the final transition.
    pub pred_before: PredVector,
    /// Predicates after the final transition.
    pub pred_after: PredVector,
}

/// The explicit state graph every analysis runs on: every reachable
/// canonical state of the budgeted model with every enabled transition
/// as a labelled, monitored edge.
pub struct FairGraph {
    /// The root configuration, budgets included — they bound the scope.
    pub initial: State,
    /// `edges[v]` = `(label, target)` for every enabled action of `v`
    /// and every coin outcome of it that reaches a distinct successor;
    /// the [`action_of`] set of `v`'s labels *is* its enabled set.
    pub edges: Vec<Vec<(u64, u32)>>,
    /// BFS tree: `(parent, label)` per state; the root points at itself.
    pub parent: Vec<(u32, u64)>,
    /// The monitored predicates per state; `sorted_ring` is the liveness
    /// goal.
    pub pred: Vec<PredVector>,
    /// `is_ring_stable_config` per state — ring plus only declared
    /// benign chatter (the region closure keeps).
    pub stable: Vec<bool>,
    /// Ranking potential per state.
    pub rank: Vec<Rank>,
    /// True once the state's full out-edge list is in `edges`. An
    /// unexpanded state (where the construction stopped) has no
    /// out-edges *in the graph* but is not terminal in the model.
    pub expanded: Vec<bool>,
    /// Sends coalesced because the message was already in flight, summed
    /// over the applied transitions (see [`State::initial`]). Non-zero
    /// means exhaustiveness is relative to set channels.
    pub coalesced_sends: usize,
    /// True when the construction stopped before exhausting the
    /// reachable set — at `max_states`, or at the first monitor
    /// violation; every analysis on a truncated graph is reported as
    /// non-exhaustive.
    pub truncated: bool,
    /// The first monitor violation, in BFS order, if any edge raised one.
    pub violation: Option<FoundViolation>,
}

impl FairGraph {
    /// Breadth-first construction of the reachable quotient of the
    /// budgeted model under `stepper`, over every coin outcome, monitors
    /// running on every applied transition.
    pub fn build(initial: &State, stepper: &dyn Stepper, max_states: usize) -> FairGraph {
        let mut g = FairGraph {
            initial: initial.clone(),
            edges: Vec::new(),
            parent: Vec::new(),
            pred: Vec::new(),
            stable: Vec::new(),
            rank: Vec::new(),
            expanded: Vec::new(),
            coalesced_sends: 0,
            truncated: false,
            violation: None,
        };
        #[expect(clippy::disallowed_types, reason = "lookup-only fingerprint table")]
        let mut index: HashMap<u128, u32> = HashMap::new();
        let mut queue: VecDeque<(u32, State)> = VecDeque::new();
        index.insert(graph_fp(initial), 0);
        g.push_state(initial);
        g.parent.push((0, u64::MAX));
        queue.push_back((0, initial.clone()));
        'bfs: while let Some((v, s)) = queue.pop_front() {
            for action in s.enabled() {
                let first_edge = g.edges[v as usize].len();
                let outcomes = s.outcomes(stepper, &action);
                assert!(!outcomes.is_empty(), "enabled transitions apply");
                for (t, a) in outcomes {
                    let fp = graph_fp(&a.next);
                    let label = pack_label(&s, &t);
                    let w = match index.get(&fp) {
                        Some(&w) => w,
                        None if g.edges.len() >= max_states => {
                            g.stop_at(v);
                            break 'bfs;
                        }
                        None => {
                            // max_states bounds the graph well under u32::MAX.
                            #[allow(clippy::cast_possible_truncation)]
                            let w = g.edges.len() as u32;
                            index.insert(fp, w);
                            g.push_state(&a.next);
                            g.parent.push((v, label));
                            queue.push_back((w, a.next));
                            w
                        }
                    };
                    let (before, after) = (g.pred[v as usize], g.pred[w as usize]);
                    if let Some(violation) = Violation::on_transition(&a.violations, before, after)
                    {
                        let mut trace = g.stem_to(v);
                        trace.push(t);
                        g.violation = Some(FoundViolation {
                            violation,
                            trace,
                            pred_before: before,
                            pred_after: after,
                        });
                        g.stop_at(v);
                        break 'bfs;
                    }
                    g.coalesced_sends += a.coalesced_sends as usize;
                    // Outcomes of one action that reach the same successor
                    // are one edge; the monitors still ran on each.
                    let out = &mut g.edges[v as usize];
                    if !out[first_edge..].iter().any(|&(_, x)| x == w) {
                        out.push((label, w));
                    }
                }
            }
            g.expanded[v as usize] = true;
        }
        g
    }

    fn push_state(&mut self, s: &State) {
        let v = s.view();
        self.pred.push(s.eval());
        self.stable.push(is_ring_stable_config_view(&v));
        self.rank.push(rank_of(&v));
        self.expanded.push(false);
        self.edges.push(Vec::new());
    }

    /// Ends the construction while expanding `v`, dropping its partial
    /// expansion: a state with only *some* of its out-edges would
    /// under-approximate its enabled set, and the fairness obligations
    /// (= intersection of enabled sets) would be unsound. With the
    /// partial list cleared, `v` is a dead end and can never join a
    /// cycle, so every SCC the sweep reports is built purely from
    /// fully-expanded states — a lasso found in a truncated graph is
    /// still a real fair lasso.
    fn stop_at(&mut self, v: u32) {
        self.truncated = true;
        self.edges[v as usize].clear();
    }

    /// True when `v` is quiescent in the *model* — fully expanded with
    /// no enabled transition (budgets spent, channels drained) — as
    /// opposed to an unexpanded state the construction stopped at.
    pub fn is_terminal(&self, v: u32) -> bool {
        self.expanded[v as usize] && self.edges[v as usize].is_empty()
    }

    /// The terminal (quiescent) states, in BFS order.
    pub fn terminals(&self) -> impl Iterator<Item = u32> + '_ {
        // Vertex ids are u32 by construction (max_states bounds the graph).
        #[allow(clippy::cast_possible_truncation)]
        (0..self.len() as u32).filter(|&v| self.is_terminal(v))
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph holds no states (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The BFS-tree schedule from the root to `v`.
    pub fn stem_to(&self, v: u32) -> Vec<Transition> {
        let mut labels = Vec::new();
        let mut cur = v;
        while cur != 0 {
            let (p, label) = self.parent[cur as usize];
            labels.push(label);
            cur = p;
        }
        labels.reverse();
        labels
            .into_iter()
            .map(|l| unpack_label(&self.initial, l))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::demo_fault_state;
    use crate::stepper::{DropLinStepper, RealStepper, SelfEchoStepper};

    fn build(stepper: &dyn Stepper, budget: u32, max_states: usize) -> FairGraph {
        FairGraph::build(&demo_fault_state(budget), stepper, max_states)
    }

    #[test]
    fn real_protocol_clean_on_tiny_pair() {
        let g = build(&RealStepper, 2, 2_000_000);
        assert!(!g.truncated, "{:?}", g.violation);
        assert!(g.violation.is_none());
        assert!(g.len() > 1);
        assert!(g.terminals().count() >= 1);
    }

    #[test]
    fn drop_lin_breaks_connectivity_monotonicity() {
        let g = build(&DropLinStepper, 0, 2_000_000);
        assert!(
            g.truncated,
            "a graph stopped by a monitor is not exhaustive"
        );
        let v = g.violation.expect("dropping lin must be caught");
        assert_eq!(
            v.violation,
            Violation::MonotonicityBroken {
                predicate: "weakly_connected(Cc)"
            }
        );
        assert!(v.pred_before.connected && !v.pred_after.connected);
        assert_eq!(v.trace.len(), 1, "one delivery suffices");
    }

    #[test]
    fn self_echo_flagged_as_self_send() {
        let g = build(&SelfEchoStepper, 0, 2_000_000);
        let v = g.violation.expect("echo must be caught");
        assert!(
            matches!(v.violation, Violation::SelfSend { .. }),
            "{:?}",
            v.violation
        );
    }

    #[test]
    fn state_cap_marks_truncated() {
        let g = build(&RealStepper, 3, 5);
        assert!(g.truncated);
        assert!(g.violation.is_none());
        assert!(g.len() <= 5);
    }
}
