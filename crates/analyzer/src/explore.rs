//! Depth-first enumeration of schedules, with optional sleep-set
//! partial-order reduction.
//!
//! The search is an explicit DFS over [`State`]s. Each visited
//! configuration is memoized by its exact canonical key: the monitored
//! predicates are pure functions of the configuration, so once a state's
//! outgoing transitions have been checked there is nothing new to learn
//! from reaching it again by a different schedule.
//!
//! With [`Reduction::SleepSets`] the search additionally carries a
//! *sleep set* (Godefroid's algorithm): a set of transitions that are
//! enabled but provably redundant here, because an already-explored
//! sibling branch covers every behaviour that starts with them. Two
//! transitions are independent iff their **actors differ** — a delivery
//! mutates only the receiving node and appends to channels, a regular
//! action reads no channel, and no transition with a distinct actor can
//! disable another (budgets are per-node, message instances are consumed
//! only by their own delivery) — **and** neither *sends* the exact
//! `(destination, message)` pair the other *delivers*. The second clause
//! is forced by the channel-multiplicity bound: when a send of `m` to
//! node `C` coalesces against the copy a pending `Deliver(C, m)` is
//! about to consume, send-then-deliver leaves the channel empty while
//! deliver-then-send leaves one copy — the orders no longer commute.
//! (Under unbounded multisets the actor test alone would suffice.) A
//! sleeping transition's send-set is fixed when it first executes and
//! stays valid while it sleeps: only actor-disjoint transitions run in
//! between, and sends are a function of the actor's node state plus the
//! delivered message. Sleep sets prune *transitions*, never *states*:
//! every reachable configuration is still visited, which the
//! `sleep_sets_visit_every_state_of_plain_dfs` test cross-checks against
//! plain DFS.

use crate::state::{Key, PredVector, State, Transition, Violation};
use crate::stepper::{Policy, Stepper};
#[expect(
    clippy::disallowed_types,
    reason = "fingerprint-keyed tables; iteration order is never observed"
)]
use std::collections::HashMap;
use swn_core::id::NodeId;
use swn_core::message::Message;

/// 128-bit FNV-1a fingerprint of a canonical state key. The visited and
/// predicate tables store fingerprints instead of full keys (hash
/// compaction): at ~40 words per key and millions of states the exact
/// keys dominate memory. A collision would silently merge two states;
/// at 128 bits the probability across 10^7 states is ~10^-25, far below
/// any hardware error rate, so the search is exhaustive for all
/// practical purposes.
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

/// Which pruning the search applies on top of exact-state memoization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// Plain DFS with memoization only.
    None,
    /// Sleep-set partial-order reduction over commuting transitions.
    SleepSets,
}

/// Search parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Randomness policy handlers run under (see [`Policy`]).
    pub policy: Policy,
    /// Pruning strategy.
    pub reduction: Reduction,
    /// Abort (mark `truncated`) after visiting this many states.
    pub max_states: usize,
    /// Abort a branch (mark `truncated`) beyond this schedule length.
    pub max_depth: usize,
    /// Memoize by the canonical symmetry key ([`crate::symmetry`]) instead
    /// of the raw state key: id-rank renaming plus age saturation. Sound
    /// for both policies (see the symmetry module docs) and composes with
    /// the sleep sets and the hash compaction; it merges states that
    /// differ only in ages past the forget threshold or in node storage
    /// order.
    pub symmetry: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            policy: Policy::Zeros,
            reduction: Reduction::SleepSets,
            max_states: 2_000_000,
            // Also bounds recursion depth; small-scope schedules stay far
            // below this, it only guards against runaway fixtures.
            max_depth: 2_000,
            symmetry: false,
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

/// Aggregate outcome of one exhaustive search.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Distinct configurations visited.
    pub distinct_states: usize,
    /// Transitions executed (counts re-exploration under sleep sets).
    pub transitions_executed: usize,
    /// Distinct quiescent configurations (no message in flight, all
    /// budgets spent) reached.
    pub quiescent_states: usize,
    /// Longest schedule explored.
    pub max_depth_reached: usize,
    /// Sends coalesced by the channel-multiplicity bound (see
    /// [`State::initial_bounded`]). Non-zero means exhaustiveness is
    /// relative to that bound.
    pub coalesced_sends: usize,
    /// True when a cap stopped the search before exhaustion.
    pub truncated: bool,
    /// First violation found, if any (the search stops on it).
    pub violation: Option<FoundViolation>,
}

impl ExploreReport {
    /// True when the search exhausted the space and found no violation.
    pub fn clean_and_exhaustive(&self) -> bool {
        !self.truncated && self.violation.is_none()
    }
}

/// A transition in a sleep set, carrying the raw send-set its execution
/// produced (valid for as long as it sleeps — see the module docs).
#[derive(Clone, Debug)]
struct SleepEntry {
    t: Transition,
    sends: Vec<(NodeId, Message)>,
}

/// True when `t` (with raw send-set `t_sends`) and the sleeping `u` are
/// independent: distinct actors, and neither sends what the other
/// delivers.
fn independent(s: &State, t: &Transition, t_sends: &[(NodeId, Message)], u: &SleepEntry) -> bool {
    if t.actor() == u.t.actor() {
        return false;
    }
    let delivers = |tr: &Transition, sends: &[(NodeId, Message)]| {
        if let Transition::Deliver { dest, msg } = tr {
            sends.contains(&(s.nodes[*dest].id(), *msg))
        } else {
            false
        }
    };
    !delivers(&u.t, t_sends) && !delivers(t, &u.sends)
}

/// The search driver. Create one per (stepper, config) pair and call
/// [`run`](Explorer::run).
#[expect(clippy::disallowed_types, reason = "keyed lookup only")]
pub struct Explorer<'a> {
    stepper: &'a dyn Stepper,
    cfg: ExploreConfig,
    /// fingerprint -> sleep sets (transition lists) this state was
    /// explored under. An entry that is a subset of the current sleep set
    /// means a strictly larger set of transitions was already explored
    /// from here.
    visited: HashMap<u128, Vec<Vec<Transition>>>,
    /// Predicate vectors are pure functions of the configuration; cache
    /// them by fingerprint so converging schedules evaluate each state
    /// once.
    pred_cache: HashMap<u128, PredVector>,
    transitions_executed: usize,
    coalesced_sends: usize,
    quiescent_states: usize,
    max_depth_reached: usize,
    truncated: bool,
}

impl<'a> Explorer<'a> {
    /// A fresh explorer over `stepper` with parameters `cfg`.
    #[expect(clippy::disallowed_types, reason = "keyed lookup only")]
    pub fn new(stepper: &'a dyn Stepper, cfg: ExploreConfig) -> Self {
        Explorer {
            stepper,
            cfg,
            visited: HashMap::new(),
            pred_cache: HashMap::new(),
            transitions_executed: 0,
            coalesced_sends: 0,
            quiescent_states: 0,
            max_depth_reached: 0,
            truncated: false,
        }
    }

    /// Fingerprint under the configured key scheme (raw or canonical).
    fn fp_of(&self, s: &State) -> u128 {
        if self.cfg.symmetry {
            fingerprint(&crate::symmetry::canonical_key(s, true))
        } else {
            fingerprint(&s.key())
        }
    }

    /// Exhaustively explores every schedule from `initial`.
    pub fn run(mut self, initial: &State) -> ExploreReport {
        let fp0 = self.fp_of(initial);
        let pred0 = self.eval_cached(fp0, initial);
        let mut path = Vec::new();
        let violation = self.dfs(initial, fp0, pred0, &[], &mut path, 0);
        ExploreReport {
            distinct_states: self.visited.len(),
            transitions_executed: self.transitions_executed,
            quiescent_states: self.quiescent_states,
            max_depth_reached: self.max_depth_reached,
            coalesced_sends: self.coalesced_sends,
            truncated: self.truncated,
            violation,
        }
    }

    /// Cached predicate evaluation (see `pred_cache`).
    fn eval_cached(&mut self, fp: u128, s: &State) -> PredVector {
        if let Some(p) = self.pred_cache.get(&fp) {
            return *p;
        }
        let p = s.eval();
        self.pred_cache.insert(fp, p);
        p
    }

    /// Returns true when this (state, sleep) pair needs no exploration,
    /// recording it otherwise. Send-sets are functions of (state,
    /// transition), so comparing the transition lists alone is exact.
    fn already_covered(&mut self, fp: u128, sleep: &[SleepEntry]) -> bool {
        match self.cfg.reduction {
            Reduction::None => {
                // Sleep sets are always empty: first visit wins.
                if self.visited.contains_key(&fp) {
                    return true;
                }
                self.visited.insert(fp, vec![Vec::new()]);
                false
            }
            Reduction::SleepSets => {
                let entries = self.visited.entry(fp).or_default();
                // A recorded visit with sleep' ⊆ sleep explored a
                // superset of the transitions we would explore now.
                if entries
                    .iter()
                    .any(|prev| prev.iter().all(|t| sleep.iter().any(|e| e.t == *t)))
                {
                    return true;
                }
                entries.push(sleep.iter().map(|e| e.t.clone()).collect());
                false
            }
        }
    }

    fn dfs(
        &mut self,
        s: &State,
        fp: u128,
        pred: PredVector,
        sleep: &[SleepEntry],
        path: &mut Vec<Transition>,
        depth: usize,
    ) -> Option<FoundViolation> {
        if self.visited.len() >= self.cfg.max_states || depth > self.cfg.max_depth {
            self.truncated = true;
            return None;
        }
        let first_visit = !self.visited.contains_key(&fp);
        if self.already_covered(fp, sleep) {
            return None;
        }
        self.max_depth_reached = self.max_depth_reached.max(depth);
        if s.is_quiescent() {
            if first_visit {
                self.quiescent_states += 1;
            }
            return None;
        }
        let enabled = s.enabled();
        let mut executed: Vec<SleepEntry> = Vec::new();
        for t in &enabled {
            if sleep.iter().any(|e| e.t == *t) {
                continue;
            }
            let applied = s
                .apply(self.stepper, self.cfg.policy, t)
                .expect("enabled transitions apply");
            let next = applied.next;
            self.transitions_executed += 1;
            self.coalesced_sends += applied.coalesced_sends as usize;
            path.push(t.clone());
            let next_fp = self.fp_of(&next);
            let pred_next = self.eval_cached(next_fp, &next);
            let found = self
                .check_transition(pred, pred_next, &applied.violations, path)
                .or_else(|| {
                    let child_sleep = match self.cfg.reduction {
                        Reduction::None => Vec::new(),
                        // Keep every sleeping or already-explored
                        // transition that is independent of t.
                        Reduction::SleepSets => sleep
                            .iter()
                            .chain(executed.iter())
                            .filter(|u| independent(s, t, &applied.sends, u))
                            .cloned()
                            .collect(),
                    };
                    self.dfs(&next, next_fp, pred_next, &child_sleep, path, depth + 1)
                });
            if found.is_some() {
                return found;
            }
            path.pop();
            executed.push(SleepEntry {
                t: t.clone(),
                sends: applied.sends,
            });
        }
        None
    }

    /// Monitors evaluated on one executed transition: per-activation
    /// violations from the outbox, then predicate monotonicity.
    fn check_transition(
        &self,
        pred: PredVector,
        pred_next: PredVector,
        violations: &[Violation],
        path: &[Transition],
    ) -> Option<FoundViolation> {
        let make = |violation: Violation| FoundViolation {
            violation,
            trace: path.to_vec(),
            pred_before: pred,
            pred_after: pred_next,
        };
        if let Some(v) = violations.first() {
            return Some(make(v.clone()));
        }
        for (name, before, after) in pred.diff(pred_next) {
            if before && !after {
                return Some(make(Violation::MonotonicityBroken { predicate: name }));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use crate::stepper::{DropLinStepper, RealStepper, SelfEchoStepper};
    use swn_core::config::ProtocolConfig;
    use swn_core::id::evenly_spaced_ids;
    use swn_core::message::Message;
    use swn_core::node::Node;

    fn pair_with_lin(budget: u32) -> State {
        let ids = evenly_spaced_ids(2);
        let nodes: Vec<Node> = ids
            .iter()
            .map(|&id| Node::new(id, ProtocolConfig::default()))
            .collect();
        State::initial(nodes, &[(ids[0], Message::Lin(ids[1]))], budget)
    }

    #[test]
    fn real_protocol_clean_on_tiny_pair() {
        let s = pair_with_lin(2);
        let report = Explorer::new(&RealStepper, ExploreConfig::default()).run(&s);
        assert!(report.clean_and_exhaustive(), "{:?}", report.violation);
        assert!(report.distinct_states > 1);
        assert!(report.quiescent_states >= 1);
    }

    #[test]
    fn drop_lin_breaks_connectivity_monotonicity() {
        let s = pair_with_lin(0);
        let report = Explorer::new(&DropLinStepper, ExploreConfig::default()).run(&s);
        let v = report.violation.expect("dropping lin must be caught");
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
        let s = pair_with_lin(0);
        let report = Explorer::new(&SelfEchoStepper, ExploreConfig::default()).run(&s);
        let v = report.violation.expect("echo must be caught");
        assert!(
            matches!(v.violation, Violation::SelfSend { .. }),
            "{:?}",
            v.violation
        );
    }

    #[test]
    fn state_cap_marks_truncated() {
        let s = pair_with_lin(3);
        let cfg = ExploreConfig {
            max_states: 5,
            ..ExploreConfig::default()
        };
        let report = Explorer::new(&RealStepper, cfg).run(&s);
        assert!(report.truncated);
        assert!(report.distinct_states <= 5);
    }

    #[test]
    fn reductions_agree_on_seeded_line_with_coalescing() {
        // n = 2 seeded line at budget 2: ~41k states with the channel
        // bound actively coalescing sends — the configuration where a
        // naive actors-only independence relation diverges from plain
        // DFS (a coalesced send does not commute with a pending delivery
        // of the same message).
        for policy in Policy::ALL {
            let s = crate::families::Family::Line.initial_state(2, 2, 1);
            let none = Explorer::new(
                &RealStepper,
                ExploreConfig {
                    policy,
                    reduction: Reduction::None,
                    ..ExploreConfig::default()
                },
            )
            .run(&s);
            let sleep = Explorer::new(
                &RealStepper,
                ExploreConfig {
                    policy,
                    ..ExploreConfig::default()
                },
            )
            .run(&s);
            assert!(none.coalesced_sends > 0, "fixture must exercise the bound");
            assert_eq!(none.distinct_states, sleep.distinct_states);
            assert_eq!(none.quiescent_states, sleep.quiescent_states);
            assert_eq!(none.violation.is_none(), sleep.violation.is_none());
            assert!(!none.truncated && !sleep.truncated);
        }
    }

    #[test]
    fn sleep_sets_visit_every_state_of_plain_dfs() {
        let s = pair_with_lin(2);
        let none = Explorer::new(
            &RealStepper,
            ExploreConfig {
                reduction: Reduction::None,
                ..ExploreConfig::default()
            },
        )
        .run(&s);
        let sleep = Explorer::new(&RealStepper, ExploreConfig::default()).run(&s);
        // Sleep sets prune redundant interleavings, not states: both
        // searches cover the identical reachable set and agree on the
        // verdict. (Transition counts are incomparable: plain DFS prunes
        // every revisit, sleep sets re-explore under incomparable sleep
        // sets but skip sleeping siblings.)
        assert_eq!(none.distinct_states, sleep.distinct_states);
        assert_eq!(none.quiescent_states, sleep.quiescent_states);
        assert_eq!(none.violation.is_none(), sleep.violation.is_none());
        assert!(!none.truncated && !sleep.truncated);
    }
}
