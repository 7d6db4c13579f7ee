//! Counterexample replay, minimization and pretty-printing.
//!
//! A violation found while the graph is built comes with the BFS-tree
//! schedule that reached it — shortest in steps, yet it can still hold
//! transitions irrelevant to the bug (a regular action taken on the way,
//! say). [`minimize`] shrinks it by greedy delta debugging with chunk
//! size 1: repeatedly try dropping each transition and keep any shorter
//! schedule that still (a) replays — every remaining transition is
//! enabled when its turn comes — and (b) ends in a violation. The result
//! is 1-minimal: removing any single transition loses the violation.
//!
//! The same loop generalizes beyond acyclic safety witnesses:
//! [`minimize_with`] shrinks any schedule under a caller-supplied
//! validity predicate, and [`minimize_lasso`] shrinks a liveness
//! counterexample's stem and cycle **independently** — dropping a stem
//! transition must leave a schedule that still reaches *some* anchor of
//! a fair non-goal cycle, dropping a cycle transition must leave a loop
//! that still closes, stays fair and stays outside the goal — with the
//! semantic predicate (replay + fairness + goal check) supplied by
//! `liveness::validate_lasso`, so the shrunk lasso replays
//! deterministically by construction.

use crate::state::{PredVector, State, Transition, Violation};
use crate::stepper::Stepper;
use std::fmt::Write as _;

/// One replayed transition with the monitors' observations.
#[derive(Clone, Debug)]
pub struct ReplayStep {
    /// The transition executed.
    pub transition: Transition,
    /// Predicates after it.
    pub pred_after: PredVector,
    /// Per-activation violations it raised.
    pub violations: Vec<Violation>,
}

/// Outcome of replaying a schedule from an initial state.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Predicates of the initial state.
    pub pred_initial: PredVector,
    /// The executed steps, in order. Shorter than the input schedule when
    /// a transition was not enabled (the replay stops there).
    pub steps: Vec<ReplayStep>,
    /// True when every transition of the schedule was enabled in turn.
    pub complete: bool,
}

impl Replay {
    /// The first violation observed: per-activation ones, or a monotone
    /// predicate flipping true → false between consecutive states.
    pub fn first_violation(&self) -> Option<Violation> {
        let mut prev = self.pred_initial;
        for step in &self.steps {
            let found = Violation::on_transition(&step.violations, prev, step.pred_after);
            if found.is_some() {
                return found;
            }
            prev = step.pred_after;
        }
        None
    }
}

/// Replays `trace` from `initial` through `stepper`, recording monitor
/// output per step. Stops early (with `complete = false`) at the first
/// transition that is not enabled.
pub fn replay(initial: &State, stepper: &dyn Stepper, trace: &[Transition]) -> Replay {
    let mut cur = initial.clone();
    let mut steps = Vec::new();
    let mut complete = true;
    for t in trace {
        match cur.apply(stepper, t) {
            Some(a) => {
                steps.push(ReplayStep {
                    transition: t.clone(),
                    pred_after: a.next.eval(),
                    violations: a.violations,
                });
                cur = a.next;
            }
            None => {
                complete = false;
                break;
            }
        }
    }
    Replay {
        pred_initial: initial.eval(),
        steps,
        complete,
    }
}

/// Greedily minimizes a violating schedule (delta debugging, chunk
/// size 1, iterated to a fixpoint). The returned schedule still replays
/// completely and still ends in a violation; dropping any one transition
/// from it would lose that.
///
/// # Panics
/// Panics if `trace` does not reproduce a violation in the first place.
pub fn minimize(initial: &State, stepper: &dyn Stepper, trace: &[Transition]) -> Vec<Transition> {
    let reproduces = |candidate: &[Transition]| {
        let r = replay(initial, stepper, candidate);
        r.complete && r.first_violation().is_some()
    };
    assert!(
        reproduces(trace),
        "minimize() needs a schedule that reproduces a violation"
    );
    minimize_with(trace, &reproduces)
}

/// Greedy 1-minimal shrinking of `trace` under an arbitrary validity
/// predicate: repeatedly drop any single transition whose removal keeps
/// `valid` true, to a fixpoint. `trace` itself must be valid.
pub fn minimize_with(
    trace: &[Transition],
    valid: &dyn Fn(&[Transition]) -> bool,
) -> Vec<Transition> {
    debug_assert!(valid(trace), "minimize_with() needs a valid schedule");
    let mut best = trace.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < best.len() {
            let mut candidate = best.clone();
            candidate.remove(i);
            if valid(&candidate) {
                best = candidate;
                shrunk = true;
                // Same index now names the next transition; retry it.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return best;
        }
    }
}

/// Shrinks a lasso counterexample: the cycle and the stem are delta
/// debugged **independently** (a schedule prefix and a loop have
/// different validity conditions, so the acyclic-witness loop of
/// [`minimize`] cannot shrink them jointly), iterated to a common
/// fixpoint since a shorter cycle can unlock stem drops and vice versa.
/// `valid(stem, cycle)` decides whether a candidate pair is still a
/// counterexample — for liveness that is `liveness::validate_lasso`:
/// the stem replays, the cycle closes on its anchor, stays weakly fair
/// and visits a non-goal state. Both inputs must be valid together.
pub fn minimize_lasso(
    stem: &[Transition],
    cycle: &[Transition],
    valid: &dyn Fn(&[Transition], &[Transition]) -> bool,
) -> (Vec<Transition>, Vec<Transition>) {
    assert!(
        valid(stem, cycle),
        "minimize_lasso() needs a reproducing lasso"
    );
    let mut stem = stem.to_vec();
    let mut cycle = cycle.to_vec();
    loop {
        let cycle_before = cycle.len();
        let stem_before = stem.len();
        cycle = minimize_with(&cycle, &|c: &[Transition]| valid(&stem, c));
        stem = minimize_with(&stem, &|s: &[Transition]| valid(s, &cycle));
        if cycle.len() == cycle_before && stem.len() == stem_before {
            return (stem, cycle);
        }
    }
}

/// Renders a violating schedule as a human-readable listing: the initial
/// predicates, each step with the predicates after it, and the violation
/// each monitor raised. This is what `analyzer --mutant drop-lin`
/// prints.
pub fn format_trace(initial: &State, stepper: &dyn Stepper, trace: &[Transition]) -> String {
    let r = replay(initial, stepper, trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "counterexample ({} steps, stepper: {}):",
        trace.len(),
        stepper.label()
    );
    let _ = writeln!(
        out,
        "  predicates: C = weakly_connected(Cc), L = is_sorted_list, R = is_sorted_ring"
    );
    let _ = writeln!(out, "  initial state: [{}]", r.pred_initial.glyphs());
    let mut prev = r.pred_initial;
    for (i, step) in r.steps.iter().enumerate() {
        let _ = writeln!(
            out,
            "  step {:>2}: {:<44} [{}]",
            i + 1,
            step.transition.to_string(),
            step.pred_after.glyphs()
        );
        for v in &step.violations {
            let _ = writeln!(out, "           VIOLATION: {v}");
        }
        for (name, before, after) in prev.diff(step.pred_after) {
            if before && !after {
                let _ = writeln!(
                    out,
                    "           VIOLATION: monotone predicate {name} flipped true -> false"
                );
            }
        }
        prev = step.pred_after;
    }
    if !r.complete {
        let _ = writeln!(out, "  (schedule truncated: transition not enabled)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::FairGraph;
    use crate::families::demo_fault_state;
    use crate::stepper::{DropLinStepper, RealStepper};

    /// The graph's (shortest) violating schedule, padded in front with
    /// both nodes' irrelevant regular actions so minimization has
    /// something to remove.
    fn padded_violating_trace() -> (State, Vec<Transition>) {
        let s = demo_fault_state(1);
        let g = FairGraph::build(&s, &DropLinStepper, 2_000_000);
        let v = g.violation.expect("drop-lin violates");
        let mut trace = vec![
            Transition::Regular { node: 0 },
            Transition::Regular { node: 1 },
        ];
        trace.extend(v.trace);
        (s, trace)
    }

    #[test]
    fn replay_reproduces_explorer_violation() {
        let (s, trace) = padded_violating_trace();
        let r = replay(&s, &DropLinStepper, &trace);
        assert!(r.complete);
        assert!(r.first_violation().is_some());
    }

    #[test]
    fn replay_of_clean_run_has_no_violation() {
        let (s, trace) = padded_violating_trace();
        // The same schedule under the real protocol is clean (when it
        // replays at all).
        let r = replay(&s, &RealStepper, &trace);
        assert!(r.first_violation().is_none());
    }

    #[test]
    fn minimized_trace_is_one_minimal() {
        let (s, trace) = padded_violating_trace();
        let min = minimize(&s, &DropLinStepper, &trace);
        assert!(!min.is_empty());
        assert!(min.len() < trace.len());
        // 1-minimality: dropping any single transition loses the bug.
        for i in 0..min.len() {
            let mut c = min.clone();
            c.remove(i);
            let r = replay(&s, &DropLinStepper, &c);
            assert!(
                !(r.complete && r.first_violation().is_some()),
                "dropping step {i} still violates: not minimal"
            );
        }
        // For this fixture the minimum is exactly the lin delivery.
        assert_eq!(min.len(), 1);
        assert!(matches!(min[0], Transition::Deliver { .. }));
    }

    #[test]
    fn format_trace_names_the_violation() {
        let (s, trace) = padded_violating_trace();
        let min = minimize(&s, &DropLinStepper, &trace);
        let text = format_trace(&s, &DropLinStepper, &min);
        assert!(text.contains("VIOLATION"), "{text}");
        assert!(text.contains("weakly_connected(Cc)"), "{text}");
        assert!(text.contains("deliver"), "{text}");
    }
}
