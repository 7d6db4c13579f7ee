//! Convergence measurement: drive a network until it stabilizes and record
//! when each phase of the proof was reached.

use crate::faults::{watch, Verdict};
use crate::network::Network;
use crate::obs::Event;
use serde::{Deserialize, Serialize};
use swn_core::invariants::{weakly_connected_view, Phase};
use swn_core::views::View;

/// When each phase milestone was first reached (in rounds from the start
/// of measurement), plus run-wide accounting.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// First round with LCC weakly connected (phase 1).
    pub rounds_to_lcc: Option<u64>,
    /// First round with LCP the sorted list (phase 2).
    pub rounds_to_list: Option<u64>,
    /// First round with RCP the sorted ring (phase 3).
    pub rounds_to_ring: Option<u64>,
    /// Last round (before the ring formed) in which a probe repair
    /// happened — after Theorem 4.3's point, probing is always successful.
    pub last_probe_repair: Option<u64>,
    /// Total messages sent until the ring formed (or until timeout).
    pub messages_to_ring: u64,
    /// True iff the sorted-list and sorted-ring properties, once observed,
    /// held in every later observed state — the monotonicity Theorems
    /// 4.9/4.18 guarantee. (LCC weak connectivity may legitimately flicker
    /// *before* phase 1's probing fixpoint is reached: a `lin` message
    /// forwarded over a long-range link moves a channel edge across a gap
    /// that is not yet LCP-connected — the very situation Lemma 4.4's
    /// eventual argument exists for — so it is not part of this flag.)
    pub monotone: bool,
    /// Rounds actually executed.
    pub rounds_run: u64,
    /// How the run ended: [`Verdict::Recovered`] at `rounds_to_ring`,
    /// [`Verdict::PermanentlyDisconnected`] when a fault severed the CC
    /// view, or [`Verdict::BudgetExhausted`]. `None` only in a report
    /// that no run filled in.
    pub verdict: Option<Verdict>,
}

impl ConvergenceReport {
    /// Did the network reach the sorted ring?
    pub fn stabilized(&self) -> bool {
        self.rounds_to_ring.is_some()
    }
}

/// Runs `net` until RCP solves the sorted-ring problem (or `max_rounds`
/// pass), recording phase milestones after every round.
///
/// The stepping is `faults::watch`'s, the loop `measure_recovery`,
/// `watch_recovery` and the chaos scenario run share, with `horizon` 0:
/// it stops as soon as [`Network::is_sorted_ring`] holds, and with a
/// fault plan attached it also stops at a round whose drop severs the CC
/// view (the report is then not stabilized, `rounds_run` below budget,
/// and its `verdict` says why).
///
/// Snapshot-free, and a clean round (one whose
/// [`links_changed`](crate::trace::RoundStats::links_changed) flag is
/// clear) is not reclassified at all — it provably preserves the phase
/// (see DESIGN.md §8.2 on dirty-tracking soundness).
///
/// Observation is additionally *leveled*: the sorted list and ring are
/// O(1) reads ([`Network::is_sorted_list`]/[`Network::is_sorted_ring`]),
/// and a sorted list implies LCC weak connectivity. Below the list the
/// report only asks whether LCC is weakly connected, so a dirty round
/// before the LCC milestone runs one union-find (the LCC view's, whose
/// edges are a subset of CC's) instead of `classify_view`'s two, and once
/// `rounds_to_lcc` is set — every sub-list phase is interchangeable for
/// the report from there on — no union-find runs at all. The produced
/// report is field-for-field identical to classifying from scratch every
/// round (the golden-trace test pins this).
pub fn run_to_ring(net: &mut Network, max_rounds: u64) -> ConvergenceReport {
    let mut report = ConvergenceReport {
        monotone: true,
        ..Default::default()
    };
    // Records every milestone `phase` reaches for the first time at
    // `round` and, with a sink attached, announces it as a `Transition`
    // event (labels `"lcc"`, `"list"`, `"ring"`).
    let note = |net: &mut Network, report: &mut ConvergenceReport, phase: Phase, round: u64| {
        let milestones = [
            (Phase::LccConnected, &mut report.rounds_to_lcc, "lcc"),
            (Phase::SortedList, &mut report.rounds_to_list, "list"),
            (Phase::SortedRing, &mut report.rounds_to_ring, "ring"),
        ];
        for (level, reached, label) in milestones {
            if phase >= level && reached.is_none() {
                *reached = Some(round);
                if net.has_sink() {
                    let phase = label.to_string();
                    net.emit(Event::Transition { round, phase });
                }
            }
        }
    };

    // The phase as far as the report can tell: exact from `SortedList`
    // up; below it `LccConnected` once that milestone is recorded (the
    // monotonicity check only compares against `best >= SortedList`),
    // and before it `Connected` stands in for both sub-LCC phases, which
    // no field tells apart.
    let level = |net: &Network, lcc_reached: bool| {
        if net.is_sorted_ring() {
            Phase::SortedRing
        } else if net.is_sorted_list() {
            Phase::SortedList
        } else if lcc_reached || weakly_connected_view(&net.view(), View::Lcc) {
            Phase::LccConnected
        } else {
            Phase::Connected
        }
    };
    let mut phase = level(net, false);
    let mut best = phase;
    note(net, &mut report, phase, 0);

    let start = net.round();
    let watched = watch(net, 0, max_rounds, |net, stats| {
        let round = net.round() - start;
        if stats.probe_repairs > 0 {
            report.last_probe_repair = Some(round);
        }
        let lcc_reached = report.rounds_to_lcc.is_some();
        if lcc_reached || stats.links_changed {
            phase = level(net, lcc_reached);
        }
        if best >= Phase::SortedList && phase < best {
            report.monotone = false;
        }
        best = best.max(phase);
        note(net, &mut report, phase, round);
    });
    report.rounds_run = net.round() - start;
    report.messages_to_ring = watched.totals.total_sent();
    report.verdict = Some(watched.verdict);
    report
}

/// Runs `net` until [`Network::is_quiescent`] reports an empty agenda
/// (or `max_rounds` pass), returning the number of rounds stepped, or
/// `None` on timeout. Only meaningful under
/// [`ScheduleMode::ActiveSet`](crate::sched::ScheduleMode::ActiveSet) —
/// a full-scan network is never quiescent, so the call times out.
///
/// On a converged fault-free ring this drains in a handful of rounds:
/// the first active round verifies every certificate, the next ones
/// deliver the in-flight tail (fixpoint re-advertisements, `res_lrl`
/// answers), after which the agenda is empty and every subsequent
/// [`Network::step`] is a no-op on node, channel and RNG state (pinned
/// by `tests/quiescence_prop.rs`).
pub fn drain_to_quiescence(net: &mut Network, max_rounds: u64) -> Option<u64> {
    for k in 0..=max_rounds {
        if net.is_quiescent() {
            return Some(k);
        }
        if k == max_rounds {
            break;
        }
        net.step();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{generate, InitialTopology};
    use swn_core::config::ProtocolConfig;
    use swn_core::id::evenly_spaced_ids;

    /// A fault-free run, whose verdict must agree with its milestones.
    fn stabilize(kind: InitialTopology, n: usize, seed: u64) -> ConvergenceReport {
        let ids = evenly_spaced_ids(n);
        let mut net = generate(kind, &ids, ProtocolConfig::default(), seed).into_network(seed);
        let rep = run_to_ring(&mut net, 20_000);
        let want = match rep.rounds_to_ring {
            Some(rounds) => Verdict::Recovered { rounds },
            None => Verdict::BudgetExhausted { budget: 20_000 },
        };
        assert_eq!(rep.verdict, Some(want), "{kind:?}");
        rep
    }

    #[test]
    fn stable_start_reports_zero_rounds() {
        let rep = stabilize(InitialTopology::SortedRing, 8, 1);
        assert_eq!(rep.rounds_to_ring, Some(0));
        assert_eq!(rep.messages_to_ring, 0);
        assert!(rep.monotone);
    }

    #[test]
    fn list_start_only_needs_ring_phase() {
        let rep = stabilize(InitialTopology::SortedListNoRing, 16, 2);
        assert!(rep.stabilized(), "list-no-ring did not close the ring");
        assert_eq!(rep.rounds_to_lcc, Some(0));
        assert_eq!(rep.rounds_to_list, Some(0));
        assert!(rep.rounds_to_ring.unwrap() > 0);
        assert!(rep.monotone, "phases must not regress");
    }

    #[test]
    fn star_stabilizes() {
        let rep = stabilize(InitialTopology::Star, 16, 3);
        assert!(rep.stabilized(), "star did not stabilize: {rep:?}");
        assert!(rep.monotone, "phases regressed: {rep:?}");
        assert!(
            rep.rounds_to_lcc <= rep.rounds_to_list && rep.rounds_to_list <= rep.rounds_to_ring,
            "phases out of order: {rep:?}"
        );
    }

    #[test]
    fn random_chain_stabilizes() {
        let rep = stabilize(InitialTopology::RandomChain, 24, 4);
        assert!(rep.stabilized(), "random chain did not stabilize: {rep:?}");
        assert!(rep.monotone);
    }

    #[test]
    fn random_sparse_stabilizes_across_seeds() {
        for seed in 0..5 {
            let rep = stabilize(InitialTopology::RandomSparse { extra: 3 }, 20, seed);
            assert!(rep.stabilized(), "seed {seed} failed: {rep:?}");
            assert!(rep.monotone, "seed {seed} regressed");
        }
    }

    #[test]
    fn two_blobs_merge() {
        let rep = stabilize(InitialTopology::TwoBlobs, 20, 5);
        assert!(rep.stabilized(), "two blobs did not merge: {rep:?}");
    }

    #[test]
    fn clique_collapses_to_ring() {
        let rep = stabilize(InitialTopology::Clique, 20, 6);
        assert!(rep.stabilized(), "clique did not stabilize: {rep:?}");
    }

    #[test]
    fn corrupted_ring_recovers() {
        let rep = stabilize(InitialTopology::CorruptedRing { corruptions: 5 }, 20, 7);
        assert!(rep.stabilized(), "corrupted ring did not recover: {rep:?}");
    }

    #[test]
    fn timeout_reports_unstabilized() {
        let ids = evenly_spaced_ids(32);
        let mut net =
            generate(InitialTopology::Star, &ids, ProtocolConfig::default(), 8).into_network(8);
        let rep = run_to_ring(&mut net, 1); // 1 round cannot possibly suffice
        assert!(!rep.stabilized());
        assert_eq!(rep.rounds_run, 1);
        assert_eq!(rep.verdict, Some(Verdict::BudgetExhausted { budget: 1 }));
    }
}
