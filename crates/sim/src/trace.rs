//! Per-round metrics collection.
//!
//! The experiments measure the protocol in *rounds* and *messages* — the
//! units every theorem is stated in. The trace records, per round, the
//! message counts by kind plus the probe repairs the handlers report.
//! The other handler event, a long-range forget, is the observer's
//! `forget_age` histogram (`crate::obs`), which holds its count, sum and
//! max.
//!
//! [`RoundStats`] is the one per-round record: the trace keeps one per
//! round, an observed network's sampled `Round` events carry it
//! (`crate::obs`), and every window total — over the trace
//! ([`Trace::since`]) or over the rounds a sink observed (its `Summary`)
//! — is a sum of it.

use serde::{Deserialize, Serialize};
use swn_core::message::MessageKind;
use swn_core::outbox::ProtocolEvent;

/// Counters for one simulated round. `Copy` (it is a fixed pile of
/// integers), so the round loop records it into the trace without a
/// clone call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Messages sent this round, by kind index (see
    /// [`MessageKind::index`]).
    pub sent: [u64; MessageKind::COUNT],
    /// Messages delivered this round, by kind index.
    pub delivered: [u64; MessageKind::COUNT],
    /// Messages whose destination no longer exists (possible during
    /// churn) and whose payload is safely stored elsewhere; they are
    /// dropped.
    pub dropped_churn: u64,
    /// Messages destroyed by the fault injector (loss rate, partition
    /// cut, or a crashed destination). Unlike churn drops, the payload
    /// is *not* known to be stored elsewhere — a fault drop may sever
    /// the sole carrier of an identifier (see `swn_sim::faults`).
    pub dropped_fault: u64,
    /// Extra copies created by the fault injector's duplication rate.
    /// Counted on top of `sent` (the original is counted there).
    pub duplicated_fault: u64,
    /// Stored pointer values a fault overwrote: a perturbation's
    /// randomized `r`/`lrl`/`ring`, a crash's blanked `l`/`r`/`lrl`/`ring`
    /// (either restart discipline). The old target may have been the
    /// knowledge graph's only edge into its component, so an erasure can
    /// sever connectivity exactly like a sole-carrier drop; each erased
    /// value is logged in the injector's drop log so the watchdog can
    /// attribute the disconnection.
    pub erased_fault: u64,
    /// `lin` messages to a departed destination that were handed back to
    /// their sender for reprocessing (the payload named a live node, so
    /// the message may be its sole carrier). Not drops: the payload stays
    /// in the system.
    pub bounced: u64,
    /// True when this round may have changed the network's phase: a
    /// message was delivered, some node's link state (`l`/`r`/`lrl`/ring)
    /// changed, or a message bounced/dropped. Conservative — a round with
    /// `links_changed == false` provably preserves the
    /// [`classify_view`](swn_core::invariants::classify_view) result, so observers
    /// may skip reclassification (see DESIGN.md).
    pub links_changed: bool,
    /// Probe-repair events: a probe got stuck and created an edge.
    pub probe_repairs: u64,
    /// Messages carrying the id registered with `Network::track_id`.
    pub tracked_sent: u64,
}

// The trace keeps one row per round and every observed round carries
// one, so a change in size should be on purpose.
const _: () = assert!(std::mem::size_of::<RoundStats>() == 176);

impl RoundStats {
    /// Total messages sent this round.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total messages delivered this round.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Records a send.
    pub fn count_sent(&mut self, kind: MessageKind) {
        self.sent[kind.index()] += 1;
    }

    /// Records a delivery.
    pub fn count_delivered(&mut self, kind: MessageKind) {
        self.delivered[kind.index()] += 1;
    }

    /// Total messages dropped this round, from either cause (churn
    /// departures or injected faults).
    pub fn dropped(&self) -> u64 {
        self.dropped_churn + self.dropped_fault
    }

    /// Folds a protocol event into the counters. A forget counts
    /// nothing here: an observed network records its age into the
    /// `forget_age` histogram.
    pub fn count_event(&mut self, ev: &ProtocolEvent) {
        match ev {
            ProtocolEvent::ProbeRepair { .. } => self.probe_repairs += 1,
            ProtocolEvent::LrlForgotten { .. } => {}
        }
    }
}

/// Sums one round into a running total — the fold behind
/// [`Trace::since`] and the observer's `Summary` totals. The destructure
/// is exhaustive, so a counter added to [`RoundStats`] cannot silently
/// drop out of a sum.
impl std::ops::AddAssign<&RoundStats> for RoundStats {
    fn add_assign(&mut self, r: &RoundStats) {
        let RoundStats {
            sent,
            delivered,
            dropped_churn,
            dropped_fault,
            duplicated_fault,
            erased_fault,
            bounced,
            links_changed,
            probe_repairs,
            tracked_sent,
        } = *r;
        for (acc, v) in self.sent.iter_mut().zip(sent) {
            *acc += v;
        }
        for (acc, v) in self.delivered.iter_mut().zip(delivered) {
            *acc += v;
        }
        self.dropped_churn += dropped_churn;
        self.dropped_fault += dropped_fault;
        self.duplicated_fault += duplicated_fault;
        self.erased_fault += erased_fault;
        self.bounced += bounced;
        self.links_changed |= links_changed;
        self.probe_repairs += probe_repairs;
        self.tracked_sent += tracked_sent;
    }
}

/// The full history of a simulation run: one [`RoundStats`] per round,
/// oldest first. Totals over a suffix of it are [`Trace::since`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    rounds: Vec<RoundStats>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a finished round.
    pub fn push(&mut self, stats: RoundStats) {
        self.rounds.push(stats);
    }

    /// Per-round stats, oldest first.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The rounds from index `start` (0-based into [`Trace::rounds`])
    /// to the end, summed into one record: counters add and
    /// `links_changed` takes the or. A `start` at or past the
    /// end yields the empty sum; `since(0)` is the whole run.
    pub fn since(&self, start: usize) -> RoundStats {
        let mut sum = RoundStats::default();
        for r in self.rounds.get(start..).unwrap_or_default() {
            sum += r;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::id::NodeId;

    #[test]
    fn round_stats_accumulate() {
        let mut r = RoundStats::default();
        r.count_sent(MessageKind::Lin);
        r.count_sent(MessageKind::Lin);
        r.count_sent(MessageKind::ProbR);
        r.count_delivered(MessageKind::Lin);
        assert_eq!(r.total_sent(), 3);
        assert_eq!(r.total_delivered(), 1);
        assert_eq!(r.sent[MessageKind::Lin.index()], 2);
    }

    #[test]
    fn events_fold_into_counters() {
        let mut r = RoundStats::default();
        let dest = NodeId::from_fraction(0.9);
        r.count_event(&ProtocolEvent::ProbeRepair { dest });
        r.count_event(&ProtocolEvent::LrlForgotten { age: 10 });
        r.count_event(&ProtocolEvent::LrlForgotten { age: 4 });
        let expect = RoundStats {
            probe_repairs: 1,
            ..RoundStats::default()
        };
        assert_eq!(r, expect, "a forget counts nothing in the row");
    }

    #[test]
    fn trace_aggregates() {
        let mut t = Trace::new();
        let mut r1 = RoundStats::default();
        r1.count_sent(MessageKind::Lin);
        r1.probe_repairs = 2;
        t.push(r1);
        let mut r2 = RoundStats::default();
        r2.count_sent(MessageKind::Ring);
        r2.count_sent(MessageKind::Lin);
        t.push(r2);
        assert_eq!(t.len(), 2);
        let all = t.since(0);
        assert_eq!(all.total_sent(), 3);
        assert_eq!(all.sent[MessageKind::Lin.index()], 2);
        assert_eq!(all.probe_repairs, 2);
        // The last `w` rounds are `since(len - w)`, clamped at 0.
        assert_eq!(t.since(t.len() - 1).total_sent(), 2);
        assert_eq!(t.since(t.len().saturating_sub(10)).total_sent(), 3);
        // Every counter takes part in the sum: a round with each field
        // set to a distinct value, recorded twice.
        let mut t = Trace::new();
        let r = RoundStats {
            sent: [1, 2, 3, 4, 5, 6, 7],
            delivered: [8, 9, 10, 11, 12, 13, 14],
            dropped_churn: 15,
            dropped_fault: 16,
            duplicated_fault: 17,
            erased_fault: 19,
            bounced: 20,
            links_changed: true,
            probe_repairs: 21,
            tracked_sent: 29,
        };
        t.push(r);
        t.push(r);
        let twice = RoundStats {
            sent: [2, 4, 6, 8, 10, 12, 14],
            delivered: [16, 18, 20, 22, 24, 26, 28],
            dropped_churn: 30,
            dropped_fault: 32,
            duplicated_fault: 34,
            erased_fault: 38,
            bounced: 40,
            links_changed: true,
            probe_repairs: 42,
            tracked_sent: 58,
        };
        assert_eq!(t.since(0), twice);
    }

    #[test]
    fn windowed_and_cumulative_accessors() {
        let mut t = Trace::new();
        for k in 0..4u64 {
            let mut r = RoundStats::default();
            r.sent[MessageKind::Lin.index()] = k + 1; // 1, 2, 3, 4
            r.sent[MessageKind::Ring.index()] = 1;
            r.links_changed = k == 1;
            t.push(r);
        }
        // A suffix sum, and the empty sum past the end.
        assert_eq!(t.since(2).total_sent(), (3 + 1) + (4 + 1));
        assert_eq!(t.since(4), RoundStats::default(), "start == len is empty");
        assert_eq!(t.since(99), RoundStats::default(), "out-of-range start");
        // Per-kind sums.
        let w = t.since(1);
        assert_eq!(w.sent[MessageKind::Lin.index()], 2 + 3 + 4);
        assert_eq!(w.sent[MessageKind::Ring.index()], 3);
        assert_eq!(t.since(3).sent[MessageKind::Lin.index()], 4);
        // The dirty flag is an or: set iff some round in the window set it.
        assert!(t.since(0).links_changed);
        assert!(!t.since(2).links_changed);
        // Delivered totals.
        assert_eq!(t.since(0).total_delivered(), 0);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.since(0), RoundStats::default());
    }
}
