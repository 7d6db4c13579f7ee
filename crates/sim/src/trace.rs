//! Per-round metrics collection.
//!
//! The experiments measure the protocol in *rounds* and *messages* — the
//! units every theorem is stated in. The trace records, per round, the
//! message counts by kind plus the structured protocol events (probe
//! repairs, token moves/forgets, sanitation) emitted by the handlers.

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
    /// Messages whose payload a lying-state behavior forged in flight.
    /// The true payload is destroyed (and logged as a drop) even though
    /// *a* message is still delivered, so a forgery can sever a sole
    /// carrier exactly like a fault drop can.
    pub forged_fault: u64,
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
    /// Long-range token moves.
    pub lrl_moves: u64,
    /// Long-range link forget events.
    pub lrl_forgets: u64,
    /// Sum of ages at forget (ratio with `lrl_forgets` gives the mean).
    pub forget_age_sum: u64,
    /// Maximal age observed at a forget event this round.
    pub forget_age_max: u64,
    /// Ring-edge bootstrap/resets.
    pub ring_resets: u64,
    /// Ill-typed pointers salvaged by sanitation.
    pub pointers_salvaged: u64,
    /// Left/right neighbour adoptions during linearization.
    pub neighbor_adoptions: u64,
    /// Messages carrying the id registered with `Network::track_id`.
    pub tracked_sent: u64,
}

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

    /// Folds a protocol event into the counters.
    pub fn count_event(&mut self, ev: &ProtocolEvent) {
        match ev {
            ProtocolEvent::ProbeRepair { .. } => self.probe_repairs += 1,
            ProtocolEvent::LrlMoved { .. } => self.lrl_moves += 1,
            ProtocolEvent::LrlForgotten { age } => {
                self.lrl_forgets += 1;
                self.forget_age_sum += age;
                self.forget_age_max = self.forget_age_max.max(*age);
            }
            ProtocolEvent::RingReset { .. } => self.ring_resets += 1,
            ProtocolEvent::PointerSalvaged { .. } => self.pointers_salvaged += 1,
            ProtocolEvent::NeighborAdopted { .. } => self.neighbor_adoptions += 1,
        }
    }
}

/// The full history of a simulation run.
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

    /// Total messages sent over the whole run.
    pub fn total_sent(&self) -> u64 {
        self.rounds.iter().map(RoundStats::total_sent).sum()
    }

    /// Total messages sent of one kind.
    pub fn total_sent_of(&self, kind: MessageKind) -> u64 {
        self.rounds.iter().map(|r| r.sent[kind.index()]).sum()
    }

    /// Total messages bounced back to their sender over the whole run.
    pub fn total_bounced(&self) -> u64 {
        self.rounds.iter().map(|r| r.bounced).sum()
    }

    /// Total messages dropped over the whole run, from either cause.
    pub fn total_dropped(&self) -> u64 {
        self.rounds.iter().map(RoundStats::dropped).sum()
    }

    /// Total fault-injected drops (loss rate, partition cut, crashed
    /// destination — see `swn_sim::faults`).
    pub fn total_dropped_fault(&self) -> u64 {
        self.rounds.iter().map(|r| r.dropped_fault).sum()
    }

    /// Total fault-injected duplicate copies over the whole run.
    pub fn total_duplicated_fault(&self) -> u64 {
        self.rounds.iter().map(|r| r.duplicated_fault).sum()
    }

    /// Total lying-state forgeries over the whole run (see
    /// `RoundStats::forged_fault`).
    pub fn total_forged_fault(&self) -> u64 {
        self.rounds.iter().map(|r| r.forged_fault).sum()
    }

    /// Total probe repairs over the whole run.
    pub fn total_probe_repairs(&self) -> u64 {
        self.rounds.iter().map(|r| r.probe_repairs).sum()
    }

    /// Messages sent summed over a suffix window (for stable-state
    /// overhead measurements).
    pub fn sent_in_last(&self, window: usize) -> u64 {
        let start = self.rounds.len().saturating_sub(window);
        self.rounds[start..]
            .iter()
            .map(RoundStats::total_sent)
            .sum()
    }

    /// Total messages delivered over the whole run.
    pub fn total_delivered(&self) -> u64 {
        self.rounds.iter().map(RoundStats::total_delivered).sum()
    }

    /// Messages sent from round index `start` (0-based into
    /// [`Trace::rounds`]) to the end — the windowed sum the ablations
    /// and golden-trace code used to recompute by hand. A `start` past
    /// the end yields 0.
    pub fn sent_since(&self, start: usize) -> u64 {
        self.rounds
            .get(start.min(self.rounds.len())..)
            .map_or(0, |w| w.iter().map(RoundStats::total_sent).sum())
    }

    /// Messages sent by kind over the round-index window `range`
    /// (clamped to the recorded rounds).
    pub fn sent_by_kind_in(&self, range: std::ops::Range<usize>) -> [u64; MessageKind::COUNT] {
        let lo = range.start.min(self.rounds.len());
        let hi = range.end.min(self.rounds.len());
        let mut out = [0u64; MessageKind::COUNT];
        for r in &self.rounds[lo..hi.max(lo)] {
            for (acc, &sent) in out.iter_mut().zip(&r.sent) {
                *acc += sent;
            }
        }
        out
    }

    /// Mean and max lrl age at forget over the round-index window
    /// `range` (clamped), or `None` when the window saw no forget
    /// events.
    pub fn forget_age_stats_in(&self, range: std::ops::Range<usize>) -> Option<(f64, u64)> {
        let lo = range.start.min(self.rounds.len());
        let hi = range.end.min(self.rounds.len());
        let w = &self.rounds[lo..hi.max(lo)];
        let forgets: u64 = w.iter().map(|r| r.lrl_forgets).sum();
        if forgets == 0 {
            return None;
        }
        let sum: u64 = w.iter().map(|r| r.forget_age_sum).sum();
        let max = w.iter().map(|r| r.forget_age_max).max().unwrap_or(0);
        #[allow(clippy::cast_precision_loss)]
        Some((sum as f64 / forgets as f64, max))
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
        let a = NodeId::from_fraction(0.1);
        let b = NodeId::from_fraction(0.9);
        r.count_event(&ProtocolEvent::ProbeRepair { at: a, dest: b });
        r.count_event(&ProtocolEvent::LrlMoved { from: a, to: b });
        r.count_event(&ProtocolEvent::LrlForgotten { age: 10 });
        r.count_event(&ProtocolEvent::LrlForgotten { age: 4 });
        r.count_event(&ProtocolEvent::RingReset { to: None });
        r.count_event(&ProtocolEvent::PointerSalvaged { value: b });
        r.count_event(&ProtocolEvent::NeighborAdopted {
            side: swn_core::outbox::Side::Left,
            old: swn_core::id::Extended::NegInf,
            new: b,
        });
        assert_eq!(r.neighbor_adoptions, 1);
        assert_eq!(r.probe_repairs, 1);
        assert_eq!(r.lrl_moves, 1);
        assert_eq!(r.lrl_forgets, 2);
        assert_eq!(r.forget_age_sum, 14);
        assert_eq!(r.forget_age_max, 10);
        assert_eq!(r.ring_resets, 1);
        assert_eq!(r.pointers_salvaged, 1);
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
        assert_eq!(t.total_sent(), 3);
        assert_eq!(t.total_sent_of(MessageKind::Lin), 2);
        assert_eq!(t.total_probe_repairs(), 2);
        assert_eq!(t.sent_in_last(1), 2);
        assert_eq!(t.sent_in_last(10), 3);
    }

    #[test]
    fn windowed_and_cumulative_accessors() {
        let mut t = Trace::new();
        for k in 0..4u64 {
            let mut r = RoundStats::default();
            r.sent[MessageKind::Lin.index()] = k + 1; // 1, 2, 3, 4
            r.sent[MessageKind::Ring.index()] = 1;
            r.lrl_forgets = u64::from(k >= 2);
            r.forget_age_sum = if k >= 2 { 6 * (k - 1) } else { 0 }; // 6, 12
            r.forget_age_max = if k >= 2 { 6 * (k - 1) } else { 0 };
            t.push(r);
        }
        // sent_since equals the hand-rolled suffix sum it replaces.
        assert_eq!(t.sent_since(0), t.total_sent());
        assert_eq!(t.sent_since(2), (3 + 1) + (4 + 1));
        assert_eq!(t.sent_since(99), 0, "out-of-range start is empty");
        // Per-kind window, clamped.
        let w = t.sent_by_kind_in(1..3);
        assert_eq!(w[MessageKind::Lin.index()], 2 + 3);
        assert_eq!(w[MessageKind::Ring.index()], 2);
        assert_eq!(t.sent_by_kind_in(3..99)[MessageKind::Lin.index()], 4);
        // A reversed range is exactly the degenerate input the clamp
        // must turn into an empty window.
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..2;
        assert_eq!(t.sent_by_kind_in(reversed), [0; MessageKind::COUNT]);
        // Forget-age stats over windows with and without events.
        assert_eq!(t.forget_age_stats_in(0..2), None);
        let (mean, max) = t.forget_age_stats_in(0..4).unwrap();
        assert!((mean - 9.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(max, 12);
        // Delivered totals.
        assert_eq!(t.total_delivered(), 0);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.total_sent(), 0);
    }
}
