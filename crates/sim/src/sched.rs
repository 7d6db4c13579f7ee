//! The active-set scheduler: O(work) rounds instead of O(n).
//!
//! Under [`ScheduleMode::FullScan`] (the default) every live node runs
//! its receive and regular actions every round — the paper's weakly fair
//! schedule, and the byte-for-byte deterministic baseline all golden
//! traces pin. Under [`ScheduleMode::ActiveSet`] a round activates only
//! the nodes on the **agenda**: nodes with freshly enqueued mail, nodes
//! whose local state is not yet a verified fixpoint, and nodes touched
//! by churn or a fault. Once the network stabilizes the agenda drains to
//! empty and a round costs O(1) — *quiescence* — instead of an O(n)
//! scan that probes and re-sends over a ring that can no longer
//! change.
//!
//! # The settlement certificate
//!
//! A node is **settled** when the engine has verified a local
//! certificate that its regular action cannot change any node's link
//! state (`node_settled`):
//!
//! * each finite list pointer is properly sided *and reciprocated* by a
//!   live neighbour (`a < id`, `a.r == id`; symmetric on the right), so
//!   the `lin` re-advertisements it would send are fixpoint no-ops;
//! * a `-∞`/`+∞` side is held only by the **global** extreme, and the
//!   two extremes hold each other's ids as mutually paired ring edges —
//!   deliberately stronger than the protocol's own per-node ring
//!   validity (any correctly sided value), because only the global
//!   pairing is a fixpoint of ring-edge improvement: the stronger check
//!   keeps interleaved reciprocal chains (locally consistent, globally
//!   wrong) from freezing short of the sorted ring;
//! * an interior node carries no leftover ring edge (sanitation would
//!   erase it — a state change);
//! * its lrl token endpoint is itself or a live node.
//!
//! Settled nodes still run **receive** actions — mail always wakes a
//! node — but skip the regular action, although the paper's model
//! always enables it. So an `ActiveSet` run is not weakly fair in that
//! model: it runs a variant protocol whose regular action is guarded by
//! a certificate that reads neighbours' state. The perpetual lrl token
//! walk (every regular action sends `inc_lrl`, even to itself) pauses on
//! settled nodes, and their ages, probe ticks and probe cycles freeze
//! with it. Without the pause a converged ring would never go quiet;
//! with it the quiescence invariant holds: **an inactive node has no
//! enabled action that could change the global link state** (DESIGN.md
//! §12). The variant reaches the same end state as `FullScan`, with
//! different rounds and messages: from E1's random-sparse starts at
//! n = 8 192 it took 305.5 rounds at p50 against 1 271.5, and 1 126
//! against 17 014 messages per node.
//!
//! # Staleness
//!
//! A certificate mentions other nodes' state, so every mutation path
//! re-verifies the certificates it can invalidate: a node's own turn
//! diffs its `(l, r, ring)` tuple and rechecks old and new targets
//! (reciprocity is mutual, so the far end of every broken edge is in
//! one of the two tuples); joins recheck the sorted neighbours and both
//! extremes; leaves unsettle every node that stores the departed id;
//! crashes recheck the victim's pre-crash targets; perturbations the
//! rewritten ones. The oracle proptest (`tests/active_set_prop.rs`)
//! pins the whole construction against the full-scan engine, and the
//! quiescence proptest (`tests/quiescence_prop.rs`) pins the no-op
//! guarantee.
//!
//! The scheduler does not answer "is it the sorted ring?": that is the
//! misplaced-node counter behind
//! [`Network::is_sorted_ring`](crate::Network::is_sorted_ring), which
//! `Network` keeps at the same turn, churn and fault seams under either
//! schedule.

use crate::slots::SlotIndex;
use swn_core::id::{Extended, NodeId};
use swn_core::node::Node;

/// The `(l, r, ring)` tuple a turn is diffed over (see
/// [`SchedState::finish_turn`]).
pub(crate) type TurnLinks = (Extended, Extended, Option<NodeId>);

/// How the round loop picks the nodes that act (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Every live node acts every round — the paper's schedule and the
    /// bit-for-bit deterministic baseline.
    #[default]
    FullScan,
    /// Only agenda nodes act; stable rounds cost O(work), and a fully
    /// settled network reports quiescence.
    ActiveSet,
}

/// The scheduler's working state: one flag pair per slot plus the
/// agenda of nodes that act next round. Slot-indexed (not id-indexed)
/// so the hot-path lookups are plain vector loads.
#[derive(Debug, Default)]
pub(crate) struct SchedState {
    /// `scheduled[slot]`: the slot is already on the agenda (dedup).
    scheduled: Vec<bool>,
    /// `settled[slot]`: the settlement certificate was verified and no
    /// mutation path has invalidated it since.
    settled: Vec<bool>,
    /// The `(id, slot)` pairs that act next round, in scheduling order;
    /// [`begin_round`](Self::begin_round) sorts them by id. Every entry
    /// names a live node: a removal drops its slot's entry.
    agenda: Vec<(NodeId, usize)>,
    /// The counting passes' destination in `begin_round`, kept so a
    /// round allocates nothing once the agenda has peaked.
    agenda_scratch: Vec<(NodeId, usize)>,
}

impl SchedState {
    /// Grows the flag vectors to cover `slot` (new arena slots from
    /// churn joins).
    pub(crate) fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.scheduled.len() {
            self.scheduled.resize(slot + 1, false);
            self.settled.resize(slot + 1, false);
        }
    }

    /// Puts the node `id` in `slot` on the next round's agenda
    /// (idempotent).
    pub(crate) fn schedule(&mut self, slot: usize, id: NodeId) {
        self.ensure_slot(slot);
        if !self.scheduled[slot] {
            self.scheduled[slot] = true;
            self.agenda.push((id, slot));
        }
    }

    /// Appends the agenda's slots to `out` in ascending id order and
    /// clears the flags, so scheduling during the round targets the
    /// *next* round. This is the round's turn order, and it is canonical
    /// — a function of the *set* of scheduled nodes, never of the order
    /// scheduling discovered them in — so the round's RNG draws depend
    /// on the stream and that set alone. The sort key is the entry's
    /// own id: no node record is read. The sort is [`sort_by_id`]: for
    /// all but short agendas, two counting passes on the top 16 bits of
    /// each id, then a comparison sort of each run sharing them.
    pub(crate) fn begin_round(&mut self, out: &mut Vec<usize>) {
        sort_by_id(&mut self.agenda, &mut self.agenda_scratch);
        let scheduled = &mut self.scheduled;
        out.extend(self.agenda.drain(..).map(|(_, slot)| {
            scheduled[slot] = false;
            slot
        }));
    }

    /// True when `slot`'s settlement certificate is current.
    pub(crate) fn is_settled(&self, slot: usize) -> bool {
        self.settled.get(slot).copied().unwrap_or(false)
    }

    /// Records the outcome of a certificate verification.
    pub(crate) fn set_settled(&mut self, slot: usize, settled: bool) {
        self.ensure_slot(slot);
        self.settled[slot] = settled;
    }

    /// Number of nodes on the agenda: exactly next round's active nodes.
    pub(crate) fn active_len(&self) -> usize {
        self.agenda.len()
    }

    /// Voids the certificate of the node `id` in `slot` and, with
    /// `wake`, puts it on the agenda.
    pub(crate) fn unsettle(&mut self, slot: usize, id: NodeId, wake: bool) {
        self.set_settled(slot, false);
        if wake {
            self.schedule(slot, id);
        }
    }

    /// Re-verifies a *settled* node's certificate after someone else's
    /// state changed; unsettles and schedules it when the certificate no
    /// longer holds. No-op for unsettled or absent ids (unsettled nodes
    /// re-verify at the end of their own next turn).
    pub(crate) fn recheck(&mut self, nodes: &[Option<Node>], index: &SlotIndex, id: NodeId) {
        let Some(slot) = index.get(id) else {
            return;
        };
        if self.is_settled(slot) && !node_settled(nodes, index, slot) {
            self.unsettle(slot, id, true);
        }
    }

    /// End-of-turn settlement bookkeeping: diff the turn's `(l, r, ring)`
    /// tuple to re-verify the certificates this turn can have
    /// invalidated, verify the node's own certificate, and reschedule it
    /// while it is unsettled or holds queued mail (`mail`). Returns
    /// whether the turn moved the node's `(l, r)`, the one part of the
    /// diff the misplaced-node counter reads.
    ///
    /// The diff is complete for *other* nodes' certificates because
    /// reciprocity is mutual: a certificate of `q` references `p`'s
    /// state only when `p` is a list/ring target of `q` and vice versa,
    /// so whichever edge this turn broke or created has its far end in
    /// the before- or after-tuple.
    ///
    /// A settled node whose turn left its `(l, r, ring)` and its `lrl`
    /// (`lrl_before`) unchanged is only rescheduled if mail is left: its
    /// certificate reads nothing else of its own, and every path that
    /// changes what it reads of other nodes re-verifies it (the
    /// quiescence invariant), so it still holds.
    pub(crate) fn finish_turn(
        &mut self,
        nodes: &[Option<Node>],
        index: &SlotIndex,
        slot: usize,
        before: TurnLinks,
        lrl_before: NodeId,
        mail: bool,
    ) -> bool {
        let Some(n) = nodes[slot].as_ref() else {
            return false;
        };
        let after = (n.left(), n.right(), n.ring());
        if after == before && n.lrl() == lrl_before && self.is_settled(slot) {
            debug_assert!(
                node_settled(nodes, index, slot),
                "a settled certificate went stale without a recheck"
            );
            if mail {
                self.schedule(slot, n.id());
            }
            return false;
        }
        if after != before {
            let (b, a) = (before, after);
            let targets = [b.0.fin(), b.1.fin(), b.2, a.0.fin(), a.1.fin(), a.2];
            for t in targets.into_iter().flatten() {
                self.recheck(nodes, index, t);
            }
        }
        let ok = node_settled(nodes, index, slot);
        self.set_settled(slot, ok);
        if !ok || mail {
            self.schedule(slot, n.id());
        }
        (after.0, after.1) != (before.0, before.1)
    }

    /// Scheduler bookkeeping for a join: the newcomer starts unsettled
    /// and scheduled, and the certificates the join can invalidate
    /// *without any mail arriving* are re-verified — the sorted
    /// neighbours and both global extremes, because seam certificates
    /// reference the min/max identity and the cross-ring pairing (a new
    /// global extreme must dethrone the settled old one eagerly, or it
    /// would freeze as falsely settled).
    pub(crate) fn on_insert(
        &mut self,
        nodes: &[Option<Node>],
        index: &SlotIndex,
        id: NodeId,
        slot: usize,
    ) {
        self.unsettle(slot, id, true);
        let rank = index.rank_of(id).expect("just inserted");
        let lane = index.sorted_ids();
        let candidates = [
            (rank > 0).then(|| lane[rank - 1]),
            lane.get(rank + 1).copied(),
            index.min_id(),
            index.max_id(),
        ];
        for c in candidates.into_iter().flatten() {
            if c != id {
                self.recheck(nodes, index, c);
            }
        }
    }

    /// Scheduler bookkeeping for a leave: every node that stores the
    /// departed id (list pointer, lrl endpoint or ring edge) has a dead
    /// certificate and must act again to detect the departure (bounce →
    /// `Node::undeliverable`). An O(n) scan — churn-rate cost, not per-round
    /// cost, and the same order the full-scan engine pays every round. It
    /// stays a scan of the whole table because the set it wakes is part of
    /// the simulated execution: the woken nodes act, draw from the RNG and
    /// send, so waking any other set changes every later round.
    ///
    /// The freed slot leaves the agenda.
    pub(crate) fn on_remove(
        &mut self,
        nodes: &[Option<Node>],
        index: &SlotIndex,
        id: NodeId,
        slot: usize,
    ) {
        self.set_settled(slot, false);
        if std::mem::take(&mut self.scheduled[slot]) {
            self.agenda.retain(|&(_, s)| s != slot);
        }
        for &s in index.sorted_slots() {
            if let Some(n) = nodes[s]
                .as_ref()
                .filter(|n| n.stored_ids().any(|x| x == id))
            {
                self.unsettle(s, n.id(), true);
            }
        }
    }
}

/// Agendas shorter than this are sorted by one comparison sort: the
/// counting passes cost a fixed ~150–250 ns (zeroing and summing their
/// 256-bucket tables), which only pays from about 64 entries on.
const COUNTING_MIN_LEN: usize = 64;

/// Sorts `agenda` by id, using `scratch` as the counting passes'
/// destination. From [`COUNTING_MIN_LEN`] entries on, two stable 8-bit
/// counting passes order the entries by the top 16 bits of their ids
/// (bits 48–55, then 56–63); a pass whose byte is the same for every
/// entry moves nothing and is skipped. Each run of entries that share
/// those 16 bits is then sorted by its full id. Ids are distinct, so the
/// result is exactly what one `sort_unstable_by_key` over the whole
/// agenda gives; ids clustered in one run (small `from_bits` ids) cost
/// one such sort and two counts.
fn sort_by_id(agenda: &mut Vec<(NodeId, usize)>, scratch: &mut Vec<(NodeId, usize)>) {
    if agenda.len() < COUNTING_MIN_LEN {
        agenda.sort_unstable_by_key(|&(id, _)| id);
        return;
    }
    let top = |e: &(NodeId, usize)| e.0.bits() >> 48;
    let first = top(&agenda[0]);
    let mut counts = [[0u32; 256]; 2];
    for e in agenda.iter() {
        let t = top(e);
        counts[0][(t & 0xff) as usize] += 1;
        counts[1][(t >> 8) as usize] += 1;
    }
    let len = u32::try_from(agenda.len()).expect("agenda fits u32");
    for (pass, count) in counts.iter_mut().enumerate() {
        let byte = |t: u64| ((t >> (8 * pass)) & 0xff) as usize;
        if count[byte(first)] == len {
            continue; // one bucket holds everything: already in order
        }
        let mut next = 0;
        for c in count.iter_mut() {
            next += std::mem::replace(c, next);
        }
        scratch.clear();
        scratch.resize(agenda.len(), (NodeId::MIN, 0));
        for &e in agenda.iter() {
            let bucket = &mut count[byte(top(&e))];
            scratch[*bucket as usize] = e;
            *bucket += 1;
        }
        std::mem::swap(agenda, scratch);
    }
    for run in agenda.chunk_by_mut(|a, b| top(a) == top(b)) {
        if run.len() > 1 {
            run.sort_unstable_by_key(|&(id, _)| id);
        }
    }
}

/// The settlement certificate (see the module docs): true exactly when
/// the node's regular action is a verified fixpoint no-op — every finite
/// list pointer properly sided and reciprocated by a live neighbour,
/// `±∞` sides only at the global extremes with the cross-ring edges
/// mutually paired, no leftover interior ring edge, and a live (or self)
/// lrl endpoint.
pub(crate) fn node_settled(nodes: &[Option<Node>], index: &SlotIndex, slot: usize) -> bool {
    let Some(n) = nodes[slot].as_ref() else {
        return false;
    };
    let id = n.id();
    let live = |x: NodeId| index.get(x).and_then(|s| nodes[s].as_ref());
    // A dangling token endpoint would make the next inc_lrl bounce and
    // rewrite state.
    if n.lrl() != id && !index.contains(n.lrl()) {
        return false;
    }
    let (min, max) = (index.min_id(), index.max_id());
    // One side of the certificate: `Some(true)` for the side's own `∞`
    // held by the global `extreme` (a seam), `Some(false)` for a finite
    // pointer that is properly sided and reciprocated (`back` reads the
    // neighbour's pointer towards this node), `None` when the side fails.
    let side =
        |ptr: Extended, inf: Extended, extreme: Option<NodeId>, back: fn(&Node) -> Extended| {
            match ptr {
                Extended::Fin(a) => {
                    let sided = if inf == Extended::NegInf {
                        a < id
                    } else {
                        a > id
                    };
                    (sided && live(a).is_some_and(|an| back(an) == Extended::Fin(id)))
                        .then_some(false)
                }
                p => (p == inf && extreme == Some(id)).then_some(true),
            }
        };
    let Some(seam_l) = side(n.left(), Extended::NegInf, min, Node::right) else {
        return false;
    };
    let Some(seam_r) = side(n.right(), Extended::PosInf, max, Node::left) else {
        return false;
    };
    // True when `n` and the opposite extreme hold each other's ids as
    // ring edges — the converged ring closure.
    let ring_paired = |partner: Option<NodeId>| {
        partner.is_some_and(|p| {
            p != id && n.ring() == Some(p) && live(p).is_some_and(|pn| pn.ring() == Some(id))
        })
    };
    match (seam_l, seam_r) {
        // The sole node: nothing to link; its ring edge (self or absent
        // after sanitation) is inert.
        (true, true) => true,
        // Interior node: a leftover ring edge would be sanitized away on
        // its next action — a state change.
        (false, false) => n.ring().is_none(),
        // Seam nodes must hold the *global* opposite extreme as a
        // mutually paired ring edge — deliberately stronger than the
        // protocol's per-node ring validity (any correctly sided value),
        // because only the global pairing is a fixpoint of ring-edge
        // improvement.
        (true, false) => ring_paired(max),
        (false, true) => ring_paired(min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::config::ProtocolConfig;
    use swn_core::invariants::make_sorted_ring;

    fn id(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    #[test]
    fn schedule_is_idempotent_per_round() {
        let mut s = SchedState::default();
        // Ids deliberately out of slot order, scheduled out of id order.
        s.schedule(2, id(0.5));
        s.schedule(2, id(0.5));
        s.schedule(0, id(0.9));
        s.schedule(1, id(0.1));
        assert_eq!(s.active_len(), 3);
        let mut out = Vec::new();
        s.begin_round(&mut out);
        assert_eq!(out, vec![1, 2, 0], "ascending id order");
        assert_eq!(s.active_len(), 0);
        // Flags cleared: the same slot can be scheduled for the next
        // round while the current one runs.
        s.schedule(2, id(0.5));
        assert_eq!(s.active_len(), 1);
    }

    /// Schedules `ids` (slot `k` holds `ids[k]`) in the given order and
    /// checks `begin_round` against one plain sort by id, and that every
    /// scheduled flag is cleared.
    fn assert_agenda_order(ids: &[NodeId]) {
        let mut s = SchedState::default();
        let mut expected: Vec<(NodeId, usize)> = ids.iter().copied().zip(0..).collect();
        for &(id, slot) in &expected {
            s.schedule(slot, id);
        }
        expected.sort_unstable_by_key(|&(id, _)| id);
        let mut out = Vec::new();
        s.begin_round(&mut out);
        let want: Vec<usize> = expected.iter().map(|&(_, slot)| slot).collect();
        assert_eq!(out, want, "{} ids", ids.len());
        assert!(s.scheduled.iter().all(|&f| !f), "flags cleared");
        assert_eq!(s.active_len(), 0);
    }

    #[test]
    fn agenda_order_is_the_plain_sort_by_id() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom as _;
        use rand::{RngExt as _, SeedableRng as _};
        let mut rng = StdRng::seed_from_u64(3);
        // Every size up to well past `COUNTING_MIN_LEN`, then a few large
        // ones.
        for len in (0u64..=300).chain([1000, 4096, 20_000]) {
            // Random ids: runs sharing their top 16 bits are rare.
            let random: Vec<NodeId> = (0..len).map(|_| NodeId::from_bits(rng.random())).collect();
            assert_agenda_order(&random);
            // Small `from_bits` ids: one run, in reverse order.
            let clustered: Vec<NodeId> = (0..len).rev().map(NodeId::from_bits).collect();
            assert_agenda_order(&clustered);
            // Mixed clusters: a few top-16 prefixes, one of which differs
            // from the others only in bits 48–55 and one only in 56–63,
            // with random low bits, shuffled.
            let prefixes = [0x0000u64, 0x0001, 0x0100, 0xff00, 0xffff, 0x1234];
            let mut mixed: Vec<NodeId> = (0..len)
                .map(|_| {
                    let p = prefixes[rng.random_range(0..prefixes.len())];
                    NodeId::from_bits(p << 48 | rng.random::<u64>() >> 16)
                })
                .collect();
            mixed.sort_unstable();
            mixed.dedup();
            mixed.shuffle(&mut rng);
            assert_agenda_order(&mixed);
        }
    }

    #[test]
    fn ensure_slot_grows_on_demand() {
        let mut s = SchedState::default();
        assert!(!s.is_settled(9));
        s.set_settled(9, true);
        assert!(s.is_settled(9));
        s.schedule(12, id(0.5));
        assert_eq!(s.active_len(), 1);
        assert!(!s.is_settled(12));
    }

    #[test]
    fn begin_round_appends_without_clobbering() {
        let mut s = SchedState::default();
        s.schedule(3, id(0.5));
        let mut out = vec![7usize];
        s.begin_round(&mut out);
        assert_eq!(out, vec![7, 3]);
    }

    #[test]
    fn a_reused_slot_runs_once_under_its_new_id() {
        let ring = make_sorted_ring(&[id(0.2), id(0.5), id(0.8)], ProtocolConfig::default());
        let mut nodes: Vec<Option<Node>> = ring.into_iter().map(Some).collect();
        let pairs = nodes.iter().flatten().enumerate().map(|(s, n)| (n.id(), s));
        let mut index = SlotIndex::from_pairs(pairs.collect()).expect("distinct ids");
        let mut s = SchedState::default();
        for (slot, n) in nodes.iter().flatten().enumerate() {
            s.schedule(slot, n.id());
        }
        // Slot 0 empties while scheduled, then takes a newcomer whose id
        // sorts last, all before the round starts.
        index.remove(id(0.2));
        nodes[0] = None;
        s.on_remove(&nodes, &index, id(0.2), 0);
        assert_eq!(s.active_len(), 2, "the departed node left the agenda");
        nodes[0] = Some(Node::new(id(0.9), ProtocolConfig::default()));
        index.insert(id(0.9), 0);
        s.on_insert(&nodes, &index, id(0.9), 0);
        let mut out = Vec::new();
        s.begin_round(&mut out);
        assert_eq!(
            out,
            vec![1, 2, 0],
            "the newcomer once, sorted under its own id"
        );
    }

    #[test]
    fn default_mode_is_full_scan() {
        assert_eq!(ScheduleMode::default(), ScheduleMode::FullScan);
    }
}
