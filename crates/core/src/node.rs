//! Node state and the two actions of Algorithm 1.
//!
//! Each node runs exactly two guarded actions (Section III):
//!
//! * the **receive action**, enabled whenever a message sits in the node's
//!   channel — dispatched here to the handler for the message's type;
//! * the **regular action**, enabled in every state — it re-advertises the
//!   node's identity to its neighbours (`sendid`, Algorithm 9) and starts
//!   the probing procedure (Algorithm 10).
//!
//! Handlers never perform I/O: they emit sends/events into an
//! [`Outbox`], which the simulator or the threaded
//! runtime then delivers. This keeps the protocol logic deterministic,
//! single-threaded and directly unit-testable.

// A malformed peer message must never be able to panic a node.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::config::ProtocolConfig;
use crate::id::{Extended, NodeId};
use crate::message::Message;
use crate::outbox::Outbox;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The full per-node protocol state (Section III's internal variables).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// `p.id` — the node's identifier. Immutable.
    id: NodeId,
    /// `p.l` — left neighbour, `< id`, or `−∞` when none is known.
    pub(crate) l: Extended,
    /// `p.r` — right neighbour, `> id`, or `+∞` when none is known.
    pub(crate) r: Extended,
    /// `p.lrl` — current endpoint of the long-range link. `lrl == id`
    /// means the token sits at its origin (the freshly-forgotten state).
    pub(crate) lrl: NodeId,
    /// `p.ring` — ring-edge target; only meaningful while `l = −∞` or
    /// `r = +∞` (i.e. for the minimum/maximum candidates).
    pub(crate) ring: Option<NodeId>,
    /// `p.age` — regular-action executions since `lrl` was last reset.
    pub(crate) age: u64,
    /// Regular-action counter driving the probing cadence.
    tick: u64,
    /// Protocol parameters.
    cfg: ProtocolConfig,
}

impl Node {
    /// A fresh node: no neighbours, the long-range token at its origin.
    pub fn new(id: NodeId, cfg: ProtocolConfig) -> Self {
        Node {
            id,
            l: Extended::NegInf,
            r: Extended::PosInf,
            lrl: id,
            ring: None,
            age: 0,
            tick: 0,
            cfg,
        }
    }

    /// A node with adversarially chosen variable contents, for
    /// self-stabilization experiments. Ill-typed values (e.g. `l ≥ id`)
    /// are accepted here; the sanitation rule repairs them at the node's
    /// first action without losing connectivity.
    pub fn with_state(
        id: NodeId,
        l: Extended,
        r: Extended,
        lrl: NodeId,
        ring: Option<NodeId>,
        cfg: ProtocolConfig,
    ) -> Self {
        Node {
            id,
            l,
            r,
            lrl,
            ring,
            age: 0,
            tick: 0,
            cfg,
        }
    }

    /// The node's identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }
    /// The stored left neighbour.
    #[inline]
    pub fn left(&self) -> Extended {
        self.l
    }
    /// The stored right neighbour.
    #[inline]
    pub fn right(&self) -> Extended {
        self.r
    }
    /// The long-range link endpoint.
    #[inline]
    pub fn lrl(&self) -> NodeId {
        self.lrl
    }
    /// The ring-edge target, if set.
    #[inline]
    pub fn ring(&self) -> Option<NodeId> {
        self.ring
    }
    /// The long-range link's age.
    #[inline]
    pub fn age(&self) -> u64 {
        self.age
    }
    /// The protocol parameters this node runs with.
    #[inline]
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }
    /// The regular-action counter driving the probing cadence. Behaviour
    /// depends only on its residue modulo
    /// [`probe_period`](crate::config::ProtocolConfig::probe_period);
    /// state-space tools key on that residue.
    #[inline]
    pub fn probe_tick(&self) -> u64 {
        self.tick
    }

    /// Staggers this node's probing cadence: with `probe_period = P`, the
    /// node probes on regular actions where `(phase + k) ≡ 0 (mod P)`.
    /// Real deployments stagger probes to spread load; the cadence
    /// ablation (A3) randomizes phases so fault-to-probe latency is
    /// uniform in `[0, P)` instead of always zero.
    pub fn with_probe_phase(mut self, phase: u64) -> Self {
        self.tick = phase;
        self
    }

    /// The finite identifiers currently stored by this node — its outgoing
    /// edges in the node connectivity graph CP (Definition 4.2).
    #[inline]
    pub fn stored_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.l
            .fin()
            .into_iter()
            .chain(self.r.fin())
            .chain(Some(self.lrl))
            .chain(self.ring)
    }

    /// **Receive action** (Algorithm 1, message dispatch).
    pub fn on_message<R: Rng + ?Sized>(&mut self, m: Message, rng: &mut R, out: &mut Outbox) {
        self.sanitize(out);
        match m {
            Message::Lin(id) => self.linearize(id, out),
            Message::IncLrl(origin) => self.respond_lrl(origin, out),
            Message::ResLrl(id1, id2) => self.move_forget(id1, id2, rng, out),
            Message::ProbR(dest) => self.probing_r(dest, out),
            Message::ProbL(dest) => self.probing_l(dest, out),
            Message::Ring(id) => self.respond_ring(id, out),
            Message::ResRing(cand) => self.update_ring(cand),
        }
    }

    /// **Regular action** (Algorithm 1, `true → sendid(); probing()`).
    pub fn on_regular(&mut self, out: &mut Outbox) {
        self.sanitize(out);
        // p.age counts regular-action executions ("rounds") since the last
        // reset of p.lrl; the forget check itself happens in move-forget.
        self.age = self.age.saturating_add(1);
        self.send_id(out);
        if self.tick.is_multiple_of(self.cfg.probe_period) {
            self.probing(out);
        }
        self.tick = self.tick.wrapping_add(1);
    }

    /// Repairs ill-typed stored pointers without dropping connectivity:
    /// a left neighbour that is not smaller (or a right one that is not
    /// larger) is removed from its slot and re-injected into the
    /// linearization process, so the link survives in LCC. A ring edge
    /// stored by a node that has both neighbours is likewise converted
    /// into a `lin` self-delivery. This implements the paper's remark that
    /// corrupt internal variables are recovered "by detecting them like
    /// wrong left or right neighbors" (Section III).
    fn sanitize(&mut self, out: &mut Outbox) {
        // A swapped sentinel (l = +∞ / r = −∞) carries no link: normalize.
        if self.l.is_pos_inf() {
            self.l = Extended::NegInf;
        }
        if self.r.is_neg_inf() {
            self.r = Extended::PosInf;
        }
        if let Extended::Fin(lv) = self.l {
            if lv >= self.id {
                self.l = Extended::NegInf;
                if lv != self.id {
                    self.linearize(lv, out);
                }
            }
        }
        if let Extended::Fin(rv) = self.r {
            if rv <= self.id {
                self.r = Extended::PosInf;
                if rv != self.id {
                    self.linearize(rv, out);
                }
            }
        }
        if self.l.is_fin() && self.r.is_fin() {
            if let Some(x) = self.ring.take() {
                if x != self.id {
                    self.linearize(x, out);
                }
            }
        }
    }

    /// `sendid()` — Algorithm 9: advertise our id to both neighbours (or
    /// along the ring edge where a neighbour is missing) and announce the
    /// long-range link to its endpoint.
    fn send_id(&mut self, out: &mut Outbox) {
        match self.l {
            Extended::Fin(lv) => out.send(lv, Message::Lin(self.id)),
            Extended::NegInf | Extended::PosInf => {
                if let Some(target) = self.ring_target() {
                    out.send(target, Message::Ring(self.id));
                }
            }
        }
        match self.r {
            Extended::Fin(rv) => out.send(rv, Message::Lin(self.id)),
            Extended::NegInf | Extended::PosInf => {
                if let Some(target) = self.ring_target() {
                    out.send(target, Message::Ring(self.id));
                }
            }
        }
        out.send(self.lrl, Message::IncLrl(self.id));
    }

    /// Validates (and if necessary re-bootstraps) the ring-edge target.
    ///
    /// For the minimum candidate (`l = −∞`) the ring edge must point to a
    /// *larger* node (ultimately the maximum); for the maximum candidate to
    /// a smaller one. An unset or wrong-sided `p.ring` is reset to the
    /// node's only known neighbour, which restarts the ring-edge
    /// improvement of Algorithms 7/8 (DESIGN.md deviation #3). Returns
    /// `None` for an isolated node.
    fn ring_target(&mut self) -> Option<NodeId> {
        let (min_side, fallback) = match (self.l, self.r) {
            (Extended::NegInf, Extended::PosInf) => return None, // isolated
            (Extended::NegInf, Extended::Fin(rv)) => (true, rv),
            (Extended::Fin(lv), Extended::PosInf) => (false, lv),
            // Both neighbours known: sanitize() already cleared the ring.
            _ => return None,
        };
        let valid = match self.ring {
            Some(x) if min_side => x > self.id,
            Some(x) => x < self.id,
            None => false,
        };
        if !valid {
            self.ring = Some(fallback);
        }
        self.ring
    }

    /// The failure-detector rule for a send that found no recipient
    /// (DESIGN.md §2 deviation #7) — the one executor policy that is
    /// protocol semantics, so every transport calls it: the simulator's
    /// `flush_outbox` and the threaded driver's dispatch.
    ///
    /// `self` sent `msg` to `dest`, which is not in the membership.
    /// Every variable equal to `dest` is cleared — the paper's remark
    /// that corrupt neighbour variables are recovered "by detecting them
    /// like wrong left or right neighbors". Returns `Some(msg)` when the
    /// transport must hand the message back to `self` for reprocessing:
    /// exactly a `lin(x)` naming a live `x ≠ dest`, since linearize
    /// *moves* identifiers and the message may be the sole carrier of
    /// `x`. Every other payload is still stored at its sender and is
    /// dropped (`None`).
    pub fn undeliverable(
        &mut self,
        dest: NodeId,
        msg: Message,
        is_live: impl Fn(NodeId) -> bool,
    ) -> Option<Message> {
        self.clear_dangling(dest);
        matches!(msg, Message::Lin(x) if x != dest && is_live(x)).then_some(msg)
    }

    /// Clears every variable that stores `dead`: a dangling left/right
    /// neighbour becomes `±∞`, a dangling long-range link returns to its
    /// origin (and its age restarts), a dangling ring edge is unset.
    fn clear_dangling(&mut self, dead: NodeId) {
        if self.l == Extended::Fin(dead) {
            self.l = Extended::NegInf;
        }
        if self.r == Extended::Fin(dead) {
            self.r = Extended::PosInf;
        }
        if self.lrl == dead {
            self.lrl = self.id;
            self.age = 0;
        }
        if self.ring == Some(dead) {
            self.ring = None;
        }
    }

    /// Read-only variant of the ring validity check, used when *answering*
    /// messages (Algorithm 3) — answering must not mutate the ring edge.
    pub(crate) fn valid_ring(&self) -> Option<NodeId> {
        match (self.l, self.r, self.ring) {
            (Extended::NegInf, Extended::Fin(_), Some(x)) if x > self.id => Some(x),
            (Extended::Fin(_), Extended::PosInf, Some(x)) if x < self.id => Some(x),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }
    fn cfg() -> ProtocolConfig {
        ProtocolConfig::default()
    }

    #[test]
    fn fresh_node_has_token_at_origin() {
        let n = Node::new(id(0.5), cfg());
        assert_eq!(n.lrl(), id(0.5));
        assert_eq!(n.left(), Extended::NegInf);
        assert_eq!(n.right(), Extended::PosInf);
        assert_eq!(n.ring(), None);
        assert_eq!(n.age(), 0);
    }

    #[test]
    fn isolated_node_regular_action_only_self_announces() {
        let mut n = Node::new(id(0.5), cfg());
        let mut out = Outbox::new();
        n.on_regular(&mut out);
        // No neighbours, no valid ring target: only the inclrl to itself.
        let sends = out.sends();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0], (id(0.5), Message::IncLrl(id(0.5))));
    }

    #[test]
    fn regular_action_advertises_to_both_neighbours() {
        let mut n = Node::with_state(
            id(0.5),
            Extended::Fin(id(0.3)),
            Extended::Fin(id(0.7)),
            id(0.5),
            None,
            cfg(),
        );
        let mut out = Outbox::new();
        n.on_regular(&mut out);
        let kinds: Vec<_> = out.sends().iter().map(|(_, m)| m.kind()).collect();
        assert!(kinds.contains(&MessageKind::Lin));
        assert_eq!(out.sends()[0], (id(0.3), Message::Lin(id(0.5))));
        assert_eq!(out.sends()[1], (id(0.7), Message::Lin(id(0.5))));
        assert_eq!(out.sends()[2], (id(0.5), Message::IncLrl(id(0.5))));
    }

    #[test]
    fn min_candidate_bootstraps_ring_to_right_neighbour() {
        let mut n = Node::with_state(
            id(0.1),
            Extended::NegInf,
            Extended::Fin(id(0.4)),
            id(0.1),
            None,
            cfg(),
        );
        let mut out = Outbox::new();
        n.on_regular(&mut out);
        assert_eq!(n.ring(), Some(id(0.4)));
        assert!(out
            .sends()
            .iter()
            .any(|&(d, m)| d == id(0.4) && m == Message::Ring(id(0.1))));
    }

    #[test]
    fn wrong_sided_ring_is_reset() {
        // A max candidate whose ring points right (invalid) gets it reset
        // to its left neighbour.
        let mut n = Node::with_state(
            id(0.8),
            Extended::Fin(id(0.6)),
            Extended::PosInf,
            id(0.8),
            Some(id(0.9)),
            cfg(),
        );
        let mut out = Outbox::new();
        n.on_regular(&mut out);
        assert_eq!(n.ring(), Some(id(0.6)));
    }

    #[test]
    fn sanitize_salvages_ill_typed_left_pointer() {
        // l > id is ill-typed; the value must move to the r side (via
        // linearize), not be dropped.
        let mut n = Node::with_state(
            id(0.4),
            Extended::Fin(id(0.9)),
            Extended::PosInf,
            id(0.4),
            None,
            cfg(),
        );
        let mut out = Outbox::new();
        n.on_regular(&mut out);
        assert_eq!(n.left(), Extended::NegInf);
        assert_eq!(n.right(), Extended::Fin(id(0.9)));
    }

    #[test]
    fn sanitize_clears_ring_of_interior_node() {
        let mut n = Node::with_state(
            id(0.5),
            Extended::Fin(id(0.3)),
            Extended::Fin(id(0.7)),
            id(0.5),
            Some(id(0.9)),
            cfg(),
        );
        let mut out = Outbox::new();
        n.on_regular(&mut out);
        assert_eq!(n.ring(), None);
        // The salvaged value re-enters linearization: 0.9 > 0.7 = r, so it
        // is forwarded to r as a lin message.
        assert!(out
            .sends()
            .iter()
            .any(|&(d, m)| d == id(0.7) && m == Message::Lin(id(0.9))));
    }

    #[test]
    fn age_increments_each_regular_action() {
        let mut n = Node::new(id(0.5), cfg());
        let mut out = Outbox::new();
        for expected in 1..=5 {
            n.on_regular(&mut out);
            assert_eq!(n.age(), expected);
        }
    }

    #[test]
    fn probe_period_gates_probing() {
        let mut cfg = cfg();
        cfg.probe_period = 3;
        // A max candidate whose lrl sits beyond its left neighbour probes
        // leftward — but only every third regular action.
        let make = || {
            Node::with_state(
                id(0.8),
                Extended::Fin(id(0.6)),
                Extended::Fin(id(0.9)),
                id(0.2),
                None,
                cfg,
            )
        };
        let mut n = make();
        let mut probes = 0;
        for _ in 0..9 {
            let mut out = Outbox::new();
            n.on_regular(&mut out);
            probes += out
                .sends()
                .iter()
                .filter(|(_, m)| matches!(m, Message::ProbL(_)))
                .count();
        }
        assert_eq!(probes, 3);
    }

    #[test]
    fn stored_ids_reflect_cp_edges() {
        let n = Node::with_state(
            id(0.5),
            Extended::Fin(id(0.3)),
            Extended::PosInf,
            id(0.9),
            Some(id(0.3)),
            cfg(),
        );
        let ids: Vec<_> = n.stored_ids().collect();
        assert_eq!(ids, vec![id(0.3), id(0.9), id(0.3)]);
    }

    #[test]
    fn self_message_is_harmless() {
        let mut n = Node::new(id(0.5), cfg());
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Outbox::new();
        n.on_message(Message::Lin(id(0.5)), &mut rng, &mut out);
        assert!(out.sends().is_empty());
        assert_eq!(n.left(), Extended::NegInf);
        assert_eq!(n.right(), Extended::PosInf);
    }

    /// Deviation #7, case by case: whatever was sent, every variable equal
    /// to `dest` is cleared (`age` restarting with `lrl`); only a `lin`
    /// naming a live node other than `dest` comes back.
    #[test]
    fn undeliverable_clears_every_pointer_and_bounces_only_a_live_lin() {
        let (dest, x) = (id(0.7), id(0.2));
        let (l, r) = (Extended::Fin(x), Extended::PosInf);
        let cases = [
            (Message::Lin(x), true, true),
            (Message::Lin(x), false, false),
            (Message::Lin(dest), true, false),
            (Message::IncLrl(x), true, false),
            (Message::ResLrl(l, r), true, false),
            (Message::Ring(x), true, false),
            (Message::ResRing(x), true, false),
            (Message::ProbR(x), true, false),
            (Message::ProbL(x), true, false),
        ];
        for (msg, live, bounces) in cases {
            // All four variables hold `dest` (ill-typed on one side, as a
            // corrupted state may be) and the token has aged.
            let at_dest = Extended::Fin(dest);
            let mut n = Node::with_state(id(0.5), at_dest, at_dest, dest, Some(dest), cfg());
            n.age = 9;
            let back = n.undeliverable(dest, msg, |_| live);
            assert_eq!(back, bounces.then_some(msg), "{msg:?} live={live}");
            assert_eq!(n, Node::new(id(0.5), cfg()), "{msg:?} live={live}");
        }
    }

    #[test]
    fn undeliverable_leaves_unrelated_state_untouched() {
        let mut n = Node::with_state(
            id(0.5),
            Extended::Fin(id(0.3)),
            Extended::PosInf,
            id(0.9),
            Some(id(0.1)),
            cfg(),
        );
        n.age = 9;
        let before = n.clone();
        let back = n.undeliverable(id(0.7), Message::Lin(id(0.3)), |_| true);
        assert_eq!(back, Some(Message::Lin(id(0.3))));
        assert_eq!(n, before);
    }
}
