//! Ring-edge maintenance: `respondring` (Algorithm 7) and `updatering`
//! (Algorithm 8).
//!
//! The move-and-forget process needs a *ring*, not a list, so the extremal
//! nodes keep a ring edge pointing at the opposite end: in the stable
//! state `min.ring = max` and `max.ring = min`. A node missing a
//! neighbour advertises itself over its ring edge (`ring` message,
//! Algorithm 9); the receiver either helps the sender linearize (when the
//! sender is not really extremal) or answers with a *better* ring-edge
//! candidate (`resring`), walking the ring edge toward the true extremum.

// A malformed peer message must never be able to panic a node.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::id::{Extended, NodeId};
use crate::message::Message;
use crate::node::Node;
use crate::outbox::Outbox;

impl Node {
    /// `respondring(id)` — Algorithm 7. `id` believes it is an extremal
    /// node and its ring edge points at us.
    ///
    /// The paper's `id > p` case forwards `p.l` when `p.r > id`, which by
    /// symmetry with the `id < p` case must be `p.r` (DESIGN.md deviation
    /// #2). Where the pseudocode would send a `±∞` sentinel (impossible on
    /// the wire), the identifier is handled locally via `linearize`, which
    /// preserves the link.
    pub(crate) fn respond_ring(&mut self, id: NodeId, out: &mut Outbox) {
        let me = self.id();
        if id == me {
            return;
        }
        if id < me {
            // Sender is a minimum candidate; its ring edge must end at the
            // true maximum. Either help it linearize (it is not extremal /
            // not adjacent to us) or walk its ring edge rightward.
            if self.l < id {
                match self.l {
                    Extended::Fin(lv) => out.send(id, Message::Lin(lv)),
                    // We know nothing smaller: id belongs to our left side.
                    Extended::NegInf | Extended::PosInf => self.linearize(id, out),
                }
            } else if self.lrl < id {
                out.send(id, Message::Lin(self.lrl));
            } else if Extended::Fin(self.lrl) > self.r {
                out.send(id, Message::ResRing(self.lrl));
            } else if let Extended::Fin(rv) = self.r {
                out.send(id, Message::ResRing(rv));
            }
            // r = +∞: we are the maximum candidate; the sender's ring edge
            // already points at the right place — nothing to improve.
        } else {
            // Sender is a maximum candidate; walk its ring edge leftward.
            if self.r > id {
                match self.r {
                    Extended::Fin(rv) => out.send(id, Message::Lin(rv)),
                    Extended::NegInf | Extended::PosInf => self.linearize(id, out),
                }
            } else if self.lrl > id {
                out.send(id, Message::Lin(self.lrl));
            } else if Extended::Fin(self.lrl) < self.l {
                out.send(id, Message::ResRing(self.lrl));
            } else if let Extended::Fin(lv) = self.l {
                out.send(id, Message::ResRing(lv));
            }
        }
    }

    /// `updatering(id)` — Algorithm 8. Adopt a better ring-edge candidate:
    /// the minimum candidate's ring edge only ever moves right (toward the
    /// maximum), the maximum candidate's only left. Candidates are always
    /// copies of links still stored at the responder, so ignoring a
    /// non-improving candidate cannot disconnect the network.
    pub(crate) fn update_ring(&mut self, cand: NodeId) {
        let me = self.id();
        if cand == me {
            return;
        }
        if self.l.is_neg_inf() {
            // Minimum candidate: ring must point right and only improves
            // rightward. An unset/wrong-sided ring counts as "at me".
            let current = self.ring().filter(|&x| x > me);
            if cand > me && current.is_none_or(|cur| cand > cur) {
                self.set_ring(Some(cand));
            }
        } else if self.r.is_pos_inf() {
            let current = self.ring().filter(|&x| x < me);
            if cand < me && current.is_none_or(|cur| cand < cur) {
                self.set_ring(Some(cand));
            }
        }
        // Interior node: stale resring, ignore (the candidate is still
        // stored at the responder).
    }

    pub(crate) fn set_ring(&mut self, ring: Option<NodeId>) {
        self.ring = ring;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;

    fn id(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    fn node(l: Option<f64>, me: f64, r: Option<f64>, lrl: f64, ring: Option<f64>) -> Node {
        Node::with_state(
            id(me),
            l.map(|f| Extended::Fin(id(f))).unwrap_or(Extended::NegInf),
            r.map(|f| Extended::Fin(id(f))).unwrap_or(Extended::PosInf),
            id(lrl),
            ring.map(id),
            ProtocolConfig::default(),
        )
    }

    // ---- respondring, id < p (sender is a minimum candidate) ----

    #[test]
    fn helps_nonextremal_sender_linearize_via_left_neighbour() {
        // p.l = 0.2 < id = 0.3: the sender belongs between 0.2 and us.
        let mut n = node(Some(0.2), 0.5, Some(0.7), 0.5, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.3), &mut out);
        assert_eq!(out.sends(), &[(id(0.3), Message::Lin(id(0.2)))]);
    }

    #[test]
    fn adopts_smaller_sender_when_we_have_no_left() {
        // We are a minimum candidate ourselves but a smaller node exists:
        // adopt it (the paper's branch would send −∞, impossible).
        let mut n = node(None, 0.5, Some(0.7), 0.5, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.3), &mut out);
        assert_eq!(n.left(), Extended::Fin(id(0.3)));
    }

    #[test]
    fn forwards_lrl_as_lin_when_between() {
        // p.l ≥ id but lrl = 0.2 < id = 0.3: sender learns about 0.2.
        let mut n = node(Some(0.4), 0.5, Some(0.7), 0.2, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.3), &mut out);
        assert_eq!(out.sends(), &[(id(0.3), Message::Lin(id(0.2)))]);
    }

    #[test]
    fn answers_lrl_as_ring_candidate_when_right_shortcut() {
        // lrl = 0.9 > r = 0.7: the minimum's ring edge can jump to 0.9.
        let mut n = node(Some(0.4), 0.5, Some(0.7), 0.9, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.3), &mut out);
        assert_eq!(out.sends(), &[(id(0.3), Message::ResRing(id(0.9)))]);
    }

    #[test]
    fn answers_right_neighbour_as_ring_candidate() {
        let mut n = node(Some(0.4), 0.5, Some(0.7), 0.5, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.3), &mut out);
        assert_eq!(out.sends(), &[(id(0.3), Message::ResRing(id(0.7)))]);
    }

    #[test]
    fn max_candidate_does_not_answer_min_sender() {
        // We have r = +∞ (true maximum candidate): the sender's ring edge
        // already ends at the right place.
        let mut n = node(Some(0.4), 0.9, None, 0.9, Some(0.3));
        let mut out = Outbox::new();
        n.respond_ring(id(0.3), &mut out);
        assert!(out.sends().is_empty());
    }

    // ---- respondring, id > p (sender is a maximum candidate) ----

    #[test]
    fn helps_nonextremal_max_sender_linearize() {
        // Deviation #2: send p.r (not the paper's p.l) when p.r > id.
        let mut n = node(Some(0.2), 0.5, Some(0.9), 0.5, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.7), &mut out);
        assert_eq!(out.sends(), &[(id(0.7), Message::Lin(id(0.9)))]);
    }

    #[test]
    fn adopts_larger_sender_when_we_have_no_right() {
        let mut n = node(Some(0.2), 0.5, None, 0.5, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.7), &mut out);
        assert_eq!(n.right(), Extended::Fin(id(0.7)));
    }

    #[test]
    fn forwards_bigger_lrl_to_max_sender() {
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.8, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.7), &mut out);
        assert_eq!(out.sends(), &[(id(0.7), Message::Lin(id(0.8)))]);
    }

    #[test]
    fn answers_lrl_as_ring_candidate_when_left_shortcut() {
        // lrl = 0.1 < l = 0.2: the maximum's ring edge can jump to 0.1.
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.1, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.7), &mut out);
        assert_eq!(out.sends(), &[(id(0.7), Message::ResRing(id(0.1)))]);
    }

    #[test]
    fn answers_left_neighbour_as_ring_candidate_to_max_sender() {
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.5, None);
        let mut out = Outbox::new();
        n.respond_ring(id(0.7), &mut out);
        assert_eq!(out.sends(), &[(id(0.7), Message::ResRing(id(0.2)))]);
    }

    // ---- updatering ----

    #[test]
    fn min_ring_moves_right_only() {
        let mut n = node(None, 0.1, Some(0.3), 0.1, Some(0.5));
        n.update_ring(id(0.8));
        assert_eq!(n.ring(), Some(id(0.8)), "better candidate adopted");
        n.update_ring(id(0.4));
        assert_eq!(n.ring(), Some(id(0.8)), "worse candidate ignored");
        n.update_ring(id(0.05));
        assert_eq!(n.ring(), Some(id(0.8)), "wrong-sided candidate ignored");
    }

    #[test]
    fn max_ring_moves_left_only() {
        let mut n = node(Some(0.7), 0.9, None, 0.9, Some(0.5));
        n.update_ring(id(0.2));
        assert_eq!(n.ring(), Some(id(0.2)));
        n.update_ring(id(0.4));
        assert_eq!(n.ring(), Some(id(0.2)));
        n.update_ring(id(0.95));
        assert_eq!(n.ring(), Some(id(0.2)));
    }

    #[test]
    fn unset_ring_accepts_first_valid_candidate() {
        let mut n = node(None, 0.1, Some(0.3), 0.1, None);
        n.update_ring(id(0.6));
        assert_eq!(n.ring(), Some(id(0.6)));
    }

    #[test]
    fn interior_node_ignores_resring() {
        let mut n = node(Some(0.3), 0.5, Some(0.7), 0.5, None);
        n.update_ring(id(0.9));
        assert_eq!(n.ring(), None);
    }

    #[test]
    fn n2_network_forms_ring_via_respond_and_update() {
        // Two nodes already linearized: each is extremal; ring messages
        // should lead to min.ring = max and max.ring = min via bootstrap.
        let mut a = node(None, 0.2, Some(0.8), 0.2, None);
        let mut b = node(Some(0.2), 0.8, None, 0.8, None);
        let mut out = Outbox::new();
        a.on_regular(&mut out); // bootstraps a.ring = 0.8, sends Ring(0.2) to 0.8
        assert_eq!(a.ring(), Some(id(0.8)));
        let ring_msgs: Vec<_> = out
            .sends()
            .iter()
            .filter(|(_, m)| matches!(m, Message::Ring(_)))
            .cloned()
            .collect();
        assert_eq!(ring_msgs, vec![(id(0.8), Message::Ring(id(0.2)))]);
        // b answers: b.r = +∞ and sender < b ⇒ silence (already optimal);
        let mut out_b = Outbox::new();
        b.respond_ring(id(0.2), &mut out_b);
        assert!(out_b.sends().is_empty());
        // b's own regular action bootstraps its ring edge to 0.2.
        let mut out_b2 = Outbox::new();
        b.on_regular(&mut out_b2);
        assert_eq!(b.ring(), Some(id(0.2)));
    }
}
