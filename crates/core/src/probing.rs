//! Probing: Algorithms 5 (`probingr`), 6 (`probingl`) and 10 (`probing`).
//!
//! Probing guards the network against silently relying on long-range and
//! ring links for connectivity. Each period, every node launches a probe
//! toward its `lrl` endpoint (and, if extremal, toward its ring target).
//! A probe greedily approaches its destination along `r`/`lrl` (resp.
//! `l`/`lrl`) links **without ever overshooting it**. If it gets stuck —
//! the destination falls strictly between a node and its next neighbour —
//! the missing edge is created on the spot via `linearize`, restoring a
//! left-to-right path of short links (Theorem 4.3). In the stable state no
//! probe ever gets stuck, and each takes only O(ln^(2+ε) d) hops
//! (Lemma 4.23).

// A malformed peer message must never be able to panic a node.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::id::{Extended, NodeId};
use crate::message::Message;
use crate::node::Node;
use crate::outbox::{Outbox, ProtocolEvent};

impl Node {
    /// `probingr(id)` — Algorithm 5: forward a rightward probe with
    /// destination `dest`, repairing the topology if it cannot progress.
    pub(crate) fn probing_r(&mut self, dest: NodeId, out: &mut Outbox) {
        let me = self.id();
        if dest >= self.lrl && Extended::Fin(self.lrl) > self.r {
            // Our long-range link is a usable shortcut (beyond r, not past
            // the destination).
            out.send(self.lrl, Message::ProbR(dest));
        } else if let Extended::Fin(rv) = self.r {
            if dest >= rv {
                out.send(rv, Message::ProbR(dest));
                return;
            }
            if dest > me {
                // me < dest < r: the short-link path to dest is broken.
                out.event(ProtocolEvent::ProbeRepair { dest });
                self.linearize(dest, out);
            }
            // dest ≤ me: stale probe, drop.
        } else if dest > me {
            // r = +∞ and the destination is still to our right: repair.
            out.event(ProtocolEvent::ProbeRepair { dest });
            self.linearize(dest, out);
        }
    }

    /// `probingl(id)` — Algorithm 6, mirror of `probingr`.
    pub(crate) fn probing_l(&mut self, dest: NodeId, out: &mut Outbox) {
        let me = self.id();
        if dest <= self.lrl && Extended::Fin(self.lrl) < self.l {
            out.send(self.lrl, Message::ProbL(dest));
        } else if let Extended::Fin(lv) = self.l {
            if dest <= lv {
                out.send(lv, Message::ProbL(dest));
                return;
            }
            if dest < me {
                out.event(ProtocolEvent::ProbeRepair { dest });
                self.linearize(dest, out);
            }
        } else if dest < me {
            out.event(ProtocolEvent::ProbeRepair { dest });
            self.linearize(dest, out);
        }
    }

    /// `probing()` — Algorithm 10: launch probes toward our ring target
    /// (extremal nodes only) and toward our long-range link endpoint.
    pub(crate) fn probing(&mut self, out: &mut Outbox) {
        if self.l.is_neg_inf() || self.r.is_pos_inf() {
            if let Some(ring) = self.ring() {
                self.probe_toward(ring, out);
            }
        }
        let lrl = self.lrl;
        if lrl != self.id() {
            self.probe_toward(lrl, out);
        }
    }

    /// The common originate-a-probe step of Algorithm 10: hand the probe
    /// to the neighbour on the destination's side, or repair immediately
    /// when the destination falls inside our own gap.
    fn probe_toward(&mut self, dest: NodeId, out: &mut Outbox) {
        let me = self.id();
        if dest < me {
            if let Extended::Fin(lv) = self.l {
                if dest <= lv {
                    out.send(lv, Message::ProbL(dest));
                    return;
                }
            }
            // l = −∞, or l < dest < me: our own left link is the gap.
            out.event(ProtocolEvent::ProbeRepair { dest });
            self.linearize(dest, out);
        } else if dest > me {
            if let Extended::Fin(rv) = self.r {
                if dest >= rv {
                    out.send(rv, Message::ProbR(dest));
                    return;
                }
            }
            out.event(ProtocolEvent::ProbeRepair { dest });
            self.linearize(dest, out);
        }
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

    fn repairs(out: &Outbox) -> usize {
        out.events()
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::ProbeRepair { .. }))
            .count()
    }

    // ---- probingr (Algorithm 5) ----

    #[test]
    fn probe_uses_lrl_shortcut_when_not_overshooting() {
        // lrl = 0.7 > r = 0.6, dest = 0.9 ≥ lrl: jump the shortcut.
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.7, None);
        let mut out = Outbox::new();
        n.probing_r(id(0.9), &mut out);
        assert_eq!(out.sends(), &[(id(0.7), Message::ProbR(id(0.9)))]);
        assert_eq!(repairs(&out), 0);
    }

    #[test]
    fn probe_skips_overshooting_lrl() {
        // lrl = 0.95 would overshoot dest = 0.9: fall back to r.
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.95, None);
        let mut out = Outbox::new();
        n.probing_r(id(0.9), &mut out);
        assert_eq!(out.sends(), &[(id(0.6), Message::ProbR(id(0.9)))]);
    }

    #[test]
    fn probe_forwards_along_right_neighbour() {
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.5, None);
        let mut out = Outbox::new();
        n.probing_r(id(0.9), &mut out);
        assert_eq!(out.sends(), &[(id(0.6), Message::ProbR(id(0.9)))]);
    }

    #[test]
    fn stuck_probe_repairs_edge() {
        // dest = 0.55 lies strictly between me = 0.5 and r = 0.6: the path
        // of short links is broken; linearize adopts dest as new r.
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.5, None);
        let mut out = Outbox::new();
        n.probing_r(id(0.55), &mut out);
        assert_eq!(repairs(&out), 1);
        assert_eq!(n.right(), Extended::Fin(id(0.55)));
        // Displaced old neighbour forwarded to the newcomer (linearize).
        assert_eq!(out.sends(), &[(id(0.55), Message::Lin(id(0.6)))]);
    }

    #[test]
    fn probe_at_destination_is_absorbed() {
        // dest == me: probe completed, nothing emitted.
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.5, None);
        let mut out = Outbox::new();
        n.probing_r(id(0.5), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stale_leftward_probr_dropped() {
        // dest < me on a rightward probe: a stale message from a corrupt
        // initial channel; must be dropped, not repaired.
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.5, None);
        let mut out = Outbox::new();
        n.probing_r(id(0.3), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn probe_repairs_at_list_end() {
        // r = +∞ but dest > me: we are the last short-link node; repair.
        let mut n = node(Some(0.2), 0.5, None, 0.5, None);
        let mut out = Outbox::new();
        n.probing_r(id(0.9), &mut out);
        assert_eq!(repairs(&out), 1);
        assert_eq!(n.right(), Extended::Fin(id(0.9)));
    }

    // ---- probingl (Algorithm 6) ----

    #[test]
    fn leftward_probe_mirrors_rightward() {
        let mut n = node(Some(0.4), 0.5, Some(0.8), 0.3, None);
        let mut out = Outbox::new();
        n.probing_l(id(0.1), &mut out);
        // lrl = 0.3 < l = 0.4 and dest = 0.1 ≤ lrl: shortcut.
        assert_eq!(out.sends(), &[(id(0.3), Message::ProbL(id(0.1)))]);
    }

    #[test]
    fn leftward_probe_forwards_along_left_neighbour() {
        let mut n = node(Some(0.4), 0.5, Some(0.8), 0.5, None);
        let mut out = Outbox::new();
        n.probing_l(id(0.1), &mut out);
        assert_eq!(out.sends(), &[(id(0.4), Message::ProbL(id(0.1)))]);
    }

    #[test]
    fn leftward_stuck_probe_repairs() {
        let mut n = node(Some(0.2), 0.5, Some(0.8), 0.5, None);
        let mut out = Outbox::new();
        n.probing_l(id(0.3), &mut out);
        assert_eq!(repairs(&out), 1);
        assert_eq!(n.left(), Extended::Fin(id(0.3)));
    }

    // ---- probing() origination (Algorithm 10) ----

    #[test]
    fn origin_probes_its_lrl_rightward() {
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.9, None);
        let mut out = Outbox::new();
        n.probing(&mut out);
        assert_eq!(out.sends(), &[(id(0.6), Message::ProbR(id(0.9)))]);
    }

    #[test]
    fn origin_probes_its_lrl_leftward() {
        let mut n = node(Some(0.4), 0.5, Some(0.6), 0.1, None);
        let mut out = Outbox::new();
        n.probing(&mut out);
        assert_eq!(out.sends(), &[(id(0.4), Message::ProbL(id(0.1)))]);
    }

    #[test]
    fn token_at_origin_probes_nothing() {
        let mut n = node(Some(0.4), 0.5, Some(0.6), 0.5, None);
        let mut out = Outbox::new();
        n.probing(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn lrl_inside_own_gap_repairs_immediately() {
        // lrl = 0.55 with r = 0.6: destination inside our own gap.
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.55, None);
        let mut out = Outbox::new();
        n.probing(&mut out);
        assert_eq!(repairs(&out), 1);
        assert_eq!(n.right(), Extended::Fin(id(0.55)));
    }

    #[test]
    fn extremal_node_probes_ring_edge() {
        // Max candidate with ring pointing far left: probe via l.
        let mut n = node(Some(0.7), 0.9, None, 0.9, Some(0.1));
        let mut out = Outbox::new();
        n.probing(&mut out);
        assert_eq!(out.sends(), &[(id(0.7), Message::ProbL(id(0.1)))]);
    }

    #[test]
    fn interior_node_does_not_probe_ring() {
        // Ring edge only probed while extremal. (An interior node with a
        // stale ring has it cleared by sanitize at the next action; here we
        // call probing() directly to pin down Algorithm 10's guard.)
        let mut n = node(Some(0.4), 0.5, Some(0.6), 0.5, Some(0.9));
        let mut out = Outbox::new();
        n.probing(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn min_with_ring_in_own_gap_repairs() {
        // Min candidate whose ring target 0.2 lies inside (me, r): the ring
        // target is actually our next neighbour — adopt it.
        let mut n = node(None, 0.1, Some(0.4), 0.1, Some(0.2));
        let mut out = Outbox::new();
        n.probing(&mut out);
        assert_eq!(repairs(&out), 1);
        assert_eq!(n.right(), Extended::Fin(id(0.2)));
    }

    #[test]
    fn probe_walks_a_broken_chain_and_repairs_once() {
        // Three-node chain with a missing middle link: a probe from the
        // left end repairs exactly the broken hop.
        // a(0.1, r=0.5) -> b(0.5, r=0.9 but dest 0.7 missing) ...
        let mut b = node(Some(0.1), 0.5, Some(0.9), 0.5, None);
        let mut out = Outbox::new();
        // probe dest = 0.7 arriving at b: 0.5 < 0.7 < 0.9 ⇒ repair at b.
        b.probing_r(id(0.7), &mut out);
        assert_eq!(repairs(&out), 1);
        assert_eq!(b.right(), Extended::Fin(id(0.7)));
        // and 0.9 was handed to 0.7 so the chain stays connected.
        assert_eq!(out.sends(), &[(id(0.7), Message::Lin(id(0.9)))]);
    }
}
