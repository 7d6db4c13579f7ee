//! `linearize(id)` — Algorithm 2.
//!
//! The heart of the sorting process (after Onus/Richa/Scheideler's
//! *linearization* and Nor/Nesterenko/Scheideler's *Corona*), extended by
//! the paper with long-range shortcuts: when a received identifier lies
//! beyond the node's long-range link, it is forwarded over that link
//! instead of crawling neighbour by neighbour.
//!
//! Invariant maintained by every branch: the received identifier is either
//! **stored** (as the new `l`/`r`, with the displaced old neighbour
//! forwarded onward) or **forwarded** — never dropped — so linearization
//! only ever shortens links in LCC and never disconnects it (Lemma 4.10).

// A malformed peer message must never be able to panic a node.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::id::{Extended, NodeId};
use crate::message::Message;
use crate::node::Node;
use crate::outbox::Outbox;

impl Node {
    /// Processes an identifier received in a `lin` message (or re-injected
    /// internally by probing/sanitation). See module docs.
    pub(crate) fn linearize(&mut self, id: NodeId, out: &mut Outbox) {
        let me = self.id();
        if id == me {
            return; // our own id echoed back: nothing to learn
        }
        if id > me {
            if id < self.r {
                // id is a closer right neighbour: adopt it, forward the
                // displaced one so its link survives in LCC.
                if let Extended::Fin(old_r) = self.r {
                    out.send(id, Message::Lin(old_r));
                }
                self.r = Extended::Fin(id);
            } else if self.config().lrl_shortcut
                && id > self.lrl
                && Extended::Fin(self.lrl) > self.r
            {
                // Long-range shortcut: lrl lies strictly between r and id.
                out.send(self.lrl, Message::Lin(id));
            } else if let Extended::Fin(rv) = self.r {
                // id ≥ r: forward right (a no-op echo when id == r).
                out.send(rv, Message::Lin(id));
            }
            // self.r = +∞ and id ≥ +∞ is impossible: id is finite.
        } else {
            // id < me, mirror image.
            if id > self.l {
                if let Extended::Fin(old_l) = self.l {
                    out.send(id, Message::Lin(old_l));
                }
                self.l = Extended::Fin(id);
            } else if self.config().lrl_shortcut
                && id < self.lrl
                && Extended::Fin(self.lrl) < self.l
            {
                out.send(self.lrl, Message::Lin(id));
            } else if let Extended::Fin(lv) = self.l {
                out.send(lv, Message::Lin(id));
            }
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

    fn node(l: Option<f64>, me: f64, r: Option<f64>, lrl: f64) -> Node {
        Node::with_state(
            id(me),
            l.map(|f| Extended::Fin(id(f))).unwrap_or(Extended::NegInf),
            r.map(|f| Extended::Fin(id(f))).unwrap_or(Extended::PosInf),
            id(lrl),
            None,
            ProtocolConfig::default(),
        )
    }

    #[test]
    fn adopts_closer_right_neighbour_and_forwards_old() {
        let mut n = node(Some(0.2), 0.5, Some(0.9), 0.5);
        let mut out = Outbox::new();
        n.linearize(id(0.7), &mut out);
        assert_eq!(n.right(), Extended::Fin(id(0.7)));
        // Old right neighbour 0.9 forwarded to the newcomer.
        assert_eq!(out.sends(), &[(id(0.7), Message::Lin(id(0.9)))]);
    }

    #[test]
    fn adopts_closer_left_neighbour_and_forwards_old() {
        let mut n = node(Some(0.2), 0.5, Some(0.9), 0.5);
        let mut out = Outbox::new();
        n.linearize(id(0.3), &mut out);
        assert_eq!(n.left(), Extended::Fin(id(0.3)));
        assert_eq!(out.sends(), &[(id(0.3), Message::Lin(id(0.2)))]);
    }

    #[test]
    fn first_right_neighbour_adopted_silently() {
        let mut n = node(None, 0.5, None, 0.5);
        let mut out = Outbox::new();
        n.linearize(id(0.7), &mut out);
        assert_eq!(n.right(), Extended::Fin(id(0.7)));
        assert!(out.sends().is_empty(), "no old neighbour to forward");
    }

    #[test]
    fn farther_id_forwarded_right() {
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.5);
        let mut out = Outbox::new();
        n.linearize(id(0.9), &mut out);
        assert_eq!(n.right(), Extended::Fin(id(0.6)), "r unchanged");
        assert_eq!(out.sends(), &[(id(0.6), Message::Lin(id(0.9)))]);
    }

    #[test]
    fn farther_id_forwarded_left() {
        let mut n = node(Some(0.4), 0.5, Some(0.6), 0.5);
        let mut out = Outbox::new();
        n.linearize(id(0.1), &mut out);
        assert_eq!(n.left(), Extended::Fin(id(0.4)));
        assert_eq!(out.sends(), &[(id(0.4), Message::Lin(id(0.1)))]);
    }

    #[test]
    fn lrl_shortcut_used_rightward() {
        // lrl = 0.8 lies strictly between r = 0.6 and id = 0.9: shortcut.
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.8);
        let mut out = Outbox::new();
        n.linearize(id(0.9), &mut out);
        assert_eq!(out.sends(), &[(id(0.8), Message::Lin(id(0.9)))]);
    }

    #[test]
    fn lrl_shortcut_used_leftward() {
        let mut n = node(Some(0.4), 0.5, Some(0.6), 0.2);
        let mut out = Outbox::new();
        n.linearize(id(0.1), &mut out);
        assert_eq!(out.sends(), &[(id(0.2), Message::Lin(id(0.1)))]);
    }

    #[test]
    fn lrl_shortcut_not_used_when_beyond_target() {
        // lrl = 0.95 is beyond id = 0.9: no shortcut, forward to r.
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.95);
        let mut out = Outbox::new();
        n.linearize(id(0.9), &mut out);
        assert_eq!(out.sends(), &[(id(0.6), Message::Lin(id(0.9)))]);
    }

    #[test]
    fn lrl_shortcut_disabled_by_config() {
        let cfg = ProtocolConfig {
            lrl_shortcut: false,
            ..ProtocolConfig::default()
        };
        let mut n = Node::with_state(
            id(0.5),
            Extended::Fin(id(0.2)),
            Extended::Fin(id(0.6)),
            id(0.8),
            None,
            cfg,
        );
        let mut out = Outbox::new();
        n.linearize(id(0.9), &mut out);
        assert_eq!(
            out.sends(),
            &[(id(0.6), Message::Lin(id(0.9)))],
            "with the ablation flag off, plain linearization forwards to r"
        );
    }

    #[test]
    fn equal_to_right_neighbour_echoes_harmlessly() {
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.5);
        let mut out = Outbox::new();
        n.linearize(id(0.6), &mut out);
        assert_eq!(n.right(), Extended::Fin(id(0.6)));
        // Faithful to Algorithm 2: id == p.r falls to the forward branch.
        assert_eq!(out.sends(), &[(id(0.6), Message::Lin(id(0.6)))]);
    }

    #[test]
    fn own_id_is_ignored() {
        let mut n = node(Some(0.2), 0.5, Some(0.6), 0.5);
        let mut out = Outbox::new();
        n.linearize(id(0.5), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn never_drops_an_identifier() {
        // Exhaustive small-universe check: for every combination of
        // l < me < r and every received id ≠ me, the id is either stored
        // or appears in exactly one outgoing message.
        let ids: Vec<f64> = vec![0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9];
        for &l in &ids {
            for &r in &ids {
                if !(l < 0.5 && r > 0.5) {
                    continue;
                }
                for &lrl in &ids {
                    for &x in &ids {
                        let mut n = node(Some(l), 0.5, Some(r), lrl);
                        let mut out = Outbox::new();
                        n.linearize(id(x), &mut out);
                        let stored = n.left() == id(x) || n.right() == id(x);
                        let forwarded = out
                            .sends()
                            .iter()
                            .filter(|(_, m)| matches!(m, Message::Lin(v) if *v == id(x)))
                            .count();
                        assert!(
                            stored || forwarded == 1,
                            "id {x} dropped at node(l={l}, r={r}, lrl={lrl})"
                        );
                    }
                }
            }
        }
    }
}
