//! The long-range link: `respondlrl` (Algorithm 3) and `move-forget`
//! (Algorithm 4).
//!
//! Every node owns one long-range link, its *token*. Each round the node
//! announces the token's position to its current endpoint (`inclrl`)
//! without waiting for the previous answer; the endpoint answers with its
//! own two ring neighbours (`reslrl`); on *every* answer the owner
//! *moves* the token to one of them uniformly at random and *forgets* it
//! (resets it to the origin) with the age-dependent probability φ(α),
//! the age counting rounds since the last forget.
//!
//! Chaintreau et al. [4] prove that a single such walker's displacement
//! is stationary in the k-harmonic distribution — the Kleinberg link
//! distribution that makes greedy routing polylogarithmic. This token is
//! not that walker: requests overlap and `move-forget` accepts any
//! `reslrl`, so under `Immediate` (an answer arrives two rounds after its
//! request) each node drives two interleaved walkers, more under random
//! delays, and a forget resets only the one it lands on. On a formed ring
//! the endpoint jumps two or more ranks without a reset, and
//! E[d² | age a] stays well below a (`crates/sim/tests/lrl_token_pin.rs`,
//! DESIGN.md §2 note 9).

// A malformed peer message must never be able to panic a node.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::forget::phi;
use crate::id::{Extended, NodeId};
use crate::message::Message;
use crate::node::Node;
use crate::outbox::{Outbox, ProtocolEvent};
use rand::{Rng, RngExt as _};

impl Node {
    /// `respondlrl(id)` — Algorithm 3. We are the endpoint of `origin`'s
    /// long-range link; answer with our left and right ring neighbours so
    /// the owner can move its token.
    ///
    /// At the ring seam the missing neighbour is substituted by our ring
    /// edge: the maximum node's "right" neighbour is the minimum node and
    /// vice versa, so the token walks a true cycle. (The paper's third
    /// branch contains a typo — it answers `(p.ring, p.l)` with
    /// `p.l = −∞` — which we correct to `(p.ring, p.r)` by symmetry with
    /// the second branch; DESIGN.md deviation #1.)
    pub(crate) fn respond_lrl(&mut self, origin: NodeId, out: &mut Outbox) {
        let ring = self
            .valid_ring()
            .map(Extended::Fin)
            .unwrap_or(match (self.l, self.r) {
                // No usable ring edge yet: expose the gap as a sentinel so
                // move-forget simply takes the other side.
                (Extended::NegInf, _) => Extended::NegInf,
                _ => Extended::PosInf,
            });
        let (id1, id2) = match (self.l, self.r) {
            (Extended::Fin(l), Extended::Fin(r)) => (Extended::Fin(l), Extended::Fin(r)),
            (Extended::Fin(l), Extended::PosInf) => (Extended::Fin(l), ring),
            (Extended::NegInf, Extended::Fin(r)) => (ring, Extended::Fin(r)),
            // Isolated (nothing useful to say) or ill-typed sentinels
            // (sanitize repairs them at the next action).
            _ => return,
        };
        out.send(origin, Message::ResLrl(id1, id2));
    }

    /// `move-forget(id1, id2)` — Algorithm 4. Move the token to one of the
    /// two candidates (uniformly when both exist), then forget it with
    /// probability φ(age).
    pub(crate) fn move_forget<R: Rng + ?Sized>(
        &mut self,
        id1: Extended,
        id2: Extended,
        rng: &mut R,
        out: &mut Outbox,
    ) {
        let next = match (id1.fin(), id2.fin()) {
            (Some(a), Some(b)) => Some(if rng.random_bool(0.5) { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        if let Some(n) = next {
            self.lrl = n;
        }
        let p_forget = phi(self.age, self.config().epsilon);
        if p_forget > 0.0 && rng.random::<f64>() < p_forget {
            out.event(ProtocolEvent::LrlForgotten { age: self.age });
            self.lrl = self.id();
            self.age = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    fn node(l: Option<f64>, me: f64, r: Option<f64>, ring: Option<f64>) -> Node {
        Node::with_state(
            id(me),
            l.map(|f| Extended::Fin(id(f))).unwrap_or(Extended::NegInf),
            r.map(|f| Extended::Fin(id(f))).unwrap_or(Extended::PosInf),
            id(me),
            ring.map(id),
            ProtocolConfig::default(),
        )
    }

    #[test]
    fn interior_node_answers_both_neighbours() {
        let mut n = node(Some(0.3), 0.5, Some(0.7), None);
        let mut out = Outbox::new();
        n.respond_lrl(id(0.1), &mut out);
        assert_eq!(
            out.sends(),
            &[(
                id(0.1),
                Message::ResLrl(Extended::Fin(id(0.3)), Extended::Fin(id(0.7)))
            )]
        );
    }

    #[test]
    fn max_node_answers_ring_as_right_neighbour() {
        let mut n = node(Some(0.7), 0.9, None, Some(0.1));
        let mut out = Outbox::new();
        n.respond_lrl(id(0.5), &mut out);
        assert_eq!(
            out.sends(),
            &[(
                id(0.5),
                Message::ResLrl(Extended::Fin(id(0.7)), Extended::Fin(id(0.1)))
            )]
        );
    }

    #[test]
    fn min_node_answers_ring_as_left_neighbour() {
        // DESIGN.md deviation #1: (p.ring, p.r), not the paper's (p.ring, p.l).
        let mut n = node(None, 0.1, Some(0.3), Some(0.9));
        let mut out = Outbox::new();
        n.respond_lrl(id(0.5), &mut out);
        assert_eq!(
            out.sends(),
            &[(
                id(0.5),
                Message::ResLrl(Extended::Fin(id(0.9)), Extended::Fin(id(0.3)))
            )]
        );
    }

    #[test]
    fn min_node_without_ring_answers_sentinel() {
        let mut n = node(None, 0.1, Some(0.3), None);
        let mut out = Outbox::new();
        n.respond_lrl(id(0.5), &mut out);
        assert_eq!(
            out.sends(),
            &[(
                id(0.5),
                Message::ResLrl(Extended::NegInf, Extended::Fin(id(0.3)))
            )]
        );
    }

    #[test]
    fn isolated_node_stays_silent() {
        let mut n = node(None, 0.5, None, None);
        let mut out = Outbox::new();
        n.respond_lrl(id(0.1), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn move_takes_the_only_candidate() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut n = node(Some(0.3), 0.5, Some(0.7), None);
        let mut out = Outbox::new();
        n.move_forget(Extended::Fin(id(0.8)), Extended::PosInf, &mut rng, &mut out);
        assert_eq!(n.lrl(), id(0.8));
        n.move_forget(Extended::NegInf, Extended::Fin(id(0.2)), &mut rng, &mut out);
        assert_eq!(n.lrl(), id(0.2));
    }

    #[test]
    fn move_with_no_candidates_keeps_token() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut n = node(Some(0.3), 0.5, Some(0.7), None);
        let mut out = Outbox::new();
        n.move_forget(Extended::NegInf, Extended::PosInf, &mut rng, &mut out);
        assert_eq!(n.lrl(), id(0.5));
        assert!(out.events().is_empty());
    }

    #[test]
    fn move_is_roughly_unbiased_between_two_candidates() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut left = 0u32;
        const TRIALS: u32 = 10_000;
        for _ in 0..TRIALS {
            let mut n = node(Some(0.3), 0.5, Some(0.7), None);
            let mut out = Outbox::new();
            n.move_forget(
                Extended::Fin(id(0.2)),
                Extended::Fin(id(0.8)),
                &mut rng,
                &mut out,
            );
            if n.lrl() == id(0.2) {
                left += 1;
            }
        }
        let frac = left as f64 / TRIALS as f64;
        assert!(
            (0.47..0.53).contains(&frac),
            "move step biased: left fraction {frac}"
        );
    }

    #[test]
    fn young_token_never_forgotten() {
        // age ≤ 2 ⇒ φ = 0 ⇒ the token survives regardless of randomness.
        // `move_forget` is the only emitter of `LrlForgotten`, so this is
        // the forget rule for every run.
        let mut rng = StdRng::seed_from_u64(7);
        for age in 0..=2 {
            for _ in 0..1000 {
                let mut n = node(Some(0.3), 0.5, Some(0.7), None);
                n.age = age;
                let mut out = Outbox::new();
                n.move_forget(Extended::Fin(id(0.8)), Extended::PosInf, &mut rng, &mut out);
                assert_eq!(n.lrl(), id(0.8), "age {age}");
                assert_eq!(n.age(), age, "age {age}");
                assert!(!out
                    .events()
                    .iter()
                    .any(|e| matches!(e, ProtocolEvent::LrlForgotten { .. })));
            }
        }
    }

    #[test]
    fn old_token_eventually_forgotten() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut n = node(Some(0.3), 0.5, Some(0.7), None);
        let mut forgotten = false;
        let mut out = Outbox::new();
        for _ in 0..10_000 {
            n.on_regular(&mut out); // ages the token
            out.clear();
            n.move_forget(Extended::Fin(id(0.8)), Extended::PosInf, &mut rng, &mut out);
            if out
                .events()
                .iter()
                .any(|e| matches!(e, ProtocolEvent::LrlForgotten { .. }))
            {
                forgotten = true;
                assert_eq!(n.lrl(), id(0.5), "token must return to origin");
                assert_eq!(n.age(), 0, "age must reset on forget");
                break;
            }
            out.clear();
        }
        assert!(forgotten, "token never forgotten in 10k rounds");
    }
}
