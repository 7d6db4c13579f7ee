//! The coins handlers draw, and the receive-action seam.
//!
//! [`Stepper`] is the one indirection between the graph builder and
//! `Node::on_message`: the real implementation forwards to the protocol's
//! receive action, and the faulty ones exist solely to prove the monitors
//! can catch a broken protocol (and to exercise the counterexample
//! printer end to end). Every mutant breaks a receive action, so regular
//! actions call `Node::on_regular` directly.

use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::outbox::Outbox;

/// One activation's coin outcome, as a [`rand::Rng`]: draw `k` returns
/// `0` when bit `k` of `outcome` is clear and `u64::MAX` when it is set.
///
/// The only randomized handler is `move-forget` (Algorithm 4). It draws
/// `random_bool(0.5)` for the candidate when both candidates are finite,
/// then `random::<f64>() < φ(age)` for the forget when `φ(age) > 0`. A
/// `0` word picks the **first** candidate and **forgets**; a `u64::MAX`
/// word (the float `1 − 2⁻⁵³`) picks the **second** and **keeps**. So an
/// activation draws 0, 1 or 2 coins, and [`crate::State::outcomes`] runs
/// each of their outcomes: the graph branches on every coin, and the
/// scheduler and the coins are both adversarial.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coins {
    /// Bit `k` selects the word draw `k` returns.
    pub outcome: u32,
    /// Coins drawn so far.
    pub drawn: u32,
}

impl Coins {
    /// Undrawn coins that will land on `outcome`.
    pub fn new(outcome: u32) -> Coins {
        Coins { outcome, drawn: 0 }
    }
}

impl rand::Rng for Coins {
    fn next_u64(&mut self) -> u64 {
        let bit = self.outcome.checked_shr(self.drawn).unwrap_or(0) & 1;
        self.drawn += 1;
        u64::from(bit).wrapping_neg() // 0 → 0, 1 → u64::MAX
    }
}

/// Receive-action seam between the graph builder and the protocol handlers.
pub trait Stepper {
    /// Delivers `msg` to `node` (the receive action).
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut Coins, out: &mut Outbox);

    /// Name for reports and traces.
    fn label(&self) -> &'static str;
}

/// The actual protocol: forwards to `Node::on_message`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealStepper;

impl Stepper for RealStepper {
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut Coins, out: &mut Outbox) {
        node.on_message(msg, rng, out);
    }

    fn label(&self) -> &'static str {
        "real"
    }
}

/// Faulty fixture: silently discards every `lin` message instead of
/// linearizing it. The identifier the message carried vanishes from the
/// system, so a CC edge disappears — the monitors must report a
/// `weakly_connected(Cc)` monotonicity violation on any initial state
/// whose connectivity runs through a `lin` in flight.
#[derive(Clone, Copy, Debug, Default)]
pub struct DropLinStepper;

impl Stepper for DropLinStepper {
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut Coins, out: &mut Outbox) {
        if matches!(msg, Message::Lin(_)) {
            return; // the bug: the carried identifier is lost
        }
        node.on_message(msg, rng, out);
    }

    fn label(&self) -> &'static str {
        "drop-lin"
    }
}

/// Faulty fixture: handles messages correctly but then echoes each one
/// back to the receiver itself — an undeclared self-send the no-self-message
/// monitor must flag on the very first delivery.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfEchoStepper;

impl Stepper for SelfEchoStepper {
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut Coins, out: &mut Outbox) {
        node.on_message(msg, rng, out);
        out.send(node.id(), msg); // the bug: undeclared self-send
    }

    fn label(&self) -> &'static str {
        "self-echo"
    }
}

/// Faulty fixture for the **liveness** checker: `linearize`'s adopt case
/// is replaced by an overshoot — when `lin(x)` carries an identifier
/// that belongs strictly between this node and its finite neighbour on
/// `x`'s side, the handler forwards `x` *past the gap* to that neighbour
/// instead of adopting it (all other cases, including the sentinel
/// sides, stay correct). The carried identifier is never dropped, so
/// every safety monitor stays green — CC connectivity rides the
/// in-flight message, no self-sends, no duplicates — but the message
/// bounces between the two gap endpoints forever and the node it carries
/// is never linked in: a livelock. Exactly the bug class the fair-cycle
/// detector exists for; the safety monitors report this stepper clean.
#[derive(Clone, Copy, Debug, Default)]
pub struct BounceLinStepper;

impl Stepper for BounceLinStepper {
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut Coins, out: &mut Outbox) {
        use swn_core::id::Extended;
        if let Message::Lin(x) = msg {
            let me = node.id();
            if x > me {
                if let Extended::Fin(r) = node.right() {
                    if x < r {
                        out.send(r, Message::Lin(x)); // the bug: overshoot, never adopt
                        return;
                    }
                }
            } else if x < me {
                if let Extended::Fin(l) = node.left() {
                    if x > l {
                        out.send(l, Message::Lin(x)); // the bug, mirrored
                        return;
                    }
                }
            }
        }
        node.on_message(msg, rng, out);
    }

    fn label(&self) -> &'static str {
        "bounce-lin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::{evenly_spaced_ids, Extended};

    #[test]
    fn each_outcome_bit_selects_candidate_and_forget() {
        let ids = evenly_spaced_ids(4);
        let (first, second) = (ids[0], ids[3]);
        let reslrl = Message::ResLrl(Extended::Fin(first), Extended::Fin(second));
        let node_at_age = |age: u64| {
            let (l, r) = (Extended::Fin(ids[0]), Extended::Fin(ids[2]));
            let mut n = Node::with_state(ids[1], l, r, ids[1], None, ProtocolConfig::default());
            for _ in 0..age {
                n.on_regular(&mut Outbox::new());
            }
            n
        };
        for outcome in 0..4 {
            // Age 3: φ > 0, so the forget coin follows the candidate coin.
            let mut n = node_at_age(3);
            let mut coins = Coins::new(outcome);
            RealStepper.deliver(&mut n, reslrl, &mut coins, &mut Outbox::new());
            assert_eq!(coins.drawn, 2);
            let moved_to = if outcome & 1 == 0 { first } else { second };
            let kept = outcome & 2 != 0;
            assert_eq!(
                n.lrl(),
                if kept { moved_to } else { n.id() },
                "{outcome:#b}"
            );
            assert_eq!(n.age() == 0, !kept, "a forget resets the age");
            // Age 2: φ = 0, so only the candidate coin is drawn.
            let mut young = node_at_age(2);
            let mut coins = Coins::new(outcome);
            RealStepper.deliver(&mut young, reslrl, &mut coins, &mut Outbox::new());
            assert_eq!((coins.drawn, young.lrl()), (1, moved_to));
        }
    }
}
