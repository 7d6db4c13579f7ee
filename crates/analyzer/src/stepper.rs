//! Deterministic randomness policies and the handler-dispatch seam.
//!
//! [`Stepper`] is the one indirection between the graph builder and
//! `swn_core::node::Node`: the real implementation forwards to the
//! protocol handlers, and the faulty ones exist solely to prove the
//! monitors can catch a broken protocol (and to exercise the
//! counterexample printer end to end).

use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::outbox::Outbox;

/// Which constant word stream the handlers draw randomness from.
///
/// The only randomized handler is `move-forget` (Algorithm 4), which
/// draws one `random_bool(0.5)` for the candidate choice and one
/// `random::<f64>()` for the forget check. A constant stream makes both
/// draws deterministic, so the *scheduler* is the only source of
/// nondeterminism and the search space is exactly the interleavings:
///
/// * [`Policy::Zeros`] — every draw is `0`: picks the **first** candidate
///   and **forgets** whenever `φ(age) > 0`;
/// * [`Policy::Ones`] — every draw is `u64::MAX`: picks the **second**
///   candidate and **never forgets** (for any `φ(age) < 1`).
///
/// Running the search once per policy covers these two outcome
/// combinations only. Mixed outcomes ("first, keep", "second, forget",
/// or two nodes drawing differently in one run) are never explored
/// (ROADMAP item 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// All-zero word stream: first candidate, eager forget.
    Zeros,
    /// All-ones word stream: second candidate, never forget.
    Ones,
}

impl Policy {
    /// Both policies, for exhaustive sweeps.
    pub const ALL: [Policy; 2] = [Policy::Zeros, Policy::Ones];

    /// Human-readable policy name (also the CLI spelling).
    pub fn label(self) -> &'static str {
        match self {
            Policy::Zeros => "zeros",
            Policy::Ones => "ones",
        }
    }
}

/// A [`rand::Rng`] producing the constant stream selected by a [`Policy`].
#[derive(Clone, Copy, Debug)]
pub struct PolicyRng(pub Policy);

impl rand::Rng for PolicyRng {
    fn next_u64(&mut self) -> u64 {
        match self.0 {
            Policy::Zeros => 0,
            Policy::Ones => u64::MAX,
        }
    }
}

/// Dispatch seam between the graph builder and the protocol handlers.
pub trait Stepper {
    /// Delivers `msg` to `node` (the receive action).
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut PolicyRng, out: &mut Outbox);

    /// Runs `node`'s regular action.
    fn regular(&self, node: &mut Node, out: &mut Outbox);

    /// Name for reports and traces.
    fn label(&self) -> &'static str;
}

/// The actual protocol: forwards to `Node::on_message` / `Node::on_regular`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealStepper;

impl Stepper for RealStepper {
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut PolicyRng, out: &mut Outbox) {
        node.on_message(msg, rng, out);
    }

    fn regular(&self, node: &mut Node, out: &mut Outbox) {
        node.on_regular(out);
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
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut PolicyRng, out: &mut Outbox) {
        if matches!(msg, Message::Lin(_)) {
            return; // the bug: the carried identifier is lost
        }
        node.on_message(msg, rng, out);
    }

    fn regular(&self, node: &mut Node, out: &mut Outbox) {
        node.on_regular(out);
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
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut PolicyRng, out: &mut Outbox) {
        node.on_message(msg, rng, out);
        out.send(node.id(), msg); // the bug: undeclared self-send
    }

    fn regular(&self, node: &mut Node, out: &mut Outbox) {
        node.on_regular(out);
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
    fn deliver(&self, node: &mut Node, msg: Message, rng: &mut PolicyRng, out: &mut Outbox) {
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

    fn regular(&self, node: &mut Node, out: &mut Outbox) {
        node.on_regular(out);
    }

    fn label(&self) -> &'static str {
        "bounce-lin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng as _, RngExt as _};

    #[test]
    fn zeros_policy_is_all_zero_words() {
        let mut rng = PolicyRng(Policy::Zeros);
        assert_eq!(rng.next_u64(), 0);
        assert!((rng.random::<f64>() - 0.0).abs() < f64::EPSILON);
        assert!(rng.random_bool(0.5), "0.0 < 0.5 picks the first candidate");
    }

    #[test]
    fn ones_policy_never_forgets() {
        let mut rng = PolicyRng(Policy::Ones);
        assert_eq!(rng.next_u64(), u64::MAX);
        let f = rng.random::<f64>();
        assert!(f < 1.0, "draw stays in [0,1)");
        assert!(f > 0.999, "draw is maximal");
        assert!(!rng.random_bool(0.5));
    }
}
