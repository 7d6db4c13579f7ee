//! The effect buffer connecting the pure protocol logic to a transport.
//!
//! Every action handler (Algorithms 1–10) is a pure state transition that
//! *emits* sends into an [`Outbox`] instead of performing I/O. The
//! simulator, the threaded runtime and the unit tests all drive the same
//! handlers and differ only in how they drain the outbox. Handlers also
//! emit [`ProtocolEvent`]s — the two observations (probe repairs and
//! long-range forgets) that the analysis layer reads without having to
//! reverse-engineer them from message traffic.

use crate::id::NodeId;
use crate::message::Message;

/// Structured observations emitted by the protocol handlers.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ProtocolEvent {
    /// A probe (or the probe-originating check in Algorithm 10) failed to
    /// make progress and fell through to `linearize`, creating an edge.
    /// Phase 1 is complete exactly when these stop occurring (Theorem 4.3).
    ProbeRepair {
        /// The probe's destination (the missing link's endpoint).
        dest: NodeId,
    },
    /// The long-range link was forgotten: the token returned to its origin
    /// (Algorithm 4, forget step). Carries the age at which it happened.
    LrlForgotten {
        /// The link's age when it was forgotten.
        age: u64,
    },
}

/// Buffer of sends and events produced by one action execution.
#[derive(Default, Debug)]
pub struct Outbox {
    sends: Vec<(NodeId, Message)>,
    events: Vec<ProtocolEvent>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message for `dest`.
    #[inline]
    pub fn send(&mut self, dest: NodeId, msg: Message) {
        self.sends.push((dest, msg));
    }

    /// Records a structured observation.
    #[inline]
    pub fn event(&mut self, ev: ProtocolEvent) {
        self.events.push(ev);
    }

    /// The queued sends.
    pub fn sends(&self) -> &[(NodeId, Message)] {
        &self.sends
    }

    /// The recorded events.
    pub fn events(&self) -> &[ProtocolEvent] {
        &self.events
    }

    /// Drains the recorded events.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, ProtocolEvent> {
        self.events.drain(..)
    }

    /// Empties the buffer without yielding anything.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.events.clear();
    }

    /// True when neither sends nor events are queued.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    #[test]
    fn outbox_collects_in_order() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(id(0.1), Message::Lin(id(0.2)));
        out.send(id(0.3), Message::Ring(id(0.4)));
        out.event(ProtocolEvent::LrlForgotten { age: 7 });
        assert_eq!(out.sends().len(), 2);
        assert_eq!(out.sends()[0].0, id(0.1));
        assert_eq!(out.sends()[1].1, Message::Ring(id(0.4)));
        assert_eq!(out.events(), &[ProtocolEvent::LrlForgotten { age: 7 }]);
        assert!(!out.is_empty());
        out.clear();
        assert!(out.is_empty());
    }
}
