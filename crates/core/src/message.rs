//! Protocol messages.
//!
//! Section III of the paper defines seven message types. A message carries
//! a small set of identifiers plus a type tag that selects the receiver's
//! reaction (Algorithm 1). All links implied by in-flight messages are part
//! of the *channel connectivity graph* CC (Definition 4.2), so the message
//! payloads below are exactly the "temporary links" of the model.

use crate::id::{Extended, NodeId};
use serde::{Deserialize, Serialize};

/// A protocol message, tagged by type per Section III.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Message {
    /// `lin`: the linearization workhorse. Payload: the identifier being
    /// propagated into sorted position (Algorithm 2).
    Lin(NodeId),
    /// `inclrl`: marks an incoming long-range link. Payload: the identifier
    /// of the *origin* of the long-range link, so the endpoint can answer
    /// (Algorithm 3).
    IncLrl(NodeId),
    /// `reslrl`: answer to `inclrl` carrying the endpoint's left and right
    /// neighbours (possibly `±∞` during stabilization) for the
    /// move-and-forget step (Algorithm 4).
    ResLrl(Extended, Extended),
    /// `ring`: sent by a node missing its left (or right) neighbour to its
    /// current ring-edge target (Algorithm 9); answered by Algorithm 7.
    Ring(NodeId),
    /// `resring`: answer to `ring` carrying a better ring-edge candidate
    /// (Algorithm 8 applies it).
    ResRing(NodeId),
    /// `probr`: rightward probe; payload is the probe's destination
    /// (the prober's `lrl` or ring target). Forwarded by Algorithm 5.
    ProbR(NodeId),
    /// `probl`: leftward probe, mirror of `probr` (Algorithm 6).
    ProbL(NodeId),
}

/// The seven message type tags, used for per-kind accounting in the
/// simulator and the experiment harness.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MessageKind {
    /// Linearization (`lin`).
    Lin,
    /// Incoming long-range link announcement (`inclrl`).
    IncLrl,
    /// Long-range link response (`reslrl`).
    ResLrl,
    /// Ring-edge announcement (`ring`).
    Ring,
    /// Ring-edge response (`resring`).
    ResRing,
    /// Rightward probe (`probr`).
    ProbR,
    /// Leftward probe (`probl`).
    ProbL,
}

impl MessageKind {
    /// Number of message kinds. Every dense per-kind array (trace
    /// counters, tabulation buffers) must be sized with this constant so
    /// adding a message type is a one-site change caught by the compiler.
    /// A table spelled with a literal `7` instead panics on the first
    /// delivery of an eighth kind, since [`index`](Self::index) would
    /// return 7 (`kind_indices_are_dense_and_distinct` pins `0..COUNT`).
    pub const COUNT: usize = 7;

    /// All kinds, in a fixed order (useful for tabulation).
    pub const ALL: [MessageKind; Self::COUNT] = [
        MessageKind::Lin,
        MessageKind::IncLrl,
        MessageKind::ResLrl,
        MessageKind::Ring,
        MessageKind::ResRing,
        MessageKind::ProbR,
        MessageKind::ProbL,
    ];

    /// Stable index in `0..Self::COUNT`, for dense per-kind counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MessageKind::Lin => 0,
            MessageKind::IncLrl => 1,
            MessageKind::ResLrl => 2,
            MessageKind::Ring => 3,
            MessageKind::ResRing => 4,
            MessageKind::ProbR => 5,
            MessageKind::ProbL => 6,
        }
    }

    /// Lower-case name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::Lin => "lin",
            MessageKind::IncLrl => "inclrl",
            MessageKind::ResLrl => "reslrl",
            MessageKind::Ring => "ring",
            MessageKind::ResRing => "resring",
            MessageKind::ProbR => "probr",
            MessageKind::ProbL => "probl",
        }
    }
}

impl Message {
    /// The message's type tag.
    #[inline]
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Lin(_) => MessageKind::Lin,
            Message::IncLrl(_) => MessageKind::IncLrl,
            Message::ResLrl(_, _) => MessageKind::ResLrl,
            Message::Ring(_) => MessageKind::Ring,
            Message::ResRing(_) => MessageKind::ResRing,
            Message::ProbR(_) => MessageKind::ProbR,
            Message::ProbL(_) => MessageKind::ProbL,
        }
    }

    /// The finite identifiers carried by this message. These are the
    /// temporary links the message contributes to the channel connectivity
    /// graph CC (Definition 4.2).
    pub fn carried_ids(&self) -> impl Iterator<Item = NodeId> {
        let (a, b): (Option<NodeId>, Option<NodeId>) = match *self {
            Message::Lin(id)
            | Message::IncLrl(id)
            | Message::Ring(id)
            | Message::ResRing(id)
            | Message::ProbR(id)
            | Message::ProbL(id) => (Some(id), None),
            Message::ResLrl(a, b) => (a.fin(), b.fin()),
        };
        a.into_iter().chain(b)
    }

    /// True for the message kinds that participate in the linearization
    /// process, i.e. whose implied links belong to LCC (Definition 4.2
    /// extensions: LCC counts `lin` messages and the stored `l`/`r` links).
    #[inline]
    pub fn in_lcc(&self) -> bool {
        matches!(self, Message::Lin(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Extended;

    fn id(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    #[test]
    fn kind_round_trip() {
        let msgs = [
            Message::Lin(id(0.1)),
            Message::IncLrl(id(0.2)),
            Message::ResLrl(Extended::Fin(id(0.1)), Extended::PosInf),
            Message::Ring(id(0.3)),
            Message::ResRing(id(0.4)),
            Message::ProbR(id(0.5)),
            Message::ProbL(id(0.6)),
        ];
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.kind(), MessageKind::ALL[i]);
            assert_eq!(m.kind().index(), i);
        }
    }

    #[test]
    fn kind_indices_are_dense_and_distinct() {
        let mut seen = [false; MessageKind::COUNT];
        for k in MessageKind::ALL {
            assert!(!seen[k.index()], "duplicate index for {:?}", k);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn carried_ids_of_reslrl_skips_sentinels() {
        let m = Message::ResLrl(Extended::NegInf, Extended::Fin(id(0.7)));
        let ids: Vec<_> = m.carried_ids().collect();
        assert_eq!(ids, vec![id(0.7)]);

        let m = Message::ResLrl(Extended::NegInf, Extended::PosInf);
        assert_eq!(m.carried_ids().count(), 0);

        let m = Message::ResLrl(Extended::Fin(id(0.1)), Extended::Fin(id(0.9)));
        assert_eq!(m.carried_ids().count(), 2);
    }

    #[test]
    fn only_lin_contributes_to_lcc() {
        assert!(Message::Lin(id(0.5)).in_lcc());
        assert!(!Message::Ring(id(0.5)).in_lcc());
        assert!(!Message::ProbR(id(0.5)).in_lcc());
        assert!(!Message::IncLrl(id(0.5)).in_lcc());
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = MessageKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["lin", "inclrl", "reslrl", "ring", "resring", "probr", "probl"]
        );
    }
}
