//! The global-state model the graph is built over, and the
//! per-activation monitors.
//!
//! A [`State`] is a closed-world configuration: every node's variables,
//! every channel's contents (as a canonically ordered set — channels
//! are unordered in the asynchronous model, so delivery *order within one
//! channel* is scheduler choice, not state), and the per-node budget of
//! remaining regular actions. The budget is what makes the reachable
//! space finite: regular actions are always enabled in the protocol, so
//! an unbounded schedule never quiesces; bounding each node to `k`
//! regular actions explores every interleaving of `n·k` regular actions
//! with all the message deliveries they transitively cause.

use crate::stepper::{Coins, Stepper};
use std::fmt;
use swn_core::id::{Extended, NodeId};
use swn_core::invariants::{is_sorted_list_view, is_sorted_ring_view, weakly_connected_view};
use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::outbox::Outbox;
use swn_core::views::{NetView, View};

/// One scheduler choice: deliver a specific in-flight message, or run a
/// node's regular action. A delivery also names the outcome of the coins
/// its activation draws.
#[derive(Clone, Debug, PartialEq)]
pub enum Transition {
    /// Deliver `msg` from node `dest`'s channel.
    Deliver {
        /// Receiver's node index.
        dest: usize,
        /// The message to deliver (identifies the channel entry).
        msg: Message,
        /// The coin outcome the activation replays, and how many coins
        /// it draws (see [`State::apply`]).
        coins: Coins,
    },
    /// Run node `node`'s regular action (consumes one budget unit).
    Regular {
        /// The acting node's index.
        node: usize,
    },
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transition::Deliver { dest, msg, coins } => {
                write!(f, "deliver {msg:?} -> node[{dest}]")?;
                for k in 0..coins.drawn {
                    let word = if coins.outcome >> k & 1 == 0 {
                        "0"
                    } else {
                        "MAX"
                    };
                    write!(f, "{} {word}", if k == 0 { ", coins" } else { "," })?;
                }
                Ok(())
            }
            Transition::Regular { node } => write!(f, "regular action at node[{node}]"),
        }
    }
}

/// The monitored monotone predicates, evaluated on one state.
///
/// Each is a pure function of the configuration; monotonicity along an
/// execution is therefore checkable per transition (`true` before,
/// `false` after = violation) with no history carried in the state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredVector {
    /// `weakly_connected_view(v, View::Cc)` — the paper's core safety lemma:
    /// no protocol action loses the last connection between components.
    pub connected: bool,
    /// `is_sorted_list` — once the `l`/`r` pointers form the sorted list
    /// they only ever get refined toward it, never away.
    pub sorted_list: bool,
    /// `is_sorted_ring` — sorted list plus the closing ring edges.
    pub sorted_ring: bool,
}

impl PredVector {
    /// Predicate names paired with (before, after) values, for reporting.
    pub fn diff(self, after: PredVector) -> [(&'static str, bool, bool); 3] {
        [
            ("weakly_connected(Cc)", self.connected, after.connected),
            ("is_sorted_list", self.sorted_list, after.sorted_list),
            ("is_sorted_ring", self.sorted_ring, after.sorted_ring),
        ]
    }

    /// Compact `C L R` / `- - -` rendering for trace listings.
    pub fn glyphs(self) -> String {
        let g = |b: bool, c: char| if b { c } else { '-' };
        format!(
            "{}{}{}",
            g(self.connected, 'C'),
            g(self.sorted_list, 'L'),
            g(self.sorted_ring, 'R')
        )
    }
}

/// A monitor violation observed while executing one transition.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A monotone predicate was true before the transition and false after.
    MonotonicityBroken {
        /// Which predicate flipped.
        predicate: &'static str,
    },
    /// A handler emitted a message addressed to its own node (other than
    /// the declared `inclrl`-at-origin self-delivery).
    SelfSend {
        /// The offending node's identifier.
        node: NodeId,
        /// The self-addressed message.
        msg: Message,
    },
    /// One activation emitted the same `(destination, message)` pair twice.
    DuplicateSend {
        /// The acting node.
        node: NodeId,
        /// Destination of the duplicated send.
        dest: NodeId,
        /// The duplicated message.
        msg: Message,
    },
}

impl Violation {
    /// What the monitors report for one executed transition: the first
    /// per-activation violation it `raised`, else the first monotone
    /// predicate that was true `before` it and false `after`.
    pub fn on_transition(
        raised: &[Violation],
        before: PredVector,
        after: PredVector,
    ) -> Option<Violation> {
        raised.first().cloned().or_else(|| {
            before
                .diff(after)
                .into_iter()
                .find(|&(_, was, is)| was && !is)
                .map(|(predicate, ..)| Violation::MonotonicityBroken { predicate })
        })
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MonotonicityBroken { predicate } => {
                write!(f, "monotone predicate {predicate} flipped true -> false")
            }
            Violation::SelfSend { node, msg } => {
                write!(f, "node {node:?} sent itself {msg:?}")
            }
            Violation::DuplicateSend { node, dest, msg } => {
                write!(f, "node {node:?} emitted duplicate ({dest:?}, {msg:?})")
            }
        }
    }
}

/// State encoding (see [`crate::symmetry::canonical_key`]).
pub type Key = Vec<u64>;

/// Code for a finite identifier: its index in the node list, offset past
/// the two sentinel codes. Panics on an identifier outside the closed
/// world — the model owns every id that can appear.
fn id_code(nodes: &[Node], id: NodeId) -> u64 {
    let i = nodes
        .iter()
        .position(|n| n.id() == id)
        .expect("identifier belongs to the closed world");
    i as u64 + 2
}

/// Code for an extended identifier: `−∞` → 0, `+∞` → 1, finite → index+2.
fn ext_code(nodes: &[Node], e: Extended) -> u64 {
    match e {
        Extended::NegInf => 0,
        Extended::PosInf => 1,
        Extended::Fin(id) => id_code(nodes, id),
    }
}

/// Canonical `[kind, payload, payload]` encoding of a message.
pub(crate) fn msg_code(nodes: &[Node], m: &Message) -> [u64; 3] {
    match *m {
        Message::Lin(x) => [0, id_code(nodes, x), 0],
        Message::IncLrl(x) => [1, id_code(nodes, x), 0],
        Message::ResLrl(a, b) => [2, ext_code(nodes, a), ext_code(nodes, b)],
        Message::Ring(x) => [3, id_code(nodes, x), 0],
        Message::ResRing(x) => [4, id_code(nodes, x), 0],
        Message::ProbR(x) => [5, id_code(nodes, x), 0],
        Message::ProbL(x) => [6, id_code(nodes, x), 0],
    }
}

/// Inverse of [`ext_code`]. Panics on a code outside the closed world.
fn decode_ext(nodes: &[Node], code: u64) -> Extended {
    match code {
        0 => Extended::NegInf,
        1 => Extended::PosInf,
        c => Extended::Fin(nodes[usize::try_from(c - 2).expect("code fits usize")].id()),
    }
}

/// Inverse of the finite-id arm of [`id_code`].
fn decode_id(nodes: &[Node], code: u64) -> NodeId {
    nodes[usize::try_from(code - 2).expect("code fits usize")].id()
}

/// Inverse of [`msg_code`], used to unpack edge labels of the liveness
/// graph back into concrete messages.
pub(crate) fn decode_msg(nodes: &[Node], code: [u64; 3]) -> Message {
    match code[0] {
        0 => Message::Lin(decode_id(nodes, code[1])),
        1 => Message::IncLrl(decode_id(nodes, code[1])),
        2 => Message::ResLrl(decode_ext(nodes, code[1]), decode_ext(nodes, code[2])),
        3 => Message::Ring(decode_id(nodes, code[1])),
        4 => Message::ResRing(decode_id(nodes, code[1])),
        5 => Message::ProbR(decode_id(nodes, code[1])),
        6 => Message::ProbL(decode_id(nodes, code[1])),
        k => unreachable!("unknown message kind code {k}"),
    }
}

/// Result of executing one transition (see [`State::apply`]).
#[derive(Clone, Debug)]
pub struct Applied {
    /// The successor configuration.
    pub next: State,
    /// Per-activation monitor violations.
    pub violations: Vec<Violation>,
    /// Sends coalesced because the message was already in flight.
    pub coalesced_sends: u32,
    /// The coins the activation drew (none for a regular action).
    pub coins: Coins,
}

/// A closed-world configuration of the small-scope model.
#[derive(Clone, Debug)]
pub struct State {
    /// Node states, in fixed index order (the order never changes).
    pub nodes: Vec<Node>,
    /// `channels[i]` = set of messages in flight to `nodes[i]`, kept in
    /// canonical encoded order.
    pub channels: Vec<Vec<Message>>,
    /// Remaining regular actions per node.
    pub budgets: Vec<u32>,
}

impl State {
    /// Builds the initial state from adversarially initialized nodes,
    /// preloaded stale messages, and a uniform regular-action budget.
    ///
    /// Channels are *sets*: the transport coalesces identical in-flight
    /// messages to one destination, so a preload or send of a message
    /// already in flight is dropped. Like the regular-action budget, this
    /// is part of the small-scope model: a violation found under it is
    /// real, and exhaustiveness is relative to it.
    pub fn initial(nodes: Vec<Node>, preloads: &[(NodeId, Message)], budget: u32) -> State {
        let n = nodes.len();
        let mut s = State {
            nodes,
            channels: vec![Vec::new(); n],
            budgets: vec![budget; n],
        };
        for (dest, msg) in preloads {
            let i = s
                .index_of(*dest)
                .expect("preload addressed to a node in the network");
            s.insert(i, *msg);
        }
        s.canonicalize();
        s
    }

    /// Puts `msg` in channel `i` unless it is already in flight there.
    /// Returns false when it was (the send is coalesced), like a set's
    /// `insert`.
    fn insert(&mut self, i: usize, msg: Message) -> bool {
        if self.channels[i].contains(&msg) {
            return false;
        }
        self.channels[i].push(msg);
        true
    }

    /// Index of the node with identifier `id`.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.nodes.iter().position(|n| n.id() == id)
    }

    /// Restores the canonical channel order (channels are sets, so any
    /// total order works; the encoded triple is cheap).
    fn canonicalize(&mut self) {
        let nodes = std::mem::take(&mut self.nodes);
        for ch in &mut self.channels {
            ch.sort_unstable_by_key(|m| msg_code(&nodes, m));
        }
        self.nodes = nodes;
    }

    /// The borrowed view of this configuration — what every predicate
    /// is evaluated on; no node or message is cloned.
    pub fn view(&self) -> NetView<'_> {
        NetView::from_slices(&self.nodes, &self.channels)
    }

    /// Evaluates the monitored predicates on this configuration.
    pub fn eval(&self) -> PredVector {
        let v = self.view();
        PredVector {
            connected: weakly_connected_view(&v, View::Cc),
            sorted_list: is_sorted_list_view(&v),
            sorted_ring: is_sorted_ring_view(&v),
        }
    }

    /// True when no transition is enabled: all channels drained and all
    /// regular-action budgets exhausted.
    pub fn is_quiescent(&self) -> bool {
        self.budgets.iter().all(|&b| b == 0) && self.channels.iter().all(Vec::is_empty)
    }

    /// All enabled scheduler actions, in a fixed deterministic order:
    /// regular actions by node index, then deliveries by node index and
    /// canonical message order. Deliveries name no coins;
    /// [`State::outcomes`] expands each into its coin outcomes.
    pub fn enabled(&self) -> Vec<Transition> {
        let mut ts = Vec::new();
        for (i, &b) in self.budgets.iter().enumerate() {
            if b > 0 {
                ts.push(Transition::Regular { node: i });
            }
        }
        for (i, ch) in self.channels.iter().enumerate() {
            for m in ch {
                ts.push(Transition::Deliver {
                    dest: i,
                    msg: *m,
                    coins: Coins::default(),
                });
            }
        }
        ts
    }

    /// Executes `t` through `stepper`, replaying exactly the coin outcome
    /// it names, and returns the successor, any per-activation
    /// violations, the number of coalesced sends and the coins drawn.
    /// `None` when `t` is not enabled here, or when the activation draws
    /// a different number of coins than `t` names — a replayed step
    /// (minimization, lasso validation) must mean what it meant in the
    /// graph.
    pub fn apply(&self, stepper: &dyn Stepper, t: &Transition) -> Option<Applied> {
        let named = match *t {
            Transition::Deliver { coins, .. } => coins,
            Transition::Regular { .. } => Coins::default(),
        };
        self.run(stepper, t, named.outcome)
            .filter(|a| a.coins.drawn == named.drawn)
    }

    /// Executes the scheduler action `t` under every outcome of the
    /// coins it draws: outcome 0 first, then, when that activation drew
    /// `d > 0` coins, the other `2^d − 1`. Each successor comes with `t`
    /// naming its outcome, so [`State::apply`] replays it. Empty when `t`
    /// is not enabled here.
    pub fn outcomes(&self, stepper: &dyn Stepper, t: &Transition) -> Vec<(Transition, Applied)> {
        let Some(first) = self.run(stepper, t, 0) else {
            return Vec::new();
        };
        let rest = (1..1u32 << first.coins.drawn).filter_map(|o| self.run(stepper, t, o));
        std::iter::once(first)
            .chain(rest)
            .map(|a| {
                let mut named = t.clone();
                if let Transition::Deliver { coins, .. } = &mut named {
                    *coins = a.coins;
                }
                (named, a)
            })
            .collect()
    }

    /// Executes `t` with the coins landing on `outcome`; `None` when `t`
    /// is not enabled here.
    fn run(&self, stepper: &dyn Stepper, t: &Transition, outcome: u32) -> Option<Applied> {
        let mut next = self.clone();
        let mut out = Outbox::new();
        let mut coins = Coins::new(outcome);
        let (actor, trigger) = match *t {
            Transition::Deliver { dest, ref msg, .. } => {
                let pos = next.channels[dest].iter().position(|m| m == msg)?;
                let msg = next.channels[dest].remove(pos);
                stepper.deliver(&mut next.nodes[dest], msg, &mut coins, &mut out);
                (dest, Some(msg))
            }
            Transition::Regular { node } => {
                if next.budgets[node] == 0 {
                    return None;
                }
                next.budgets[node] -= 1;
                next.nodes[node].on_regular(&mut out);
                (node, None)
            }
        };
        let (violations, coalesced_sends) = next.absorb_outbox(actor, trigger.as_ref(), &out);
        next.canonicalize();
        Some(Applied {
            next,
            violations,
            coalesced_sends,
            coins,
        })
    }

    /// Routes the activation's sends into the channels and runs the
    /// per-activation monitors (self-send, duplicate send). `trigger` is
    /// the message the activation delivered (`None` for a regular action).
    fn absorb_outbox(
        &mut self,
        actor: usize,
        trigger: Option<&Message>,
        out: &Outbox,
    ) -> (Vec<Violation>, u32) {
        let actor_id = self.nodes[actor].id();
        let mut violations = Vec::new();
        let mut coalesced = 0u32;
        let sends = out.sends();
        for (k, (dest, msg)) in sends.iter().enumerate() {
            // The protocol declares exactly two self-delivery idioms,
            // both part of the lrl-at-origin loop:
            //  * `sendid` emits `inclrl` to the token's endpoint, which
            //    *is* the node itself while lrl = id;
            //  * answering one's own `inclrl` (`respondlrl`) sends the
            //    `reslrl` back to origin = self — this is how the token
            //    first leaves its origin.
            // Everything else addressed to self is a bug.
            let declared_self_delivery = *msg == Message::IncLrl(actor_id)
                || (matches!(msg, Message::ResLrl(..))
                    && trigger == Some(&Message::IncLrl(actor_id)));
            if *dest == actor_id && !declared_self_delivery {
                violations.push(Violation::SelfSend {
                    node: actor_id,
                    msg: *msg,
                });
            }
            // The duplicate monitor covers the control messages, which
            // the handlers emit at most once per activation by
            // construction. Two duplicate shapes are *declared* protocol
            // behaviour and exempt:
            //  * probes — Algorithm 10 launches a ring-target probe and
            //    an lrl probe in one activation, and when ring = lrl the
            //    two coincide (probes are idempotent);
            //  * `lin` — sanitation can salvage the very identifier the
            //    activation also delivers; both enter `linearize`, whose
            //    never-drop rule (Lemma 4.10) then forwards identically.
            let dedupe_checked = matches!(
                msg,
                Message::IncLrl(_) | Message::ResLrl(..) | Message::Ring(_) | Message::ResRing(_)
            );
            if dedupe_checked && sends[..k].iter().any(|(d, m)| d == dest && m == msg) {
                violations.push(Violation::DuplicateSend {
                    node: actor_id,
                    dest: *dest,
                    msg: *msg,
                });
            }
            let i = self
                .index_of(*dest)
                .expect("message addressed to a node in the closed world");
            if !self.insert(i, *msg) {
                coalesced += 1;
            }
        }
        (violations, coalesced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::RealStepper;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::evenly_spaced_ids;

    fn two_fresh_nodes() -> (Vec<Node>, Vec<NodeId>) {
        let ids = evenly_spaced_ids(2);
        let nodes = ids
            .iter()
            .map(|&id| Node::new(id, ProtocolConfig::default()))
            .collect();
        (nodes, ids)
    }

    #[test]
    fn initial_state_routes_preloads() {
        let (nodes, ids) = two_fresh_nodes();
        let s = State::initial(nodes, &[(ids[0], Message::Lin(ids[1]))], 2);
        assert_eq!(s.channels[0], vec![Message::Lin(ids[1])]);
        assert!(s.channels[1].is_empty());
        assert_eq!(s.budgets, vec![2, 2]);
        assert!(!s.is_quiescent());
    }

    #[test]
    fn enabled_collapses_duplicate_messages() {
        let (nodes, ids) = two_fresh_nodes();
        let pre = [
            (ids[0], Message::Lin(ids[1])),
            (ids[0], Message::Lin(ids[1])),
        ];
        let s = State::initial(nodes, &pre, 0);
        let ts = s.enabled();
        assert_eq!(ts.len(), 1, "identical preloads are one delivery: {ts:?}");
    }

    #[test]
    fn delivery_consumes_one_instance() {
        let (nodes, ids) = two_fresh_nodes();
        let s = State::initial(nodes, &[(ids[0], Message::Lin(ids[1]))], 0);
        let t = Transition::Deliver {
            dest: 0,
            msg: Message::Lin(ids[1]),
            coins: Coins::default(),
        };
        let a = s.apply(&RealStepper, &t).expect("enabled");
        assert!(
            a.violations.is_empty(),
            "real protocol is clean: {:?}",
            a.violations
        );
        assert!(
            !a.next.channels[0].contains(&Message::Lin(ids[1])),
            "the delivered message left the channel"
        );
    }

    #[test]
    fn preload_copies_beyond_bound_coalesce() {
        let (nodes, ids) = two_fresh_nodes();
        let pre = [
            (ids[0], Message::Lin(ids[1])),
            (ids[0], Message::Lin(ids[1])),
        ];
        let s = State::initial(nodes, &pre, 0);
        assert_eq!(
            s.channels[0],
            vec![Message::Lin(ids[1])],
            "a channel keeps a single copy"
        );
    }

    #[test]
    fn replaying_disabled_transition_returns_none() {
        let (nodes, ids) = two_fresh_nodes();
        let s = State::initial(nodes, &[], 0);
        let t = Transition::Deliver {
            dest: 0,
            msg: Message::Lin(ids[1]),
            coins: Coins::default(),
        };
        assert!(s.apply(&RealStepper, &t).is_none());
        assert!(s
            .apply(&RealStepper, &Transition::Regular { node: 1 })
            .is_none());
        // A reslrl with two finite candidates draws one coin (age 0, so
        // φ = 0); replayed as naming none, it is rejected the same way.
        let (nodes, ids) = two_fresh_nodes();
        let reslrl = Message::ResLrl(Extended::Fin(ids[0]), Extended::Fin(ids[1]));
        let s = State::initial(nodes, &[(ids[0], reslrl)], 0);
        let t = s.enabled().remove(0);
        assert!(s.apply(&RealStepper, &t).is_none());
        let outcomes = s.outcomes(&RealStepper, &t);
        assert_eq!(outcomes.len(), 2, "one successor per candidate");
        for (t, _) in &outcomes {
            assert!(s.apply(&RealStepper, t).is_some(), "{t}");
        }
    }

    #[test]
    fn inclrl_at_origin_is_not_a_self_send() {
        let (nodes, _) = two_fresh_nodes();
        // Fresh node: lrl = id, so the regular action sends inclrl to
        // itself — the declared exception.
        let s = State::initial(nodes, &[], 1);
        let a = s
            .apply(&RealStepper, &Transition::Regular { node: 0 })
            .expect("budget available");
        assert!(
            a.violations.is_empty(),
            "declared self-delivery flagged: {:?}",
            a.violations
        );
        assert!(a.next.channels[0].contains(&Message::IncLrl(a.next.nodes[0].id())));
        assert_eq!(a.next.budgets[0], 0);
    }

    #[test]
    fn predicate_vector_on_fresh_pair() {
        let (nodes, ids) = two_fresh_nodes();
        let disconnected = State::initial(nodes.clone(), &[], 0);
        assert!(!disconnected.eval().connected);
        let connected = State::initial(nodes, &[(ids[0], Message::Lin(ids[1]))], 0);
        assert!(connected.eval().connected, "channel edge counts in Cc");
    }

    #[test]
    fn key_distinguishes_budgets_and_channels() {
        let (nodes, ids) = two_fresh_nodes();
        let a = State::initial(nodes.clone(), &[], 1);
        let b = State::initial(nodes.clone(), &[], 2);
        let key = crate::symmetry::canonical_key;
        assert_ne!(key(&a), key(&b));
        let c = State::initial(nodes, &[(ids[0], Message::Lin(ids[1]))], 1);
        assert_ne!(key(&a), key(&c));
        assert_eq!(key(&a), key(&a.clone()));
    }
}
