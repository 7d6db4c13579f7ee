//! The connectivity-graph views of Definition 4.2.
//!
//! The convergence proof reasons about six graphs over the node set:
//!
//! * **CP** — node connectivity: all *stored* links (`l`, `r`, `lrl`,
//!   `ring`);
//! * **CC** — channel connectivity: CP plus the temporary links implied by
//!   every identifier sitting in a channel;
//! * **LCP / LCC** — the restriction to the linearization process:
//!   stored `l`/`r` links (LCP), plus `lin` messages (LCC);
//! * **RCP / RCC** — LCP/LCC plus the ring edges (stored, and for RCC the
//!   in-flight `ring` messages).
//!
//! A [`Snapshot`] is a frozen global state (taken by the simulator or the
//! threaded runtime); the view extractors return edge lists over node
//! *indices* in the snapshot, ready for the analysis crate.
//!
//! A [`NetView`] is the *borrowing* counterpart: references into a live
//! network's nodes and channels, ordered by ascending identifier. The
//! phase predicates evaluate against it without cloning a single node or
//! message, which turns the measurement loop's per-round cost from
//! O(state) copies into O(pointers). [`Snapshot::as_view`] bridges the
//! two worlds, so every predicate has exactly one implementation.

use crate::id::NodeId;
use crate::message::Message;
use crate::node::Node;
use std::collections::BTreeMap;

/// A frozen global state: every node's variables plus every channel's
/// contents. `channels[i]` holds the messages waiting in `nodes[i]`'s
/// channel.
#[derive(Clone, Debug)]
pub struct Snapshot {
    nodes: Vec<Node>,
    channels: Vec<Vec<Message>>,
    index: BTreeMap<NodeId, usize>,
}

/// Which connectivity view to extract from a snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum View {
    /// All stored links.
    Cp,
    /// Stored links + all channel-implied links.
    Cc,
    /// Stored `l`/`r` links only.
    Lcp,
    /// LCP + `lin` messages.
    Lcc,
    /// LCP + stored ring edges.
    Rcp,
    /// LCC + stored ring edges + `ring` messages.
    Rcc,
}

impl Snapshot {
    /// Builds a snapshot from node clones and their channel contents.
    ///
    /// # Panics
    /// Panics if `channels.len() != nodes.len()` or node ids collide.
    pub fn new(nodes: Vec<Node>, channels: Vec<Vec<Message>>) -> Self {
        assert_eq!(nodes.len(), channels.len(), "one channel per node required");
        let mut index = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            let prev = index.insert(n.id(), i);
            assert!(prev.is_none(), "duplicate node id {:?}", n.id());
        }
        Snapshot {
            nodes,
            channels,
            index,
        }
    }

    /// Snapshot with empty channels (pure node-state view).
    pub fn from_nodes(nodes: Vec<Node>) -> Self {
        let channels = vec![Vec::new(); nodes.len()];
        Snapshot::new(nodes, channels)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes, in snapshot order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The channels, parallel to [`nodes`](Self::nodes).
    pub fn channels(&self) -> &[Vec<Message>] {
        &self.channels
    }

    /// Index of the node with identifier `id`, if present.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Node indices in ascending id order.
    pub fn sorted_indices(&self) -> Vec<usize> {
        self.index.values().copied().collect()
    }

    /// Total number of messages in flight.
    pub fn messages_in_flight(&self) -> usize {
        self.channels.iter().map(Vec::len).sum()
    }

    /// A borrowing view of this snapshot (nodes in ascending id order).
    /// Predicates evaluated through the view agree with the snapshot
    /// implementations; only the node numbering differs (id rank instead
    /// of snapshot position).
    pub fn as_view(&self) -> NetView<'_> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut channels = Vec::with_capacity(self.nodes.len());
        for &i in self.index.values() {
            nodes.push(&self.nodes[i]);
            channels.push(self.channels[i].as_slice());
        }
        NetView { nodes, channels }
    }

    /// Extracts the directed edge list of a connectivity view. Edges point
    /// from the node *storing/receiving* an identifier to that identifier's
    /// node; identifiers of absent nodes (possible during churn) are
    /// skipped.
    pub fn edges(&self, view: View) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        let push = |edges: &mut Vec<(usize, usize)>, from: usize, to: NodeId| {
            if let Some(j) = self.index_of(to) {
                if j != from {
                    edges.push((from, j));
                }
            }
        };
        for (i, n) in self.nodes.iter().enumerate() {
            // Stored l/r links: in every view.
            if let Some(l) = n.left().fin() {
                push(&mut edges, i, l);
            }
            if let Some(r) = n.right().fin() {
                push(&mut edges, i, r);
            }
            // Stored lrl: CP/CC only.
            if matches!(view, View::Cp | View::Cc) {
                push(&mut edges, i, n.lrl());
            }
            // Stored ring edge: CP/CC/RCP/RCC.
            if matches!(view, View::Cp | View::Cc | View::Rcp | View::Rcc) {
                if let Some(x) = n.ring() {
                    push(&mut edges, i, x);
                }
            }
        }
        // Channel-implied temporary links.
        if matches!(view, View::Cc | View::Lcc | View::Rcc) {
            for (i, ch) in self.channels.iter().enumerate() {
                for m in ch {
                    let include = match view {
                        View::Cc => true,
                        View::Lcc => m.in_lcc(),
                        View::Rcc => m.in_lcc() || matches!(m, Message::Ring(_)),
                        _ => unreachable!(),
                    };
                    if include {
                        for id in m.carried_ids() {
                            push(&mut edges, i, id);
                        }
                    }
                }
            }
        }
        edges
    }
}

/// A borrowing view of a global state: one `&Node` and one `&[Message]`
/// channel slice per live node, in **ascending identifier order** (so
/// index `i` is the node's ring rank). Built in O(n) pointer copies by
/// `Snapshot::as_view` or the simulator's `Network::view`; nothing is
/// cloned.
///
/// This is the state handed to the snapshot-free phase predicates
/// (`classify_view` and friends in `invariants`): the convergence loop
/// evaluates them every round, and cloning the whole network per round
/// was the measurement bottleneck the view removes.
#[derive(Debug)]
pub struct NetView<'a> {
    nodes: Vec<&'a Node>,
    channels: Vec<&'a [Message]>,
}

impl<'a> NetView<'a> {
    /// Builds a view from parallel node/channel references.
    ///
    /// # Panics
    /// Panics if the lists differ in length or the nodes are not in
    /// strictly ascending id order (which also rules out duplicates).
    pub fn new(nodes: Vec<&'a Node>, channels: Vec<&'a [Message]>) -> Self {
        assert_eq!(nodes.len(), channels.len(), "one channel per node required");
        assert!(
            nodes.windows(2).all(|w| w[0].id() < w[1].id()),
            "view nodes must be in strictly ascending id order"
        );
        NetView { nodes, channels }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the view holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes, ascending by id (index = ring rank).
    pub fn nodes(&self) -> &[&'a Node] {
        &self.nodes
    }

    /// The node at rank `i`.
    pub fn node(&self, i: usize) -> &'a Node {
        self.nodes[i]
    }

    /// The channel contents of the node at rank `i`.
    pub fn channel(&self, i: usize) -> &'a [Message] {
        self.channels[i]
    }

    /// Rank of the node with identifier `id`, if present (binary search —
    /// the view carries no index map).
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.nodes.binary_search_by_key(&id, |n| n.id()).ok()
    }

    /// Total number of messages in flight.
    pub fn messages_in_flight(&self) -> usize {
        self.channels.iter().map(|c| c.len()).sum()
    }

    /// Streams the directed edges of a connectivity view into `f` without
    /// materializing an edge list. Same edge semantics as
    /// [`Snapshot::edges`]: edges point from the node storing/receiving an
    /// identifier to that identifier's node, absent identifiers and
    /// self-loops are skipped; indices are id ranks.
    pub fn for_each_edge<F: FnMut(usize, usize)>(&self, view: View, mut f: F) {
        let mut push = |from: usize, to: NodeId| {
            if let Some(j) = self.index_of(to) {
                if j != from {
                    f(from, j);
                }
            }
        };
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(l) = n.left().fin() {
                push(i, l);
            }
            if let Some(r) = n.right().fin() {
                push(i, r);
            }
            if matches!(view, View::Cp | View::Cc) {
                push(i, n.lrl());
            }
            if matches!(view, View::Cp | View::Cc | View::Rcp | View::Rcc) {
                if let Some(x) = n.ring() {
                    push(i, x);
                }
            }
        }
        if matches!(view, View::Cc | View::Lcc | View::Rcc) {
            for (i, ch) in self.channels.iter().enumerate() {
                for m in *ch {
                    let include = match view {
                        View::Cc => true,
                        View::Lcc => m.in_lcc(),
                        View::Rcc => m.in_lcc() || matches!(m, Message::Ring(_)),
                        _ => unreachable!(),
                    };
                    if include {
                        for id in m.carried_ids() {
                            push(i, id);
                        }
                    }
                }
            }
        }
    }

    /// The directed edge list of a connectivity view, over id ranks.
    pub fn edges(&self, view: View) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        self.for_each_edge(view, |a, b| edges.push((a, b)));
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::id::Extended;

    fn id(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    /// Three-node sorted list 0.2 – 0.5 – 0.8 with assorted extras.
    fn sample() -> Snapshot {
        let cfg = ProtocolConfig::default();
        let a = Node::with_state(
            id(0.2),
            Extended::NegInf,
            Extended::Fin(id(0.5)),
            id(0.8), // lrl
            Some(id(0.8)),
            cfg,
        );
        let b = Node::with_state(
            id(0.5),
            Extended::Fin(id(0.2)),
            Extended::Fin(id(0.8)),
            id(0.5),
            None,
            cfg,
        );
        let c = Node::with_state(
            id(0.8),
            Extended::Fin(id(0.5)),
            Extended::PosInf,
            id(0.2),
            Some(id(0.2)),
            cfg,
        );
        let channels = vec![
            vec![Message::Lin(id(0.8))],
            vec![Message::Ring(id(0.2))],
            vec![Message::ProbR(id(0.8))],
        ];
        Snapshot::new(vec![a, b, c], channels)
    }

    #[test]
    fn lcp_contains_only_list_links() {
        let s = sample();
        let mut e = s.edges(View::Lcp);
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }

    #[test]
    fn rcp_adds_ring_edges() {
        let s = sample();
        let e = s.edges(View::Rcp);
        assert!(e.contains(&(0, 2)), "min.ring = max");
        assert!(e.contains(&(2, 0)), "max.ring = min");
        assert_eq!(e.len(), 6);
    }

    #[test]
    fn cp_adds_lrl_edges() {
        let s = sample();
        let e = s.edges(View::Cp);
        assert!(e.contains(&(0, 2)), "a.lrl = c");
        assert!(e.contains(&(2, 0)), "c.lrl = a");
        // b.lrl = self: skipped.
        assert_eq!(e.len(), 8);
    }

    #[test]
    fn lcc_includes_lin_but_not_other_messages() {
        let s = sample();
        let e = s.edges(View::Lcc);
        // Channel of node 0 has Lin(0.8): edge (0, 2).
        assert!(e.contains(&(0, 2)));
        // Ring / ProbR messages must not contribute to LCC.
        assert_eq!(e.len(), s.edges(View::Lcp).len() + 1);
    }

    #[test]
    fn rcc_includes_ring_messages() {
        let s = sample();
        let e = s.edges(View::Rcc);
        // node 1's channel has Ring(0.2): edge (1, 0) — already in LCP,
        // plus node 0's Lin(0.8) and both stored ring edges.
        assert!(e.contains(&(1, 0)));
        assert_eq!(e.len(), s.edges(View::Lcc).len() + 2 + 1);
    }

    #[test]
    fn cc_is_a_superset_of_every_other_view() {
        let s = sample();
        let cc: std::collections::BTreeSet<_> = s.edges(View::Cc).into_iter().collect();
        for v in [View::Cp, View::Lcp, View::Lcc, View::Rcp, View::Rcc] {
            for e in s.edges(v) {
                assert!(cc.contains(&e), "{v:?} edge {e:?} missing from CC");
            }
        }
    }

    #[test]
    fn absent_ids_are_skipped() {
        let cfg = ProtocolConfig::default();
        // Node pointing at a departed node 0.9.
        let a = Node::with_state(
            id(0.2),
            Extended::NegInf,
            Extended::Fin(id(0.9)),
            id(0.2),
            None,
            cfg,
        );
        let s = Snapshot::from_nodes(vec![a]);
        assert!(s.edges(View::Cc).is_empty());
    }

    #[test]
    fn index_lookup() {
        let s = sample();
        assert_eq!(s.index_of(id(0.5)), Some(1));
        assert_eq!(s.index_of(id(0.9)), None);
        assert_eq!(s.sorted_indices(), vec![0, 1, 2]);
        assert_eq!(s.messages_in_flight(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn rejects_duplicate_ids() {
        let cfg = ProtocolConfig::default();
        let a = Node::new(id(0.5), cfg);
        let b = Node::new(id(0.5), cfg);
        let _ = Snapshot::from_nodes(vec![a, b]);
    }

    #[test]
    fn as_view_edges_match_snapshot_edges_for_every_view() {
        // The sample snapshot is already in ascending id order, so ranks
        // and snapshot indices coincide and edge lists must be equal as
        // sets.
        let s = sample();
        let v = s.as_view();
        assert_eq!(v.len(), s.len());
        assert_eq!(v.messages_in_flight(), s.messages_in_flight());
        for view in [
            View::Cp,
            View::Cc,
            View::Lcp,
            View::Lcc,
            View::Rcp,
            View::Rcc,
        ] {
            let mut a = s.edges(view);
            let mut b = v.edges(view);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{view:?} edges diverge between view and snapshot");
        }
    }

    #[test]
    fn view_index_of_uses_rank_order() {
        let s = sample();
        let v = s.as_view();
        assert_eq!(v.index_of(id(0.2)), Some(0));
        assert_eq!(v.index_of(id(0.5)), Some(1));
        assert_eq!(v.index_of(id(0.8)), Some(2));
        assert_eq!(v.index_of(id(0.9)), None);
        assert_eq!(v.node(1).id(), id(0.5));
        assert_eq!(v.channel(1), &[Message::Ring(id(0.2))][..]);
    }

    #[test]
    #[should_panic(expected = "ascending id order")]
    fn view_rejects_unsorted_nodes() {
        let cfg = ProtocolConfig::default();
        let a = Node::new(id(0.8), cfg);
        let b = Node::new(id(0.2), cfg);
        let _ = NetView::new(vec![&a, &b], vec![&[], &[]]);
    }
}
