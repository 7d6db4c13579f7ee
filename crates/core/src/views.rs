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
//! There is one numbering and one edge extractor. A [`NetView`] is a
//! global state seen through references — one `&Node` and one channel
//! slice per node, in ascending identifier order, so an index *is* the
//! node's rank on the id line — and [`NetView::for_each_edge`] is the
//! only implementation of the edge rule above. Every predicate and every
//! analysis pass takes a view; nothing is cloned to evaluate one.
//!
//! A [`Snapshot`] is storage, not a second read path: the owned
//! `{nodes, channels}` that persistence writes, the threaded driver
//! collects and the examples hold on to. Its one way out is
//! [`Snapshot::as_view`], which — like anything else holding nodes and
//! channels in its own order — goes through [`NetView::from_slices`].

use crate::id::NodeId;
use crate::message::Message;
use crate::node::Node;

/// An owned global state: every node's variables plus every channel's
/// contents, in whatever order the producer collected them.
/// `channels[i]` holds the messages waiting in `nodes[i]`'s channel.
#[derive(Clone, Debug)]
pub struct Snapshot {
    nodes: Vec<Node>,
    channels: Vec<Vec<Message>>,
}

/// Which connectivity view to extract from a global state.
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
    /// Panics if `channels.len() != nodes.len()`.
    pub fn new(nodes: Vec<Node>, channels: Vec<Vec<Message>>) -> Self {
        assert_eq!(nodes.len(), channels.len(), "one channel per node required");
        Snapshot { nodes, channels }
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

    /// The nodes, in storage order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The channels, parallel to [`nodes`](Self::nodes).
    pub fn channels(&self) -> &[Vec<Message>] {
        &self.channels
    }

    /// The view of this snapshot: the input of every predicate and
    /// analysis pass.
    ///
    /// # Panics
    /// Panics if two nodes share an identifier.
    pub fn as_view(&self) -> NetView<'_> {
        NetView::from_slices(&self.nodes, &self.channels)
    }
}

/// A borrowing view of a global state: one `&Node` and one `&[Message]`
/// channel slice per live node, in **ascending identifier order** (so
/// index `i` is the node's rank on the id line). Built in O(n) pointer
/// copies by the simulator's `Network::view`, or by
/// [`from_slices`](Self::from_slices) from storage held in any order;
/// nothing is cloned. The convergence loop evaluates the phase
/// predicates on one every dirty round, the model checker on every
/// explored state.
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
            "view nodes must be in strictly ascending id order: unsorted or duplicate node id"
        );
        NetView { nodes, channels }
    }

    /// The view of parallel node/channel storage held in any order
    /// (`channels[i]` is `nodes[i]`'s channel): sorts references by
    /// identifier, clones nothing.
    ///
    /// # Panics
    /// Panics if the slices differ in length or two nodes share an
    /// identifier.
    pub fn from_slices(nodes: &'a [Node], channels: &'a [Vec<Message>]) -> Self {
        assert_eq!(nodes.len(), channels.len(), "one channel per node required");
        let mut pairs: Vec<(&Node, &[Message])> = nodes
            .iter()
            .zip(channels.iter().map(Vec::as_slice))
            .collect();
        pairs.sort_by_key(|(n, _)| n.id());
        let (nodes, channels) = pairs.into_iter().unzip();
        NetView::new(nodes, channels)
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
    /// materializing an edge list — the one implementation of
    /// Definition 4.2. Edges point from the node *storing/receiving* an
    /// identifier to that identifier's node; identifiers of absent nodes
    /// (possible during churn) and self-loops are skipped; indices are id
    /// ranks.
    pub fn for_each_edge<F: FnMut(usize, usize)>(&self, view: View, mut f: F) {
        let mut push = |from: usize, to: NodeId| {
            if let Some(j) = self.index_of(to) {
                if j != from {
                    f(from, j);
                }
            }
        };
        for (i, n) in self.nodes.iter().enumerate() {
            // Stored l/r links: in every view.
            if let Some(l) = n.left().fin() {
                push(i, l);
            }
            if let Some(r) = n.right().fin() {
                push(i, r);
            }
            // Stored lrl: CP/CC only.
            if matches!(view, View::Cp | View::Cc) {
                push(i, n.lrl());
            }
            // Stored ring edge: CP/CC/RCP/RCC.
            if matches!(view, View::Cp | View::Cc | View::Rcp | View::Rcc) {
                if let Some(x) = n.ring() {
                    push(i, x);
                }
            }
        }
        // Channel-implied temporary links.
        if matches!(view, View::Cc | View::Lcc | View::Rcc) {
            for (i, ch) in self.channels.iter().enumerate() {
                for m in *ch {
                    let include = match view {
                        View::Cc => true,
                        View::Lcc => m.in_lcc(),
                        View::Rcc => m.in_lcc() || matches!(m, Message::Ring(_)),
                        View::Cp | View::Lcp | View::Rcp => unreachable!(),
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
        let mut e = s.as_view().edges(View::Lcp);
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }

    #[test]
    fn rcp_adds_ring_edges() {
        let s = sample();
        let e = s.as_view().edges(View::Rcp);
        assert!(e.contains(&(0, 2)), "min.ring = max");
        assert!(e.contains(&(2, 0)), "max.ring = min");
        assert_eq!(e.len(), 6);
    }

    #[test]
    fn cp_adds_lrl_edges() {
        let s = sample();
        let e = s.as_view().edges(View::Cp);
        assert!(e.contains(&(0, 2)), "a.lrl = c");
        assert!(e.contains(&(2, 0)), "c.lrl = a");
        // b.lrl = self: skipped.
        assert_eq!(e.len(), 8);
    }

    #[test]
    fn lcc_includes_lin_but_not_other_messages() {
        let s = sample();
        let v = s.as_view();
        let e = v.edges(View::Lcc);
        // Channel of node 0 has Lin(0.8): edge (0, 2).
        assert!(e.contains(&(0, 2)));
        // Ring / ProbR messages must not contribute to LCC.
        assert_eq!(e.len(), v.edges(View::Lcp).len() + 1);
    }

    #[test]
    fn rcc_includes_ring_messages() {
        let s = sample();
        let v = s.as_view();
        let e = v.edges(View::Rcc);
        // node 1's channel has Ring(0.2): edge (1, 0) — already in LCP,
        // plus node 0's Lin(0.8) and both stored ring edges.
        assert!(e.contains(&(1, 0)));
        assert_eq!(e.len(), v.edges(View::Lcc).len() + 2 + 1);
    }

    #[test]
    fn cc_is_a_superset_of_every_other_view() {
        let s = sample();
        let v = s.as_view();
        let cc: std::collections::BTreeSet<_> = v.edges(View::Cc).into_iter().collect();
        for view in [View::Cp, View::Lcp, View::Lcc, View::Rcp, View::Rcc] {
            for e in v.edges(view) {
                assert!(cc.contains(&e), "{view:?} edge {e:?} missing from CC");
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
        assert!(s.as_view().edges(View::Cc).is_empty());
    }

    #[test]
    fn index_lookup() {
        let s = sample();
        let v = s.as_view();
        assert_eq!((s.len(), v.len()), (3, 3));
        assert_eq!(v.index_of(id(0.5)), Some(1));
        assert_eq!(v.index_of(id(0.9)), None);
        assert_eq!(v.messages_in_flight(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn rejects_duplicate_ids() {
        let cfg = ProtocolConfig::default();
        let a = Node::new(id(0.5), cfg);
        let b = Node::new(id(0.5), cfg);
        let _ = Snapshot::from_nodes(vec![a, b]).as_view();
    }

    #[test]
    fn storage_order_does_not_show_in_the_view() {
        // The same three nodes and channels stored c, a, b: the view
        // ranks by id and keeps each channel with its node, so every
        // edge list equals the one built from id-ordered storage.
        let s = sample();
        let perm = [2, 0, 1];
        let shuffled = Snapshot::new(
            perm.iter().map(|&i| s.nodes()[i].clone()).collect(),
            perm.iter().map(|&i| s.channels()[i].clone()).collect(),
        );
        let (v, w) = (s.as_view(), shuffled.as_view());
        for rank in 0..3 {
            assert_eq!(w.node(rank), v.node(rank));
            assert_eq!(w.channel(rank), v.channel(rank));
        }
        for view in [
            View::Cp,
            View::Cc,
            View::Lcp,
            View::Lcc,
            View::Rcp,
            View::Rcc,
        ] {
            assert_eq!(w.edges(view), v.edges(view), "{view:?}");
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
