//! Phase predicates of the convergence analysis (Section IV).
//!
//! The proof splits stabilization into four phases, each with a property
//! that, once established, holds in every later state:
//!
//! 1. **Connectivity** (Theorem 4.3): LCC is weakly connected and probing
//!    stops adding edges;
//! 2. **Linearization** (Theorem 4.9, Definition 4.8): LCP solves the
//!    sorted-list problem;
//! 3. **Ring** (Theorem 4.18, Definition 4.17): RCP solves the sorted-ring
//!    problem;
//! 4. **Small world** (Theorem 4.22): CP is the ring plus one long-range
//!    link per node whose lengths follow the 1-harmonic distribution.
//!
//! Phases 1–3 are decidable predicates on a global state, implemented
//! here over the borrowing [`NetView`] — the one read path, so the
//! measurement loop and the model checker evaluate them without cloning
//! a node. Phase 4 is a distributional statement; its *structural* part
//! (every long-range link live on the ring) is checked here, the
//! distributional part is measured by `swn-topology`'s harmonic-fit
//! statistics.

use crate::id::{Extended, NodeId};
use crate::node::Node;
use crate::views::{NetView, View};

/// Simple union-find over `0..n`, used for weak-connectivity checks.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton components.
    pub fn new(n: usize) -> Self {
        let n32 = u32::try_from(n).expect("too many nodes for UnionFind");
        UnionFind {
            parent: (0..n32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Representative of `x`'s component (with path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    /// Merges the components of `a` and `b`; returns true if they were
    /// distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = u32::try_from(hi).expect("UnionFind index fits u32");
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// True when everything is in one component (or `n ≤ 1`).
    pub fn all_connected(&self) -> bool {
        self.components <= 1
    }
}

/// True iff the given view of the state is weakly connected (edge
/// directions ignored). The empty and singleton networks count as
/// connected.
pub fn weakly_connected_view(v: &NetView<'_>, view: View) -> bool {
    let n = v.len();
    if n <= 1 {
        return true;
    }
    let mut uf = UnionFind::new(n);
    v.for_each_edge(view, |a, b| {
        uf.union(a, b);
    });
    uf.all_connected()
}

/// A weak-component label for every node rank under `view` (edge
/// directions ignored): two ranks share a label iff they are weakly
/// connected. Labels are union-find roots — stable within one call,
/// not across calls. The fault watchdog uses this to locate which side
/// of a permanent disconnection a dropped payload belonged to.
pub fn component_labels_view(v: &NetView<'_>, view: View) -> Vec<usize> {
    let mut uf = UnionFind::new(v.len());
    v.for_each_edge(view, |a, b| {
        uf.union(a, b);
    });
    (0..v.len()).map(|i| uf.find(i)).collect()
}

/// The `(l, r)` pair the sorted list asks of the node at rank `pos`
/// among `n` ids in ascending order, `id_at(i)` being the id at rank `i`:
/// its list neighbours, with the `±∞` sentinels at the two ends.
#[inline]
pub fn sorted_list_links(
    pos: usize,
    n: usize,
    id_at: impl Fn(usize) -> NodeId,
) -> (Extended, Extended) {
    let l = if pos == 0 {
        Extended::NegInf
    } else {
        Extended::Fin(id_at(pos - 1))
    };
    let r = if pos + 1 == n {
        Extended::PosInf
    } else {
        Extended::Fin(id_at(pos + 1))
    };
    (l, r)
}

/// Definition 4.8: LCP solves the **sorted-list problem** — consecutive
/// nodes (by id) point at each other, extremal nodes carry the `±∞`
/// sentinels, and no other `l`/`r` links exist. The view is already in
/// ascending id order, so this is a single O(n) scan.
pub fn is_sorted_list_view(v: &NetView<'_>) -> bool {
    let nodes = v.nodes();
    let n = nodes.len();
    for (pos, node) in nodes.iter().enumerate() {
        let (want_l, want_r) = sorted_list_links(pos, n, |i| nodes[i].id());
        if node.left() != want_l || node.right() != want_r {
            return false;
        }
    }
    true
}

/// Definition 4.17: RCP solves the **sorted-ring problem** — the sorted
/// list plus mutually closing ring edges at the extremes. A single node
/// trivially satisfies it; two or more nodes need `min.ring = max` and
/// `max.ring = min`.
pub fn is_sorted_ring_view(v: &NetView<'_>) -> bool {
    if !is_sorted_list_view(v) {
        return false;
    }
    let nodes = v.nodes();
    if nodes.len() <= 1 {
        return true;
    }
    let min = nodes[0];
    let max = nodes[nodes.len() - 1];
    min.ring() == Some(max.id()) && max.ring() == Some(min.id())
}

/// The sorted ring **modulo its declared flicker**: the `l`/`r`/`ring`
/// pointer structure is exactly the sorted ring, and every in-flight
/// message belongs to the chatter a stable ring perpetually generates —
/// the long-range token walk (`inclrl`/`reslrl`, which moves `lrl` and
/// `age` forever by design), probes (monotone no-ops on a perfect ring),
/// neighbour re-advertisements (`lin(x)` addressed to a node that
/// already stores `x`, or the dying echo `lin(d)` addressed to `d`
/// itself), and the extremal pair's ring-edge refresh (`ring`/`resring`
/// carrying one extremum to the other). This is the closure-mode
/// invariant: stronger than [`is_sorted_ring_view`] (which says nothing
/// about channels), it pins down *which* flicker the stable region is
/// allowed to sustain — anything else in flight means the ring is still
/// digesting a repair and the configuration is not stable.
pub fn is_ring_stable_config_view(v: &NetView<'_>) -> bool {
    use crate::message::Message;
    if !is_sorted_ring_view(v) {
        return false;
    }
    let nodes = v.nodes();
    let n = nodes.len();
    if n == 0 {
        return true;
    }
    let min_id = nodes[0].id();
    let max_id = nodes[n - 1].id();
    for (i, node) in nodes.iter().enumerate() {
        let d = node.id();
        for m in v.channel(i) {
            let benign = match *m {
                Message::IncLrl(_)
                | Message::ResLrl(..)
                | Message::ProbR(_)
                | Message::ProbL(_) => true,
                Message::Lin(x) => {
                    x == d || Extended::Fin(x) == node.left() || Extended::Fin(x) == node.right()
                }
                Message::Ring(x) => (d == max_id && x == min_id) || (d == min_id && x == max_id),
                Message::ResRing(x) => (d == min_id && x == max_id) || (d == max_id && x == min_id),
            };
            if !benign {
                return false;
            }
        }
    }
    true
}

/// Structural part of the small-world state (Theorem 4.22): the sorted
/// ring holds and every long-range link points at an existing node
/// (the distributional part is measured separately).
pub fn is_small_world_structure_view(v: &NetView<'_>) -> bool {
    is_sorted_ring_view(v) && v.nodes().iter().all(|n| v.index_of(n.lrl()).is_some())
}

/// The stabilization phase a global state has reached (each phase implies the
/// previous ones; phase 4's distributional part is not checked here).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    /// CC not even weakly connected — unrecoverable by Theorem 4.3's
    /// hypothesis (should never happen from a legal initial state).
    Disconnected,
    /// Weakly connected, but LCC is not.
    Connected,
    /// Phase 1 done: LCC weakly connected.
    LccConnected,
    /// Phase 2 done: LCP is the sorted list.
    SortedList,
    /// Phase 3 done: RCP is the sorted ring.
    SortedRing,
}

/// Classifies a borrowed view into the highest phase it satisfies.
///
/// Fast path: when the sorted list already holds (an O(n) allocation-free
/// scan) the two union-find passes are skipped entirely — LCP being the
/// path over all nodes makes LCC (and hence CC) weakly connected, so the
/// answer is `SortedList` or `SortedRing`. Stabilized networks spend most
/// measured rounds in exactly that state, which is where the classifier
/// runs hottest.
pub fn classify_view(v: &NetView<'_>) -> Phase {
    if is_sorted_list_view(v) {
        return if is_sorted_ring_view(v) {
            Phase::SortedRing
        } else {
            Phase::SortedList
        };
    }
    if !weakly_connected_view(v, View::Cc) {
        return Phase::Disconnected;
    }
    if !weakly_connected_view(v, View::Lcc) {
        return Phase::Connected;
    }
    Phase::LccConnected
}

/// Builds the canonical stable state for a set of nodes: the sorted ring
/// with every long-range token at its origin. Used as the reference state
/// in tests, benchmarks and the "start from stable" experiments.
pub fn make_sorted_ring(ids: &[NodeId], cfg: crate::config::ProtocolConfig) -> Vec<Node> {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let n = sorted.len();
    sorted
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let (l, r) = sorted_list_links(i, n, |j| sorted[j]);
            let ring = if n >= 2 && i == 0 {
                Some(sorted[n - 1])
            } else if n >= 2 && i + 1 == n {
                Some(sorted[0])
            } else {
                None
            };
            Node::with_state(id, l, r, id, ring, cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::id::{evenly_spaced_ids, NodeId};
    use crate::views::Snapshot;

    fn id(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    fn ring_snapshot(n: usize) -> Snapshot {
        let ids = evenly_spaced_ids(n);
        Snapshot::from_nodes(make_sorted_ring(&ids, ProtocolConfig::default()))
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.components(), 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        uf.union(3, 4);
        uf.union(2, 3);
        assert!(uf.all_connected());
    }

    #[test]
    fn canonical_ring_satisfies_all_phases() {
        for n in [1usize, 2, 3, 10, 64] {
            let s = ring_snapshot(n);
            assert!(is_sorted_list_view(&s.as_view()), "n={n} sorted list");
            assert!(is_sorted_ring_view(&s.as_view()), "n={n} sorted ring");
            assert!(
                is_small_world_structure_view(&s.as_view()),
                "n={n} small world"
            );
            assert_eq!(classify_view(&s.as_view()), Phase::SortedRing, "n={n}");
        }
    }

    #[test]
    fn broken_list_detected() {
        let ids = evenly_spaced_ids(5);
        let mut nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        // Corrupt one right pointer: skip the next node.
        let far = nodes[3].id();
        nodes[1] = Node::with_state(
            nodes[1].id(),
            nodes[1].left(),
            Extended::Fin(far),
            nodes[1].id(),
            None,
            ProtocolConfig::default(),
        );
        let s = Snapshot::from_nodes(nodes);
        assert!(!is_sorted_list_view(&s.as_view()));
        assert!(!is_sorted_ring_view(&s.as_view()));
        assert!(classify_view(&s.as_view()) < Phase::SortedList);
    }

    #[test]
    fn missing_ring_edge_detected() {
        let ids = evenly_spaced_ids(4);
        let mut nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let min_id = nodes[0].id();
        nodes[0] = Node::with_state(
            min_id,
            Extended::NegInf,
            nodes[0].right(),
            min_id,
            None, // ring edge missing
            ProtocolConfig::default(),
        );
        let s = Snapshot::from_nodes(nodes);
        assert!(is_sorted_list_view(&s.as_view()));
        assert!(!is_sorted_ring_view(&s.as_view()));
        assert_eq!(classify_view(&s.as_view()), Phase::SortedList);
    }

    #[test]
    fn dangling_lrl_breaks_small_world_structure() {
        let ids = evenly_spaced_ids(4);
        let mut nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        // lrl pointing at an id that is not in the network.
        nodes[2] = Node::with_state(
            nodes[2].id(),
            nodes[2].left(),
            nodes[2].right(),
            id(0.987654),
            None,
            ProtocolConfig::default(),
        );
        let s = Snapshot::from_nodes(nodes);
        assert!(is_sorted_ring_view(&s.as_view()));
        assert!(!is_small_world_structure_view(&s.as_view()));
    }

    #[test]
    fn two_components_are_disconnected() {
        let cfg = ProtocolConfig::default();
        let mut nodes = make_sorted_ring(&[id(0.1), id(0.2)], cfg);
        nodes.extend(make_sorted_ring(&[id(0.7), id(0.8)], cfg));
        let s = Snapshot::from_nodes(nodes);
        assert!(!weakly_connected_view(&s.as_view(), View::Cc));
        assert_eq!(classify_view(&s.as_view()), Phase::Disconnected);
        assert!(
            !is_sorted_list_view(&s.as_view()),
            "l/r pointers skip across components"
        );
    }

    #[test]
    fn lrl_only_connectivity_is_connected_but_not_lcc() {
        let cfg = ProtocolConfig::default();
        // Two sorted pairs connected solely by one lrl.
        let mut nodes = make_sorted_ring(&[id(0.1), id(0.2)], cfg);
        nodes.extend(make_sorted_ring(&[id(0.7), id(0.8)], cfg));
        nodes[0] = Node::with_state(
            id(0.1),
            Extended::NegInf,
            Extended::Fin(id(0.2)),
            id(0.8), // lrl bridges the components
            Some(id(0.2)),
            cfg,
        );
        let s = Snapshot::from_nodes(nodes);
        assert!(weakly_connected_view(&s.as_view(), View::Cc));
        assert!(!weakly_connected_view(&s.as_view(), View::Lcc));
        assert_eq!(classify_view(&s.as_view()), Phase::Connected);
    }

    #[test]
    fn empty_and_singleton_networks_are_stable() {
        let s = Snapshot::from_nodes(vec![]);
        assert_eq!(classify_view(&s.as_view()), Phase::SortedRing);
        let s = ring_snapshot(1);
        assert_eq!(classify_view(&s.as_view()), Phase::SortedRing);
    }

    #[test]
    fn make_sorted_ring_dedups_and_sorts() {
        let nodes = make_sorted_ring(
            &[id(0.5), id(0.1), id(0.5), id(0.9)],
            ProtocolConfig::default(),
        );
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].id(), id(0.1));
        assert_eq!(nodes[2].ring(), Some(id(0.1)));
    }

    /// Long-form classification without the sorted-list fast path, used
    /// as the reference the fast path must agree with.
    fn classify_slow(s: &Snapshot) -> Phase {
        let v = s.as_view();
        if !weakly_connected_view(&v, View::Cc) {
            return Phase::Disconnected;
        }
        if !weakly_connected_view(&v, View::Lcc) {
            return Phase::Connected;
        }
        if !is_sorted_list_view(&v) {
            return Phase::LccConnected;
        }
        if !is_sorted_ring_view(&v) {
            return Phase::SortedList;
        }
        Phase::SortedRing
    }

    #[test]
    fn classify_fast_path_matches_long_form() {
        let cfg = ProtocolConfig::default();
        let mut states: Vec<Snapshot> = vec![
            Snapshot::from_nodes(vec![]),
            ring_snapshot(1),
            ring_snapshot(2),
            ring_snapshot(17),
        ];
        // Sorted list without the ring edges.
        let ids = evenly_spaced_ids(6);
        let mut nodes = make_sorted_ring(&ids, cfg);
        let min_id = nodes[0].id();
        nodes[0] = Node::with_state(
            min_id,
            Extended::NegInf,
            nodes[0].right(),
            min_id,
            None,
            cfg,
        );
        states.push(Snapshot::from_nodes(nodes));
        // Two components, with and without an lrl bridge.
        let mut split = make_sorted_ring(&[id(0.1), id(0.2)], cfg);
        split.extend(make_sorted_ring(&[id(0.7), id(0.8)], cfg));
        states.push(Snapshot::from_nodes(split.clone()));
        split[0] = Node::with_state(
            id(0.1),
            Extended::NegInf,
            Extended::Fin(id(0.2)),
            id(0.8),
            Some(id(0.2)),
            cfg,
        );
        states.push(Snapshot::from_nodes(split));
        for s in &states {
            assert_eq!(classify_view(&s.as_view()), classify_slow(s));
        }
    }

    #[test]
    fn view_predicates_agree_with_snapshot_predicates() {
        // A snapshot is storage in any order: the predicates read the
        // same ring from nodes stored back to front as from references
        // handed over in id order.
        for n in [1usize, 2, 5, 33] {
            let nodes = make_sorted_ring(&evenly_spaced_ids(n), ProtocolConfig::default());
            let direct = NetView::new(nodes.iter().collect(), vec![&[]; n]);
            let stored = Snapshot::from_nodes(nodes.iter().rev().cloned().collect());
            let v = stored.as_view();
            assert!(is_sorted_list_view(&direct) && is_sorted_list_view(&v));
            assert!(is_sorted_ring_view(&direct) && is_sorted_ring_view(&v));
            assert!(is_small_world_structure_view(&direct) && is_small_world_structure_view(&v));
            assert!(is_ring_stable_config_view(&direct) && is_ring_stable_config_view(&v));
            assert!(weakly_connected_view(&v, View::Cc), "n={n}");
        }
    }

    #[test]
    fn phases_are_totally_ordered() {
        assert!(Phase::Disconnected < Phase::Connected);
        assert!(Phase::Connected < Phase::LccConnected);
        assert!(Phase::LccConnected < Phase::SortedList);
        assert!(Phase::SortedList < Phase::SortedRing);
    }
}
