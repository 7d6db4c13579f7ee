//! A compact adjacency-list graph used by all analysis passes.
//!
//! Nodes are dense indices `0..n` (for protocol states: the rank of the
//! node's identifier). The graph is directed; most metrics work on the
//! symmetrized [`undirected_view`](Graph::undirected_view).

use swn_core::views::{NetView, View};

/// A directed graph over `0..n` with adjacency lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    m: usize,
}

impl Graph {
    /// An edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "graph too large for u32 indices");
        Graph {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Builds a graph from a directed edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Extracts the given connectivity view of a borrowed [`NetView`] as
    /// a graph over **id ranks** (node 0 = smallest identifier), so ring
    /// distances are directly meaningful. The view is already in
    /// ascending id order, so its indices *are* ranks and the edges
    /// stream in with no rank table and no state clone.
    pub fn from_view(v: &NetView<'_>, view: View) -> Self {
        let mut g = Graph::new(v.len());
        v.for_each_edge(view, |u, w| {
            g.add_edge(u, w);
        });
        g
    }

    /// Adds a directed edge (parallel edges and self-loops are ignored).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        if u == v {
            return;
        }
        let vv = u32::try_from(v).expect("graph node index fits u32");
        if !self.adj[u].contains(&vv) {
            self.adj[u].push(vv);
            self.m += 1;
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Out-neighbours of `u`.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// The symmetrized graph: `u—v` present iff `u→v` or `v→u` was.
    pub fn undirected_view(&self) -> Graph {
        let mut g = Graph::new(self.n());
        for (u, vs) in self.adj.iter().enumerate() {
            for &v in vs {
                g.add_edge(u, v as usize);
                g.add_edge(v as usize, u);
            }
        }
        g
    }

    /// Iterates all directed edges.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v as usize)))
    }

    /// Removes a set of nodes (marked true in `removed`), returning the
    /// induced subgraph over the *same* index space with all incident
    /// edges dropped. Removed nodes stay as isolated indices so ranks
    /// remain stable for ring-distance computations.
    pub fn without_nodes(&self, removed: &[bool]) -> Graph {
        assert_eq!(removed.len(), self.n());
        let mut g = Graph::new(self.n());
        for (u, vs) in self.adj.iter().enumerate() {
            if removed[u] {
                continue;
            }
            for &v in vs {
                if !removed[v as usize] {
                    g.add_edge(u, v as usize);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::evenly_spaced_ids;
    use swn_core::invariants::make_sorted_ring;

    #[test]
    fn dedup_and_no_self_loops() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(1, 1);
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.out_degree(1), 0);
    }

    #[test]
    fn undirected_view_symmetrizes() {
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)]);
        let u = g.undirected_view();
        assert_eq!(u.m(), 4);
        assert!(u.neighbors(1).contains(&0));
        assert!(u.neighbors(1).contains(&2));
    }

    #[test]
    fn from_view_ranks_by_id() {
        let ids = evenly_spaced_ids(5);
        let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let s = swn_core::views::Snapshot::from_nodes(nodes);
        let g = Graph::from_view(&s.as_view(), View::Lcp);
        // Sorted list: rank i ↔ rank i+1.
        for i in 0..4 {
            assert!(
                g.neighbors(i)
                    .contains(&u32::try_from(i + 1).expect("fits u32")),
                "missing {i}→{}",
                i + 1
            );
            assert!(g
                .neighbors(i + 1)
                .contains(&u32::try_from(i).expect("fits u32")));
        }
        let r = Graph::from_view(&s.as_view(), View::Rcp);
        assert!(r.neighbors(0).contains(&4), "ring edge min→max");
        assert!(r.neighbors(4).contains(&0));
    }

    #[test]
    fn from_view_matches_from_snapshot() {
        // Storage order is not graph order: a snapshot holding the ring
        // back to front yields the same rank graph as the nodes handed
        // over in id order.
        let ids = evenly_spaced_ids(9);
        let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let direct = NetView::new(nodes.iter().collect(), vec![&[]; 9]);
        let stored = swn_core::views::Snapshot::from_nodes(nodes.iter().rev().cloned().collect());
        for view in [
            View::Cp,
            View::Cc,
            View::Lcp,
            View::Lcc,
            View::Rcp,
            View::Rcc,
        ] {
            assert_eq!(
                Graph::from_view(&stored.as_view(), view),
                Graph::from_view(&direct, view),
                "{view:?}"
            );
        }
    }

    #[test]
    fn without_nodes_isolates_removed() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let removed = vec![false, true, false, false];
        let h = g.without_nodes(&removed);
        assert_eq!(h.out_degree(1), 0);
        assert!(!h.neighbors(0).contains(&1));
        assert!(h.neighbors(2).contains(&3));
        assert_eq!(h.n(), 4, "index space preserved");
    }

    #[test]
    fn edges_iterator_counts_m() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(g.edges().count(), g.m());
    }
}
