//! Adversarial initial-state generators.
//!
//! Self-stabilization quantifies over *every weakly connected initial
//! state*; these generators produce representative families of them. All
//! generators guarantee weak connectivity of the stored-link graph CP
//! (hence of CC), which is the hypothesis of Theorem 4.3 — from anything
//! weaker no algorithm could reconnect the network.
//!
//! A generated state is a set of nodes (with possibly ill-typed variable
//! contents) plus initial channel contents (stale in-flight messages).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};
use swn_core::config::ProtocolConfig;
use swn_core::id::{Extended, NodeId};
use swn_core::invariants::{make_sorted_ring, sorted_list_links};
use swn_core::message::Message;
use swn_core::node::Node;

use crate::network::Network;

/// The initial-topology families used by the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitialTopology {
    /// Random spanning tree plus `extra` random links, slots assigned
    /// arbitrarily — the "generic" weakly connected digraph.
    RandomSparse {
        /// Random links added on top of the spanning tree.
        extra: usize,
    },
    /// Every node's only link is a long-range link to one hub.
    Star,
    /// Every node knows the global min and max as `l`/`r` (maximally long
    /// list links) plus a random `lrl`.
    Clique,
    /// A single directed chain over a random permutation of the nodes —
    /// the sorted order must be completely rebuilt.
    RandomChain,
    /// Two internally sorted halves joined by a single link — tests the
    /// merge behaviour.
    TwoBlobs,
    /// The sorted list without ring edges — isolates phase 3.
    SortedListNoRing,
    /// The stable sorted ring (tokens at origin) — the reference state.
    SortedRing,
    /// The stable sorted ring with `corruptions` random pointer
    /// corruptions and stale channel messages — the "small fault" family.
    CorruptedRing {
        /// Number of random pointer corruptions applied.
        corruptions: usize,
    },
}

impl InitialTopology {
    /// All families, for exhaustive sweeps.
    pub const ALL: [InitialTopology; 8] = [
        InitialTopology::RandomSparse { extra: 2 },
        InitialTopology::Star,
        InitialTopology::Clique,
        InitialTopology::RandomChain,
        InitialTopology::TwoBlobs,
        InitialTopology::SortedListNoRing,
        InitialTopology::SortedRing,
        InitialTopology::CorruptedRing { corruptions: 4 },
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            InitialTopology::RandomSparse { .. } => "random-sparse",
            InitialTopology::Star => "star",
            InitialTopology::Clique => "clique",
            InitialTopology::RandomChain => "random-chain",
            InitialTopology::TwoBlobs => "two-blobs",
            InitialTopology::SortedListNoRing => "list-no-ring",
            InitialTopology::SortedRing => "sorted-ring",
            InitialTopology::CorruptedRing { .. } => "corrupted-ring",
        }
    }
}

/// A generated initial state.
pub struct InitialState {
    /// The nodes, in unspecified order.
    pub nodes: Vec<Node>,
    /// Stale messages to preload: `(destination, message)`.
    pub preloads: Vec<(NodeId, Message)>,
}

impl InitialState {
    /// Materializes the state into a ready-to-run [`Network`].
    pub fn into_network(self, seed: u64) -> Network {
        self.into_network_with_policy(seed, crate::DeliveryPolicy::default())
    }

    /// [`InitialState::into_network`] under an explicit delivery policy
    /// (e.g. adversarial [`crate::DeliveryPolicy::RandomDelay`]
    /// asynchrony for fairness-sensitive property tests).
    pub fn into_network_with_policy(self, seed: u64, policy: crate::DeliveryPolicy) -> Network {
        let mut net = Network::with_policy(self.nodes, seed, policy);
        net.preload_all(self.preloads);
        net
    }
}

/// Mutable link-slot assignment used while embedding arbitrary digraphs
/// into the typed node variables.
struct Slots {
    id: NodeId,
    l: Option<NodeId>,
    r: Option<NodeId>,
    lrl: Option<NodeId>,
    extra: Vec<NodeId>, // overflow: becomes stale lin messages
}

impl Slots {
    fn new(id: NodeId) -> Self {
        Slots {
            id,
            l: None,
            r: None,
            lrl: None,
            extra: Vec::new(),
        }
    }

    /// Stores a link from this node to `to` in the first free legal slot,
    /// overflowing into the channel when all slots are taken.
    fn add_link(&mut self, to: NodeId) {
        if to == self.id {
            return;
        }
        if to < self.id && self.l.is_none() {
            self.l = Some(to);
        } else if to > self.id && self.r.is_none() {
            self.r = Some(to);
        } else if self.lrl.is_none() {
            self.lrl = Some(to);
        } else {
            self.extra.push(to);
        }
    }

    fn build(self, cfg: ProtocolConfig) -> (Node, Vec<(NodeId, Message)>) {
        let node = Node::with_state(
            self.id,
            self.l.map(Extended::Fin).unwrap_or(Extended::NegInf),
            self.r.map(Extended::Fin).unwrap_or(Extended::PosInf),
            self.lrl.unwrap_or(self.id),
            None,
            cfg,
        );
        let preloads = self
            .extra
            .into_iter()
            .map(|to| (self.id, Message::Lin(to)))
            .collect();
        (node, preloads)
    }
}

fn build_from_edges(ids: &[NodeId], edges: &[(usize, usize)], cfg: ProtocolConfig) -> InitialState {
    let mut slots: Vec<Slots> = ids.iter().map(|&id| Slots::new(id)).collect();
    for &(u, v) in edges {
        slots[u].add_link(ids[v]);
    }
    let mut nodes = Vec::with_capacity(ids.len());
    let mut preloads = Vec::new();
    for s in slots {
        let (node, mut pre) = s.build(cfg);
        nodes.push(node);
        preloads.append(&mut pre);
    }
    InitialState { nodes, preloads }
}

/// Generates an initial state of the given family over the given ids.
///
/// # Panics
/// Panics if `ids` is empty or contains duplicates.
pub fn generate(
    kind: InitialTopology,
    ids: &[NodeId],
    cfg: ProtocolConfig,
    seed: u64,
) -> InitialState {
    let n = ids.len();
    assert!(n > 0, "need at least one node");
    {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "duplicate ids in initial state");
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ee0_1d1e);
    match kind {
        InitialTopology::RandomSparse { extra } => {
            // Random spanning tree: attach node k to a random earlier node,
            // direction chosen at random; then `extra` random links.
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let mut edges = Vec::new();
            for k in 1..n {
                let parent = perm[rng.random_range(0..k)];
                let child = perm[k];
                if rng.random_bool(0.5) {
                    edges.push((parent, child));
                } else {
                    edges.push((child, parent));
                }
            }
            for _ in 0..extra {
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if u != v {
                    edges.push((u, v));
                }
            }
            build_from_edges(ids, &edges, cfg)
        }
        InitialTopology::Star => {
            let hub = rng.random_range(0..n);
            let edges: Vec<_> = (0..n).filter(|&i| i != hub).map(|i| (i, hub)).collect();
            build_from_edges(ids, &edges, cfg)
        }
        InitialTopology::Clique => {
            // Maximally misleading stored links: everyone's l is the global
            // min, everyone's r the global max, lrl random; the rest of the
            // clique knowledge arrives as stale lin messages.
            let mut sorted: Vec<usize> = (0..n).collect();
            sorted.sort_by_key(|&i| ids[i]);
            let (min_i, max_i) = (sorted[0], sorted[n - 1]);
            let mut edges = Vec::new();
            for i in 0..n {
                if i != min_i {
                    edges.push((i, min_i));
                }
                if i != max_i {
                    edges.push((i, max_i));
                }
                let v = rng.random_range(0..n);
                if v != i {
                    edges.push((i, v));
                }
            }
            let mut st = build_from_edges(ids, &edges, cfg);
            // A few random stale clique messages.
            for _ in 0..n {
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if u != v {
                    st.preloads.push((ids[u], Message::Lin(ids[v])));
                }
            }
            st
        }
        InitialTopology::RandomChain => {
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let edges: Vec<_> = perm.windows(2).map(|w| (w[0], w[1])).collect();
            build_from_edges(ids, &edges, cfg)
        }
        InitialTopology::TwoBlobs => {
            let mut sorted = ids.to_vec();
            sorted.sort_unstable();
            let half = n / 2;
            let mut nodes = make_sorted_ring(&sorted[..half.max(1)], cfg);
            nodes.extend(make_sorted_ring(&sorted[half.max(1)..], cfg));
            let mut preloads = Vec::new();
            if half >= 1 && half < n {
                // Single bridge: a random left-half node learns about a
                // random right-half node.
                let u = sorted[rng.random_range(0..half)];
                let v = sorted[rng.random_range(half..n)];
                preloads.push((u, Message::Lin(v)));
            }
            InitialState { nodes, preloads }
        }
        InitialTopology::SortedListNoRing => {
            let mut sorted = ids.to_vec();
            sorted.sort_unstable();
            let nodes = sorted
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    let (l, r) = sorted_list_links(i, n, |j| sorted[j]);
                    Node::with_state(id, l, r, id, None, cfg)
                })
                .collect();
            InitialState {
                nodes,
                preloads: Vec::new(),
            }
        }
        InitialTopology::SortedRing => InitialState {
            nodes: make_sorted_ring(ids, cfg),
            preloads: Vec::new(),
        },
        InitialTopology::CorruptedRing { corruptions } => {
            let mut sorted = ids.to_vec();
            sorted.sort_unstable();
            let mut nodes = make_sorted_ring(&sorted, cfg);
            let mut preloads = Vec::new();
            for _ in 0..corruptions {
                let i = rng.random_range(0..n);
                let j = rng.random_range(0..n);
                if i == j {
                    continue;
                }
                let victim = &nodes[i];
                let target = sorted[j];
                // Corrupt one random variable of the victim. Ill-typed
                // results are intended — sanitation must cope.
                let which = rng.random_range(0..4u8);
                nodes[i] = match which {
                    0 => Node::with_state(
                        victim.id(),
                        Extended::Fin(target),
                        victim.right(),
                        victim.lrl(),
                        victim.ring(),
                        cfg,
                    ),
                    1 => Node::with_state(
                        victim.id(),
                        victim.left(),
                        Extended::Fin(target),
                        victim.lrl(),
                        victim.ring(),
                        cfg,
                    ),
                    2 => Node::with_state(
                        victim.id(),
                        victim.left(),
                        victim.right(),
                        target,
                        victim.ring(),
                        cfg,
                    ),
                    _ => Node::with_state(
                        victim.id(),
                        victim.left(),
                        victim.right(),
                        victim.lrl(),
                        Some(target),
                        cfg,
                    ),
                };
                // Plus a stale message for good measure.
                preloads.push((sorted[j], Message::Lin(sorted[i])));
            }
            InitialState { nodes, preloads }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::id::evenly_spaced_ids;
    use swn_core::invariants::{classify_view, weakly_connected_view, Phase};
    use swn_core::views::View;

    fn check_connected(kind: InitialTopology, n: usize, seed: u64) {
        let ids = evenly_spaced_ids(n);
        let st = generate(kind, &ids, ProtocolConfig::default(), seed);
        assert_eq!(st.nodes.len(), n);
        let net = st.into_network(seed);
        assert!(
            weakly_connected_view(&net.view(), View::Cc),
            "{} (n={n}, seed={seed}) not weakly connected",
            kind.label()
        );
    }

    #[test]
    fn every_family_is_weakly_connected() {
        for kind in InitialTopology::ALL {
            for seed in 0..5 {
                check_connected(kind, 17, seed);
                check_connected(kind, 2, seed);
                check_connected(kind, 64, seed);
            }
        }
    }

    #[test]
    fn singleton_states_work() {
        let ids = evenly_spaced_ids(1);
        for kind in InitialTopology::ALL {
            let st = generate(kind, &ids, ProtocolConfig::default(), 1);
            assert_eq!(st.nodes.len(), 1, "{}", kind.label());
        }
    }

    #[test]
    fn sorted_ring_family_is_already_stable() {
        let ids = evenly_spaced_ids(10);
        let st = generate(
            InitialTopology::SortedRing,
            &ids,
            ProtocolConfig::default(),
            3,
        );
        let net = st.into_network(3);
        assert_eq!(classify_view(&net.view()), Phase::SortedRing);
    }

    #[test]
    fn list_no_ring_family_is_exactly_phase_two() {
        let ids = evenly_spaced_ids(10);
        let st = generate(
            InitialTopology::SortedListNoRing,
            &ids,
            ProtocolConfig::default(),
            3,
        );
        let net = st.into_network(3);
        assert_eq!(classify_view(&net.view()), Phase::SortedList);
    }

    #[test]
    fn star_family_is_not_linearized() {
        let ids = evenly_spaced_ids(10);
        let st = generate(InitialTopology::Star, &ids, ProtocolConfig::default(), 3);
        let net = st.into_network(3);
        let phase = classify_view(&net.view());
        assert!(phase < Phase::SortedList, "star must start unsorted");
    }

    #[test]
    fn random_chain_uses_slots_not_channels() {
        let ids = evenly_spaced_ids(12);
        let st = generate(
            InitialTopology::RandomChain,
            &ids,
            ProtocolConfig::default(),
            9,
        );
        // A chain link always fits one of the three slots.
        assert!(st.preloads.is_empty());
    }

    #[test]
    fn corrupted_ring_generates_stale_messages() {
        let ids = evenly_spaced_ids(20);
        let st = generate(
            InitialTopology::CorruptedRing { corruptions: 6 },
            &ids,
            ProtocolConfig::default(),
            4,
        );
        assert!(!st.preloads.is_empty());
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let ids = evenly_spaced_ids(15);
        let a = generate(
            InitialTopology::RandomSparse { extra: 3 },
            &ids,
            ProtocolConfig::default(),
            11,
        );
        let b = generate(
            InitialTopology::RandomSparse { extra: 3 },
            &ids,
            ProtocolConfig::default(),
            11,
        );
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.preloads, b.preloads);
    }

    #[test]
    #[should_panic(expected = "duplicate ids")]
    fn duplicate_ids_rejected() {
        let id = NodeId::from_fraction(0.5);
        let _ = generate(
            InitialTopology::Star,
            &[id, id],
            ProtocolConfig::default(),
            1,
        );
    }
}
