//! Greedy routing evaluation.
//!
//! The stabilized network supports Kleinberg-style greedy routing: a
//! message at node `u` headed for `t` moves to the neighbour of `u`
//! closest to `t` in ring distance. On a harmonic small world this takes
//! O(ln^(2+ε) n) expected hops (Theorem 4.22 / Lemma 4.23); on a plain
//! ring Θ(n); with uniformly random long links Kleinberg's lower bound
//! says polynomial — the routing-hops experiment separates the three.
//!
//! Routing operates on a [`Graph`] whose node indices are *ring ranks*
//! (as produced by [`Graph::from_view`] or the baseline generators),
//! so the ring metric is `ring_distance(u, t, n)`.

use crate::graph::Graph;
use crate::paths::ring_distance;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};

/// Outcome of one greedy route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteResult {
    /// Reached the target in the given number of hops.
    Arrived(u32),
    /// No neighbour was strictly closer to the target (greedy dead end —
    /// possible only on damaged graphs).
    Stuck {
        /// Rank at which no strictly closer neighbour existed.
        at: usize,
        /// Hops taken before getting stuck.
        after: u32,
    },
    /// Exceeded the hop budget.
    Exhausted,
}

impl RouteResult {
    /// Hops on success.
    pub fn hops(self) -> Option<u32> {
        match self {
            RouteResult::Arrived(h) => Some(h),
            _ => None,
        }
    }
}

/// Routes greedily from `src` to `dst` (ring ranks), moving to the
/// neighbour strictly closest to `dst` in ring distance, tie-broken by
/// lower index for determinism.
pub fn greedy_route(g: &Graph, src: usize, dst: usize, max_hops: u32) -> RouteResult {
    let n = g.n();
    let mut cur = src;
    let mut hops = 0u32;
    while cur != dst {
        if hops >= max_hops {
            return RouteResult::Exhausted;
        }
        let here = ring_distance(cur, dst, n);
        let mut best: Option<(usize, usize)> = None; // (distance, node)
        for &v in g.neighbors(cur) {
            let d = ring_distance(v as usize, dst, n);
            if d < here && best.is_none_or(|(bd, bv)| d < bd || (d == bd && (v as usize) < bv)) {
                best = Some((d, v as usize));
            }
        }
        match best {
            Some((_, v)) => {
                cur = v;
                hops += 1;
            }
            None => {
                return RouteResult::Stuck {
                    at: cur,
                    after: hops,
                }
            }
        }
    }
    RouteResult::Arrived(hops)
}

/// Aggregate greedy-routing statistics over random source/target pairs.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RoutingStats {
    /// Pairs attempted.
    pub attempts: u64,
    /// Pairs that arrived.
    pub delivered: u64,
    /// Mean hops over delivered pairs.
    pub mean_hops: f64,
    /// Maximum hops over delivered pairs.
    pub max_hops: u32,
    /// 99th-percentile hops over delivered pairs.
    pub p99_hops: u32,
}

impl RoutingStats {
    /// Delivery success rate in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.delivered as f64 / self.attempts as f64
        }
    }
}

/// Evaluates greedy routing over `pairs` random (src ≠ dst) pairs.
/// `alive` optionally masks failed nodes (failed sources/targets are
/// re-drawn; failed intermediate nodes simply have no edges if the graph
/// was filtered with [`Graph::without_nodes`]).
pub fn evaluate_routing(
    g: &Graph,
    pairs: usize,
    max_hops: u32,
    seed: u64,
    alive: Option<&[bool]>,
) -> RoutingStats {
    let n = g.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = RoutingStats::default();
    let mut hops_all: Vec<u32> = Vec::new();
    let alive_count = alive.map_or(n, |a| a.iter().filter(|&&x| x).count());
    if n < 2 || alive_count < 2 {
        return stats;
    }
    let draw = |rng: &mut StdRng| loop {
        let v = rng.random_range(0..n);
        if alive.is_none_or(|a| a[v]) {
            return v;
        }
    };
    for _ in 0..pairs {
        let s = draw(&mut rng);
        let mut t = draw(&mut rng);
        while t == s {
            t = draw(&mut rng);
        }
        stats.attempts += 1;
        if let RouteResult::Arrived(h) = greedy_route(g, s, t, max_hops) {
            stats.delivered += 1;
            hops_all.push(h);
        }
    }
    if !hops_all.is_empty() {
        hops_all.sort_unstable();
        stats.mean_hops = hops_all.iter().map(|&h| h as f64).sum::<f64>() / hops_all.len() as f64;
        stats.max_hops = *hops_all.last().expect("non-empty");
        // len·0.99 is in [0, len], non-negative by construction.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = ((hops_all.len() as f64) * 0.99).ceil() as usize;
        stats.p99_hops = hops_all[idx.saturating_sub(1).min(hops_all.len() - 1)];
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bidirectional cycle on n ranks.
    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
            g.add_edge((i + 1) % n, i);
        }
        g
    }

    #[test]
    fn ring_routing_takes_ring_distance_hops() {
        let g = ring(16);
        assert_eq!(greedy_route(&g, 0, 5, 100), RouteResult::Arrived(5));
        assert_eq!(greedy_route(&g, 0, 13, 100), RouteResult::Arrived(3));
        assert_eq!(greedy_route(&g, 7, 7, 100), RouteResult::Arrived(0));
    }

    #[test]
    fn shortcut_is_taken_when_closer() {
        let mut g = ring(32);
        g.add_edge(0, 16);
        assert_eq!(greedy_route(&g, 0, 16, 100), RouteResult::Arrived(1));
        assert_eq!(greedy_route(&g, 0, 15, 100), RouteResult::Arrived(2));
    }

    #[test]
    fn overshooting_shortcut_ignored() {
        let mut g = ring(32);
        g.add_edge(0, 3); // shortcut closer to target 2? d(3,2)=1 < d(0,2)=2: taken
        assert_eq!(greedy_route(&g, 0, 2, 100), RouteResult::Arrived(2));
    }

    #[test]
    fn hop_budget_enforced() {
        let g = ring(64);
        assert_eq!(greedy_route(&g, 0, 32, 10), RouteResult::Exhausted);
    }

    #[test]
    fn damaged_graph_gets_stuck() {
        let mut g = ring(8);
        let removed = vec![false, true, false, false, false, false, false, true];
        let h = g.without_nodes(&removed);
        // 0's both ring neighbours (1 and 7) are gone: immediately stuck.
        match greedy_route(&h, 0, 4, 100) {
            RouteResult::Stuck { at: 0, after: 0 } => {}
            other => panic!("expected stuck at 0, got {other:?}"),
        }
        g.add_edge(0, 4);
    }

    #[test]
    fn evaluate_routing_on_ring() {
        let g = ring(32);
        let stats = evaluate_routing(&g, 500, 1000, 7, None);
        assert_eq!(stats.attempts, 500);
        assert_eq!(stats.delivered, 500);
        // Mean ring distance over random pairs ≈ n/4 = 8.
        assert!(
            (6.0..10.0).contains(&stats.mean_hops),
            "{}",
            stats.mean_hops
        );
        assert!(stats.max_hops <= 16);
        assert!(stats.p99_hops <= stats.max_hops);
        assert_eq!(stats.success_rate(), 1.0);
    }

    #[test]
    fn evaluate_routing_respects_alive_mask() {
        let g = ring(16);
        let mut alive = vec![true; 16];
        for a in &mut alive[8..16] {
            *a = false;
        }
        let damaged = g.without_nodes(&alive.iter().map(|&a| !a).collect::<Vec<_>>());
        let stats = evaluate_routing(&damaged, 200, 100, 9, Some(&alive));
        assert_eq!(stats.attempts, 200);
        // Sources/targets only among 0..8; the surviving arc is connected,
        // but greedy may need to cross the dead arc for wrapped pairs.
        assert!(stats.delivered > 0);
    }

    #[test]
    fn empty_or_tiny_graphs() {
        let g = ring(1);
        let stats = evaluate_routing(&g, 10, 10, 1, None);
        assert_eq!(stats.attempts, 0);
    }
}
