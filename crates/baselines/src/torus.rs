//! k-dimensional tori: the paper's "future work" direction.
//!
//! The IPPS 2012 paper self-stabilizes the 1-D case and names
//! multidimensional small worlds as the direct extension. The
//! move-and-forget process it builds on is already dimension-generic in
//! Chaintreau et al. \[4\]: [`MoveForget`](crate::chaintreau::MoveForget)
//! runs on a [`Torus`], the ring being k = 1.
//!
//! Together with [`greedy_route`](Torus::greedy_route) the torus lets the
//! extension experiment (X1) check that the process's navigability is
//! dimension-independent, exactly what a future k-D self-stabilization
//! would converge to.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use swn_topology::Graph;

/// A k-dimensional torus `Z_m^k` with L1 (wrap-around) metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Torus {
    m: usize,
    k: usize,
    n: usize,
}

impl Torus {
    /// A torus with side `m` and dimension `k` (so `m^k` nodes).
    ///
    /// # Panics
    /// Panics if `m < 3`, `k == 0`, or `m^k` overflows.
    pub fn new(m: usize, k: usize) -> Self {
        assert!(m >= 3, "side must be at least 3, got {m}");
        assert!(k >= 1, "dimension must be at least 1, got {k}");
        let n = m
            .checked_pow(u32::try_from(k).expect("torus dimension fits u32"))
            .expect("torus too large");
        Torus { m, k, n }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the torus has no nodes (never: `m ≥ 3`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Strides of the `k` coordinates in a linear index: `1, m, …, m^(k−1)`.
    pub(crate) fn strides(&self) -> impl Iterator<Item = usize> {
        let m = self.m;
        std::iter::successors(Some(1), move |&s| Some(s * m)).take(self.k)
    }

    /// The node one step up (`up`) or down from `idx` along the
    /// coordinate of the given [stride](Torus::strides), wrapping around.
    pub(crate) fn shift(&self, idx: usize, stride: usize, up: bool) -> usize {
        let c = idx / stride % self.m;
        let wrap = (self.m - 1) * stride;
        if up {
            if c + 1 == self.m {
                idx - wrap
            } else {
                idx + stride
            }
        } else if c == 0 {
            idx + wrap
        } else {
            idx - stride
        }
    }

    /// L1 torus distance between two linear indices.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let (mut a, mut b, mut sum) = (a, b, 0);
        for _ in 0..self.k {
            let d = (a % self.m).abs_diff(b % self.m);
            sum += d.min(self.m - d);
            a /= self.m;
            b /= self.m;
        }
        sum
    }

    /// The bare lattice graph (each node ↔ its 2k neighbours).
    pub fn lattice_graph(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for u in 0..self.n {
            for s in self.strides() {
                g.add_edge(u, self.shift(u, s, true));
                g.add_edge(u, self.shift(u, s, false));
            }
        }
        g
    }

    /// Greedy routing under the L1 torus metric over an arbitrary graph
    /// whose indices live on this torus. Returns hops, or `None` if stuck
    /// or out of budget.
    pub fn greedy_route(&self, g: &Graph, src: usize, dst: usize, max_hops: u32) -> Option<u32> {
        let mut cur = src;
        let mut hops = 0u32;
        while cur != dst {
            if hops >= max_hops {
                return None;
            }
            let here = self.distance(cur, dst);
            let next = g
                .neighbors(cur)
                .iter()
                .map(|&v| v as usize)
                .filter(|&v| self.distance(v, dst) < here)
                .min_by_key(|&v| (self.distance(v, dst), v))?;
            cur = next;
            hops += 1;
        }
        Some(hops)
    }

    /// Mean greedy hops over `pairs` random pairs (panics if any route
    /// fails — on lattice-backed graphs greedy cannot get stuck).
    ///
    /// # Panics
    /// Panics if `pairs == 0` (a mean over nothing would be NaN).
    pub fn mean_greedy_hops(&self, g: &Graph, pairs: usize, seed: u64) -> f64 {
        assert!(pairs > 0, "need at least one routing pair");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0u64;
        for _ in 0..pairs {
            let s = rng.random_range(0..self.n);
            let mut t = rng.random_range(0..self.n);
            while t == s {
                t = rng.random_range(0..self.n);
            }
            let hops = self
                .greedy_route(
                    g,
                    s,
                    t,
                    u32::try_from(8 * self.n).expect("hop budget fits u32"),
                )
                .expect("lattice-backed greedy cannot get stuck");
            total += hops as u64;
        }
        total as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaintreau::MoveForget;
    use swn_topology::connectivity::is_weakly_connected;

    #[test]
    fn distance_wraps_in_every_dimension() {
        // Linear index x + 10·y on the 10 × 10 torus: 99 is (9, 9) and
        // 5 is (5, 0).
        let t = Torus::new(10, 2);
        assert_eq!(t.distance(0, 99), 2, "diagonal wrap");
        assert_eq!(t.distance(0, 5), 5);
        assert_eq!(t.distance(0, 0), 0);
    }

    #[test]
    fn lattice_has_2k_neighbors_and_is_connected() {
        let t = Torus::new(6, 2);
        let g = t.lattice_graph();
        for u in 0..t.len() {
            assert_eq!(g.out_degree(u), 4, "node {u}");
        }
        assert!(is_weakly_connected(&g));
    }

    #[test]
    fn one_dimensional_torus_matches_ring() {
        let t = Torus::new(16, 1);
        assert_eq!(t.distance(0, 15), 1);
        assert_eq!(t.distance(0, 8), 8);
        let g = t.lattice_graph();
        for u in 0..16 {
            assert_eq!(g.out_degree(u), 2);
        }
    }

    #[test]
    fn torus_move_forget_spreads_and_navigates() {
        let t = Torus::new(20, 2); // 400 nodes
        let mut mf = MoveForget::new(t.clone(), 0.1, 3);
        mf.run(3000);
        assert!(mf.forgets() > 0);
        let disp = mf.lengths();
        assert!(disp.len() > 150, "tokens failed to spread: {}", disp.len());
        let lattice_hops = t.mean_greedy_hops(&t.lattice_graph(), 120, 2);
        let mf_hops = t.mean_greedy_hops(&mf.graph(), 120, 2);
        assert!(
            mf_hops < lattice_hops,
            "move-forget {mf_hops} vs lattice {lattice_hops}"
        );
    }

    #[test]
    fn greedy_gets_stuck_only_without_lattice() {
        // A graph with a single directed chord and no lattice edges:
        // greedy must report stuck (None) rather than loop.
        let t = Torus::new(5, 2);
        let mut g = Graph::new(t.len());
        g.add_edge(0, 7);
        assert_eq!(t.greedy_route(&g, 0, 24, 100), None);
    }

    #[test]
    #[should_panic(expected = "side must be")]
    fn tiny_torus_rejected() {
        let _ = Torus::new(2, 2);
    }
}
