//! k-dimensional tori: the paper's "future work" direction.
//!
//! The IPPS 2012 paper self-stabilizes the 1-D case and names
//! multidimensional small worlds as the direct extension. The two
//! ingredients it would build on are already dimension-generic in
//! Chaintreau et al. \[4\], and both are implemented here:
//!
//! * the **static k-harmonic construction** on the torus `Z_m^k`
//!   (`P(link u→v) ∝ 1/dist(u,v)^k`, Kleinberg's exponent), and
//! * the **k-dimensional move-and-forget process** (each token alters
//!   every coordinate by ±1 per step; the forget probability φ(α) is the
//!   same for every k — the property the paper highlights in
//!   Section III.D).
//!
//! Together with [`greedy_route`](Torus::greedy_route) they let the
//! extension experiment (X1) check that the process's navigability is
//! dimension-independent, exactly what a future k-D self-stabilization
//! would converge to.

use rand::rngs::StdRng;
use rand::{Rng, RngExt as _, SeedableRng};
use swn_core::forget::phi;
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

    /// Side length.
    pub fn side(&self) -> usize {
        self.m
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.k
    }

    /// Linear index → coordinates.
    pub fn coords(&self, idx: usize) -> Vec<usize> {
        assert!(idx < self.n);
        let mut c = Vec::with_capacity(self.k);
        let mut rest = idx;
        for _ in 0..self.k {
            c.push(rest % self.m);
            rest /= self.m;
        }
        c
    }

    /// Coordinates → linear index.
    pub fn index(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.k);
        coords
            .iter()
            .rev()
            .fold(0, |acc, &c| acc * self.m + (c % self.m))
    }

    /// L1 torus distance between two linear indices.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let (ca, cb) = (self.coords(a), self.coords(b));
        ca.iter()
            .zip(&cb)
            .map(|(&x, &y)| {
                let d = x.abs_diff(y);
                d.min(self.m - d)
            })
            .sum()
    }

    /// The 2k lattice neighbours of a node.
    pub fn lattice_neighbors(&self, idx: usize) -> Vec<usize> {
        let c = self.coords(idx);
        let mut out = Vec::with_capacity(2 * self.k);
        for d in 0..self.k {
            for delta in [1, self.m - 1] {
                let mut cc = c.clone();
                cc[d] = (cc[d] + delta) % self.m;
                out.push(self.index(&cc));
            }
        }
        out
    }

    /// The bare lattice graph (each node ↔ its 2k neighbours).
    pub fn lattice_graph(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for u in 0..self.n {
            for v in self.lattice_neighbors(u) {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Draws one endpoint at L1 distance following the k-harmonic law
    /// `P(dist = d) ∝ (#nodes at distance d) / d^k ≈ 1/d` and a uniform
    /// node at that distance (rejection-sampled).
    fn sample_harmonic_target<R: Rng + ?Sized>(&self, from: usize, rng: &mut R) -> usize {
        // P(v) ∝ 1/dist(u,v)^k. Sample by rejection against the maximal
        // weight 1: draw a uniform node ≠ from, accept with probability
        // 1/dist^k scaled by the minimal distance 1.
        loop {
            let cand = rng.random_range(0..self.n);
            if cand == from {
                continue;
            }
            let d = self.distance(from, cand) as f64;
            if rng.random::<f64>()
                < 1.0 / d.powi(i32::try_from(self.k).expect("torus dimension fits i32"))
            {
                return cand;
            }
        }
    }

    /// Static Kleinberg construction: the lattice plus one k-harmonic
    /// long-range link per node.
    pub fn kleinberg_graph(&self, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = self.lattice_graph();
        for u in 0..self.n {
            let t = self.sample_harmonic_target(u, &mut rng);
            g.add_edge(u, t);
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

/// The k-dimensional move-and-forget process on a torus (Chaintreau et
/// al. \[4\], Section III.D of the paper): every node owns a token walking
/// the torus; each step alters **every** coordinate by ±1; forgetting
/// follows the dimension-independent φ(α).
#[derive(Debug)]
pub struct TorusMoveForget {
    torus: Torus,
    epsilon: f64,
    pos: Vec<usize>,
    age: Vec<u64>,
    rng: StdRng,
    forgets: u64,
}

impl TorusMoveForget {
    /// All tokens at their origins.
    pub fn new(torus: Torus, epsilon: f64, seed: u64) -> Self {
        let n = torus.len();
        TorusMoveForget {
            torus,
            epsilon,
            pos: (0..n).collect(),
            age: vec![0; n],
            rng: StdRng::seed_from_u64(seed),
            forgets: 0,
        }
    }

    /// The underlying torus.
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// One synchronous round.
    pub fn step(&mut self) {
        let (m, k) = (self.torus.side(), self.torus.dim());
        for i in 0..self.pos.len() {
            self.age[i] += 1;
            let mut c = self.torus.coords(self.pos[i]);
            for coord in c.iter_mut().take(k) {
                *coord = if self.rng.random_bool(0.5) {
                    (*coord + 1) % m
                } else {
                    (*coord + m - 1) % m
                };
            }
            self.pos[i] = self.torus.index(&c);
            let p = phi(self.age[i], self.epsilon);
            if p > 0.0 && self.rng.random::<f64>() < p {
                self.pos[i] = i;
                self.age[i] = 0;
                self.forgets += 1;
            }
        }
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Forget events so far.
    pub fn forgets(&self) -> u64 {
        self.forgets
    }

    /// Token displacement (L1) per node; at-origin tokens excluded.
    pub fn displacements(&self) -> Vec<usize> {
        self.pos
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| {
                let d = self.torus.distance(i, p);
                (d > 0).then_some(d)
            })
            .collect()
    }

    /// The lattice plus one long-range link per node at the token's
    /// current position.
    pub fn graph(&self) -> Graph {
        let mut g = self.torus.lattice_graph();
        for (i, &t) in self.pos.iter().enumerate() {
            g.add_edge(i, t);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_topology::connectivity::is_weakly_connected;

    #[test]
    fn coords_round_trip() {
        let t = Torus::new(5, 3);
        assert_eq!(t.len(), 125);
        for idx in [0usize, 1, 42, 124] {
            assert_eq!(t.index(&t.coords(idx)), idx);
        }
        assert_eq!(t.coords(0), vec![0, 0, 0]);
        assert_eq!(t.coords(124), vec![4, 4, 4]);
    }

    #[test]
    fn distance_wraps_in_every_dimension() {
        let t = Torus::new(10, 2);
        let a = t.index(&[0, 0]);
        let b = t.index(&[9, 9]);
        assert_eq!(t.distance(a, b), 2, "diagonal wrap");
        let c = t.index(&[5, 0]);
        assert_eq!(t.distance(a, c), 5);
        assert_eq!(t.distance(a, a), 0);
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
    fn kleinberg_2d_routes_much_better_than_lattice() {
        // One shortcut per node needs some scale before the polylog
        // separation dominates the constants: at 40×40 the lattice mean is
        // 20 hops and the harmonic shortcuts cut it well below that.
        let t = Torus::new(40, 2); // 1600 nodes
        let lattice_hops = t.mean_greedy_hops(&t.lattice_graph(), 150, 1);
        let kle_hops = t.mean_greedy_hops(&t.kleinberg_graph(7), 150, 1);
        assert!(
            kle_hops * 1.5 < lattice_hops,
            "kleinberg {kle_hops} vs lattice {lattice_hops}"
        );
    }

    #[test]
    fn torus_move_forget_spreads_and_navigates() {
        let t = Torus::new(20, 2); // 400 nodes
        let mut mf = TorusMoveForget::new(t, 0.1, 3);
        mf.run(3000);
        assert!(mf.forgets() > 0);
        let disp = mf.displacements();
        assert!(disp.len() > 150, "tokens failed to spread: {}", disp.len());
        let torus = mf.torus().clone();
        let lattice_hops = torus.mean_greedy_hops(&torus.lattice_graph(), 120, 2);
        let mf_hops = torus.mean_greedy_hops(&mf.graph(), 120, 2);
        assert!(
            mf_hops < lattice_hops,
            "move-forget {mf_hops} vs lattice {lattice_hops}"
        );
    }

    /// E2's reference (`MoveForgetRing`) and x1's engine are the same
    /// process at k = 1 and draw the same random sequence, so they must
    /// agree token for token, not only in distribution.
    #[test]
    fn one_dimensional_torus_is_the_ring_reference_draw_for_draw() {
        for (n, epsilon, seed) in [(16, 0.1, 1), (64, 0.5, 7), (257, 0.1, 42)] {
            let mut torus = TorusMoveForget::new(Torus::new(n, 1), epsilon, seed);
            let mut ring = crate::chaintreau::MoveForgetRing::new(n, epsilon, seed);
            for block in 0..20 {
                torus.run(37);
                ring.run(37);
                assert_eq!(
                    torus.displacements(),
                    ring.lengths(),
                    "n={n} eps={epsilon} seed={seed} block {block}"
                );
                assert_eq!(torus.forgets(), ring.forgets());
            }
            assert!(ring.forgets() > 0, "the forget branch must be exercised");
        }
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
