//! The pure move-and-forget process of Chaintreau, Fraigniaud and Lebhar
//! (ICALP 2008) on an already-formed k-dimensional torus — the paper's
//! reference \[4\], the non-self-stabilizing baseline for experiment E2
//! at k = 1 (the ring) and the extension experiment X1 at k ≥ 1.
//!
//! Each node owns a token starting at itself; each round the token alters
//! every coordinate of its position by ±1 (on the ring: steps to a
//! uniformly chosen ring neighbour) and is forgotten (reset to its
//! origin) with probability φ(age), the same φ for every k (Section
//! III.D). On the ring the stationary token displacement is the
//! 1-harmonic distribution, which is what makes the graph navigable.
//!
//! Because the lattice is fixed, the whole process reduces to integer
//! arithmetic on indices — no messages — so it runs orders of magnitude
//! faster than the full protocol and serves as the ground truth the
//! self-stabilized network must match.

use crate::torus::Torus;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use swn_core::forget::phi;
use swn_topology::Graph;

/// State of the direct move-and-forget simulation.
#[derive(Debug)]
pub struct MoveForget {
    torus: Torus,
    epsilon: f64,
    /// Token position (torus index) per node.
    pos: Vec<usize>,
    /// Token age per node.
    age: Vec<u64>,
    rng: StdRng,
    forgets: u64,
    rounds: u64,
    first_forget: Vec<Option<u64>>,
}

impl MoveForget {
    /// The process on the ring of `n` nodes (the 1-D torus).
    pub fn ring(n: usize, epsilon: f64, seed: u64) -> Self {
        Self::new(Torus::new(n, 1), epsilon, seed)
    }

    /// All tokens at their origins, age 0.
    pub fn new(torus: Torus, epsilon: f64, seed: u64) -> Self {
        let n = torus.len();
        MoveForget {
            torus,
            epsilon,
            pos: (0..n).collect(),
            age: vec![0; n],
            rng: StdRng::seed_from_u64(seed),
            forgets: 0,
            rounds: 0,
            first_forget: vec![None; n],
        }
    }

    /// One synchronous round: every token moves ±1 in every coordinate
    /// and then faces the forget check.
    pub fn step(&mut self) {
        self.rounds += 1;
        for i in 0..self.pos.len() {
            self.age[i] += 1;
            let mut p = self.pos[i];
            for stride in self.torus.strides() {
                p = self.torus.shift(p, stride, self.rng.random_bool(0.5));
            }
            self.pos[i] = p;
            let f = phi(self.age[i], self.epsilon);
            if f > 0.0 && self.rng.random::<f64>() < f {
                self.pos[i] = i;
                self.age[i] = 0;
                self.forgets += 1;
                if self.first_forget[i].is_none() {
                    self.first_forget[i] = Some(self.rounds);
                }
            }
        }
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Current link lengths (L1 torus distance origin→token, ring
    /// distance at k = 1), zero-length (at-origin) tokens excluded.
    pub fn lengths(&self) -> Vec<usize> {
        self.pos
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| {
                let d = self.torus.distance(i, p);
                (d > 0).then_some(d)
            })
            .collect()
    }

    /// Total forget events so far.
    pub fn forgets(&self) -> u64 {
        self.forgets
    }

    /// Runs until every token has been forgotten at least once and
    /// returns the round at which the last first-forget happened — the
    /// quantity the proof of Theorem 4.22 bounds by O(n) w.h.p. ("after
    /// at most O(n) steps all long-range links have been forgotten at
    /// least once"). Returns `None` if `max_rounds` elapse first.
    pub fn rounds_until_all_forgotten(&mut self, max_rounds: u64) -> Option<u64> {
        while self.rounds < max_rounds {
            if let Some(done) = self.all_forgotten_at() {
                return Some(done);
            }
            self.step();
        }
        self.all_forgotten_at()
    }

    fn all_forgotten_at(&self) -> Option<u64> {
        self.first_forget
            .iter()
            .copied()
            .collect::<Option<Vec<u64>>>()
            .map(|v| v.into_iter().max().unwrap_or(0))
    }

    /// The resulting graph: the lattice (the cycle at k = 1) plus one
    /// directed long-range link per node at the token's current position.
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
    use swn_topology::distribution::{ks_to_harmonic, log_log_slope};
    use swn_topology::routing::evaluate_routing;

    #[test]
    fn tokens_stay_on_the_ring() {
        let mut mf = MoveForget::ring(32, 0.1, 1);
        mf.run(500);
        for i in 0..32 {
            assert!(mf.pos[i] < 32);
        }
    }

    #[test]
    fn forgets_happen_and_reset_age() {
        // φ is 0 below age 3, so two rounds cannot forget anything.
        let mut mf = MoveForget::ring(16, 0.1, 2);
        mf.run(2);
        assert_eq!(mf.forgets(), 0, "forgets only at age ≥ 3");
        assert!(mf.age.iter().all(|&a| a == 2));
        mf.run(198);
        assert!(mf.forgets() > 0, "200 rounds must produce forgets");
        assert!(mf.age.iter().any(|&a| a < 200), "a forget resets the age");
    }

    #[test]
    fn stationary_lengths_follow_the_log_corrected_harmonic_law() {
        let n = 512;
        let mut mf = MoveForget::ring(n, 0.1, 3);
        mf.run(20_000);
        let mut lengths = Vec::new();
        for _ in 0..300 {
            mf.run(10);
            lengths.extend(mf.lengths());
        }
        // The finite-time stationary law is 1/(d·ln^{1+ε} d) — harmonic up
        // to a slowly varying factor. The corrected CDF must fit strictly
        // better than the plain harmonic one, and the log–log slope must
        // be a clear heavy-tailed power law near −1 (uniform would give 0,
        // geometric −∞).
        let ks_plain = ks_to_harmonic(&lengths, n / 2);
        let ks_corr = swn_topology::distribution::ks_to_cdf(
            &lengths,
            &swn_topology::distribution::log_corrected_harmonic_cdf(n / 2, 0.1),
        );
        assert!(
            ks_corr < ks_plain,
            "corrected {ks_corr} vs plain {ks_plain}"
        );
        assert!(ks_corr < 0.30, "KS to corrected law = {ks_corr}");
        let slope = log_log_slope(&lengths, n / 2).expect("enough bins");
        assert!((-2.2..=-1.0).contains(&slope), "slope {slope}");
    }

    #[test]
    fn converged_graph_routes_much_better_than_the_ring() {
        let n = 2048;
        let mut mf = MoveForget::ring(n, 0.1, 4);
        mf.run(20_000);
        let mf_stats = evaluate_routing(&mf.graph(), 300, 100_000, 5, None);
        let ring_stats = evaluate_routing(&crate::ring_lattice::cycle(n), 300, 100_000, 5, None);
        assert_eq!(mf_stats.success_rate(), 1.0);
        // Ring mean ≈ n/4 = 512; the move-and-forget overlay must cut it
        // by well over 2× at this (finite) convergence horizon, trending
        // to the O(ln^{2+ε} n) regime as warmup grows.
        assert!(
            mf_stats.mean_hops * 2.0 < ring_stats.mean_hops,
            "mf {} vs ring {}",
            mf_stats.mean_hops,
            ring_stats.mean_hops
        );
        assert!(
            mf_stats.mean_hops < 250.0,
            "mean hops {} suspiciously high",
            mf_stats.mean_hops
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = MoveForget::ring(64, 0.1, 9);
        let mut b = MoveForget::ring(64, 0.1, 9);
        a.run(100);
        b.run(100);
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.forgets(), b.forgets());
    }
}
