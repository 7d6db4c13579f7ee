//! Static Kleinberg small worlds (STOC 2000) on the 1-D ring.
//!
//! The construction the self-stabilizing protocol converges to, built
//! directly: the cycle plus one long-range link per node whose length is
//! drawn from the 1-harmonic distribution. Also provides the *uniform*
//! shortcut variant, which by Kleinberg's lower bound does **not** admit
//! polylogarithmic greedy routing — the contrast baseline for experiment
//! E3.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use swn_topology::distribution::{harmonic_cdf, sample_harmonic};
use swn_topology::Graph;

/// The cycle on `n` ranks plus one directed harmonic long-range link per
/// node (link direction chosen uniformly, matching the ring symmetry of
/// the move-and-forget process).
pub fn kleinberg_ring(n: usize, seed: u64) -> Graph {
    assert!(n >= 4, "need at least 4 nodes, got {n}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = crate::ring_lattice::cycle(n);
    let max_d = n / 2;
    let cdf = harmonic_cdf(max_d);
    for i in 0..n {
        let target = loop {
            let d = sample_harmonic(&cdf, &mut rng);
            let right = rng.random_bool(0.5);
            // For even n the two directions at d = n/2 name the same
            // (antipodal) node; accepting both would give it twice the
            // per-node harmonic weight, so one of them is rejected.
            if n.is_multiple_of(2) && d == max_d && !right {
                continue;
            }
            break if right { (i + d) % n } else { (i + n - d) % n };
        };
        g.add_edge(i, target);
    }
    g
}

/// The cycle plus one *uniformly random* long-range link per node — the
/// exponent-0 member of Kleinberg's family, with polynomial greedy
/// routing.
pub fn uniform_shortcut_ring(n: usize, seed: u64) -> Graph {
    assert!(n >= 4, "need at least 4 nodes, got {n}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = crate::ring_lattice::cycle(n);
    for i in 0..n {
        let mut t = rng.random_range(0..n);
        while t == i {
            t = rng.random_range(0..n);
        }
        g.add_edge(i, t);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_topology::connectivity::is_weakly_connected;
    use swn_topology::paths::ring_distance;
    use swn_topology::routing::evaluate_routing;

    #[test]
    fn kleinberg_has_one_shortcut_per_node() {
        let g = kleinberg_ring(64, 1);
        // cycle m = 128 directed edges + ≤ 64 shortcuts (dedup may eat a
        // few that coincide with ring edges).
        assert!(g.m() > 128 && g.m() <= 192);
        assert!(is_weakly_connected(&g));
    }

    #[test]
    fn kleinberg_shortcut_lengths_are_harmonic() {
        let n = 1024;
        let g = kleinberg_ring(n, 7);
        let mut lengths = Vec::new();
        for u in 0..n {
            for &v in g.neighbors(u) {
                let d = ring_distance(u, v as usize, n);
                if d > 1 {
                    lengths.push(d);
                }
            }
        }
        let ks = swn_topology::distribution::ks_to_harmonic(&lengths, n / 2);
        // Lengths 2..n/2 of the harmonic law (length-1 samples merge into
        // ring edges): still close to the harmonic CDF.
        assert!(ks < 0.25, "KS = {ks}");
        let slope = swn_topology::distribution::log_log_slope(&lengths, n / 2).unwrap();
        assert!((-1.4..=-0.6).contains(&slope), "slope = {slope}");
    }

    #[test]
    fn harmonic_beats_uniform_at_greedy_routing() {
        let n = 4096;
        let harm = evaluate_routing(&kleinberg_ring(n, 3), 400, 10_000, 5, None);
        let unif = evaluate_routing(&uniform_shortcut_ring(n, 3), 400, 10_000, 5, None);
        assert_eq!(harm.success_rate(), 1.0);
        assert_eq!(unif.success_rate(), 1.0);
        assert!(
            harm.mean_hops * 1.5 < unif.mean_hops,
            "harmonic ({}) must clearly beat uniform ({})",
            harm.mean_hops,
            unif.mean_hops
        );
    }

    #[test]
    fn routing_scales_polylogarithmically() {
        // hops(4n)/hops(n) for polylog growth is ≈ (ln 4n / ln n)^2 ≈ 1.3,
        // for linear growth 4. Accept anything clearly sublinear.
        let small = evaluate_routing(&kleinberg_ring(1024, 11), 600, 100_000, 2, None);
        let large = evaluate_routing(&kleinberg_ring(4096, 11), 600, 100_000, 2, None);
        let ratio = large.mean_hops / small.mean_hops;
        assert!(ratio < 2.5, "hops ratio {ratio} too large for polylog");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = kleinberg_ring(128, 9);
        let b = kleinberg_ring(128, 9);
        assert_eq!(a, b);
        assert_ne!(a, kleinberg_ring(128, 10));
    }
}
