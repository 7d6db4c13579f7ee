//! Erdős–Rényi random graphs — the "disordered" reference point.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use swn_topology::Graph;

/// G(n, m): exactly `m` distinct undirected edges drawn uniformly.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max_m = n * (n.saturating_sub(1)) / 2;
    assert!(m <= max_m, "m = {m} exceeds max {max_m} for n = {n}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let mut placed = 0usize;
    let mut seen = std::collections::HashSet::new();
    while placed < m {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            g.add_edge(u, v);
            g.add_edge(v, u);
            placed += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_topology::clustering::average_clustering;

    #[test]
    fn gnm_places_exact_edge_count() {
        let g = gnm(50, 100, 1);
        assert_eq!(g.m(), 200, "100 undirected edges stored both ways");
    }

    #[test]
    fn random_graphs_have_low_clustering() {
        let g = gnm(500, 2500, 3); // mean degree 10
        let c = average_clustering(&g);
        // Expected C ≈ k/n = 0.02.
        assert!(c < 0.08, "clustering {c} too high for ER");
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(gnm(40, 60, 9), gnm(40, 60, 9));
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn gnm_rejects_impossible_m() {
        let _ = gnm(4, 100, 1);
    }
}
