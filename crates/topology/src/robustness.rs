//! Failure and attack robustness (Section I / IV.G, reference \[25\]).
//!
//! The paper motivates small-world overlays over uniformly structured
//! ones (CAN/Pastry/Chord) partly by robustness. These sweeps remove a
//! growing fraction of nodes — uniformly at random ("failures") or
//! highest-degree-first ("attacks") — and measure what is left: the giant
//! component fraction and the greedy-routing success rate among
//! survivors.

use crate::connectivity::largest_component;
use crate::graph::Graph;
use crate::routing::evaluate_routing;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How victims are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureMode {
    /// Uniformly random node failures.
    Random,
    /// Adversarial attack: remove highest-degree nodes first.
    TargetedHighestDegree,
}

/// One point of a robustness sweep.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Fraction of nodes removed.
    pub removed_frac: f64,
    /// Largest surviving weak component as a fraction of survivors.
    pub giant_frac: f64,
    /// Greedy-routing success rate among survivors.
    pub routing_success: f64,
}

/// Removes `⌊frac·n⌋` nodes per `mode` and returns the mask of removed
/// nodes (true = removed).
pub fn removal_mask(g: &Graph, frac: f64, mode: FailureMode, seed: u64) -> Vec<bool> {
    assert!((0.0..=1.0).contains(&frac), "fraction out of range: {frac}");
    let n = g.n();
    // frac ∈ [0, 1] (asserted above), so the product is in [0, n].
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let k = ((n as f64) * frac).floor() as usize;
    let mut removed = vec![false; n];
    match mode {
        FailureMode::Random => {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            for &v in order.iter().take(k) {
                removed[v] = true;
            }
        }
        FailureMode::TargetedHighestDegree => {
            // Attack by *undirected* degree, recomputed statically (the
            // classic Albert–Jeong–Barabási protocol); ties broken by
            // index for determinism.
            let und = g.undirected_view();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&v| (std::cmp::Reverse(und.out_degree(v)), v));
            for &v in order.iter().take(k) {
                removed[v] = true;
            }
        }
    }
    removed
}

/// Runs a full sweep over the given removal fractions.
pub fn sweep(
    g: &Graph,
    fractions: &[f64],
    mode: FailureMode,
    routing_pairs: usize,
    seed: u64,
) -> Vec<RobustnessPoint> {
    let n = g.n();
    fractions
        .iter()
        .map(|&frac| {
            let removed = removal_mask(g, frac, mode, seed);
            let survivors = removed.iter().filter(|&&r| !r).count();
            let damaged = g.without_nodes(&removed);
            let giant = largest_component(&damaged, Some(&removed));
            let alive: Vec<bool> = removed.iter().map(|&r| !r).collect();
            let routing = evaluate_routing(
                &damaged,
                routing_pairs,
                (4 * u32::try_from(n).expect("graph size fits u32")).max(64),
                seed ^ 0xabcd,
                Some(&alive),
            );
            RobustnessPoint {
                removed_frac: frac,
                giant_frac: if survivors == 0 {
                    0.0
                } else {
                    giant as f64 / survivors as f64
                },
                routing_success: routing.success_rate(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with_chords(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
            g.add_edge((i + 1) % n, i);
            g.add_edge(i, (i + n / 4) % n);
        }
        g
    }

    #[test]
    fn zero_removal_is_fully_connected() {
        let g = ring_with_chords(32);
        let pts = sweep(&g, &[0.0], FailureMode::Random, 100, 1);
        assert_eq!(pts.len(), 1);
        assert!((pts[0].giant_frac - 1.0).abs() < 1e-12);
        assert!((pts[0].routing_success - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_mask_removes_exact_count() {
        let g = ring_with_chords(40);
        let mask = removal_mask(&g, 0.25, FailureMode::Random, 3);
        assert_eq!(mask.iter().filter(|&&r| r).count(), 10);
    }

    #[test]
    fn targeted_mask_takes_highest_degree_first() {
        let mut g = Graph::new(6);
        // Node 0 is a hub.
        for v in 1..6 {
            g.add_edge(0, v);
            g.add_edge(v, 0);
        }
        g.add_edge(1, 2);
        let mask = removal_mask(&g, 1.0 / 6.0, FailureMode::TargetedHighestDegree, 1);
        assert!(mask[0], "hub must be attacked first");
        assert_eq!(mask.iter().filter(|&&r| r).count(), 1);
    }

    #[test]
    fn giant_component_degrades_with_removal() {
        let g = ring_with_chords(64);
        let pts = sweep(&g, &[0.0, 0.3, 0.6], FailureMode::Random, 100, 7);
        assert!(pts[0].giant_frac >= pts[2].giant_frac - 1e-9);
    }

    #[test]
    fn full_removal_yields_zero() {
        let g = ring_with_chords(16);
        let pts = sweep(&g, &[1.0], FailureMode::Random, 50, 5);
        assert_eq!(pts[0].giant_frac, 0.0);
        assert_eq!(pts[0].routing_success, 0.0);
    }

    #[test]
    fn attack_hurts_hub_graph_more_than_random_failure() {
        // Star-of-cliques: one hub holding everything together.
        let mut g = Graph::new(41);
        for c in 0..4 {
            let base = 1 + c * 10;
            for i in 0..10 {
                for j in (i + 1)..10 {
                    g.add_edge(base + i, base + j);
                    g.add_edge(base + j, base + i);
                }
            }
            g.add_edge(0, base);
            g.add_edge(base, 0);
        }
        let frac = 1.0 / 41.0; // exactly one victim
        let rnd: f64 = (0..20)
            .map(|s| sweep(&g, &[frac], FailureMode::Random, 0, s)[0].giant_frac)
            .sum::<f64>()
            / 20.0;
        let tgt = sweep(&g, &[frac], FailureMode::TargetedHighestDegree, 0, 1)[0].giant_frac;
        assert!(
            tgt < rnd,
            "attacking the hub ({tgt}) must hurt more than random failure ({rnd})"
        );
    }
}
