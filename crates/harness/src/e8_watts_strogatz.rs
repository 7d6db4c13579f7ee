//! **E8 — The Watts–Strogatz interpolation figure** (Section I.A,
//! reference \[24\]).
//!
//! The paper's whole motivation rests on the classic result that a few
//! random shortcuts collapse path lengths while leaving clustering
//! intact. We regenerate the C(p)/C(0) and L(p)/L(0) series of Watts &
//! Strogatz (Nature 1998, Fig. 2): over four decades of p, L(p) drops an
//! order of magnitude before C(p) moves — the small-world window.

use crate::table::{f3, mean, Table};
use swn_baselines::watts_strogatz::watts_strogatz;
use swn_sim::parallel::run_trials;
use swn_topology::clustering::average_clustering;
use swn_topology::paths::path_stats_sampled;

/// Lattice degree (the original paper's k = 10).
const K: usize = 10;

/// Parameters for E8.
#[derive(Clone, Debug)]
pub struct Params {
    /// Nodes.
    pub n: usize,
    /// Rewiring probabilities (0 is prepended automatically as the
    /// baseline).
    pub ps: Vec<f64>,
    /// Seeds per p.
    pub seeds: usize,
    /// BFS sources for the sampled path length.
    pub path_samples: usize,
}

impl Params {
    /// Full-scale run (the original paper's n = 1000).
    pub fn full() -> Self {
        Params {
            n: 1000,
            ps: vec![0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0],
            seeds: 20,
            path_samples: 80,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            n: 300,
            ps: vec![0.01, 0.1, 1.0],
            seeds: 5,
            path_samples: 40,
        }
    }
}

/// One p's normalized statistics.
#[derive(Clone, Copy, Debug)]
pub struct WsPoint {
    /// Rewiring probability.
    pub p: f64,
    /// C(p)/C(0).
    pub c_ratio: f64,
    /// L(p)/L(0).
    pub l_ratio: f64,
}

/// Measures the normalized series.
pub fn measure(params: &Params) -> Vec<WsPoint> {
    let base = watts_strogatz(params.n, K, 0.0, 0);
    let c0 = average_clustering(&base);
    let l0 = path_stats_sampled(&base, params.path_samples, 0).avg;
    params
        .ps
        .iter()
        .map(|&p| {
            let results = run_trials(params.seeds, |s| {
                let g = watts_strogatz(params.n, K, p, s as u64 * 131 + 7);
                (
                    average_clustering(&g),
                    path_stats_sampled(&g, params.path_samples, s as u64).avg,
                )
            });
            let cs: Vec<f64> = results.iter().map(|r| r.0).collect();
            let ls: Vec<f64> = results.iter().map(|r| r.1).collect();
            WsPoint {
                p,
                c_ratio: mean(&cs) / c0,
                l_ratio: mean(&ls) / l0,
            }
        })
        .collect()
}

/// Runs E8 and renders the table.
pub fn run(params: &Params) -> Table {
    let pts = measure(params);
    let mut t = Table::new(
        format!(
            "E8  Watts-Strogatz interpolation (n = {}, k = {})",
            params.n, K
        ),
        "L(p) collapses an order of magnitude before C(p) drops — the small-world window ([24], Fig. 2)",
        &["p", "C(p)/C(0)", "L(p)/L(0)"],
    );
    for pt in pts {
        t.push_row(vec![format!("{}", pt.p), f3(pt.c_ratio), f3(pt.l_ratio)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_window_exists() {
        let mut p = Params::quick();
        p.ps = vec![0.01, 1.0];
        let pts = measure(&p);
        let sw = pts[0]; // p = 0.01
        let rnd = pts[1]; // p = 1
        assert!(
            sw.c_ratio > 0.75,
            "C must stay high at p=0.01: {}",
            sw.c_ratio
        );
        assert!(
            sw.l_ratio < 0.6,
            "L must collapse at p=0.01: {}",
            sw.l_ratio
        );
        assert!(rnd.c_ratio < 0.2, "C must vanish at p=1: {}", rnd.c_ratio);
    }

    #[test]
    fn l_is_monotone_down_in_p() {
        let mut p = Params::quick();
        p.ps = vec![0.01, 0.1, 1.0];
        let pts = measure(&p);
        assert!(pts[0].l_ratio >= pts[1].l_ratio - 0.05);
        assert!(pts[1].l_ratio >= pts[2].l_ratio - 0.05);
    }

    #[test]
    fn table_renders_one_row_per_p() {
        let mut p = Params::quick();
        p.ps = vec![0.05];
        p.seeds = 2;
        let t = run(&p);
        assert_eq!(t.rows.len(), 1);
    }
}
