//! **E1 — Convergence from any weakly connected initial state**
//! (Theorems 4.3, 4.9, 4.18, 4.22).
//!
//! For every adversarial initial-state family and every size, run many
//! seeded trials to the sorted ring and report when each phase milestone
//! was reached, how many messages it took, and whether the phase
//! properties were monotone once established (the proof says they must
//! be). The headline claims reproduced: **every** trial stabilizes, and
//! **no** trial ever regresses a completed phase.

use crate::table::{f2, fmax, mean, Table};
use swn_core::config::ProtocolConfig;
use swn_core::id::random_ids;
use swn_sim::convergence::{run_to_ring, ConvergenceReport};
use swn_sim::init::{generate, InitialTopology};
use swn_sim::parallel::run_trials;

/// Parameters for E1.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Trials (seeds) per (family, size) cell.
    pub trials: usize,
    /// Initial-state families.
    pub families: Vec<InitialTopology>,
    /// Per-trial round budget.
    pub max_rounds: u64,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            sizes: vec![16, 32, 64, 128, 256, 512],
            trials: 15,
            families: vec![
                InitialTopology::RandomSparse { extra: 3 },
                InitialTopology::Star,
                InitialTopology::Clique,
                InitialTopology::RandomChain,
                InitialTopology::TwoBlobs,
                InitialTopology::CorruptedRing { corruptions: 8 },
            ],
            max_rounds: 2_000_000,
        }
    }

    /// Reduced scale for smoke tests.
    pub fn quick() -> Self {
        Params {
            sizes: vec![16, 32, 64],
            trials: 6,
            families: vec![
                InitialTopology::RandomSparse { extra: 3 },
                InitialTopology::Star,
                InitialTopology::RandomChain,
            ],
            max_rounds: 200_000,
        }
    }
}

/// One (family, size) cell's aggregated trials.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The initial-state family.
    pub family: InitialTopology,
    /// Network size.
    pub n: usize,
    /// Per-trial convergence reports.
    pub reports: Vec<ConvergenceReport>,
}

impl Cell {
    /// No trial regressed an established phase.
    pub fn all_monotone(&self) -> bool {
        self.reports.iter().all(|r| r.monotone)
    }
}

/// Runs the sweep and returns the raw cells (for tests) — the
/// trials inside each cell run in parallel.
pub fn run_cells(p: &Params) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &family in &p.families {
        for &n in &p.sizes {
            let reports = run_trials(p.trials, |t| {
                let seed = (t as u64) * 7919 + n as u64;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1d5);
                let ids = random_ids(n, &mut rng);
                let mut net =
                    generate(family, &ids, ProtocolConfig::default(), seed).into_network(seed);
                run_to_ring(&mut net, p.max_rounds)
            });
            cells.push(Cell { family, n, reports });
        }
    }
    cells
}

/// Runs E1 and renders the result table.
pub fn run(p: &Params) -> Table {
    let cells = run_cells(p);
    let mut t = Table::new(
        "E1  Convergence from adversarial initial states",
        "every weakly connected start stabilizes to the sorted ring; phases never regress (Thms 4.3/4.9/4.18)",
        &[
            "family",
            "n",
            "trials",
            "ok",
            "monotone",
            "rounds p50",
            "rounds max",
            "lcc@",
            "list@",
            "msgs/node",
        ],
    );
    for c in &cells {
        let rounds: Vec<f64> = c
            .reports
            .iter()
            .filter_map(|r| r.rounds_to_ring.map(|x| x as f64))
            .collect();
        let mut sorted = rounds.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = sorted.get(sorted.len() / 2).copied().unwrap_or(f64::NAN);
        let lcc: Vec<f64> = c
            .reports
            .iter()
            .filter_map(|r| r.rounds_to_lcc.map(|x| x as f64))
            .collect();
        let list: Vec<f64> = c
            .reports
            .iter()
            .filter_map(|r| r.rounds_to_list.map(|x| x as f64))
            .collect();
        let msgs: Vec<f64> = c
            .reports
            .iter()
            .map(|r| r.messages_to_ring as f64 / c.n as f64)
            .collect();
        t.push_row(vec![
            c.family.label().to_string(),
            c.n.to_string(),
            c.reports.len().to_string(),
            format!(
                "{}/{}",
                c.reports.iter().filter(|r| r.stabilized()).count(),
                c.reports.len()
            ),
            if c.all_monotone() { "yes" } else { "NO" }.to_string(),
            f2(p50),
            f2(fmax(&rounds)),
            f2(mean(&lcc)),
            f2(mean(&list)),
            f2(mean(&msgs)),
        ]);
    }
    t
}

use rand::SeedableRng as _;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_fully_stabilizes_and_is_monotone() {
        let cells = run_cells(&Params::quick());
        for c in &cells {
            for (t, r) in c.reports.iter().enumerate() {
                assert!(
                    r.stabilized(),
                    "{} n={} trial {t} did not stabilize",
                    c.family.label(),
                    c.n
                );
            }
            assert!(
                c.all_monotone(),
                "{} n={} regressed a phase",
                c.family.label(),
                c.n
            );
        }
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let p = Params {
            sizes: vec![16, 32],
            trials: 3,
            families: vec![InitialTopology::Star, InitialTopology::RandomChain],
            max_rounds: 100_000,
        };
        let t = run(&p);
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("E1"));
    }

    #[test]
    fn phase_milestones_are_ordered() {
        let p = Params {
            sizes: vec![24],
            trials: 4,
            families: vec![InitialTopology::Clique],
            max_rounds: 100_000,
        };
        for c in run_cells(&p) {
            for r in &c.reports {
                assert!(r.rounds_to_lcc <= r.rounds_to_list);
                assert!(r.rounds_to_list <= r.rounds_to_ring);
            }
        }
    }
}
