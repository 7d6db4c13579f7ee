//! **E5/E6 — Join and leave recovery in O(ln^(2+ε) n) steps**
//! (Theorem 4.24).
//!
//! E5 (join): a new node with one arbitrary contact is integrated; we
//! count the distinct nodes that forward its identifier in `lin`
//! messages (its integration path — the paper's "steps") and the rounds
//! until the sorted ring holds again.
//!
//! E6 (leave): an interior node vanishes; we count rounds to recovery and
//! the *excess* messages over the steady-state baseline rate (total
//! messages minus rate×rounds), since the protocol's regular-action
//! chatter continues regardless.
//!
//! Theorem 4.24 is a stable-state statement, so both experiments run on
//! the harmonic-seeded stationary fixture
//! ([`crate::testbed::harmonic_network`]). Shape to verify: both metrics
//! grow polylogarithmically in n (fit exponent of ln^e n stays small),
//! not linearly.

use crate::table::{f2, mean, polylog_exponent, Table};
use crate::testbed::harmonic_network;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use swn_core::config::ProtocolConfig;
use swn_core::id::NodeId;
use swn_sim::churn::{join, leave_random};
use swn_sim::parallel::run_trials;

/// Parameters for E5/E6.
#[derive(Clone, Debug)]
pub struct Params {
    /// Sizes to sweep.
    pub sizes: Vec<usize>,
    /// Trials per size.
    pub trials: usize,
    /// Round budget per recovery.
    pub max_rounds: u64,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            sizes: vec![128, 256, 512, 1024, 2048],
            trials: 20,
            max_rounds: 500_000,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            sizes: vec![64, 128, 256],
            trials: 6,
            max_rounds: 100_000,
        }
    }
}

/// Aggregated recovery metrics at one size.
#[derive(Clone, Debug)]
pub struct ChurnPoint {
    /// Network size.
    pub n: usize,
    /// Mean recovery rounds over trials.
    pub mean_rounds: f64,
    /// Worst recovery rounds over trials.
    pub max_rounds: f64,
    /// Join: mean integration-path nodes, the distinct nodes that
    /// forwarded the newcomer's id in a `lin`. Leave: mean excess
    /// messages over the steady-state rate.
    pub mean_steps: f64,
    /// Every trial re-established the sorted ring.
    pub all_recovered: bool,
}

/// Measures joins at every size.
pub fn measure_joins(p: &Params) -> Vec<ChurnPoint> {
    p.sizes
        .iter()
        .map(|&n| {
            let reports = run_trials(p.trials, |t| {
                let seed = t as u64 * 31 + n as u64;
                let mut net = harmonic_network(n, ProtocolConfig::default(), seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
                let ids = net.ids();
                let contact = ids[rng.random_range(0..ids.len())];
                // Fresh id in a random inter-node gap.
                let slot = rng.random_range(0..ids.len() - 1);
                let lo = ids[slot].bits();
                let hi = ids[slot + 1].bits();
                let new_id = NodeId::from_bits(lo + (hi - lo) / 2);
                join(&mut net, new_id, contact, p.max_rounds)
            });
            ChurnPoint {
                n,
                mean_rounds: mean(
                    &reports
                        .iter()
                        .filter_map(|r| r.rounds.map(|x| x as f64))
                        .collect::<Vec<_>>(),
                ),
                max_rounds: reports
                    .iter()
                    .filter_map(|r| r.rounds.map(|x| x as f64))
                    .fold(0.0, f64::max),
                mean_steps: mean(
                    &reports
                        .iter()
                        .map(|r| r.path_nodes as f64)
                        .collect::<Vec<_>>(),
                ),
                all_recovered: reports
                    .iter()
                    .all(swn_sim::churn::RecoveryReport::recovered),
            }
        })
        .collect()
}

/// Measures leaves at every size.
pub fn measure_leaves(p: &Params) -> Vec<ChurnPoint> {
    p.sizes
        .iter()
        .map(|&n| {
            let reports = run_trials(p.trials, |t| {
                let seed = t as u64 * 37 + n as u64;
                let mut net = harmonic_network(n, ProtocolConfig::default(), seed);
                // Steady-state message rate from a pre-leave window.
                let window = 20u64;
                let start = net.trace().len();
                net.run(window);
                let rate = net.trace().since(start).total_sent() as f64 / window as f64;
                let (_, rep) = leave_random(&mut net, seed ^ 0xdead, p.max_rounds);
                let rounds = rep.rounds.unwrap_or(p.max_rounds) as f64;
                let excess = (rep.messages as f64 - rate * rounds).max(0.0);
                (rep.rounds, rounds, excess)
            });
            ChurnPoint {
                n,
                mean_rounds: mean(
                    &reports
                        .iter()
                        .filter(|(r, _, _)| r.is_some())
                        .map(|(_, rounds, _)| *rounds)
                        .collect::<Vec<_>>(),
                ),
                max_rounds: reports
                    .iter()
                    .filter(|(r, _, _)| r.is_some())
                    .map(|(_, rounds, _)| *rounds)
                    .fold(0.0, f64::max),
                mean_steps: mean(&reports.iter().map(|(_, _, e)| *e).collect::<Vec<_>>()),
                all_recovered: reports.iter().all(|(r, _, _)| r.is_some()),
            }
        })
        .collect()
}

fn render(title: &str, claim: &str, steps_label: &str, points: &[ChurnPoint]) -> Table {
    let mut t = Table::new(
        title,
        claim,
        &[
            "n",
            "ok",
            "rounds mean",
            "rounds max",
            steps_label,
            "ln^2.1 n",
        ],
    );
    for pt in points {
        t.push_row(vec![
            pt.n.to_string(),
            if pt.all_recovered { "yes" } else { "NO" }.to_string(),
            f2(pt.mean_rounds),
            f2(pt.max_rounds),
            f2(pt.mean_steps),
            f2((pt.n as f64).ln().powf(2.1)),
        ]);
    }
    // Fit on recovery rounds: the steps column is informative per size but
    // accumulates across the re-send waves of the regular action, so the
    // clean scaling signal is the round count.
    let pts: Vec<(f64, f64)> = points
        .iter()
        .map(|pt| (pt.n as f64, pt.mean_rounds.max(1.0)))
        .collect();
    if let Some(e) = polylog_exponent(&pts) {
        t.push_row(vec![
            "fit".to_string(),
            "-".to_string(),
            f2(e),
            "-".to_string(),
            "-".to_string(),
            "rounds ~ ln^e n".to_string(),
        ]);
    }
    t
}

/// Runs E5 (join) and renders the table.
pub fn run_join(p: &Params) -> Table {
    render(
        "E5  Join integration cost vs n",
        "a node joining at an arbitrary contact integrates in O(ln^(2+eps) n) steps (Thm 4.24)",
        "path nodes",
        &measure_joins(p),
    )
}

/// Runs E6 (leave) and renders the table.
pub fn run_leave(p: &Params) -> Table {
    render(
        "E6  Leave recovery cost vs n",
        "the ring heals after an interior departure in O(ln^(2+eps) n) steps (Thm 4.24)",
        "excess msgs",
        &measure_leaves(p),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joins_recover_at_all_quick_sizes() {
        let pts = measure_joins(&Params::quick());
        for pt in &pts {
            assert!(pt.all_recovered, "n={} join failed", pt.n);
            assert!(pt.mean_steps > 0.0, "tracking must see the new id");
        }
    }

    #[test]
    fn join_path_shorter_than_contact_distance_and_shortcut_helps() {
        // At small n the asymptotic polylog has not separated from the
        // ln-factor constants yet (Kleinberg's bound carries a 1/ln n
        // halving rate), so the robust small-scale shape checks are:
        // (a) the integration path is well below the worst-case line
        //     distance (n), and
        // (b) disabling the lrl shortcut (ablation A1's plain
        //     linearization) makes the path longer.
        let n = 256;
        // The per-join path length is heavy-tailed; 8 trials can invert
        // the shortcut comparison by luck of the contact draw. 48 trials
        // separate the means cleanly.
        let trials = 48;
        let run_with = |shortcut: bool| -> f64 {
            let reports = run_trials(trials, |t| {
                let seed = t as u64 * 131 + 5;
                let cfg = ProtocolConfig {
                    epsilon: 0.1,
                    lrl_shortcut: shortcut,
                    probe_period: 1,
                };
                let mut net = harmonic_network(n, cfg, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
                let ids = net.ids();
                let contact = ids[rng.random_range(0..ids.len())];
                let slot = rng.random_range(0..ids.len() - 1);
                let new_id = NodeId::from_bits(
                    ids[slot].bits() + (ids[slot + 1].bits() - ids[slot].bits()) / 2,
                );
                let rep = join(&mut net, new_id, contact, 100_000);
                assert!(rep.recovered());
                rep.path_nodes as f64
            });
            mean(&reports)
        };
        let with = run_with(true);
        let without = run_with(false);
        assert!(
            with < n as f64 / 2.0,
            "path {with} not sublinear in n = {n}"
        );
        assert!(
            with < without,
            "shortcuts must shorten the integration path: {with} vs {without}"
        );
    }

    #[test]
    fn leaves_recover_at_all_quick_sizes() {
        let pts = measure_leaves(&Params::quick());
        for pt in &pts {
            assert!(pt.all_recovered, "n={} leave failed", pt.n);
        }
    }

    #[test]
    fn tables_render() {
        let mut p = Params::quick();
        p.sizes = vec![64];
        p.trials = 2;
        assert!(run_join(&p).render().contains("E5"));
        assert!(run_leave(&p).render().contains("E6"));
    }
}
