//! **E9 — Stable-state message overhead and the forget horizon**
//! (Section IV.F; the O(n) w.h.p. bound in the proof of Theorem 4.22).
//!
//! Two measurements:
//!
//! * **messages per node per round**, by kind, on a stabilized network —
//!   the protocol's standing cost. Shape: a small constant (2 lin + 2
//!   echoes + 1 inclrl + replies + probes), independent of n.
//! * **rounds until every long-range link has been forgotten at least
//!   once**, vs n — the Theorem 4.22 proof needs this to be O(n) w.h.p.;
//!   measured on the fast move-and-forget baseline (median over seeds,
//!   since the w.h.p. bound has a polynomial tail).

use crate::table::{f2, Table};
use swn_baselines::chaintreau::MoveForget;
use swn_core::config::ProtocolConfig;
use swn_core::message::MessageKind;
use swn_sim::churn::stable_network;
use swn_sim::parallel::run_trials;

/// Parameters for E9.
#[derive(Clone, Debug)]
pub struct Params {
    /// Sizes for the per-round message census.
    pub sizes: Vec<usize>,
    /// Warmup before the census.
    pub warmup: u64,
    /// Census window (rounds).
    pub window: u64,
    /// Horizon (in multiples of n) for the max-age measurement.
    pub age_horizon_factor: u64,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            sizes: vec![128, 256, 512, 1024, 2048],
            warmup: 3_000,
            window: 300,
            age_horizon_factor: 50,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            sizes: vec![64, 128],
            warmup: 800,
            window: 100,
            age_horizon_factor: 20,
        }
    }
}

/// Message census at one size.
#[derive(Clone, Debug)]
pub struct Census {
    /// Network size.
    pub n: usize,
    /// Mean messages per node per round, by kind index.
    pub per_kind: [f64; MessageKind::COUNT],
    /// Total mean messages per node per round.
    pub total: f64,
}

/// Runs the stable-state message census.
pub fn census(n: usize, p: &Params, seed: u64) -> Census {
    let mut net = stable_network(n, ProtocolConfig::default(), seed, p.warmup);
    let start = net.trace().len();
    net.run(p.window);
    let sent = net.trace().since(start).sent;
    let denom = (n as u64 * p.window) as f64;
    let mut per_kind = [0f64; MessageKind::COUNT];
    for (v, &s) in per_kind.iter_mut().zip(&sent) {
        *v = s as f64 / denom;
    }
    Census {
        n,
        per_kind,
        total: per_kind.iter().sum(),
    }
}

/// Rounds until every token has been forgotten at least once — the
/// quantity the Theorem 4.22 proof bounds by O(n) w.h.p. Measured on the
/// fast baseline with a `factor·n` round budget.
pub fn rounds_all_forgotten(n: usize, p: &Params, seed: u64) -> u64 {
    let mut mf = MoveForget::ring(n, ProtocolConfig::default().epsilon, seed);
    mf.rounds_until_all_forgotten(p.age_horizon_factor * n as u64)
        .unwrap_or(p.age_horizon_factor * n as u64)
}

/// Median of [`rounds_all_forgotten`] over several seeds — the "w.h.p."
/// in the O(n) bound leaves a polynomially decaying tail (a single run
/// can legitimately blow past any fixed multiple of n), so the median is
/// the stable summary.
pub fn rounds_all_forgotten_median(n: usize, p: &Params, seeds: usize) -> u64 {
    // Per-seed trials in parallel; each seed is a function of the trial
    // index alone, so the median is worker-count independent.
    let mut xs = run_trials(seeds, |s| {
        rounds_all_forgotten(n, p, 99 + s as u64 * 7 + n as u64)
    });
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Runs E9 and renders the table.
pub fn run(p: &Params) -> Table {
    let mut t = Table::new(
        "E9  Stable-state overhead and forget horizon",
        "messages per node per round are O(1) independent of n; all links are forgotten at least once within O(n) rounds w.h.p. (Sec. IV.F / Thm 4.22)",
        &[
            "n", "msgs/node/rd", "lin", "inclrl", "reslrl", "prob", "ring+res",
            "all-forgot rd", "rd/n",
        ],
    );
    // One trial per size (the census simulation dominates); seeds depend
    // only on n, so the table is worker-count independent.
    let rows = run_trials(p.sizes.len(), |i| {
        let n = p.sizes[i];
        (
            census(n, p, 99 + n as u64),
            rounds_all_forgotten_median(n, p, 5),
        )
    });
    for (c, age) in rows {
        let n = c.n;
        let k = |kind: MessageKind| c.per_kind[kind.index()];
        t.push_row(vec![
            n.to_string(),
            f2(c.total),
            f2(k(MessageKind::Lin)),
            f2(k(MessageKind::IncLrl)),
            f2(k(MessageKind::ResLrl)),
            f2(k(MessageKind::ProbR) + k(MessageKind::ProbL)),
            f2(k(MessageKind::Ring) + k(MessageKind::ResRing)),
            age.to_string(),
            f2(age as f64 / n as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_rate_is_constant_in_n() {
        let p = Params::quick();
        let small = census(64, &p, 1);
        let large = census(128, &p, 1);
        // O(1)/node/round: the two rates differ by a small factor only.
        assert!(
            (small.total - large.total).abs() / small.total < 0.25,
            "rates {} vs {} not O(1)",
            small.total,
            large.total
        );
        // The floor: every node sends ≥ 2 lin + 1 inclrl per round.
        assert!(large.total >= 3.0, "rate {} below the floor", large.total);
        assert!(large.total < 15.0, "rate {} absurdly high", large.total);
    }

    #[test]
    fn every_kind_appears_in_stable_state() {
        let p = Params::quick();
        let c = census(64, &p, 5);
        assert!(c.per_kind[MessageKind::Lin.index()] > 1.5);
        assert!(c.per_kind[MessageKind::IncLrl.index()] > 0.9);
        assert!(c.per_kind[MessageKind::ResLrl.index()] > 0.5);
        // Probes exist whenever tokens are off-origin.
        assert!(
            c.per_kind[MessageKind::ProbR.index()] + c.per_kind[MessageKind::ProbL.index()] > 0.1
        );
    }

    #[test]
    fn all_links_forgotten_within_linear_rounds() {
        let p = Params::quick();
        // Median over seeds: the O(n) bound holds w.h.p. with a
        // polynomial tail, so single runs may run long.
        let a64 = rounds_all_forgotten_median(64, &p, 5).max(1);
        let a256 = rounds_all_forgotten_median(256, &p, 5).max(1);
        let r64 = a64 as f64 / 64.0;
        let r256 = a256 as f64 / 256.0;
        assert!(r64 < 10.0, "median rounds/n at 64: {r64}");
        assert!(r256 < 10.0, "median rounds/n at 256: {r256}");
    }

    #[test]
    fn table_has_one_row_per_size() {
        let mut p = Params::quick();
        p.sizes = vec![64];
        let t = run(&p);
        assert_eq!(t.rows.len(), 1);
    }
}
