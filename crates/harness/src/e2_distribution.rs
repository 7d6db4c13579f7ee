//! **E2 — The long-range-link length distribution converges to the
//! (log-corrected) harmonic law** (Theorem 4.22, Fact 4.21, reference \[4\]).
//!
//! Two systems are measured side by side:
//!
//! * the **self-stabilized protocol**: full message-passing simulation on
//!   the formed ring, link lengths sampled from snapshots;
//! * the **pure move-and-forget process** of Chaintreau et al. — the
//!   single-walker reference the stable protocol is compared with (the
//!   protocol's token is several interleaved walkers, not exactly that
//!   process; DESIGN.md §2 note 9).
//!
//! Reported per system: KS distance to the plain harmonic CDF, KS to the
//! log-corrected law `1/(d·(1+ln d)^(1+ε))` (the finite-scale stationary
//! law — it must fit better), and the log–log density slope (≈ −1 for a
//! harmonic-family power law).

use crate::table::{f3, Table};
use swn_baselines::chaintreau::MoveForget;
use swn_core::config::ProtocolConfig;
use swn_sim::churn::stable_network;
use swn_sim::parallel::run_trials;
use swn_topology::distribution::{
    ks_to_cdf, ks_to_harmonic, log_corrected_harmonic_cdf, log_log_slope, lrl_lengths_view,
};

/// Parameters for E2.
#[derive(Clone, Debug)]
pub struct Params {
    /// Ring sizes.
    pub sizes: Vec<usize>,
    /// Warmup rounds before sampling.
    pub warmup: u64,
    /// Number of sampling epochs (one snapshot each).
    pub epochs: usize,
    /// Rounds between sampling epochs.
    pub epoch_gap: u64,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            sizes: vec![256, 1024],
            warmup: 20_000,
            epochs: 200,
            epoch_gap: 20,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            sizes: vec![128],
            warmup: 4_000,
            epochs: 60,
            epoch_gap: 10,
        }
    }
}

/// Distribution statistics for one system at one size.
#[derive(Clone, Copy, Debug)]
pub struct FitStats {
    /// Link-length samples collected.
    pub samples: usize,
    /// KS distance to the plain harmonic CDF.
    pub ks_harmonic: f64,
    /// KS distance to the log-corrected harmonic CDF.
    pub ks_corrected: f64,
    /// Log-log density slope (harmonic family: near -1).
    pub slope: f64,
}

fn fit(lengths: &[usize], max_d: usize) -> FitStats {
    let epsilon = ProtocolConfig::default().epsilon;
    FitStats {
        samples: lengths.len(),
        ks_harmonic: ks_to_harmonic(lengths, max_d),
        ks_corrected: ks_to_cdf(lengths, &log_corrected_harmonic_cdf(max_d, epsilon)),
        slope: log_log_slope(lengths, max_d).unwrap_or(f64::NAN),
    }
}

/// Measures the protocol's stable-state link lengths at size `n`.
pub fn protocol_fit(n: usize, p: &Params, seed: u64) -> FitStats {
    let mut net = stable_network(n, ProtocolConfig::default(), seed, p.warmup);
    let mut lengths = Vec::new();
    for _ in 0..p.epochs {
        net.run(p.epoch_gap);
        lengths.extend(lrl_lengths_view(&net.view()));
    }
    fit(&lengths, n / 2)
}

/// Measures the pure move-and-forget baseline at size `n`.
pub fn baseline_fit(n: usize, p: &Params, seed: u64) -> FitStats {
    let mut mf = MoveForget::ring(n, ProtocolConfig::default().epsilon, seed);
    mf.run(p.warmup);
    let mut lengths = Vec::new();
    for _ in 0..p.epochs {
        mf.run(p.epoch_gap);
        lengths.extend(mf.lengths());
    }
    fit(&lengths, n / 2)
}

/// Runs E2 and renders the table.
pub fn run(p: &Params) -> Table {
    let mut t = Table::new(
        "E2  Long-range link length distribution",
        "stable-state lrl lengths follow the harmonic law up to the finite-scale ln^(1+eps) correction; \
         protocol and move-and-forget share the length band, not the dynamics (several \
         walkers per node; Thm 4.22 / [4])",
        &[
            "system", "n", "samples", "KS harm", "KS corr", "slope",
        ],
    );
    // One trial per (size, system) cell, in parallel. Each cell's seed
    // depends only on its size, so the table is identical no matter how
    // many workers ran it.
    let fits = run_trials(p.sizes.len() * 2, |i| {
        let n = p.sizes[i / 2];
        let seed = 42 + n as u64;
        if i % 2 == 0 {
            protocol_fit(n, p, seed)
        } else {
            baseline_fit(n, p, seed)
        }
    });
    for (i, stats) in fits.iter().enumerate() {
        let n = p.sizes[i / 2];
        let label = if i % 2 == 0 {
            "protocol"
        } else {
            "move-forget"
        };
        t.push_row(vec![
            label.to_string(),
            n.to_string(),
            stats.samples.to_string(),
            f3(stats.ks_harmonic),
            f3(stats.ks_corrected),
            f3(stats.slope),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_matches_baseline_shape() {
        let mut p = Params::quick();
        // The log-log slope estimator is noisy at quick() sample counts;
        // triple the epochs so the slope comparison below is a property
        // of the distributions rather than of one epoch draw.
        p.epochs = 180;
        let proto = protocol_fit(128, &p, 7);
        let base = baseline_fit(128, &p, 7);
        assert!(proto.samples > 1000, "too few samples: {}", proto.samples);
        // Both systems must fit the corrected law better than plain
        // harmonic, with a clear power-law slope.
        for (label, s) in [("protocol", proto), ("baseline", base)] {
            assert!(
                s.ks_corrected < s.ks_harmonic,
                "{label}: corrected {} ≥ plain {}",
                s.ks_corrected,
                s.ks_harmonic
            );
            assert!(s.ks_corrected < 0.35, "{label}: KS {}", s.ks_corrected);
            assert!(
                (-2.4..=-0.9).contains(&s.slope),
                "{label}: slope {}",
                s.slope
            );
        }
        // And they must agree with each other.
        assert!(
            (proto.ks_corrected - base.ks_corrected).abs() < 0.15,
            "protocol {} vs baseline {}",
            proto.ks_corrected,
            base.ks_corrected
        );
        assert!((proto.slope - base.slope).abs() < 0.6);
    }

    #[test]
    fn table_has_two_rows_per_size() {
        let mut p = Params::quick();
        p.sizes = vec![64];
        p.warmup = 500;
        p.epochs = 20;
        let t = run(&p);
        assert_eq!(t.rows.len(), 2);
    }
}
