//! **E4 — Probing reaches its destination in O(ln^(2+ε) d) hops and never
//! creates edges in the stable state** (Theorem 4.3, Lemma 4.23).
//!
//! Lemma 4.23 is a statement about the *stable state* (stationary
//! harmonic links), so the fixture is the harmonic-seeded network of
//! [`crate::testbed::harmonic_network`], kept running so tokens continue
//! to walk between sampling epochs. Probe paths are replayed through
//! `Node::on_message` on the live network's borrowed view (see
//! [`crate::probe_walk`]) — the shipped handlers, nothing cloned but the
//! node a hop runs on — and bucketed by the distance d between the
//! prober and its long-range endpoint.
//!
//! Distance is measured along the **id line**, not the ring: probes walk
//! monotonically by identifier (Algorithms 5/6 never cross the seam), so
//! a long-range link that wrapped around the seam during its random walk
//! is a genuinely long probe on the line even if the ring distance is
//! short. Shape to verify: mean hops per bucket grows like ln^(2+ε) d,
//! not like d; zero repairs.

use crate::probe_walk::{replay_lrl_probe, ProbeOutcome};
use crate::table::{f2, mean, Table};
use crate::testbed::harmonic_network;
use swn_core::config::ProtocolConfig;
use swn_sim::parallel::run_trials;

/// Parameters for E4.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Shakedown rounds before sampling (the fixture is harmonic-seeded,
    /// so this only lets reslrl traffic settle — it is not a mixing
    /// warmup).
    pub warmup: u64,
    /// Sampling epochs (probe populations accumulate across them).
    pub epochs: usize,
    /// Rounds between sampling epochs.
    pub epoch_gap: u64,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            n: 2048,
            warmup: 200,
            epochs: 120,
            epoch_gap: 25,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            n: 256,
            warmup: 100,
            epochs: 40,
            epoch_gap: 15,
        }
    }
}

/// Raw measurement: per-bucket (lo, hi, mean hops, samples) plus the
/// repair/divergence counters.
#[derive(Clone, Debug, Default)]
pub struct ProbeMeasurement {
    /// (bucket_lo, bucket_hi_exclusive, mean_hops, samples).
    pub buckets: Vec<(usize, usize, f64, usize)>,
    /// Probes that would have created an edge (must be 0 when stable).
    pub repairs: u64,
    /// Probes that walked into a cycle (must be 0).
    pub diverged: u64,
}

/// Runs the probe replay sweep.
pub fn measure(p: &Params, seed: u64) -> ProbeMeasurement {
    let mut net = harmonic_network(p.n, ProtocolConfig::default(), seed);
    net.run(p.warmup); // links are pre-seeded, so this is a shakedown only
                       // hops-by-distance samples.
    let mut samples: Vec<(usize, u32)> = Vec::new();
    let mut m = ProbeMeasurement::default();
    for _ in 0..p.epochs {
        net.run(p.epoch_gap);
        let v = net.view();
        // Probe replays are independent deterministic walks over the
        // borrowed view, so fan them out and fold in rank order —
        // results do not depend on the worker count.
        let outcomes = run_trials(v.len(), |rank| replay_lrl_probe(&v, rank));
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Some(ProbeOutcome::Arrived { hops }) => {
                    let target = v
                        .index_of(v.node(rank).lrl())
                        .expect("arrived ⇒ target exists");
                    // Line (rank) distance: the metric the probe walks.
                    let d = rank.abs_diff(target);
                    if d > 0 {
                        samples.push((d, hops));
                    }
                }
                Some(ProbeOutcome::Repaired { .. }) => m.repairs += 1,
                Some(ProbeOutcome::Diverged) => m.diverged += 1,
                None => {}
            }
        }
    }
    // Logarithmic distance buckets: [1,2), [2,4), ... up to the line span.
    let mut lo = 1usize;
    while lo < p.n {
        let hi = (lo * 2).min(p.n);
        let hops: Vec<f64> = samples
            .iter()
            .filter(|(d, _)| *d >= lo && *d < hi)
            .map(|(_, h)| *h as f64)
            .collect();
        if !hops.is_empty() {
            m.buckets.push((lo, hi, mean(&hops), hops.len()));
        }
        lo *= 2;
    }
    m
}

/// Runs E4 and renders the table.
pub fn run(p: &Params) -> Table {
    let m = measure(p, 4242);
    let mut t = Table::new(
        format!("E4  Probing hops vs distance (n = {})", p.n),
        "stable-state probes arrive in O(ln^(2+eps) d) hops and never add edges (Thm 4.3 / Lemma 4.23)",
        &["d in", "mean hops", "samples", "ln^2.1 d", "d (linear ref)"],
    );
    for &(lo, hi, hops, count) in &m.buckets {
        let mid = ((lo * (hi - 1)) as f64).sqrt().max(1.0);
        t.push_row(vec![
            format!("[{lo},{hi})"),
            f2(hops),
            count.to_string(),
            f2(mid.ln().max(0.0).powf(2.1).max(1.0)),
            f2(mid),
        ]);
    }
    t.push_row(vec![
        "repairs".to_string(),
        m.repairs.to_string(),
        "-".to_string(),
        "-".to_string(),
        "must be 0".to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_probes_never_repair_and_grow_sublinearly() {
        let p = Params::quick();
        let m = measure(&p, 7);
        assert_eq!(m.repairs, 0, "stable state must not repair");
        assert_eq!(m.diverged, 0);
        assert!(m.buckets.len() >= 4, "need several distance buckets");
        // Sublinearity: hops must be clearly below the bucket's distance
        // midpoint (a pure ring walk would need exactly mid hops;
        // shortcuts must cut that down). The check targets the largest
        // bucket of *non-wrapped* probes — wrapped links (line distance
        // > n/2) traverse regions where few same-direction shortcuts
        // exist, so they only get the plain "less than a ring walk" bound.
        let &(lo, hi, hops, _) = m
            .buckets
            .iter()
            .rfind(|&&(_, hi, _, _)| hi <= p.n / 2 + 1)
            .expect("non-wrap buckets exist");
        let mid = ((lo * (hi - 1)) as f64).sqrt();
        assert!(
            hops < mid * 0.72,
            "largest non-wrap bucket [{lo},{hi}): {hops} hops not sublinear vs {mid}"
        );
        for &(lo, hi, hops, _) in &m.buckets {
            let mid = ((lo * (hi - 1)) as f64).sqrt();
            assert!(
                hops <= mid.max(1.0) * 1.05,
                "bucket [{lo},{hi}): {hops} hops exceeds a ring walk ({mid})"
            );
        }
        // Short distances take few hops.
        let &(_, _, h0, _) = m.buckets.first().expect("non-empty");
        assert!(h0 <= 2.0, "distance-1/2 probes should be ~1 hop, got {h0}");
    }

    #[test]
    fn hop_growth_is_mild_across_buckets() {
        let p = Params::quick();
        let m = measure(&p, 11);
        // Doubling the distance should add a roughly constant number of
        // hops (polylog), not double them once shortcuts exist. Compare
        // last bucket vs the 8x-smaller one.
        if m.buckets.len() >= 4 {
            let last = m.buckets[m.buckets.len() - 1];
            let earlier = m.buckets[m.buckets.len() - 4];
            let dist_ratio = (last.0 as f64) / (earlier.0 as f64);
            let hop_ratio = last.2 / earlier.2.max(1.0);
            assert!(
                hop_ratio < dist_ratio,
                "hops grew as fast as distance: {hop_ratio} vs {dist_ratio}"
            );
        }
    }

    #[test]
    fn table_includes_repair_row() {
        let mut p = Params::quick();
        p.n = 64;
        p.warmup = 500;
        p.epochs = 10;
        let t = run(&p);
        assert!(t.render().contains("repairs"));
    }
}
