//! Link-length distributions and the harmonic-law fit.
//!
//! Fact 4.21: the stabilized network is a small world because each node's
//! long-range link length follows the k-harmonic distribution (k = 1
//! here): `P(length = d) ∝ 1/d` over `d ∈ {1, …, ⌊n/2⌋}` ring positions.
//! These helpers extract empirical length samples from a borrowed view and
//! quantify how close they are to the harmonic law — by the
//! Kolmogorov–Smirnov distance to the exact harmonic CDF and by the
//! log–log slope of the binned density (which must be ≈ −1).

use crate::paths::ring_distance;
use swn_core::views::NetView;

/// Ring-rank lengths of all long-range links in a borrowed view. Tokens
/// sitting at their origin (`lrl == id`, length 0) are excluded — they
/// are "no link yet" states, not length-0 links; `lrl`s pointing at
/// departed ids are likewise skipped. The view is in ascending id order,
/// so an index *is* a ring rank and no rank table is needed.
pub fn lrl_lengths_view(v: &NetView<'_>) -> Vec<usize> {
    let n = v.len();
    let mut lengths = Vec::new();
    for (rank, node) in v.nodes().iter().enumerate() {
        if node.lrl() == node.id() {
            continue;
        }
        if let Some(trank) = v.index_of(node.lrl()) {
            let d = ring_distance(rank, trank, n);
            if d > 0 {
                lengths.push(d);
            }
        }
    }
    lengths
}

/// The harmonic CDF over lengths `1..=max_d`: `F(d) = H_d / H_max`.
/// Returned as `cdf[d-1] = F(d)`.
pub fn harmonic_cdf(max_d: usize) -> Vec<f64> {
    assert!(max_d >= 1, "need at least one length");
    let mut cdf = Vec::with_capacity(max_d);
    let mut h = 0.0f64;
    for d in 1..=max_d {
        h += 1.0 / d as f64;
        cdf.push(h);
    }
    let total = *cdf.last().expect("max_d >= 1");
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

/// The *log-corrected* harmonic CDF: weights `1/(d·(1+ln d)^(1+ε))`.
/// This is the exact stationary law of the move-and-forget token's
/// displacement (Chaintreau et al. \[4\]): the renewal age distribution
/// `π(α) ∝ 1/(α ln^(1+ε) α)` pushed through the diffusive walk yields
/// `P(D = d) ∝ 1/(d ln^(1+ε) d)` — harmonic up to the slowly varying
/// factor that vanishes as d → ∞.
pub fn log_corrected_harmonic_cdf(max_d: usize, epsilon: f64) -> Vec<f64> {
    assert!(max_d >= 1, "need at least one length");
    let mut cdf = Vec::with_capacity(max_d);
    let mut h = 0.0f64;
    for d in 1..=max_d {
        let df = d as f64;
        h += 1.0 / (df * (1.0 + df.ln()).powf(1.0 + epsilon));
        cdf.push(h);
    }
    let total = *cdf.last().expect("max_d >= 1");
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

/// Kolmogorov–Smirnov distance between the empirical distribution of
/// `lengths` and an arbitrary reference CDF over `1..=max_d` (where
/// `max_d = cdf.len()`). Returns 1.0 for an empty sample.
///
/// # Contract
/// Every length must lie in `1..=max_d`: the measured quantity is a ring
/// distance, which is bounded by `⌊n/2⌋`, so an out-of-range value means
/// the caller computed `max_d` against the wrong `n`. Debug builds panic
/// on a violation; release builds clamp into the end bins (a 0 becomes 1,
/// an overflow becomes `max_d`) so a production sweep degrades instead of
/// aborting — but the clamp can mask a broken `max_d`, which is exactly
/// why the debug assertion exists.
pub fn ks_to_cdf(lengths: &[usize], cdf: &[f64]) -> f64 {
    if lengths.is_empty() {
        return 1.0;
    }
    let max_d = cdf.len();
    let mut counts = vec![0u64; max_d];
    for &d in lengths {
        debug_assert!(
            (1..=max_d).contains(&d),
            "length {d} outside 1..={max_d}: max_d was computed for a different n"
        );
        counts[d.clamp(1, max_d) - 1] += 1;
    }
    let n = lengths.len() as f64;
    let mut acc = 0u64;
    let mut ks = 0.0f64;
    for (i, &c) in counts.iter().enumerate() {
        acc += c;
        let emp = acc as f64 / n;
        ks = ks.max((emp - cdf[i]).abs());
    }
    ks
}

/// Kolmogorov–Smirnov distance to the pure harmonic CDF.
pub fn ks_to_harmonic(lengths: &[usize], max_d: usize) -> f64 {
    ks_to_cdf(lengths, &harmonic_cdf(max_d))
}

/// Ordinary-least-squares slope of y against x; `None` for fewer than
/// two points or when every x is equal.
pub fn ols_slope(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Least-squares slope of `log(density)` vs `log(length)` over
/// logarithmically spaced bins. The harmonic law has slope −1; the
/// uniform law slope 0; an exponentially local distribution dives far
/// below −1. Returns `None` when fewer than two non-empty bins exist.
pub fn log_log_slope(lengths: &[usize], max_d: usize) -> Option<f64> {
    if lengths.is_empty() || max_d < 4 {
        return None;
    }
    // Log-spaced bin edges 1, 2, 4, 8, ... max_d.
    let mut edges = vec![1usize];
    let mut e = 2usize;
    while e < max_d {
        edges.push(e);
        e *= 2;
    }
    edges.push(max_d + 1);
    let mut pts = Vec::new();
    for w in edges.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let count = lengths.iter().filter(|&&d| d >= lo && d < hi).count();
        if count == 0 {
            continue;
        }
        let width = (hi - lo) as f64;
        let density = count as f64 / (lengths.len() as f64 * width);
        let mid = (lo as f64 * (hi as f64 - 1.0).max(lo as f64)).sqrt();
        pts.push((mid.ln(), density.ln()));
    }
    ols_slope(&pts)
}

/// Draws one sample in `1..=cdf.len()` by inverting `cdf` (build it once
/// with [`harmonic_cdf`] and reuse it across draws; used by the static
/// Kleinberg baseline and the harmonic fixture).
pub fn sample_harmonic<R: rand::Rng + ?Sized>(cdf: &[f64], rng: &mut R) -> usize {
    use rand::RngExt as _;
    let u: f64 = rng.random();
    match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("no NaN in CDF")) {
        Ok(i) | Err(i) => (i + 1).min(cdf.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swn_core::views::Snapshot;

    #[test]
    fn harmonic_cdf_shape() {
        let cdf = harmonic_cdf(4);
        // H = 1 + 1/2 + 1/3 + 1/4 = 25/12.
        let h = 25.0 / 12.0;
        assert!((cdf[0] - 1.0 / h).abs() < 1e-12);
        assert!((cdf[3] - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn ks_zero_for_perfect_harmonic_sample() {
        // Build a sample exactly proportional to 1/d (scaled by d!-ish lcm).
        // For max_d = 4 use counts proportional to 12/d: 12, 6, 4, 3.
        let mut lengths = Vec::new();
        for (d, c) in [(1usize, 12usize), (2, 6), (3, 4), (4, 3)] {
            lengths.extend(std::iter::repeat_n(d, c));
        }
        assert!(ks_to_harmonic(&lengths, 4) < 1e-12);
    }

    #[test]
    fn ks_large_for_uniform_sample() {
        let lengths: Vec<usize> = (1..=100).collect();
        let ks = ks_to_harmonic(&lengths, 100);
        assert!(ks > 0.3, "uniform should be far from harmonic: {ks}");
    }

    #[test]
    fn ks_of_empty_sample_is_one() {
        assert_eq!(ks_to_harmonic(&[], 10), 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside 1..=10")]
    fn ks_rejects_out_of_range_lengths_in_debug() {
        let _ = ks_to_harmonic(&[1, 5, 11], 10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside 1..=10")]
    fn ks_rejects_zero_length_in_debug() {
        let _ = ks_to_harmonic(&[0], 10);
    }

    #[test]
    fn lrl_lengths_view_matches_snapshot_variant() {
        use swn_core::config::ProtocolConfig;
        use swn_core::id::{evenly_spaced_ids, Extended};
        use swn_core::node::Node;
        let ids = evenly_spaced_ids(10);
        let cfg = ProtocolConfig::default();
        let mut nodes = swn_core::invariants::make_sorted_ring(&ids, cfg);
        nodes[1] = Node::with_state(
            ids[1],
            Extended::Fin(ids[0]),
            Extended::Fin(ids[2]),
            ids[8],
            None,
            cfg,
        );
        nodes[4] = Node::with_state(
            ids[4],
            Extended::Fin(ids[3]),
            Extended::Fin(ids[5]),
            ids[5],
            None,
            cfg,
        );
        // Ranks 1→8 (ring distance 3) and 4→5, whatever order the
        // snapshot stores the nodes in.
        let stored = Snapshot::from_nodes(nodes.iter().rev().cloned().collect());
        let direct = NetView::new(nodes.iter().collect(), vec![&[]; 10]);
        assert_eq!(lrl_lengths_view(&direct), vec![3, 1]);
        assert_eq!(lrl_lengths_view(&stored.as_view()), vec![3, 1]);
    }

    #[test]
    fn log_corrected_cdf_is_heavier_at_small_d_than_harmonic() {
        let max_d = 256;
        let plain = harmonic_cdf(max_d);
        let corr = log_corrected_harmonic_cdf(max_d, 0.1);
        // The (1+ln d)^{1+ε} denominator suppresses the tail, so the
        // corrected CDF dominates the plain one everywhere.
        for d in 1..max_d {
            assert!(
                corr[d - 1] >= plain[d - 1] - 1e-12,
                "corrected CDF below harmonic at d={d}"
            );
        }
        assert!((corr[max_d - 1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn corrected_sample_fits_corrected_law_better() {
        // Draw from the corrected law by inversion and check both KS
        // statistics rank as expected.
        let max_d = 512;
        let cdf = log_corrected_harmonic_cdf(max_d, 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        use rand::RngExt as _;
        let lengths: Vec<usize> = (0..30_000)
            .map(|_| {
                let u: f64 = rng.random();
                match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("no NaN")) {
                    Ok(i) | Err(i) => (i + 1).min(max_d),
                }
            })
            .collect();
        let ks_corr = ks_to_cdf(&lengths, &cdf);
        let ks_plain = ks_to_harmonic(&lengths, max_d);
        assert!(ks_corr < 0.02, "self-KS {ks_corr}");
        assert!(ks_corr < ks_plain, "{ks_corr} vs {ks_plain}");
    }

    #[test]
    fn sampled_harmonic_passes_its_own_ks() {
        let mut rng = StdRng::seed_from_u64(1);
        let cdf = harmonic_cdf(512);
        let lengths: Vec<usize> = (0..20_000)
            .map(|_| sample_harmonic(&cdf, &mut rng))
            .collect();
        let ks = ks_to_harmonic(&lengths, 512);
        assert!(ks < 0.02, "self-KS too large: {ks}");
    }

    #[test]
    fn sampler_matches_longhand_cdf_inversion() {
        use rand::RngExt as _;
        let max_d = 300;
        let cdf = harmonic_cdf(max_d);
        let total: f64 = (1..=max_d).map(|d| 1.0 / d as f64).sum();
        let mut sampled = StdRng::seed_from_u64(5);
        let mut longhand = StdRng::seed_from_u64(5);
        for draw in 0..1_000 {
            // Smallest d with F(d) = H_d / H_max >= u, by linear scan.
            let u: f64 = longhand.random();
            let mut h = 0.0;
            let mut expected = max_d;
            for d in 1..=max_d {
                h += 1.0 / d as f64;
                if h / total >= u {
                    expected = d;
                    break;
                }
            }
            assert_eq!(sample_harmonic(&cdf, &mut sampled), expected, "draw {draw}");
        }
    }

    #[test]
    fn ols_recovers_line() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((ols_slope(&pts).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn log_log_slope_of_harmonic_is_minus_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let cdf = harmonic_cdf(1024);
        let lengths: Vec<usize> = (0..50_000)
            .map(|_| sample_harmonic(&cdf, &mut rng))
            .collect();
        let slope = log_log_slope(&lengths, 1024).expect("enough bins");
        assert!(
            (-1.25..=-0.8).contains(&slope),
            "harmonic slope {slope}, expected ≈ -1"
        );
    }

    #[test]
    fn log_log_slope_of_uniform_is_near_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        use rand::RngExt as _;
        let lengths: Vec<usize> = (0..50_000).map(|_| rng.random_range(1..=1024)).collect();
        let slope = log_log_slope(&lengths, 1024).expect("enough bins");
        assert!(slope.abs() < 0.2, "uniform slope {slope}, expected ≈ 0");
    }

    #[test]
    fn lrl_lengths_skips_origin_tokens() {
        use swn_core::config::ProtocolConfig;
        use swn_core::id::evenly_spaced_ids;
        use swn_core::invariants::make_sorted_ring;
        let ids = evenly_spaced_ids(8);
        let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let s = Snapshot::from_nodes(nodes);
        // All tokens at origin: no lengths.
        assert!(lrl_lengths_view(&s.as_view()).is_empty());
    }

    #[test]
    fn lrl_lengths_measures_ring_rank_distance() {
        use swn_core::config::ProtocolConfig;
        use swn_core::id::{evenly_spaced_ids, Extended};
        use swn_core::node::Node;
        let ids = evenly_spaced_ids(8);
        let cfg = ProtocolConfig::default();
        let mut nodes = swn_core::invariants::make_sorted_ring(&ids, cfg);
        // Node rank 0's lrl points to rank 7: ring distance 1 (wraps).
        nodes[0] = Node::with_state(
            ids[0],
            Extended::NegInf,
            Extended::Fin(ids[1]),
            ids[7],
            Some(ids[7]),
            cfg,
        );
        // Node rank 2's lrl points to rank 6: ring distance 4.
        nodes[2] = Node::with_state(
            ids[2],
            Extended::Fin(ids[1]),
            Extended::Fin(ids[3]),
            ids[6],
            None,
            cfg,
        );
        let s = Snapshot::from_nodes(nodes);
        let mut lengths = lrl_lengths_view(&s.as_view());
        lengths.sort_unstable();
        assert_eq!(lengths, vec![1, 4]);
    }
}
