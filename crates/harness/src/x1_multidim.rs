//! **X1 — Extension: multidimensional move-and-forget navigability**
//! (the paper's Conclusion names k-D small worlds as the direct future
//! work; its substrate \[4\] is already dimension-generic).
//!
//! For k ∈ {1, 2, 3} tori of comparable size, run the k-dimensional
//! move-and-forget process and compare greedy routing against the bare
//! lattice. Shapes to verify: (a) the process improves navigability in
//! every dimension — the state a future k-D self-stabilization would
//! converge to is worth converging to; (b) the forget rate is identical
//! across k, confirming the dimension-independence of φ(α) that
//! Section III.D highlights.

use crate::table::{f2, f3, Table};
use swn_baselines::chaintreau::MoveForget;
use swn_baselines::torus::Torus;
use swn_core::config::ProtocolConfig;

/// Parameters for X1.
#[derive(Clone, Debug)]
pub struct Params {
    /// (side, dim) pairs, chosen for comparable node counts.
    pub tori: Vec<(usize, usize)>,
    /// Move-and-forget warmup rounds.
    pub warmup: u64,
    /// Routing pairs per measurement.
    pub pairs: usize,
}

impl Params {
    /// Full-scale run: ~1000 nodes per dimension.
    pub fn full() -> Self {
        Params {
            tori: vec![(1024, 1), (32, 2), (10, 3)],
            warmup: 20_000,
            pairs: 500,
        }
    }

    /// Reduced scale: ~250 nodes per dimension.
    pub fn quick() -> Self {
        Params {
            tori: vec![(256, 1), (16, 2), (6, 3)],
            warmup: 4_000,
            pairs: 150,
        }
    }
}

/// One dimension's measurement.
#[derive(Clone, Copy, Debug)]
pub struct DimPoint {
    /// Torus dimension.
    pub k: usize,
    /// Node count.
    pub n: usize,
    /// Mean greedy hops on the bare lattice.
    pub lattice_hops: f64,
    /// Mean greedy hops on the move-and-forget graph.
    pub mf_hops: f64,
    /// Forget events per node per round.
    pub forget_rate: f64,
}

/// Runs the sweep.
pub fn measure(p: &Params) -> Vec<DimPoint> {
    p.tori
        .iter()
        .map(|&(m, k)| {
            let torus = Torus::new(m, k);
            let n = torus.len();
            let lattice_hops = torus.mean_greedy_hops(&torus.lattice_graph(), p.pairs, 1);
            let mut mf = MoveForget::new(
                torus.clone(),
                ProtocolConfig::default().epsilon,
                9 + k as u64,
            );
            mf.run(p.warmup);
            let forget_rate = mf.forgets() as f64 / (p.warmup as f64 * n as f64);
            let mf_hops = torus.mean_greedy_hops(&mf.graph(), p.pairs, 2);
            DimPoint {
                k,
                n,
                lattice_hops,
                mf_hops,
                forget_rate,
            }
        })
        .collect()
}

/// Runs X1 and renders the table.
pub fn run(p: &Params) -> Table {
    let mut t = Table::new(
        "X1  Multidimensional move-and-forget (extension)",
        "the process improves navigability in every dimension; the forget rate is dimension-independent \
         (paper's future work; substrate [4] is k-generic)",
        &["k", "n", "lattice hops", "mf hops", "speedup", "forgets/node/rd"],
    );
    for pt in measure(p) {
        t.push_row(vec![
            pt.k.to_string(),
            pt.n.to_string(),
            f2(pt.lattice_hops),
            f2(pt.mf_hops),
            f2(pt.lattice_hops / pt.mf_hops.max(1e-9)),
            f3(pt.forget_rate),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_helps_in_every_dimension() {
        let pts = measure(&Params::quick());
        assert_eq!(pts.len(), 3);
        for pt in &pts {
            assert!(
                pt.mf_hops < pt.lattice_hops,
                "k={}: {} vs {}",
                pt.k,
                pt.mf_hops,
                pt.lattice_hops
            );
        }
    }

    #[test]
    fn forget_rate_is_dimension_independent() {
        let pts = measure(&Params::quick());
        let r1 = pts[0].forget_rate;
        for pt in &pts[1..] {
            assert!(
                (pt.forget_rate - r1).abs() / r1 < 0.15,
                "k={} forget rate {} deviates from k=1's {}",
                pt.k,
                pt.forget_rate,
                r1
            );
        }
    }

    #[test]
    fn table_renders() {
        let mut p = Params::quick();
        p.tori = vec![(64, 1), (8, 2)];
        p.warmup = 500;
        p.pairs = 40;
        let t = run(&p);
        assert_eq!(t.rows.len(), 2);
    }
}
