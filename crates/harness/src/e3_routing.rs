//! **E3 — Greedy routing takes O(ln^(2+ε) n) hops on the stabilized
//! network** (Theorem 4.22, Lemma 4.23, Kleinberg \[14\]).
//!
//! Mean greedy-routing hops vs n for six systems:
//!
//! * `protocol` — the self-stabilized network (full simulation; the
//!   expensive one, so capped at `protocol_max_n`);
//! * `move-forget` — the pure single-walker process on the formed ring
//!   (the reference for the protocol's token; scales further);
//! * `kleinberg` — the static harmonic construction (the ideal the
//!   process converges to);
//! * `uniform` — uniformly random shortcuts (Kleinberg's lower bound:
//!   polynomial greedy routing — must lose at scale);
//! * `chord` — the structured overlay (log n with log n degree, vs our
//!   constant degree);
//! * `ring` — no shortcuts (Θ(n) — must lose badly).
//!
//! Shape to verify: protocol ≈ move-forget ≈ kleinberg, polylog growth
//! (the `ln²⁺ᵉn` column tracks it); uniform grows clearly faster; ring is
//! linear.

use crate::table::{f2, polylog_exponent, Table};
use crate::testbed::{default_warmup, stabilized_graph};
use swn_baselines::chaintreau::MoveForget;
use swn_baselines::chord::chord;
use swn_baselines::kleinberg::{kleinberg_ring, uniform_shortcut_ring};
use swn_baselines::ring_lattice::cycle;
use swn_core::config::ProtocolConfig;
use swn_sim::parallel::par_map;
use swn_topology::routing::{evaluate_routing, RoutingStats};
use swn_topology::Graph;

/// Parameters for E3.
#[derive(Clone, Debug)]
pub struct Params {
    /// Sizes to sweep.
    pub sizes: Vec<usize>,
    /// Protocol simulation only up to this size (it is the slow system).
    pub protocol_max_n: usize,
    /// Random (s,t) pairs per measurement.
    pub pairs: usize,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            sizes: vec![128, 256, 512, 1024, 2048, 4096, 8192],
            protocol_max_n: 1024,
            pairs: 1000,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            sizes: vec![128, 256, 512],
            protocol_max_n: 256,
            pairs: 200,
        }
    }
}

/// The systems measured by E3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum System {
    /// The protocol, warmed up from tokens-at-origin for the affordable
    /// number of rounds (finite mixing — slightly pessimistic).
    Protocol,
    /// The protocol seeded directly into its provable stationary state
    /// (harmonic lrls) — the asymptotic claim of Theorem 4.22.
    ProtocolStationary,
    /// The pure move-and-forget process at the same warmup horizon.
    MoveForget,
    /// The static harmonic construction (the asymptotic ideal).
    Kleinberg,
    /// Uniform random shortcuts (Kleinberg's polynomial lower bound).
    Uniform,
    /// The idealized structured overlay (log n fingers per node).
    Chord,
    /// The bare cycle (linear routing).
    Ring,
}

impl System {
    /// All systems in display order.
    pub const ALL: [System; 7] = [
        System::Protocol,
        System::ProtocolStationary,
        System::MoveForget,
        System::Kleinberg,
        System::Uniform,
        System::Chord,
        System::Ring,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            System::Protocol => "protocol",
            System::ProtocolStationary => "protocol-st",
            System::MoveForget => "move-forget",
            System::Kleinberg => "kleinberg",
            System::Uniform => "uniform",
            System::Chord => "chord",
            System::Ring => "ring",
        }
    }
}

/// Builds the routing graph of a system at size `n` (None when the system
/// is skipped at this size).
pub fn build_graph(sys: System, n: usize, p: &Params, seed: u64) -> Option<Graph> {
    match sys {
        System::Protocol => {
            if n > p.protocol_max_n {
                return None;
            }
            Some(stabilized_graph(
                n,
                ProtocolConfig::default(),
                seed,
                default_warmup(n),
            ))
        }
        System::ProtocolStationary => {
            let net = crate::testbed::harmonic_network(n, ProtocolConfig::default(), seed);
            Some(Graph::from_view(&net.view(), swn_core::views::View::Cp))
        }
        System::MoveForget => {
            let mut mf = MoveForget::ring(n, ProtocolConfig::default().epsilon, seed);
            mf.run(default_warmup(n) * 2);
            Some(mf.graph())
        }
        System::Kleinberg => Some(kleinberg_ring(n, seed)),
        System::Uniform => Some(uniform_shortcut_ring(n, seed)),
        System::Chord => Some(chord(n)),
        System::Ring => Some(cycle(n)),
    }
}

/// Measures one (system, n) cell.
pub fn measure(sys: System, n: usize, p: &Params, seed: u64) -> Option<RoutingStats> {
    let g = build_graph(sys, n, p, seed)?;
    Some(evaluate_routing(
        &g,
        p.pairs,
        (8 * u32::try_from(n).expect("graph size fits u32")).max(1024),
        seed,
        None,
    ))
}

/// Runs E3 and renders the table; appends a per-system polylog-exponent
/// summary row set.
pub fn run(p: &Params) -> Table {
    let mut t = Table::new(
        "E3  Greedy routing hops vs n",
        "protocol/move-forget/kleinberg scale polylogarithmically (exponent near 2); \
         uniform shortcuts scale polynomially; ring is linear (Thm 4.22 / Lemma 4.23)",
        &["system", "n", "mean hops", "p99", "success", "ln^2 n"],
    );
    let mut series: Vec<(System, Vec<(f64, f64)>)> =
        System::ALL.iter().map(|&s| (s, Vec::new())).collect();
    // Every (size, system) cell is an independent seeded measurement
    // (seed depends only on n), so run them all in parallel and render
    // in the deterministic cell order afterwards.
    let cells: Vec<(usize, System)> = p
        .sizes
        .iter()
        .flat_map(|&n| System::ALL.iter().map(move |&sys| (n, sys)))
        .collect();
    let measured = par_map(&cells, |&(n, sys)| measure(sys, n, p, 1000 + n as u64));
    for (&(n, sys), stats) in cells.iter().zip(&measured) {
        let Some(stats) = stats else {
            continue;
        };
        let lnsq = (n as f64).ln().powi(2);
        series
            .iter_mut()
            .find(|(s, _)| *s == sys)
            .expect("series exists")
            .1
            .push((n as f64, stats.mean_hops));
        t.push_row(vec![
            sys.label().to_string(),
            n.to_string(),
            f2(stats.mean_hops),
            stats.p99_hops.to_string(),
            f2(stats.success_rate()),
            f2(lnsq),
        ]);
    }
    for (sys, pts) in &series {
        if let Some(e) = polylog_exponent(pts) {
            t.push_row(vec![
                format!("{}*", sys.label()),
                "fit".to_string(),
                f2(e),
                "-".to_string(),
                "-".to_string(),
                "exp of ln^e n".to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_protocol_close_to_kleinberg_ring_linear() {
        let p = Params::quick();
        let n = 256;
        let proto = measure(System::Protocol, n, &p, 3).expect("protocol runs at 256");
        let klein = measure(System::Kleinberg, n, &p, 3).unwrap();
        let ring = measure(System::Ring, n, &p, 3).unwrap();
        assert_eq!(proto.success_rate(), 1.0);
        // Protocol must beat the ring clearly and be within a modest
        // factor of the static ideal (at n = 256 the token walks have had
        // finite mixing time, so the gap to the ideal is a few x).
        assert!(
            proto.mean_hops * 1.4 < ring.mean_hops,
            "{} vs ring {}",
            proto.mean_hops,
            ring.mean_hops
        );
        assert!(
            proto.mean_hops < klein.mean_hops * 6.0,
            "protocol {} too far from kleinberg {}",
            proto.mean_hops,
            klein.mean_hops
        );
    }

    #[test]
    fn uniform_loses_to_harmonic_at_scale() {
        // The asymptotic separation (polylog vs polynomial) needs scale to
        // show above the noise floor; n = 4096 separates cleanly.
        let mut p = Params::quick();
        p.pairs = 400;
        let n = 4096;
        let klein = measure(System::Kleinberg, n, &p, 5).unwrap();
        let unif = measure(System::Uniform, n, &p, 5).unwrap();
        assert!(
            klein.mean_hops * 1.3 < unif.mean_hops,
            "kleinberg {} vs uniform {}",
            klein.mean_hops,
            unif.mean_hops
        );
    }

    #[test]
    fn ring_exponent_is_huge_kleinberg_small() {
        let mut p = Params::quick();
        p.sizes = vec![128, 512, 2048];
        let series = |sys: System| -> Vec<(f64, f64)> {
            p.sizes
                .iter()
                .map(|&n| (n as f64, measure(sys, n, &p, 9).unwrap().mean_hops))
                .collect()
        };
        let ring_e = polylog_exponent(&series(System::Ring)).unwrap();
        let klein_e = polylog_exponent(&series(System::Kleinberg)).unwrap();
        assert!(ring_e > 4.0, "ring exponent {ring_e}");
        assert!(klein_e < 3.5, "kleinberg exponent {klein_e}");
        assert!(klein_e < ring_e);
    }

    #[test]
    fn protocol_skipped_above_cap() {
        let p = Params::quick();
        assert!(measure(System::Protocol, 512, &p, 1).is_none());
    }
}
