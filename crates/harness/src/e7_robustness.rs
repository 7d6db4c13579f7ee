//! **E7 — Robustness under failures and attacks** (Section I / IV.G,
//! reference \[25\]).
//!
//! The stabilized small world vs the structured Chord overlay, the static
//! Kleinberg graph, and an Erdős–Rényi graph of matching mean degree.
//! For removal fractions up to 50%, under random failures and
//! highest-degree-first attacks, we report the giant-component fraction
//! and the greedy-routing success among survivors.
//!
//! Shape to verify: the small-world systems (constant degree, randomized
//! links) degrade gracefully and look the same under attack and failure
//! (no hubs to hit); ER at *matched* mean degree fragments earlier;
//! idealized Chord is more robust in absolute terms but pays Θ(log n)
//! links per node for it — the degree column makes the state cost of that
//! robustness explicit, and unlike the protocol it has no mechanism to
//! rebuild lost fingers.

use crate::table::{f2, Table};
use crate::testbed::harmonic_network;
use swn_baselines::chord::chord;
use swn_baselines::kleinberg::kleinberg_ring;
use swn_baselines::random_graph::gnm;
use swn_core::config::ProtocolConfig;
use swn_sim::parallel::par_map;
use swn_topology::robustness::{sweep, FailureMode, RobustnessPoint};
use swn_topology::Graph;

/// Parameters for E7.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Removal fractions.
    pub fractions: Vec<f64>,
    /// Routing pairs per point.
    pub pairs: usize,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            n: 1024,
            fractions: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
            pairs: 400,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            n: 256,
            fractions: vec![0.0, 0.2, 0.4],
            pairs: 150,
        }
    }
}

/// Systems compared by E7.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum System {
    /// The self-stabilized overlay (stationary fixture).
    Protocol,
    /// The static harmonic construction.
    Kleinberg,
    /// The idealized structured overlay.
    Chord,
    /// Erdős–Rényi at matched mean degree.
    RandomGraph,
}

impl System {
    /// All systems in display order.
    pub const ALL: [System; 4] = [
        System::Protocol,
        System::Kleinberg,
        System::Chord,
        System::RandomGraph,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            System::Protocol => "protocol",
            System::Kleinberg => "kleinberg",
            System::Chord => "chord",
            System::RandomGraph => "er-graph",
        }
    }
}

/// Builds a system's graph at the experiment size.
pub fn build_graph(sys: System, p: &Params, seed: u64) -> Graph {
    match sys {
        System::Protocol => {
            let net = harmonic_network(p.n, ProtocolConfig::default(), seed);
            Graph::from_view(&net.view(), swn_core::views::View::Cp)
        }
        System::Kleinberg => kleinberg_ring(p.n, seed),
        // ER with the small-world's mean degree (ring + 1 lrl ≈ 3
        // undirected edges per node).
        System::RandomGraph => gnm(p.n, p.n * 3 / 2, seed),
        System::Chord => chord(p.n),
    }
}

/// One system's sweep under one failure mode.
pub fn measure(sys: System, mode: FailureMode, p: &Params, seed: u64) -> Vec<RobustnessPoint> {
    let g = build_graph(sys, p, seed);
    sweep(&g, &p.fractions, mode, p.pairs, seed)
}

/// Runs E7 and renders the table.
pub fn run(p: &Params) -> Table {
    let mut t = Table::new(
        format!("E7  Robustness under failures and attacks (n = {})", p.n),
        "constant-degree small-world links degrade gracefully and are attack-indifferent; \
         ER at matched degree fragments first; Chord buys robustness with log n state per node \
         (Sec. I / IV.G, [25])",
        &[
            "system",
            "deg",
            "mode",
            "removed",
            "giant frac",
            "routing ok",
        ],
    );
    // The (system, mode) sweeps share nothing and use the fixed seed
    // 777, so run them (and the per-system degree census) in parallel;
    // rows are rendered in the deterministic cell order afterwards.
    let degs = par_map(&System::ALL, |&sys| {
        let g = build_graph(sys, p, 777);
        g.undirected_view().m() as f64 / p.n as f64
    });
    let cells: Vec<(System, FailureMode)> = System::ALL
        .iter()
        .flat_map(|&sys| {
            [FailureMode::Random, FailureMode::TargetedHighestDegree]
                .into_iter()
                .map(move |mode| (sys, mode))
        })
        .collect();
    let sweeps = par_map(&cells, |&(sys, mode)| measure(sys, mode, p, 777));
    for (&(sys, mode), pts) in cells.iter().zip(&sweeps) {
        let deg = degs[System::ALL
            .iter()
            .position(|&s| s == sys)
            .expect("system is in ALL")];
        for pt in pts {
            t.push_row(vec![
                sys.label().to_string(),
                f2(deg),
                match mode {
                    FailureMode::Random => "random",
                    FailureMode::TargetedHighestDegree => "attack",
                }
                .to_string(),
                f2(pt.removed_frac),
                f2(pt.giant_frac),
                f2(pt.routing_success),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intact_systems_are_fully_functional() {
        let p = Params::quick();
        for &sys in &System::ALL {
            let pts = measure(sys, FailureMode::Random, &p, 1);
            // The ring-backed systems are connected by construction; the
            // ER graph at mean degree 3 already carries a few isolated
            // nodes — itself part of the story E7 tells.
            let floor = if sys == System::RandomGraph {
                0.85
            } else {
                0.999
            };
            assert!(
                pts[0].giant_frac > floor,
                "{} giant {}",
                sys.label(),
                pts[0].giant_frac
            );
        }
    }

    #[test]
    fn protocol_keeps_giant_component_under_moderate_failure() {
        let p = Params::quick();
        let pts = measure(System::Protocol, FailureMode::Random, &p, 2);
        // 20% random failures: the ring fragments into arcs, but the
        // long-range shortcuts stitch most survivors together.
        let at20 = pts
            .iter()
            .find(|pt| (pt.removed_frac - 0.2).abs() < 1e-9)
            .expect("0.2 in fractions");
        assert!(at20.giant_frac > 0.4, "giant at 20%: {}", at20.giant_frac);
        // And strictly better than the bare ring would manage: a cycle
        // with 20% of 256 nodes removed shatters into ~51 arcs of mean
        // length 4, i.e. giant ≈ a few percent.
        assert!(at20.giant_frac > 0.2);
    }

    #[test]
    fn attack_close_to_failure_at_moderate_damage() {
        // The protocol graph has no real hubs (max in-degree is
        // O(log n / log log n)), so at moderate damage a targeted attack
        // buys little over random failure. (At extreme damage fractions
        // even the mild degree variance matters, so the comparison is made
        // at 20%.)
        let p = Params::quick();
        let rnd = measure(System::Protocol, FailureMode::Random, &p, 3);
        let tgt = measure(System::Protocol, FailureMode::TargetedHighestDegree, &p, 3);
        let at = |pts: &[RobustnessPoint], f: f64| {
            pts.iter()
                .find(|pt| (pt.removed_frac - f).abs() < 1e-9)
                .expect("fraction present")
                .giant_frac
        };
        let diff = (at(&rnd, 0.2) - at(&tgt, 0.2)).abs();
        assert!(
            diff < 0.4,
            "attack/failure gap {diff} too large at 20% for a near-regular graph"
        );
    }

    #[test]
    fn table_row_count() {
        let mut p = Params::quick();
        p.fractions = vec![0.0, 0.3];
        p.pairs = 50;
        let t = run(&p);
        assert_eq!(t.rows.len(), System::ALL.len() * 2 * 2);
    }
}
