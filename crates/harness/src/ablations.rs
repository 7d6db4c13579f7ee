//! **A1–A3 — Ablations of the design choices DESIGN.md calls out.**
//!
//! * **A1**: the paper extends plain linearization with long-range
//!   shortcuts in `linearize` (Algorithm 2). How much does that buy
//!   during convergence?
//! * **A2**: the forget exponent ε trades link lifetime against
//!   distribution fit and routing quality.
//! * **A3**: the probing cadence trades standing message cost against
//!   fault-repair latency.

use crate::table::{f2, f3, mean, Table};
use swn_baselines::chaintreau::MoveForget;
use swn_core::config::ProtocolConfig;
use swn_core::id::evenly_spaced_ids;
use swn_sim::churn::stable_network;
use swn_sim::convergence::run_to_ring;
use swn_sim::init::{generate, InitialTopology};
use swn_sim::parallel::run_trials;
use swn_topology::distribution::{ks_to_cdf, log_corrected_harmonic_cdf, log_log_slope};
use swn_topology::routing::evaluate_routing;

/// Shared scale knob for the ablations.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network sizes (A1).
    pub sizes: Vec<usize>,
    /// Trials per cell.
    pub trials: usize,
    /// Ring size for A2/A3.
    pub n: usize,
    /// Warmup rounds for A2/A3 fixtures.
    pub warmup: u64,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            sizes: vec![32, 64, 128, 256],
            trials: 20,
            n: 512,
            warmup: 20_000,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            sizes: vec![32, 64],
            trials: 6,
            n: 128,
            warmup: 3_000,
        }
    }
}

/// A1 cell: mean rounds to the sorted ring with/without the shortcut.
#[derive(Clone, Copy, Debug)]
pub struct A1Point {
    /// Network size.
    pub n: usize,
    /// Mean rounds to the sorted ring with lrl shortcuts.
    pub rounds_with: f64,
    /// Mean rounds with plain linearization.
    pub rounds_without: f64,
}

/// Measures A1.
pub fn measure_a1(p: &Params) -> Vec<A1Point> {
    let run_one = |n: usize, shortcut: bool| -> f64 {
        let reports = run_trials(p.trials, |t| {
            let seed = t as u64 * 101 + n as u64;
            let cfg = ProtocolConfig {
                lrl_shortcut: shortcut,
                ..Default::default()
            };
            let ids = evenly_spaced_ids(n);
            let mut net = generate(InitialTopology::RandomSparse { extra: 3 }, &ids, cfg, seed)
                .into_network(seed);
            run_to_ring(&mut net, 1_000_000)
                .rounds_to_ring
                .expect("must stabilize") as f64
        });
        mean(&reports)
    };
    p.sizes
        .iter()
        .map(|&n| A1Point {
            n,
            rounds_with: run_one(n, true),
            rounds_without: run_one(n, false),
        })
        .collect()
}

/// Renders A1.
pub fn run_a1(p: &Params) -> Table {
    let mut t = Table::new(
        "A1  Linearization with vs without lrl shortcuts",
        "forwarding lin messages over long-range links accelerates convergence (Algorithm 2 extension)",
        &["n", "rounds with", "rounds without", "speedup"],
    );
    for pt in measure_a1(p) {
        t.push_row(vec![
            pt.n.to_string(),
            f2(pt.rounds_with),
            f2(pt.rounds_without),
            f2(pt.rounds_without / pt.rounds_with.max(1.0)),
        ]);
    }
    t
}

/// A2 cell: distribution fit and routing for one ε.
#[derive(Clone, Copy, Debug)]
pub struct A2Point {
    /// The forget exponent measured.
    pub epsilon: f64,
    /// KS distance to the log-corrected harmonic law at this ε.
    pub ks_corrected: f64,
    /// Log–log density slope of the link lengths.
    pub slope: f64,
    /// Mean greedy-routing hops on the resulting graph.
    pub mean_hops: f64,
    /// Forget events per node per round.
    pub forget_rate: f64,
}

/// Measures A2 on the fast move-and-forget fixture.
pub fn measure_a2(p: &Params, epsilons: &[f64]) -> Vec<A2Point> {
    epsilons
        .iter()
        .map(|&eps| {
            let mut mf = MoveForget::ring(p.n, eps, 4040);
            mf.run(p.warmup);
            let mut lengths = Vec::new();
            for _ in 0..100 {
                mf.run(10);
                lengths.extend(mf.lengths());
            }
            let stats = evaluate_routing(
                &mf.graph(),
                300,
                u32::try_from(8 * p.n).expect("hop budget fits u32"),
                5,
                None,
            );
            A2Point {
                epsilon: eps,
                ks_corrected: ks_to_cdf(&lengths, &log_corrected_harmonic_cdf(p.n / 2, eps)),
                slope: log_log_slope(&lengths, p.n / 2).unwrap_or(f64::NAN),
                mean_hops: stats.mean_hops,
                forget_rate: mf.forgets() as f64 / (p.warmup + 1000) as f64 / p.n as f64,
            }
        })
        .collect()
}

/// Renders A2.
pub fn run_a2(p: &Params) -> Table {
    let mut t = Table::new(
        format!("A2  Forget exponent eps sweep (n = {})", p.n),
        "small eps: long-lived links, best navigability; large eps: tokens die young and stay near origin",
        &["eps", "KS corr", "slope", "mean hops", "forgets/node/rd"],
    );
    for pt in measure_a2(p, &[0.01, 0.1, 0.5, 1.0]) {
        t.push_row(vec![
            format!("{}", pt.epsilon),
            f3(pt.ks_corrected),
            f3(pt.slope),
            f2(pt.mean_hops),
            f3(pt.forget_rate),
        ]);
    }
    t
}

/// A3 cell: standing cost vs repair behaviour for one probe period.
#[derive(Clone, Copy, Debug)]
pub struct A3Point {
    /// Probing period measured.
    pub period: u64,
    /// Stable-state messages per node per round at this period.
    pub msgs_per_node_round: f64,
    /// Fraction of trials in which the halves merged at all. Probing
    /// races the forget process for the single bridging link: φ(3) ≈ 0.6
    /// already, so a probe that arrives later than the token's first
    /// forget opportunity loses the bridge **permanently** — the paper's
    /// Theorem 4.3 implicitly relies on probing every round.
    pub merge_success: f64,
    /// Rounds until the bridging probe-repair fired, among successful
    /// trials (≈ the prober's random phase within the period).
    pub repair_latency: f64,
    /// Rounds until the full sorted ring, among successful trials.
    pub recovery_rounds: f64,
}

/// Builds the fault only probing can repair: two internally sorted halves
/// whose only connection is a single long-range link crossing the split.
/// The probe along that link must fail at the left half's maximum and
/// create the bridge edge (Theorem 4.3's repair mechanism); linearization
/// alone cannot see across the gap.
/// Exposed for debugging and tests.
pub fn debug_split_brain(
    n: usize,
    bridge_from: usize,
    bridge_to: usize,
    cfg: ProtocolConfig,
    phase_seed: u64,
) -> Vec<swn_core::node::Node> {
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};
    use swn_core::id::Extended;
    use swn_core::node::Node;
    let ids = evenly_spaced_ids(n);
    let half = n / 2;
    let mut rng = StdRng::seed_from_u64(phase_seed);
    (0..n)
        .map(|i| {
            let l = if i == 0 || i == half {
                Extended::NegInf
            } else {
                Extended::Fin(ids[i - 1])
            };
            let r = if i + 1 == half || i + 1 == n {
                Extended::PosInf
            } else {
                Extended::Fin(ids[i + 1])
            };
            let lrl = if i == bridge_from {
                ids[bridge_to]
            } else {
                ids[i]
            };
            Node::with_state(ids[i], l, r, lrl, None, cfg)
                .with_probe_phase(rng.random_range(0..cfg.probe_period))
        })
        .collect()
}

/// Measures A3: stable-state message rate, and rounds to merge a
/// split-brain network whose halves are bridged only by one long-range
/// link, as the probing cadence stretches.
pub fn measure_a3(p: &Params, periods: &[u64]) -> Vec<A3Point> {
    periods
        .iter()
        .map(|&period| {
            let cfg = ProtocolConfig {
                probe_period: period,
                ..Default::default()
            };
            // Standing cost.
            let mut net = stable_network(p.n, cfg, 70, p.warmup.min(2000));
            let start = net.trace().len();
            net.run(100);
            let sent = net.trace().since(start).total_sent();
            let rate = sent as f64 / (100.0 * p.n as f64);
            // Repair behaviour: probing is the only mechanism that can
            // merge the halves, and it races the forget process for the
            // single bridging link. A merge happens within a few hundred
            // rounds or never (the bridge was forgotten → permanent
            // partition), so a short budget suffices.
            let m = p.n.min(128);
            let recov = run_trials(p.trials, |t| {
                let seed = t as u64 * 17 + 3;
                // A length-1 bridge: the repair fires at the prober's own
                // probing step, so latency = its phase within the period.
                let bridge_from = m / 2 - 1;
                let bridge_to = m / 2;
                let nodes = debug_split_brain(m, bridge_from, bridge_to, cfg, seed ^ 0x9d);
                let mut net = swn_sim::Network::new(nodes, seed);
                let total = run_to_ring(&mut net, 20 * m as u64).rounds_to_ring;
                let latency = net
                    .trace()
                    .rounds()
                    .iter()
                    .position(|r| r.probe_repairs > 0)
                    .map(|i| (i + 1) as f64);
                (latency, total)
            });
            let successes: Vec<(f64, f64)> = recov
                .iter()
                .filter_map(|(lat, total)| total.map(|t| (lat.unwrap_or(f64::NAN), t as f64)))
                .collect();
            A3Point {
                period,
                msgs_per_node_round: rate,
                merge_success: successes.len() as f64 / recov.len() as f64,
                repair_latency: mean(&successes.iter().map(|r| r.0).collect::<Vec<_>>()),
                recovery_rounds: mean(&successes.iter().map(|r| r.1).collect::<Vec<_>>()),
            }
        })
        .collect()
}

/// Renders A3.
pub fn run_a3(p: &Params) -> Table {
    let mut t = Table::new(
        "A3  Probing cadence sweep",
        "longer probe periods cut standing cost, but probing races the forget process for \
         bridge links: probe too rarely and single-link bridges are forgotten before any probe \
         crosses them, partitioning the network permanently — the protocol's every-round probing \
         is load-bearing",
        &[
            "period",
            "msgs/node/rd",
            "merge success",
            "repair latency",
            "merge rounds",
        ],
    );
    for pt in measure_a3(p, &[1, 2, 4, 8, 16]) {
        t.push_row(vec![
            pt.period.to_string(),
            f2(pt.msgs_per_node_round),
            f2(pt.merge_success),
            f2(pt.repair_latency),
            f2(pt.recovery_rounds),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_both_variants_stabilize() {
        let mut p = Params::quick();
        p.sizes = vec![32];
        p.trials = 4;
        let pts = measure_a1(&p);
        assert!(pts[0].rounds_with > 0.0);
        assert!(pts[0].rounds_without > 0.0);
    }

    #[test]
    fn a2_larger_eps_forgets_more_and_routes_worse() {
        let mut p = Params::quick();
        p.n = 256;
        p.warmup = 4000;
        let pts = measure_a2(&p, &[0.05, 1.0]);
        assert!(
            pts[1].forget_rate > pts[0].forget_rate,
            "forget rate must rise with eps: {} vs {}",
            pts[0].forget_rate,
            pts[1].forget_rate
        );
        assert!(
            pts[1].mean_hops > pts[0].mean_hops,
            "routing must degrade with eps: {} vs {}",
            pts[0].mean_hops,
            pts[1].mean_hops
        );
    }

    #[test]
    fn a3_longer_period_cheaper_but_loses_bridges() {
        let mut p = Params::quick();
        p.trials = 10;
        let pts = measure_a3(&p, &[1, 16]);
        assert!(
            pts[1].msgs_per_node_round < pts[0].msgs_per_node_round,
            "period 16 must send fewer messages: {} vs {}",
            pts[0].msgs_per_node_round,
            pts[1].msgs_per_node_round
        );
        // Every-round probing always wins the race against the forget
        // process (the token is too young to be forgotten at its first
        // probe); at period 16 the bridge usually dies first.
        assert_eq!(pts[0].merge_success, 1.0, "period 1 must always merge");
        assert!(
            pts[1].merge_success < 0.8,
            "period 16 should usually lose the bridge: {}",
            pts[1].merge_success
        );
    }

    #[test]
    fn ablation_tables_render() {
        let mut p = Params::quick();
        p.sizes = vec![32];
        p.trials = 2;
        p.n = 64;
        p.warmup = 400;
        assert!(run_a1(&p).render().contains("A1"));
        assert!(run_a2(&p).render().contains("A2"));
        assert!(run_a3(&p).render().contains("A3"));
    }
}
