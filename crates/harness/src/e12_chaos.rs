//! **E12 — Restart disciplines and the chaos campaign.**
//!
//! Two instruments on top of the fault engine (`swn_sim::faults`) and
//! the chaos engine (`swn_sim::chaos`):
//!
//! * **E12a** runs a crash storm under both restart disciplines against
//!   the stable harmonic fixture, and reports MTTR alongside the
//!   *in-window service degradation*: greedy-routing success and hop
//!   stretch measured mid-window on the live CP view against the
//!   pre-fault baseline. Durable restarts reload the crash-round
//!   snapshot instead of rejoining blank, so they recover in strictly
//!   fewer rounds than amnesia restarts on the same seeds.
//!
//! * **E12b** runs the seeded chaos campaign: hundreds of random valid
//!   fault-plan compositions, every run classified (recovered, or
//!   disconnected with a named culprit), every failure delta-debugged
//!   to a minimal JSON reproducer. The campaign table is the CI
//!   chaos-smoke gate: any unclassified run fails it, and the shrunk
//!   reproducers are written out as artifacts for replay.

use crate::table::{f2, mean, Table};
use crate::testbed::{harmonic_network, spread_victims};
use swn_core::config::ProtocolConfig;
use swn_core::views::View;
use swn_sim::chaos::{
    default_failure, run_campaign, run_scenario, CampaignConfig, CampaignReport, RunResult,
    Scenario,
};
use swn_sim::faults::{watch_recovery, FaultPlan, WatchReport};
use swn_sim::obs::{Histogram, NoopSink};
use swn_sim::parallel::run_trials;
use swn_topology::routing::{evaluate_routing, RoutingStats};
use swn_topology::Graph;

/// Master seed of the chaos campaign.
pub const CAMPAIGN_SEED: u64 = 0xe12a;

/// Parameters for E12.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size for the crash-storm trials.
    pub n: usize,
    /// Trials per restart discipline.
    pub trials: usize,
    /// Rounds each crash stays down.
    pub window: u64,
    /// Crash-storm victims for the restart-discipline rows.
    pub crash_nodes: usize,
    /// Random source/target pairs per routing evaluation.
    pub routing_pairs: usize,
    /// Round budget per recovery watch.
    pub budget: u64,
    /// Scenarios the campaign samples.
    pub scenarios: usize,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            n: 256,
            trials: 12,
            window: 40,
            crash_nodes: 6,
            routing_pairs: 400,
            budget: 100_000,
            scenarios: 200,
        }
    }

    /// Reduced scale (CI smoke).
    pub fn quick() -> Self {
        Params {
            n: 64,
            trials: 6,
            window: 16,
            crash_nodes: 4,
            routing_pairs: 200,
            budget: 30_000,
            scenarios: 50,
        }
    }
}

/// One crash-storm trial: the recovery watch plus the two routing
/// evaluations bracketing the fault window.
struct StormTrial {
    rep: WatchReport,
    base: RoutingStats,
    mid: RoutingStats,
    dropped: u64,
}

/// Aggregated metrics for one restart discipline.
#[derive(Clone, Debug)]
pub struct ChaosPoint {
    /// Class label (table row key).
    pub label: String,
    /// Trials whose watchdog verdict was `Recovered`.
    pub recovered: usize,
    /// Total trials.
    pub trials: usize,
    /// Post-horizon MTTR distribution (rounds from window close to
    /// sorted ring).
    pub mttr: Histogram,
    /// Mean pre-fault greedy-routing success.
    pub base_success: f64,
    /// Mean mid-window greedy-routing success on the degraded view.
    pub mid_success: f64,
    /// Mean ratio of mid-window to baseline mean hops (1.0 = no
    /// stretch; only trials where both evaluations delivered count).
    pub hop_stretch: f64,
    /// Mean messages destroyed by the injector per trial.
    pub mean_dropped: f64,
    /// Per-trial repair-cascade depth maxima (causal DAG hops).
    pub cascade_depth: Histogram,
}

/// Drives one crash-storm scenario: warm fixture, baseline routing,
/// `crash_nodes` victims crashed for the window (restarting durably or
/// blank) with a mid-window routing probe, then the recovery watch.
/// MTTR here is counted from the window *close* (all faults landed),
/// so it is pure repair work, not residual downtime.
fn run_storm_trial(p: &Params, seed: u64, durable: bool) -> StormTrial {
    let mut net = harmonic_network(p.n, ProtocolConfig::default(), seed);
    // The sink arms the causal tracer so the watch can bracket a
    // cascade window; observers consume no RNG, outcomes are unchanged.
    net.attach_sink(Box::new(NoopSink), u64::MAX);
    net.run(10);
    let hop_budget = u32::try_from(4 * p.n).unwrap_or(u32::MAX);
    let base_g = Graph::from_view(&net.view(), View::Cp);
    let base = evaluate_routing(&base_g, p.routing_pairs, hop_budget, seed ^ 0x0b5e, None);

    let start = net.round() + 1;
    let mut plan = FaultPlan::new(seed ^ 0xc4a5);
    for v in spread_victims(&net, p.crash_nodes) {
        plan = if durable {
            plan.with_durable_crash(start, v, p.window, start)
        } else {
            plan.with_crash(start, v, p.window)
        };
    }
    net.attach_faults(plan);
    // Probe the degraded service mid-window, while the crashed nodes
    // are down.
    net.run(start + p.window / 2 - net.round());
    let mid_g = Graph::from_view(&net.view(), View::Cp);
    let mid = evaluate_routing(&mid_g, p.routing_pairs, hop_budget, seed ^ 0x51d, None);
    // Close the window (and let every crash restart), then watch. The
    // plan attached at `start`, so the trace's fault totals up to here
    // are the window's.
    net.run(start + p.window - net.round());
    let dropped = net.trace().since(0).dropped_fault;
    let rep = watch_recovery(&mut net, p.budget);
    net.detach_faults();
    StormTrial {
        rep,
        base,
        mid,
        dropped,
    }
}

fn aggregate(label: String, trials: Vec<StormTrial>) -> ChaosPoint {
    let mut mttr = Histogram::new();
    let mut cascade_depth = Histogram::new();
    let mut recovered = 0;
    let mut stretches = Vec::new();
    for t in &trials {
        if let Some(rounds) = t.rep.verdict.recovered_rounds() {
            recovered += 1;
            mttr.record(rounds);
        }
        if let Some(c) = &t.rep.cascade {
            cascade_depth.record(c.depth_max());
        }
        if t.base.mean_hops > 0.0 && t.mid.delivered > 0 {
            stretches.push(t.mid.mean_hops / t.base.mean_hops);
        }
    }
    let f64s = |f: &dyn Fn(&StormTrial) -> f64| trials.iter().map(f).collect::<Vec<_>>();
    ChaosPoint {
        label,
        recovered,
        trials: trials.len(),
        mttr,
        base_success: mean(&f64s(&|t| t.base.success_rate())),
        mid_success: mean(&f64s(&|t| t.mid.success_rate())),
        hop_stretch: mean(&stretches),
        mean_dropped: mean(&f64s(&|t| t.dropped as f64)),
        cascade_depth,
    }
}

/// Paired MTTRs for one seed under both restart disciplines.
#[derive(Clone, Copy, Debug)]
pub struct RestartPair {
    /// Trial seed (shared by both runs).
    pub seed: u64,
    /// Post-restart recovery rounds with durable restarts.
    pub durable_mttr: u64,
    /// Post-restart recovery rounds with amnesia restarts.
    pub amnesia_mttr: u64,
}

/// The restart-discipline rows — amnesia, then durable — and their
/// per-seed pairs, from one run of each discipline per seed. A crash
/// storm of `crash_nodes` victims stays down for the whole window;
/// both runs of a seed share fixture, schedule and injector stream, and
/// differ only in how the victims restart. Durable victims reload their
/// crash-round snapshot, so their ring pointers are correct the moment
/// they return; amnesia victims rejoin blank through real message
/// exchanges. (In a pair, a verdict other than `Recovered` maps to the
/// watch budget — it cannot win a comparison.)
pub fn measure_crash_restarts(p: &Params) -> (ChaosPoint, ChaosPoint, Vec<RestartPair>) {
    let runs = run_trials(p.trials, |t| {
        let seed = t as u64 * 59 + p.n as u64;
        (
            seed,
            run_storm_trial(p, seed, false),
            run_storm_trial(p, seed, true),
        )
    });
    let mttr = |t: &StormTrial| t.rep.verdict.recovered_rounds().unwrap_or(p.budget);
    let pairs = runs
        .iter()
        .map(|(seed, amnesia, durable)| RestartPair {
            seed: *seed,
            durable_mttr: mttr(durable),
            amnesia_mttr: mttr(amnesia),
        })
        .collect();
    let (amnesia, durable) = runs.into_iter().map(|(_, a, d)| (a, d)).unzip();
    let label = |kind: &str| format!("crash storm k={} ({kind} restart)", p.crash_nodes);
    (
        aggregate(label("amnesia"), amnesia),
        aggregate(label("durable"), durable),
        pairs,
    )
}

fn point_row(pt: &ChaosPoint) -> Vec<String> {
    vec![
        pt.label.clone(),
        format!("{}/{}", pt.recovered, pt.trials),
        pt.mttr.approx_quantile(0.5).to_string(),
        pt.mttr.max().to_string(),
        f2(pt.base_success),
        f2(pt.mid_success),
        f2(pt.hop_stretch),
        f2(pt.mean_dropped),
        pt.cascade_depth.approx_quantile(0.5).to_string(),
        pt.cascade_depth.max().to_string(),
    ]
}

/// Runs E12a and renders the restart-discipline table.
pub fn run(p: &Params) -> Table {
    let mut t = Table::new(
        format!(
            "E12a  Restart disciplines: degradation and recovery (n={})",
            p.n
        ),
        "routing measured on the live CP view mid-window vs the pre-fault baseline; \
         mttr counted from window close (pure repair, no residual downtime); durable \
         restarts reload the crash-round snapshot and beat amnesia on the same seeds",
        &[
            "fault",
            "recovered",
            "mttr p50",
            "mttr max",
            "route ok pre",
            "route ok mid",
            "hop stretch",
            "dropped",
            "casc p50",
            "casc max",
        ],
    );
    let (amnesia, durable, pairs) = measure_crash_restarts(p);
    t.push_row(point_row(&amnesia));
    t.push_row(point_row(&durable));
    let durable: Vec<f64> = pairs.iter().map(|x| x.durable_mttr as f64).collect();
    let amnesia: Vec<f64> = pairs.iter().map(|x| x.amnesia_mttr as f64).collect();
    let wins = pairs
        .iter()
        .filter(|x| x.durable_mttr < x.amnesia_mttr)
        .count();
    t.push_row(vec![
        "durable vs amnesia (paired seeds)".to_string(),
        format!("{}/{} wins", wins, pairs.len()),
        f2(mean(&durable)),
        f2(mean(&amnesia)),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    t
}

/// Runs the seeded chaos campaign with the default failure predicate
/// (anything unclassified fails and is shrunk).
pub fn run_campaign_report(p: &Params) -> CampaignReport {
    let cfg = CampaignConfig::new(CAMPAIGN_SEED, p.scenarios);
    run_campaign(&cfg, &default_failure)
}

/// Renders a campaign report as the E12b table.
pub fn campaign_table(report: &CampaignReport) -> Table {
    let mut t = Table::new(
        format!(
            "E12b  Chaos campaign: {} random fault compositions (seed {:#x})",
            report.total, CAMPAIGN_SEED
        ),
        "every sampled scenario must be *classified*: it recovers, or it disconnects \
         with a culprit sole-carrier drop named. Panics, budget exhaustion and \
         unattributed disconnections are failures, shrunk to minimal JSON reproducers",
        &["outcome", "runs", "status"],
    );
    let ok = |good: bool| if good { "ok" } else { "FAIL" }.to_string();
    t.push_row(vec![
        "recovered".to_string(),
        report.recovered.to_string(),
        "ok".to_string(),
    ]);
    t.push_row(vec![
        "disconnected (attributed)".to_string(),
        report.disconnected.to_string(),
        "ok".to_string(),
    ]);
    t.push_row(vec![
        "disconnected (unattributed)".to_string(),
        report.unattributed.to_string(),
        ok(report.unattributed == 0),
    ]);
    t.push_row(vec![
        "budget exhausted".to_string(),
        report.budget_exhausted.to_string(),
        ok(report.budget_exhausted == 0),
    ]);
    t.push_row(vec![
        "panicked".to_string(),
        report.panicked.to_string(),
        ok(report.panicked == 0),
    ]);
    for f in &report.failures {
        t.push_row(vec![
            format!("  shrunk reproducer #{}", f.index),
            format!("{} entries", f.shrunk.plan.entry_count()),
            f.shrunk_result.outcome.label().to_string(),
        ]);
    }
    t
}

/// Writes every shrunk reproducer of a failed campaign into `dir` as
/// `reproducer-<index>.json`, replayable with `experiments replay`.
/// Returns the written paths.
pub fn write_reproducers(
    report: &CampaignReport,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut out = Vec::new();
    if report.failures.is_empty() {
        return Ok(out);
    }
    std::fs::create_dir_all(dir)?;
    for f in &report.failures {
        let path = dir.join(format!("reproducer-{}.json", f.index));
        std::fs::write(&path, f.shrunk.to_json())?;
        out.push(path);
    }
    Ok(out)
}

/// Replays a scenario file (a shrunk reproducer, or any hand-written
/// scenario) and returns the scenario plus its classified result.
pub fn replay_file(path: &str) -> Result<(Scenario, RunResult), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario = Scenario::from_json(&json)?;
    let result = run_scenario(&scenario);
    Ok((scenario, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        let mut p = Params::quick();
        p.n = 32;
        p.trials = 3;
        p.window = 10;
        p.crash_nodes = 3;
        p.routing_pairs = 100;
        p.budget = 20_000;
        p.scenarios = 10;
        p
    }

    #[test]
    fn crash_storm_degrades_routing_mid_window() {
        let p = tiny();
        let (pt, _, _) = measure_crash_restarts(&p);
        assert_eq!(pt.recovered, pt.trials, "{pt:?}");
        assert!(
            pt.base_success > 0.99,
            "the harmonic fixture routes pre-fault ({})",
            pt.base_success
        );
        assert!(
            pt.mid_success < pt.base_success,
            "downed nodes must show up as routing loss: pre {} vs mid {}",
            pt.base_success,
            pt.mid_success
        );
    }

    #[test]
    fn durable_restart_beats_amnesia_on_every_seed() {
        let p = tiny();
        let (_, _, pairs) = measure_crash_restarts(&p);
        for pair in pairs {
            assert!(
                pair.durable_mttr < pair.amnesia_mttr,
                "seed {}: durable restart ({} rounds) must recover in strictly \
                 fewer rounds than amnesia ({} rounds)",
                pair.seed,
                pair.durable_mttr,
                pair.amnesia_mttr
            );
        }
    }

    #[test]
    fn campaign_smoke_is_clean_and_tables_render() {
        let p = tiny();
        let report = run_campaign_report(&p);
        assert_eq!(report.total, p.scenarios);
        assert!(
            report.clean(),
            "campaign failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (&f.result.outcome, f.scenario.to_json()))
                .collect::<Vec<_>>()
        );
        let rendered = campaign_table(&report).render();
        assert!(rendered.contains("E12b"), "{rendered}");
        assert!(rendered.contains("recovered"), "{rendered}");
        assert!(!rendered.contains("FAIL"), "{rendered}");
    }

    #[test]
    fn reproducers_round_trip_through_the_replay_path() {
        // Build a synthetic failed campaign (a scenario whose budget is
        // too small to finish) and check the artifact + replay plumbing.
        use swn_sim::chaos::{shrink, FailureCase, Outcome, Start};
        use swn_sim::faults::Verdict;
        let scenario = Scenario {
            n: 16,
            net_seed: 3,
            start: Start::Sparse { extra: 2 },
            budget: 1,
            plan: FaultPlan::new(7).with_drop(1, 3, 0.9),
        };
        let strict =
            |r: &RunResult| !matches!(r.outcome, Outcome::Verdict(Verdict::Recovered { .. }));
        let result = run_scenario(&scenario);
        assert!(strict(&result), "starved budget must fail: {result:?}");
        let shrunk = shrink(&scenario, &|c| strict(&run_scenario(c)));
        let shrunk_result = run_scenario(&shrunk);
        let report = CampaignReport {
            total: 1,
            failures: vec![FailureCase {
                index: 0,
                scenario,
                result,
                shrunk,
                shrunk_result,
            }],
            ..Default::default()
        };
        let dir = std::env::temp_dir().join("swn_e12_reproducers_test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_reproducers(&report, &dir).expect("write artifacts");
        assert_eq!(paths.len(), 1);
        let (replayed, res) = replay_file(paths[0].to_str().expect("utf-8 path")).expect("replay");
        assert_eq!(replayed, report.failures[0].shrunk);
        assert_eq!(res, report.failures[0].shrunk_result);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
