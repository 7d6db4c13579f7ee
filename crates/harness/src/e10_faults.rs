//! **E10 — Self-stabilization under sustained faults.**
//!
//! The convergence theorems assume the Section II model: channels lose
//! nothing. This experiment measures what the protocol *actually*
//! delivers when that assumption is violated at runtime by the
//! deterministic fault engine (`swn_sim::faults`): transient state
//! damage (a crash storm under either restart discipline, a burst
//! partition blocking seam repair, a k-node state perturbation)
//! combined with a sustained message-loss rate during recovery.
//!
//! Every row runs one trial driver: the stable harmonic fixture, a
//! pre-fault steady window, a plan built from the live network, an
//! optional mid-window greedy-routing probe on the CP view, then the
//! recovery watch. Reported per scenario: MTTR (rounds from the damaged
//! state until the sorted ring holds again) as p50/p99/max quantiles
//! from the log2 histogram, message overhead relative to the
//! steady-state rate, the repair cascade's shape and, on the probed
//! crash-storm rows, routing success before and mid-window. Shape to
//! verify: MTTR grows monotonically with the sustained drop rate (p = 0
//! is the damage-only baseline — its loss window draws no injector
//! randomness, so that arm is the crash shock replayed over an
//! otherwise fault-free computation); every scenario recovers, since
//! survivors keep stored pointers to the victims, so the knowledge graph
//! stays connected and Theorem 4.3 still applies between faults; and
//! durable restarts, which reload the crash-round snapshot, recover in
//! strictly fewer rounds than amnesia restarts on the same seeds.
//!
//! The companion demo ([`run_disconnect_demo`]) shows the one fault the
//! process provably cannot absorb: dropping the *sole carrier* of an
//! identifier. The watchdog's knowledge-closure argument classifies it
//! as permanently disconnected and names the culprit drop.
//!
//! The seeded chaos campaign ([`run_campaign_report`], the `experiments
//! chaos` gate) runs hundreds of random valid fault-plan compositions:
//! every run classified (recovered, or disconnected with a named
//! culprit), every failure delta-debugged to a minimal JSON reproducer
//! ([`write_reproducers`]) that [`replay_file`] re-runs.

use crate::table::{f2, mean, Table};
use crate::testbed::{harmonic_network, spread_victims};
use swn_core::config::ProtocolConfig;
use swn_core::id::{Extended, NodeId};
use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::views::View;
use swn_sim::chaos::{
    default_failure, run_campaign, run_scenario, CampaignConfig, CampaignReport, RunResult,
    Scenario,
};
use swn_sim::faults::{watch_recovery, FaultPlan, Verdict, WatchReport};
use swn_sim::obs::flight::FlightRecorder;
use swn_sim::obs::{Histogram, NoopSink, Sink};
use swn_sim::parallel::run_trials;
use swn_sim::trace::RoundStats;
use swn_sim::Network;
use swn_topology::routing::{evaluate_routing, RoutingStats};
use swn_topology::Graph;

/// Sustained per-message drop probabilities to sweep. The first and last
/// entries anchor the monotonicity check.
const DROP_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.1];

/// Master seed of the chaos campaign.
pub const CAMPAIGN_SEED: u64 = 0xe12a;

/// Parameters for E10 and the chaos campaign.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Trials per scenario.
    pub trials: usize,
    /// Nodes whose neighbour state the perturbation scrambles.
    pub damage: usize,
    /// Nodes crashed by the crash-storm scenarios.
    pub crash_nodes: usize,
    /// Rounds a crashed node stays down.
    pub down_for: u64,
    /// Rounds the burst partition stays up.
    pub partition_len: u64,
    /// Random source/target pairs per routing probe.
    pub routing_pairs: usize,
    /// Round budget per recovery watch.
    pub budget: u64,
    /// Scenarios the chaos campaign samples.
    pub scenarios: usize,
}

impl Params {
    /// Full-scale run.
    pub fn full() -> Self {
        Params {
            n: 256,
            trials: 20,
            damage: 8,
            crash_nodes: 6,
            down_for: 20,
            partition_len: 60,
            routing_pairs: 400,
            budget: 200_000,
            scenarios: 200,
        }
    }

    /// Reduced scale (CI smoke).
    pub fn quick() -> Self {
        Params {
            n: 64,
            trials: 8,
            damage: 6,
            crash_nodes: 4,
            down_for: 10,
            partition_len: 25,
            routing_pairs: 200,
            budget: 50_000,
            scenarios: 50,
        }
    }
}

/// Greedy-routing service around the fault window, averaged over trials.
#[derive(Clone, Copy, Debug)]
pub struct RouteProbe {
    /// Mean pre-fault routing success.
    pub pre: f64,
    /// Mean mid-window routing success on the degraded view.
    pub mid: f64,
    /// Mean ratio of mid-window to pre-fault mean hops (1.0 = no
    /// stretch; only trials where both probes delivered count).
    pub hop_stretch: f64,
}

/// Aggregated recovery metrics for one fault scenario.
#[derive(Clone, Debug)]
pub struct FaultPoint {
    /// Scenario label (table row key).
    pub label: String,
    /// Trials whose watchdog verdict was `Recovered`.
    pub recovered: usize,
    /// Total trials.
    pub trials: usize,
    /// MTTR distribution (rounds from the damaged state to sorted ring).
    pub mttr: Histogram,
    /// Each trial's MTTR in seed order, `None` where it did not recover:
    /// two scenarios run on the same seeds pair up trial by trial.
    pub per_trial: Vec<Option<u64>>,
    /// Smallest recovered MTTR (`u64::MAX` when no trial recovered) —
    /// the log2 histogram cannot answer "did every trial wait at least
    /// k rounds", this can.
    pub min_mttr: u64,
    /// Mean messages sent from the damaged state to the verdict.
    pub mean_messages: f64,
    /// Mean ratio of that message rate to the pre-fault steady-state
    /// rate (1.0 = no overhead).
    pub mean_overhead: f64,
    /// Mean messages destroyed by the injector per trial.
    pub mean_dropped: f64,
    /// Per-trial repair-cascade depth maxima (hops from a root delivery
    /// along a repair chain) — one sample per trial. Relates cascade shape
    /// to MTTR: deeper cascades mean longer serial repair chains.
    pub cascade_depth: Histogram,
    /// Mean peak cascade width (deliveries sharing one depth level) —
    /// the parallelism of the repair.
    pub mean_cascade_width: f64,
    /// Routing before and mid-window, on the probed scenarios only.
    pub route: Option<RouteProbe>,
}

/// One trial's raw outcome.
struct Trial {
    rep: WatchReport,
    /// Rounds run between the damaged state and the watch's start (the
    /// probe's stretch), which the MTTR adds back.
    lead: u64,
    /// Round totals from the damaged state to the verdict.
    sums: RoundStats,
    /// Pre-fault steady-state messages per round.
    rate: f64,
    /// Pre-fault and mid-window routing, when probed.
    route: Option<(RoutingStats, RoutingStats)>,
}

/// The one trial driver: warm fixture, measure the steady rate, inject
/// `plan`, optionally probe routing `down_for / 2` rounds into the
/// window, watch. `plan` is built from the live network so scenarios can
/// name real ids; it gets the fault round.
fn run_trial(
    p: &Params,
    seed: u64,
    probe: bool,
    plan: impl Fn(&Network, u64) -> FaultPlan,
) -> Trial {
    let mut net = harmonic_network(p.n, ProtocolConfig::default(), seed);
    // A sink makes the causal tracer live, so `watch_recovery` can
    // bracket a cascade window and fill `WatchReport::cascade`.
    // Observers consume no RNG, so trial outcomes are unchanged.
    net.attach_sink(Box::new(NoopSink), u64::MAX);
    // Steady-state message rate from a pre-fault window: the overhead
    // denominator. The regular action keeps chattering during recovery,
    // so raw message counts overstate the fault's cost.
    let window = 20;
    let start = net.trace().len();
    net.run(window);
    let rate = net.trace().since(start).total_sent() as f64 / window as f64;
    let hop_budget = u32::try_from(4 * p.n).unwrap_or(u32::MAX);
    let routing = |net: &Network, salt: u64| {
        let g = Graph::from_view(&net.view(), View::Cp);
        evaluate_routing(&g, p.routing_pairs, hop_budget, seed ^ salt, None)
    };
    let base = probe.then(|| routing(&net, 0x0b5e));
    let fault_round = net.round() + 1;
    net.attach_faults(plan(&net, fault_round));
    // Execute the fault round itself, then watch: the watchdog treats
    // "sorted ring holds" as already-recovered, so the damage must land
    // before the watch starts. MTTR is counted from the damaged state.
    net.step();
    let damaged = net.trace().len();
    // The probe lands while the victims are still down, so the ring
    // cannot already hold when the watch starts.
    let route = base.map(|base| {
        net.run(p.down_for / 2);
        (base, routing(&net, 0x51d))
    });
    let lead = net.round() - fault_round;
    let rep = watch_recovery(&mut net, p.budget);
    net.detach_faults();
    Trial {
        rep,
        lead,
        sums: net.trace().since(damaged),
        rate,
        route,
    }
}

/// The mean of `xs` (0 when empty).
fn avg(xs: impl Iterator<Item = f64>) -> f64 {
    mean(&xs.collect::<Vec<_>>())
}

fn aggregate(label: String, trials: Vec<Trial>) -> FaultPoint {
    let mut mttr = Histogram::new();
    let mut cascade_depth = Histogram::new();
    let (mut overheads, mut widths) = (Vec::new(), Vec::new());
    let (mut per_trial, mut min_mttr) = (Vec::new(), u64::MAX);
    for t in &trials {
        let rounds = t.rep.verdict.recovered_rounds().map(|r| r + t.lead);
        if let Some(rounds) = rounds {
            mttr.record(rounds);
            min_mttr = min_mttr.min(rounds);
            let expected = t.rate * rounds.max(1) as f64;
            if expected > 0.0 {
                overheads.push(t.sums.total_sent() as f64 / expected);
            }
        }
        per_trial.push(rounds);
        if let Some(c) = &t.rep.cascade {
            cascade_depth.record(c.depth_max());
            widths.push(c.stats.width_max() as f64);
        }
    }
    let routed: Vec<_> = trials.iter().filter_map(|t| t.route.as_ref()).collect();
    FaultPoint {
        label,
        recovered: per_trial.iter().flatten().count(),
        trials: trials.len(),
        mttr,
        per_trial,
        min_mttr,
        mean_messages: avg(trials.iter().map(|t| t.sums.total_sent() as f64)),
        mean_overhead: mean(&overheads),
        mean_dropped: avg(trials.iter().map(|t| t.sums.dropped_fault as f64)),
        cascade_depth,
        mean_cascade_width: mean(&widths),
        route: (!routed.is_empty()).then(|| RouteProbe {
            pre: avg(routed.iter().map(|(b, _)| b.success_rate())),
            mid: avg(routed.iter().map(|(_, m)| m.success_rate())),
            hop_stretch: avg(routed
                .iter()
                .filter(|(b, m)| b.mean_hops > 0.0 && m.delivered > 0)
                .map(|(b, m)| m.mean_hops / b.mean_hops)),
        }),
    }
}

/// `crash_nodes` spread-out victims crash at the fault round and stay
/// down for `down_for` rounds, restarting blank or from their
/// crash-round snapshot.
fn crash_storm(
    p: &Params,
    net: &Network,
    mut plan: FaultPlan,
    at: u64,
    durable: bool,
) -> FaultPlan {
    for v in spread_victims(net, p.crash_nodes) {
        plan = if durable {
            plan.with_durable_crash(at, v, p.down_for, at)
        } else {
            plan.with_crash(at, v, p.down_for)
        };
    }
    plan
}

/// The drop-rate matrix: an amnesia crash storm at the fault instant
/// plus a sustained loss window at rate `p` for the whole recovery.
/// Re-integrating the blank survivors takes real message exchanges,
/// which the loss rate destroys — that is where MTTR picks up its
/// dependence on `p`. The `p = 0` arm is the damage-only baseline: its
/// loss window is inert (the injector draws no randomness for it), so
/// that arm is the fault-free computation plus the seeded crashes.
pub fn measure_drop_matrix(p: &Params) -> Vec<FaultPoint> {
    DROP_RATES
        .iter()
        .map(|&rate| {
            let trials = run_trials(p.trials, |t| {
                let seed = t as u64 * 41 + p.n as u64;
                run_trial(p, seed, false, |net, at| {
                    let loss = FaultPlan::new(seed ^ 0xfa17).with_drop(at, at + p.budget, rate);
                    crash_storm(p, net, loss, at, false)
                })
            });
            aggregate(
                format!("crash storm k={} + drop p={rate}", p.crash_nodes),
                trials,
            )
        })
        .collect()
}

/// The restart-discipline rows — amnesia, then durable — on the same
/// seeds, each probing routing mid-window. Both runs of a seed share
/// fixture, schedule and injector stream and differ only in how the
/// victims restart: durable victims reload their crash-round snapshot,
/// so their ring pointers are correct the moment they return; amnesia
/// victims rejoin blank through real message exchanges.
pub fn measure_crash_restarts(p: &Params) -> (FaultPoint, FaultPoint) {
    let discipline = |durable: bool| {
        let trials = run_trials(p.trials, |t| {
            let seed = t as u64 * 59 + p.n as u64;
            run_trial(p, seed, true, |net, at| {
                crash_storm(p, net, FaultPlan::new(seed ^ 0xc4a5), at, durable)
            })
        });
        let kind = if durable { "durable" } else { "amnesia" };
        aggregate(
            format!("crash storm k={} ({kind} restart)", p.crash_nodes),
            trials,
        )
    };
    (discipline(false), discipline(true))
}

/// Paired `(durable, amnesia)` MTTRs, one per seed. A trial that did not
/// recover counts as the whole watch budget, so it cannot win.
pub fn restart_pairs(p: &Params, amnesia: &FaultPoint, durable: &FaultPoint) -> Vec<(u64, u64)> {
    let mttr = |r: &Option<u64>| r.unwrap_or(p.budget);
    durable
        .per_trial
        .iter()
        .zip(&amnesia.per_trial)
        .map(|(d, a)| (mttr(d), mttr(a)))
        .collect()
}

/// Burst partition: the node *at the cut* crashes and every cross-cut
/// message is destroyed for `partition_len` rounds. The restarted node's
/// true successor sits on the far side, and its `Lin` advertisements —
/// the only messages that carry the successor's id to the seam — die at
/// the cut, so the ring cannot close before the window does: MTTR is at
/// least the burst length in every trial.
pub fn measure_burst_partition(p: &Params) -> FaultPoint {
    let trials = run_trials(p.trials, |t| {
        let seed = t as u64 * 43 + p.n as u64;
        run_trial(p, seed, false, |net, at| {
            let ids = net.ids();
            let cut = ids[ids.len() / 2];
            FaultPlan::new(seed ^ 0xb125)
                .with_crash(at, cut, p.down_for)
                .with_partition(at, at + p.partition_len, cut)
        })
    });
    aggregate(
        format!("partition burst ({} rounds, crash at cut)", p.partition_len),
        trials,
    )
}

/// Neighbour-state perturbation: `damage` nodes get their `r`/`lrl`/ring
/// pointers randomized (their `l` survives, keeping the knowledge graph
/// connected). Interior victims heal within a round or two — the `Lin`
/// advertisements already in their channels restore the true neighbours
/// — while a scrambled *extremum* additionally needs a ring-edge
/// bootstrap cycle to re-close the seam. Either way the damage is far
/// cheaper than a crash: no state is lost, only misdirected.
pub fn measure_perturbation(p: &Params) -> FaultPoint {
    let trials = run_trials(p.trials, |t| {
        let seed = t as u64 * 47 + p.n as u64;
        run_trial(p, seed, false, |_, at| {
            FaultPlan::new(seed ^ 0xc245).with_perturbation(at, p.damage)
        })
    });
    aggregate(format!("perturb k={} (state scramble)", p.damage), trials)
}

/// Table columns; the paired row fills the first four.
const COLUMNS: [&str; 14] = [
    "scenario",
    "recovered",
    "mttr p50",
    "mttr p99",
    "mttr max",
    "msgs mean",
    "x steady",
    "dropped",
    "casc p50",
    "casc max",
    "width mean",
    "route ok pre",
    "route ok mid",
    "hop stretch",
];

fn point_row(pt: &FaultPoint) -> Vec<String> {
    let route = pt.route.map_or(["-"; 3].map(String::from), |r| {
        [f2(r.pre), f2(r.mid), f2(r.hop_stretch)]
    });
    let mut row = vec![
        pt.label.clone(),
        format!("{}/{}", pt.recovered, pt.trials),
        pt.mttr.approx_quantile(0.5).to_string(),
        pt.mttr.approx_quantile(0.99).to_string(),
        pt.mttr.max().to_string(),
        f2(pt.mean_messages),
        f2(pt.mean_overhead),
        f2(pt.mean_dropped),
        pt.cascade_depth.approx_quantile(0.5).to_string(),
        pt.cascade_depth.max().to_string(),
        f2(pt.mean_cascade_width),
    ];
    row.extend(route);
    row
}

/// Runs E10 and renders the table.
pub fn run(p: &Params) -> Table {
    let mut t = Table::new(
        format!("E10  Self-stabilization under sustained faults (n={})", p.n),
        "transient damage heals even under sustained loss; MTTR (from the damaged state) \
         grows with the drop rate (knowledge-closure watchdog, Thm 4.3 between faults); \
         durable restarts reload the crash-round snapshot and beat amnesia on the same \
         seeds (paired row: wins, mean durable and amnesia MTTR); the restart rows probe \
         routing on the live CP view mid-window and watch from there; casc = causal \
         repair-cascade depth (serial chain) and width (peak parallelism) over the watch",
        &COLUMNS,
    );
    for pt in measure_drop_matrix(p) {
        t.push_row(point_row(&pt));
    }
    let (amnesia, durable) = measure_crash_restarts(p);
    t.push_row(point_row(&amnesia));
    t.push_row(point_row(&durable));
    let pairs = restart_pairs(p, &amnesia, &durable);
    let wins = pairs.iter().filter(|(d, a)| d < a).count();
    let (d, a): (Vec<f64>, Vec<f64>) = pairs.iter().map(|&(d, a)| (d as f64, a as f64)).unzip();
    let mut paired = vec![
        "durable vs amnesia (paired seeds)".to_string(),
        format!("{}/{} wins", wins, pairs.len()),
        f2(mean(&d)),
        f2(mean(&a)),
    ];
    paired.resize(COLUMNS.len(), "-".to_string());
    t.push_row(paired);
    t.push_row(point_row(&measure_burst_partition(p)));
    t.push_row(point_row(&measure_perturbation(p)));
    t
}

/// The scripted sole-carrier loss: `a—b` form a sorted 2-list, `c` is
/// known to nobody's *stored* state — only an in-flight `Lin(c)` hint at
/// `a` carries it. `a` forwards the hint toward `b` without storing
/// (`c` is beyond `a`'s right neighbour), and a one-round total-loss
/// window destroys the forward. Returns the watchdog's report; the
/// verdict must be `PermanentlyDisconnected` with the `a -> b` drop as
/// culprit.
pub fn measure_disconnect_demo() -> WatchReport {
    disconnect_demo_with(None)
}

/// The demo body, optionally instrumented with an observation sink (the
/// flight-recorder path): the wiring is identical either way because
/// observers consume no RNG.
fn disconnect_demo_with(sink: Option<Box<dyn Sink>>) -> WatchReport {
    let cfg = ProtocolConfig::default();
    let (a, b, c) = (
        NodeId::from_fraction(0.2),
        NodeId::from_fraction(0.5),
        NodeId::from_fraction(0.8),
    );
    let na = Node::with_state(a, Extended::NegInf, Extended::Fin(b), a, None, cfg);
    let nb = Node::with_state(b, Extended::Fin(a), Extended::PosInf, b, None, cfg);
    let nc = Node::new(c, cfg);
    let mut net = Network::new(vec![na, nb, nc], 3);
    if let Some(sink) = sink {
        net.attach_sink(sink, 1);
    }
    net.preload(a, Message::Lin(c));
    net.attach_faults(FaultPlan::new(7).with_drop(1, 2, 1.0));
    let rep = watch_recovery(&mut net, 50);
    net.detach_faults();
    net.detach_sink();
    rep
}

/// Runs the sole-carrier demo with an anomaly-armed flight recorder
/// dumping to `path`, and returns the watchdog's report. The
/// `PermanentlyDisconnected` verdict trips the recorder's auto-dump, so
/// after this returns `path` holds a JSONL post-mortem — the recent
/// event ring ending in the fault, span, cascade and verdict records,
/// with the culprit drop named in the verdict detail ("sole carrier").
/// This is the CI fault-matrix artifact.
pub fn write_post_mortem(path: impl Into<std::path::PathBuf>) -> WatchReport {
    let (recorder, _buffer) = FlightRecorder::new(512);
    disconnect_demo_with(Some(Box::new(recorder.with_dump_path(path))))
}

/// Renders the sole-carrier demo as its own small table.
pub fn run_disconnect_demo() -> Table {
    let rep = measure_disconnect_demo();
    let mut t = Table::new(
        "E10b  Sole-carrier loss is non-recoverable (knowledge closure)",
        "no protocol rule invents an identifier: dropping the only message carrying one \
         disconnects the knowledge graph permanently, and the watchdog names the drop",
        &["scenario", "verdict", "root cause"],
    );
    let cause = match &rep.verdict {
        Verdict::PermanentlyDisconnected {
            culprit: Some(c), ..
        } => format!(
            "round {}: {:?} from {:?} to {:?}",
            c.round, c.msg, c.src, c.dest
        ),
        Verdict::PermanentlyDisconnected { culprit: None, .. } => "unidentified".to_string(),
        other => format!("unexpected: {other:?}"),
    };
    t.push_row(vec![
        "sole-carrier Lin drop (3 nodes)".to_string(),
        rep.verdict.outcome().to_string(),
        cause,
    ]);
    t
}

/// Runs the seeded chaos campaign with the default failure predicate
/// (anything unclassified fails and is shrunk).
pub fn run_campaign_report(p: &Params) -> CampaignReport {
    let cfg = CampaignConfig::new(CAMPAIGN_SEED, p.scenarios);
    run_campaign(&cfg, &default_failure)
}

/// Renders a campaign report as the chaos-campaign table (titled E12b,
/// the id it was first reported under).
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
    let status = |good: bool| if good { "ok" } else { "FAIL" }.to_string();
    let rows = [
        ("recovered", report.recovered, true),
        ("disconnected (attributed)", report.disconnected, true),
        ("disconnected (unattributed)", report.unattributed, false),
        ("budget exhausted", report.budget_exhausted, false),
        ("panicked", report.panicked, false),
    ];
    for (outcome, runs, benign) in rows {
        t.push_row(vec![
            outcome.to_string(),
            runs.to_string(),
            status(benign || runs == 0),
        ]);
    }
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
        p.trials = 4;
        p.routing_pairs = 100;
        p.budget = 20_000;
        p.scenarios = 10;
        p
    }

    #[test]
    fn mttr_grows_with_the_sustained_drop_rate() {
        let p = Params::quick();
        let pts = measure_drop_matrix(&p);
        for pt in &pts {
            assert_eq!(
                pt.recovered, pt.trials,
                "{}: survivors keep their pointers to the victims, so \
                 every trial must recover",
                pt.label
            );
            // Every arm crashed nodes, so every arm destroyed their mail.
            assert!(pt.mean_dropped > 0.0, "{}: crash queue loss", pt.label);
            // (−1: the fault round itself is consumed before the watch.)
            assert!(
                pt.mttr.max() >= p.down_for - 1,
                "{}: victims were down {} rounds; MTTR max {} cannot be shorter",
                pt.label,
                p.down_for,
                pt.mttr.max()
            );
            // The sink in run_trial makes the causal tracer live, so
            // every trial contributes a cascade-shape sample.
            assert_eq!(
                pt.cascade_depth.count(),
                pt.trials as u64,
                "{}: one cascade depth sample per trial",
                pt.label
            );
            // Re-integrating blank survivors is a multi-hop exchange:
            // the repair cascade cannot be all roots.
            assert!(
                pt.cascade_depth.max() >= 1,
                "{}: repair involved caused messages",
                pt.label
            );
            assert!(
                pt.mean_cascade_width >= 1.0,
                "{}: cascade width is at least one delivery",
                pt.label
            );
        }
        let first = pts.first().expect("at least one rate");
        let last = pts.last().expect("at least one rate");
        assert!(
            first.mttr.mean() < last.mttr.mean(),
            "MTTR must grow from p={} ({:.2}) to p={} ({:.2})",
            DROP_RATES[0],
            first.mttr.mean(),
            DROP_RATES[DROP_RATES.len() - 1],
            last.mttr.mean()
        );
    }

    #[test]
    fn partition_burst_blocks_seam_repair_for_the_whole_window() {
        let p = tiny();
        let pt = measure_burst_partition(&p);
        assert_eq!(pt.recovered, pt.trials, "{pt:?}");
        // The crashed cut node's successor is across the cut; its
        // advertisements die until the window closes, so *every* trial
        // waits out the burst.
        // (−1: the fault round itself is consumed before the watch.)
        assert!(
            pt.min_mttr >= p.partition_len - 1,
            "a trial beat the {}-round burst: fastest MTTR {}",
            p.partition_len,
            pt.min_mttr
        );
    }

    #[test]
    fn perturbation_is_cheap_recoverable_damage() {
        let p = tiny();
        let pt = measure_perturbation(&p);
        assert_eq!(pt.recovered, pt.trials, "{pt:?}");
        // Interior scrambles heal in a round or two; a hit extremum
        // needs a ring-edge bootstrap cycle on top. Either way, far
        // below the budget and the crash scenarios' down time.
        assert!(
            pt.mttr.max() <= 500,
            "scrambled pointers took {} rounds to heal",
            pt.mttr.max()
        );
        assert!(
            pt.min_mttr <= 4,
            "some interior-only trial should heal within a round or two, \
             fastest was {}",
            pt.min_mttr
        );
        assert!(pt.mean_dropped == 0.0, "perturbation destroys no messages");
    }

    #[test]
    fn disconnect_demo_names_the_culprit() {
        let rep = measure_disconnect_demo();
        match rep.verdict {
            Verdict::PermanentlyDisconnected {
                culprit: Some(c), ..
            } => {
                assert_eq!(c.src, NodeId::from_fraction(0.2));
                assert_eq!(c.dest, NodeId::from_fraction(0.5));
                assert_eq!(c.msg, Message::Lin(NodeId::from_fraction(0.8)));
            }
            other => panic!("expected a named sole-carrier culprit, got {other:?}"),
        }
    }

    #[test]
    fn tables_render() {
        let mut p = tiny();
        p.trials = 2;
        let table = run(&p).render();
        assert!(table.contains("E10"));
        assert!(table.contains("casc p50"), "{table}");
        assert!(table.contains("route ok mid"), "{table}");
        assert!(table.contains("durable vs amnesia"), "{table}");
        let demo = run_disconnect_demo().render();
        assert!(demo.contains("disconnected"), "{demo}");
        assert!(demo.contains("root cause"), "{demo}");
    }

    #[test]
    fn post_mortem_dump_names_the_culprit() {
        let dir = std::env::temp_dir().join("swn_e10_postmortem_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("postmortem.jsonl");
        let _ = std::fs::remove_file(&path);
        let rep = write_post_mortem(&path);
        assert_eq!(rep.verdict.outcome(), "disconnected");
        let dump = std::fs::read_to_string(&path).expect("anomaly auto-dumped the ring");
        assert!(dump.contains("sole carrier"), "culprit named: {dump}");
        // The dump is the full recent-event ring, ending in the verdict:
        // span and cascade records are already inside it.
        assert!(dump.contains("\"Cascade\""), "cascade record present");
        assert!(dump.contains("\"Verdict\""), "verdict record present");
        for line in dump.lines() {
            swn_sim::obs::parse_record(line).expect("every dumped line parses");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_storm_degrades_routing_mid_window() {
        let p = tiny();
        let (pt, _) = measure_crash_restarts(&p);
        assert_eq!(pt.recovered, pt.trials, "{pt:?}");
        let route = pt.route.expect("the restart rows probe routing");
        assert!(
            route.pre > 0.99,
            "the harmonic fixture routes pre-fault ({})",
            route.pre
        );
        assert!(
            route.mid < route.pre,
            "downed nodes must show up as routing loss: pre {} vs mid {}",
            route.pre,
            route.mid
        );
    }

    #[test]
    fn durable_restart_beats_amnesia_on_every_seed() {
        let p = tiny();
        let (amnesia, durable) = measure_crash_restarts(&p);
        for (t, (durable_mttr, amnesia_mttr)) in restart_pairs(&p, &amnesia, &durable)
            .into_iter()
            .enumerate()
        {
            assert!(
                durable_mttr < amnesia_mttr,
                "trial {t}: durable restart ({durable_mttr} rounds) must recover in \
                 strictly fewer rounds than amnesia ({amnesia_mttr} rounds)"
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
        let dir = std::env::temp_dir().join("swn_chaos_reproducers_test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_reproducers(&report, &dir).expect("write artifacts");
        assert_eq!(paths.len(), 1);
        let (replayed, res) = replay_file(paths[0].to_str().expect("utf-8 path")).expect("replay");
        assert_eq!(replayed, report.failures[0].shrunk);
        assert_eq!(res, report.failures[0].shrunk_result);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
