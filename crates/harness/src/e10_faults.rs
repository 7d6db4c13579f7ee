//! **E10 — Self-stabilization under sustained faults.**
//!
//! The convergence theorems assume the Section II model: channels lose
//! nothing. This experiment measures what the protocol *actually*
//! delivers when that assumption is violated at runtime by the
//! deterministic fault engine (`swn_sim::faults`): transient state
//! damage (a crash storm, a burst partition blocking seam repair, a
//! k-node state perturbation) combined with a sustained message-loss
//! rate during recovery.
//!
//! Reported per scenario: MTTR (rounds from the fault instant until the
//! sorted ring holds again) as p50/p99/max quantiles from the log2
//! histogram, plus message overhead relative to the steady-state rate.
//! Shape to verify: MTTR grows monotonically with the sustained drop
//! rate (p = 0 is the damage-only baseline — its loss window draws no
//! injector randomness, so that arm is the crash shock replayed over an
//! otherwise fault-free computation), and every transient-fault
//! scenario recovers: survivors keep stored pointers to the victims, so
//! the knowledge graph stays connected and Theorem 4.3 still applies
//! between faults.
//!
//! The companion demo ([`run_disconnect_demo`]) shows the one fault the
//! process provably cannot absorb: dropping the *sole carrier* of an
//! identifier. The watchdog's knowledge-closure argument classifies it
//! as permanently disconnected and names the culprit drop.

use crate::table::{f2, mean, Table};
use crate::testbed::{harmonic_network, spread_victims};
use swn_core::config::ProtocolConfig;
use swn_core::id::{Extended, NodeId};
use swn_core::message::Message;
use swn_core::node::Node;
use swn_sim::faults::{watch_recovery, FaultPlan, Verdict, WatchReport};
use swn_sim::obs::flight::FlightRecorder;
use swn_sim::obs::{Histogram, NoopSink, Sink};
use swn_sim::parallel::run_trials;
use swn_sim::Network;

/// Sustained per-message drop probabilities to sweep. The first and last
/// entries anchor the monotonicity check.
const DROP_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.1];

/// Parameters for E10.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Trials per scenario.
    pub trials: usize,
    /// Nodes whose neighbour state the perturbation scrambles.
    pub damage: usize,
    /// Nodes crashed by the crash-storm scenario.
    pub crash_nodes: usize,
    /// Rounds a crashed node stays down.
    pub down_for: u64,
    /// Rounds the burst partition stays up.
    pub partition_len: u64,
    /// Round budget per recovery watch.
    pub budget: u64,
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
            budget: 200_000,
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
            budget: 50_000,
        }
    }
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
    /// MTTR distribution (rounds from fault instant to sorted ring).
    pub mttr: Histogram,
    /// Smallest recovered MTTR (`u64::MAX` when no trial recovered) —
    /// the log2 histogram cannot answer "did every trial wait at least
    /// k rounds", this can.
    pub min_mttr: u64,
    /// Mean messages sent during the watch.
    pub mean_messages: f64,
    /// Mean ratio of the watch's message rate to the pre-fault
    /// steady-state rate (1.0 = no overhead).
    pub mean_overhead: f64,
    /// Mean messages destroyed by the injector per trial.
    pub mean_dropped: f64,
    /// Per-trial repair-cascade depth maxima (hops from a root delivery
    /// in the causal DAG) — one sample per trial. Relates cascade shape
    /// to MTTR: deeper cascades mean longer serial repair chains.
    pub cascade_depth: Histogram,
    /// Mean peak cascade width (deliveries sharing one depth level) —
    /// the parallelism of the repair.
    pub mean_cascade_width: f64,
}

/// One trial: warm fixture, measure the steady rate, inject `plan`, watch.
/// `plan` is built from the live network so scenarios can name real ids.
fn run_trial(
    p: &Params,
    seed: u64,
    mk_plan: impl Fn(&Network, u64) -> FaultPlan,
) -> (WatchReport, f64) {
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
    let plan = mk_plan(&net, net.round() + 1);
    net.attach_faults(plan);
    // Execute the fault round itself, then watch: the watchdog treats
    // "sorted ring holds" as already-recovered, so the damage must land
    // before the watch starts. MTTR is counted from the damaged state.
    net.step();
    let rep = watch_recovery(&mut net, p.budget);
    net.detach_faults();
    (rep, rate)
}

fn aggregate(label: String, trials: Vec<(WatchReport, f64)>) -> FaultPoint {
    let mut mttr = Histogram::new();
    let mut min_mttr = u64::MAX;
    let mut recovered = 0;
    let mut overheads = Vec::new();
    let mut cascade_depth = Histogram::new();
    let mut widths = Vec::new();
    for (rep, _) in &trials {
        if let Some(rounds) = rep.verdict.recovered_rounds() {
            recovered += 1;
            mttr.record(rounds);
            min_mttr = min_mttr.min(rounds);
        }
        if let Some(c) = &rep.cascade {
            cascade_depth.record(c.depth_max());
            widths.push(c.stats.width_max() as f64);
        }
    }
    for (rep, rate) in &trials {
        if let Verdict::Recovered { rounds } = rep.verdict {
            let expected = rate * rounds.max(1) as f64;
            if expected > 0.0 {
                overheads.push(rep.messages as f64 / expected);
            }
        }
    }
    FaultPoint {
        label,
        recovered,
        trials: trials.len(),
        mttr,
        min_mttr,
        mean_messages: mean(
            &trials
                .iter()
                .map(|(r, _)| r.messages as f64)
                .collect::<Vec<_>>(),
        ),
        mean_overhead: mean(&overheads),
        mean_dropped: mean(
            &trials
                .iter()
                .map(|(r, _)| r.dropped_fault as f64)
                .collect::<Vec<_>>(),
        ),
        cascade_depth,
        mean_cascade_width: mean(&widths),
    }
}

/// The drop-rate matrix: a crash storm at the fault instant
/// (`crash_nodes` spread-out nodes lose their state and channels, down
/// for `down_for` rounds, restart blank) plus a sustained loss window at
/// rate `p` for the whole recovery. Re-integrating the blank survivors
/// takes real message exchanges, which the loss rate destroys — that is
/// where MTTR picks up its dependence on `p`. The `p = 0` arm is the
/// damage-only baseline: its loss window is inert (the injector draws no
/// randomness for it), so that arm is the fault-free computation plus
/// the seeded crashes.
pub fn measure_drop_matrix(p: &Params) -> Vec<FaultPoint> {
    DROP_RATES
        .iter()
        .map(|&rate| {
            let trials = run_trials(p.trials, |t| {
                let seed = t as u64 * 41 + p.n as u64;
                run_trial(p, seed, |net, fault_round| {
                    let mut plan = FaultPlan::new(seed ^ 0xfa17).with_drop(
                        fault_round,
                        fault_round + p.budget,
                        rate,
                    );
                    for v in spread_victims(net, p.crash_nodes) {
                        plan = plan.with_crash(fault_round, v, p.down_for);
                    }
                    plan
                })
            });
            aggregate(
                format!("crash storm k={} + drop p={rate}", p.crash_nodes),
                trials,
            )
        })
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
        run_trial(p, seed, |net, fault_round| {
            let ids = net.ids();
            let cut = ids[ids.len() / 2];
            FaultPlan::new(seed ^ 0xb125)
                .with_crash(fault_round, cut, p.down_for)
                .with_partition(fault_round, fault_round + p.partition_len, cut)
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
        run_trial(p, seed, |_, fault_round| {
            FaultPlan::new(seed ^ 0xc245).with_perturbation(fault_round, p.damage)
        })
    });
    aggregate(format!("perturb k={} (state scramble)", p.damage), trials)
}

fn point_row(pt: &FaultPoint) -> Vec<String> {
    vec![
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
    ]
}

/// Runs E10 and renders the table.
pub fn run(p: &Params) -> Table {
    let mut t = Table::new(
        format!("E10  Self-stabilization under sustained faults (n={})", p.n),
        "transient damage heals even under sustained loss; MTTR grows with the drop rate \
         (knowledge-closure watchdog, Thm 4.3 between faults); casc = causal repair-cascade \
         depth (serial chain) and width (peak parallelism)",
        &[
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
        ],
    );
    for pt in measure_drop_matrix(p) {
        t.push_row(point_row(&pt));
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        let mut p = Params::quick();
        p.n = 32;
        p.trials = 4;
        p.budget = 20_000;
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
            // the repair DAG cannot be all roots.
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
}
