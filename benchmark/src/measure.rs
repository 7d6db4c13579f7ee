//! The two passes of a run and the metrics each one yields.
//!
//! [`untraced`] repeats trials through the library's entry points and
//! reports the end-to-end metrics. [`traced`] runs every trial once that
//! way, for reference, and once through the traced loop, compares the two
//! executions, probes the final network, and turns spans and counters
//! into the per-layer metrics, in the order `spec::PER_LAYER` declares.

use std::time::Instant;

use swn_core::message::MessageKind;
use swn_core::node::Node;
use swn_sim::trace::RoundStats;

use crate::probes::{after_trial, Found, RoundProbe, PROBE_PAIRS};
use crate::stats::{high_percentile, median, median_u64, peak_rss_mb, quartile_spread};
use crate::trace::Tracer;
use crate::workloads::{trial, Outcome, Workload};

/// Trials an untraced run makes at least, so `setup_s` is a median.
const MIN_TRIALS: u64 = 3;
/// The traced pass must account for all but this share of a trial.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// One measured value: `spread` is the samples' quartile distance over
/// their median where the value is a median, 0 where it is exact.
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub spread: f64,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub trials: u64,
    /// Digest of the trial at the base seed, which every run makes.
    pub sim_digest: u64,
    pub rows: Vec<Row>,
}

#[derive(Default)]
struct Rows(Vec<Row>);

impl Rows {
    fn exact(&mut self, name: &'static str, value: f64) {
        self.0.push(Row {
            name,
            value,
            spread: 0.0,
        });
    }

    /// The median of `samples`, times `scale`.
    fn over(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        self.0.push(Row {
            name,
            value: median(samples) * scale,
            spread: quartile_spread(samples),
        });
    }
}

pub fn untraced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut tr = Tracer::new(false);
    let (mut setup, mut node_rounds, mut deliveries) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut sim_digest) = (0, 0, 0);
    let start = Instant::now();
    let mut k = 0;
    while k < MIN_TRIALS || start.elapsed().as_secs_f64() < seconds {
        let t = trial(w, seed + k, &mut tr, None);
        let wall_s = t.wall_ns as f64 / 1e9;
        setup.push(t.setup_ns as f64);
        node_rounds.push(t.outcome.node_rounds as f64 / wall_s);
        deliveries.push(t.outcome.deliveries as f64 / wall_s);
        attempted += t.outcome.ops();
        failed += t.outcome.failed;
        if k == 0 {
            sim_digest = t.outcome.digest;
        }
        k += 1;
    }
    let mut rows = Rows::default();
    rows.over("node_rounds_per_s", &node_rounds, 1.0);
    rows.over("deliveries_per_s", &deliveries, 1.0);
    rows.exact("peak_rss_mb", peak_rss_mb()?);
    rows.over("setup_s", &setup, 1e-9);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        trials: k,
        sim_digest,
        rows: rows.0,
    })
}

/// Whether two passes over one seed simulated the same execution.
fn same_execution(a: &Outcome, b: &Outcome) -> bool {
    a.digest == b.digest
        && a.rounds == b.rounds
        && a.deliveries == b.deliveries
        && a.op_rounds == b.op_rounds
        && a.op_msgs == b.op_msgs
}

pub fn traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    spans: Option<&str>,
) -> Result<Report, String> {
    let mut tr = Tracer::new(true);
    let mut probe = RoundProbe::new(seed);
    let mut sum = Outcome::default();
    let mut found: Vec<Found> = Vec::new();
    let mut small_world = Vec::new();
    let (mut plain_wall, mut sim_digest, mut diverged) = (0.0, 0, false);
    let start = Instant::now();
    let mut k = 0;
    loop {
        let plain = trial(w, seed + k, &mut Tracer::new(false), None);
        plain_wall += plain.wall_ns as f64;
        let plain = plain.outcome;
        tr.trial = k;
        let mut traced = trial(w, seed + k, &mut tr, Some(&mut probe));
        diverged |= !same_execution(&plain, &traced.outcome);
        found.push(after_trial(&mut traced.net, seed + k, &mut tr));
        let t = traced.outcome;
        if k == 0 {
            sim_digest = t.digest;
        }
        sum.rounds += t.rounds;
        sum.node_rounds += t.node_rounds;
        sum.deliveries += t.deliveries;
        for (total, d) in sum.delivered_by_kind.iter_mut().zip(t.delivered_by_kind) {
            *total += d;
        }
        sum.op_rounds.extend(t.op_rounds);
        sum.op_msgs.extend(t.op_msgs);
        sum.failed += t.failed;
        small_world.extend(t.small_world);
        k += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            probe.fill_unseen_kinds(&traced.net);
            break;
        }
    }
    if let Some(path) = spans {
        tr.write_jsonl(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let ns = |phase, layer, name| tr.durations(phase, layer, name);
    let total = |phase, layer, name| tr.total(phase, layer, name);
    let step = ns("timed", "sim.network", "step");
    let step_total: f64 = step.iter().sum();
    let timed_total = total("timed", "bench", "timed");
    let (rounds, node_rounds) = (sum.rounds as f64, sum.node_rounds as f64);
    let deliveries = sum.deliveries as f64;
    let active = probe.active_sum as f64;
    let mut rows = Rows::default();

    // core.node: isolated handler times, weighed by what the run delivered
    // and by the regular actions its agenda held.
    let replayed = &probe.replayed;
    let on_regular_ns = replayed.regular_ns as f64 / replayed.regular_runs as f64;
    let per_kind: Vec<f64> = (0..MessageKind::COUNT)
        .map(|k| replayed.delivery_ns[k] as f64 / replayed.deliveries[k] as f64)
        .collect();
    let handler_total = active * on_regular_ns
        + (per_kind.iter().zip(sum.delivered_by_kind))
            .map(|(ns, delivered)| ns * delivered as f64)
            .sum::<f64>();
    let seen = |of: &[u64; MessageKind::COUNT]| {
        (of.iter().zip(probe.synthetic))
            .filter(|(_, made_up)| !made_up)
            .map(|(&x, _)| x as f64)
            .sum::<f64>()
    };
    let kind = |k: MessageKind| per_kind[k.index()];
    rows.exact(
        "core.node.on_message_ns",
        seen(&replayed.delivery_ns) / seen(&replayed.deliveries),
    );
    rows.exact("core.node.on_message_ns.lin", kind(MessageKind::Lin));
    rows.exact("core.node.on_message_ns.inclrl", kind(MessageKind::IncLrl));
    rows.exact("core.node.on_message_ns.reslrl", kind(MessageKind::ResLrl));
    rows.exact("core.node.on_message_ns.ring", kind(MessageKind::Ring));
    rows.exact(
        "core.node.on_message_ns.resring",
        kind(MessageKind::ResRing),
    );
    rows.exact("core.node.on_message_ns.probr", kind(MessageKind::ProbR));
    rows.exact("core.node.on_message_ns.probl", kind(MessageKind::ProbL));
    rows.exact("core.node.on_regular_ns", on_regular_ns);
    rows.exact(
        "core.node.sends_per_delivery",
        replayed.sends as f64 / seen(&replayed.deliveries),
    );
    rows.exact("core.node.handler_share", handler_total / step_total);
    rows.exact("core.node.node_bytes", size_of::<Node>() as f64);

    // sim.network, sim.channel, sim.sched: the round engine as stepped.
    let (step_hi, step_hi_pct) = high_percentile(&step);
    let in_flight = probe.in_flight_sum as f64 / probe.samples as f64;
    rows.over("sim.network.step_ns_p50", &step, 1.0);
    rows.exact("sim.network.step_ns_hi", step_hi);
    rows.exact("sim.network.step_hi_pct", step_hi_pct);
    rows.exact("sim.network.ns_per_node_round", step_total / node_rounds);
    rows.exact("sim.network.ns_per_delivery", step_total / deliveries);
    rows.exact(
        "sim.network.engine_ns_per_delivery",
        (step_total - handler_total) / deliveries,
    );
    rows.exact(
        "sim.network.deliveries_per_node_round",
        deliveries / node_rounds,
    );
    rows.exact("sim.network.in_flight_mean", in_flight);
    rows.over(
        "sim.network.view_ns",
        &ns("probe", "sim.network", "view"),
        1.0,
    );
    rows.over(
        "sim.network.ids_ns",
        &ns("probe", "sim.network", "ids"),
        1.0,
    );
    rows.exact(
        "sim.channel.residence_rounds",
        in_flight * rounds / deliveries,
    );
    rows.exact("sim.sched.active_mean", active / rounds);
    rows.exact("sim.sched.active_max", probe.active_max as f64);
    rows.exact("sim.sched.active_share", active / node_rounds);
    rows.exact("sim.sched.quiescent_rounds", probe.quiescent_rounds as f64);
    rows.exact("sim.sched.step_ns_per_active", step_total / active);
    rows.over(
        "sim.sched.enable_ms",
        &ns("probe", "sim.sched", "set_schedule_mode"),
        1e-6,
    );

    // sim.convergence, core.invariants: the paper's quantities, and what
    // watching for them costs.
    let observing = total("timed", "sim.network", "view")
        + total("timed", "core.invariants", "classify_view")
        + total("timed", "core.invariants", "is_sorted_ring_view");
    rows.exact("sim.convergence.rounds_p50", median_u64(&sum.op_rounds));
    rows.exact("sim.convergence.msgs_p50", median_u64(&sum.op_msgs));
    rows.exact("sim.convergence.observe_share", observing / timed_total);
    rows.exact(
        "sim.convergence.dirty_round_share",
        probe.dirty_rounds as f64 / rounds,
    );
    rows.over(
        "core.invariants.classify_view_ns",
        &ns("probe", "core.invariants", "classify_view"),
        1.0,
    );
    rows.over(
        "core.invariants.sorted_ring_view_ns",
        &ns("probe", "core.invariants", "is_sorted_ring_view"),
        1.0,
    );
    rows.over(
        "core.invariants.make_sorted_ring_ms",
        &ns("fixture", "core.invariants", "make_sorted_ring"),
        1e-6,
    );

    // sim.churn: the run's own events where it has any, else the events
    // made on the fixture.
    let events = |name| {
        let own = ns("timed", "sim.churn", name);
        if own.is_empty() {
            ns("fixture", "sim.churn", name)
        } else {
            own
        }
    };
    let own_events = total("timed", "sim.churn", "join") + total("timed", "sim.churn", "leave");
    rows.over("sim.churn.join_ms_p50", &events("join"), 1e-6);
    rows.over("sim.churn.leave_ms_p50", &events("leave"), 1e-6);
    rows.over(
        "sim.churn.insert_node_ns",
        &ns("probe", "sim.network", "insert_node"),
        1.0,
    );
    rows.over(
        "sim.churn.remove_node_ns",
        &ns("probe", "sim.network", "remove_node"),
        1.0,
    );
    rows.exact(
        "sim.churn.recovery_step_share",
        if own_events > 0.0 {
            step_total / own_events
        } else {
            0.0
        },
    );

    // Start-state builders, and the small-world evaluation: the run's own
    // pooled figures on `mix-harmonic`, the final network's elsewhere.
    rows.over(
        "sim.init.generate_ms",
        &ns("fixture", "sim.init", "generate"),
        1e-6,
    );
    rows.over(
        "sim.init.into_network_ms",
        &ns("fixture", "sim.init", "into_network"),
        1e-6,
    );
    rows.over(
        "harness.testbed.harmonic_network_ms",
        &ns("fixture", "harness.testbed", "harmonic_network"),
        1e-6,
    );
    let world = |own: fn(&(f64, f64, f64)) -> f64, probed: fn(&Found) -> f64| {
        if small_world.is_empty() {
            median(&found.iter().map(probed).collect::<Vec<_>>())
        } else {
            median(&small_world.iter().map(own).collect::<Vec<_>>())
        }
    };
    rows.over(
        "topology.distribution.lrl_lengths_ms",
        &ns("probe", "topology.distribution", "lrl_lengths_view"),
        1e-6,
    );
    rows.over(
        "topology.distribution.ks_ms",
        &ns("probe", "topology.distribution", "ks_to_cdf"),
        1e-6,
    );
    rows.exact("topology.distribution.lrl_ks", world(|s| s.0, |f| f.lrl_ks));
    rows.over(
        "topology.graph.from_view_ms",
        &ns("probe", "topology.graph", "from_view"),
        1e-6,
    );
    rows.over(
        "topology.routing.route_ns",
        &ns("probe", "topology.routing", "evaluate_routing"),
        1.0 / PROBE_PAIRS as f64,
    );
    rows.exact(
        "topology.routing.success_share",
        world(|s| s.2, |f| f.success_share),
    );
    rows.exact(
        "topology.routing.greedy_hops_mean",
        world(|s| s.1, |f| f.greedy_hops_mean),
    );
    rows.exact(
        "sim.trace.round_stats_bytes",
        size_of::<RoundStats>() as f64,
    );

    // reconcile: the parts must add up to the whole. What a timed root
    // keeps for itself is time no layer's span covers.
    let unattributed: f64 = (tr.spans.iter().zip(tr.self_ns()))
        .filter(|(s, _)| s.layer == "bench" && s.name == "timed")
        .map(|(_, own)| own as f64)
        .sum();
    let unattributed_share = unattributed / timed_total;
    let replay = total("timed", "bench", "handler_replay");
    rows.exact("reconcile.unattributed_share", unattributed_share);
    rows.exact(
        "reconcile.trace_overhead_ratio",
        (timed_total - replay) / plain_wall,
    );
    rows.exact("reconcile.spans", tr.spans.len() as f64);
    rows.exact("reconcile.trials", k as f64);

    if diverged {
        eprintln!("benchmark: the traced pass did not simulate what the untraced pass did");
    }
    if unattributed_share > MAX_UNATTRIBUTED {
        eprintln!("benchmark: {unattributed_share:.3} of the timed section is in no layer's span");
    }
    Ok(Report {
        correct: sum.failed == 0
            && !diverged
            && found.iter().all(|f| !f.failed)
            && unattributed_share <= MAX_UNATTRIBUTED,
        attempted: sum.ops(),
        failed: sum.failed,
        trials: k,
        sim_digest,
        rows: rows.0,
    })
}
