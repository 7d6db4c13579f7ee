//! The benchmark's declared surface: workloads and metrics by name.
//!
//! `BENCHMARK.json` at the repository root is [`manifest_json`] written to
//! a file (`benchmark --manifest`); a unit test keeps the two identical,
//! and the run itself refuses to print a result that misses a declared
//! name, so the names cannot drift from what is measured.

use crate::json::Obj;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "stabilize-random",
        why: "random weakly connected start to the sorted ring: ~12 deliveries per node-round, so node handlers and the Immediate deliver/flush path do the work",
    },
    WorkloadSpec {
        name: "stabilize-delay",
        why: "same start under RandomDelay(0.5, 8): the channel's per-message draw and aged retention replace the Immediate swap, so a mailbox change that costs asynchrony shows",
    },
    WorkloadSpec {
        name: "steady-large",
        why: "stable ring of 131072 nodes, working set beyond cache: same handlers as in cache, node and mailbox layout decide the time",
    },
    WorkloadSpec {
        name: "mix-harmonic",
        why: "in-cache stable ring walked to the harmonic lrl law, then routed: on_regular plus token and probe traffic with the cache misses taken away",
    },
    WorkloadSpec {
        name: "churn-activeset",
        why: "joins and leaves on a settled ActiveSet ring: few nodes act, so time is the O(n) work per event and dirty round; a handler speed-up must not show here",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Regression bound as a share of the parent's median; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher: false,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher: true,
        bound: None,
    }
}

/// What a user of the simulator sees: how much simulated work a host
/// second buys, what set-up costs, and how much memory the run takes.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("node_rounds_per_s", "1/s", true, 0.25),
    e2e("deliveries_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.20),
    e2e("setup_s", "s", false, 0.25),
];

/// Per-layer metrics; the prefix is the module that owns the cost. The
/// direction of an exact count is nominal (they move only when the
/// simulated execution changes).
pub const PER_LAYER: [MetricSpec; 56] = [
    lo("core.node.on_message_ns", "ns"),
    lo("core.node.on_message_ns.lin", "ns"),
    lo("core.node.on_message_ns.inclrl", "ns"),
    lo("core.node.on_message_ns.reslrl", "ns"),
    lo("core.node.on_message_ns.ring", "ns"),
    lo("core.node.on_message_ns.resring", "ns"),
    lo("core.node.on_message_ns.probr", "ns"),
    lo("core.node.on_message_ns.probl", "ns"),
    lo("core.node.on_regular_ns", "ns"),
    lo("core.node.sends_per_delivery", "count"),
    lo("core.node.handler_share", "share"),
    lo("core.node.node_bytes", "bytes"),
    lo("sim.network.step_ns_p50", "ns"),
    lo("sim.network.step_ns_hi", "ns"),
    hi("sim.network.step_hi_pct", "%"),
    lo("sim.network.ns_per_node_round", "ns"),
    lo("sim.network.ns_per_delivery", "ns"),
    lo("sim.network.engine_ns_per_delivery", "ns"),
    lo("sim.network.deliveries_per_node_round", "count"),
    lo("sim.network.in_flight_mean", "count"),
    lo("sim.network.view_ns", "ns"),
    lo("sim.network.ids_ns", "ns"),
    lo("sim.channel.residence_rounds", "rounds"),
    lo("sim.sched.active_mean", "count"),
    lo("sim.sched.active_max", "count"),
    lo("sim.sched.active_share", "share"),
    hi("sim.sched.quiescent_rounds", "rounds"),
    lo("sim.sched.step_ns_per_active", "ns"),
    lo("sim.sched.enable_ms", "ms"),
    lo("sim.convergence.rounds_p50", "rounds"),
    lo("sim.convergence.msgs_p50", "msgs"),
    lo("sim.convergence.observe_share", "share"),
    lo("sim.convergence.dirty_round_share", "share"),
    lo("core.invariants.classify_view_ns", "ns"),
    lo("core.invariants.sorted_ring_view_ns", "ns"),
    lo("core.invariants.make_sorted_ring_ms", "ms"),
    lo("sim.churn.join_ms_p50", "ms"),
    lo("sim.churn.leave_ms_p50", "ms"),
    lo("sim.churn.insert_node_ns", "ns"),
    lo("sim.churn.remove_node_ns", "ns"),
    hi("sim.churn.recovery_step_share", "share"),
    lo("sim.init.generate_ms", "ms"),
    lo("sim.init.into_network_ms", "ms"),
    lo("harness.testbed.harmonic_network_ms", "ms"),
    lo("topology.distribution.lrl_lengths_ms", "ms"),
    lo("topology.distribution.ks_ms", "ms"),
    lo("topology.distribution.lrl_ks", "distance"),
    lo("topology.graph.from_view_ms", "ms"),
    lo("topology.routing.route_ns", "ns"),
    hi("topology.routing.success_share", "share"),
    lo("topology.routing.greedy_hops_mean", "hops"),
    lo("sim.trace.round_stats_bytes", "bytes"),
    lo("reconcile.unattributed_share", "share"),
    lo("reconcile.trace_overhead_ratio", "ratio"),
    lo("reconcile.spans", "count"),
    hi("reconcile.trials", "count"),
];

pub fn workload(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == name)
}

fn metric_obj(m: &MetricSpec) -> String {
    let mut o = Obj::new();
    o.str("name", m.name);
    o.str("unit", m.unit);
    o.str("better", if m.higher { "higher" } else { "lower" });
    if let Some(b) = m.bound {
        o.num("bound", b);
    }
    o.finish()
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let mut o = Obj::new();
            o.str("name", w.name);
            o.str("why", w.why);
            o.finish()
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(metric_obj).collect()),
        list(PER_LAYER.iter().map(metric_obj).collect()),
    )
}
