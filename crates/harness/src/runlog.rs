//! `--trace-out` support: run one *representative traced scenario* per
//! experiment id with a [`JsonlSink`] attached and stream the
//! observation records to a file, ready for the `report` subcommand
//! (see [`crate::report`]).
//!
//! The experiment tables aggregate hundreds of trials; tracing all of
//! them would bury the signal. Instead each id maps to the single
//! scenario its table is *about*: convergence ids trace one
//! adversarial-start run to the ring (phase transitions included),
//! stable-state ids trace an observed window on a warmed network, and
//! the churn ids trace a join/leave recovery span.

use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, NodeId};
use swn_sim::init::{generate, InitialTopology};
use swn_sim::obs::JsonlSink;
use swn_sim::{churn, convergence::run_to_ring};

/// Scale knobs for a traced scenario.
#[derive(Clone, Debug)]
pub struct TraceCfg {
    /// Network size.
    pub n: usize,
    /// Sampling interval for `Round` records (one per sampled round:
    /// its `RoundStats` and phase times).
    pub sample_every: u64,
    /// Warmup rounds before stable-state / churn scenarios (unobserved).
    pub warmup: u64,
    /// Observed window for stable-state scenarios.
    pub window: u64,
    /// Round budget for convergence / recovery scenarios.
    pub budget: u64,
    /// Seed.
    pub seed: u64,
}

impl TraceCfg {
    /// The preset matching the experiments' `--quick` flag.
    pub fn preset(quick: bool) -> Self {
        if quick {
            TraceCfg {
                n: 64,
                sample_every: 8,
                warmup: 400,
                window: 200,
                budget: 20_000,
                seed: 42,
            }
        } else {
            TraceCfg {
                n: 256,
                sample_every: 32,
                warmup: 2_000,
                window: 600,
                budget: 50_000,
                seed: 42,
            }
        }
    }
}

/// Runs the traced scenario for `id` at the `quick`/full preset scale,
/// streaming JSONL records to `path`.
pub fn write_trace(id: &str, quick: bool, path: &std::path::Path) -> std::io::Result<()> {
    write_trace_cfg(id, &TraceCfg::preset(quick), path)
}

/// [`write_trace`] with explicit scale knobs (the testable core).
pub fn write_trace_cfg(id: &str, cfg: &TraceCfg, path: &std::path::Path) -> std::io::Result<()> {
    let sink = Box::new(JsonlSink::create(path)?);
    let pcfg = ProtocolConfig::default();
    match id {
        // Convergence-flavored ids: one adversarial start driven to the
        // sorted ring, with `lcc`/`list`/`ring` transitions on the
        // timeline.
        "e1" | "a1" | "e8" => {
            let ids = evenly_spaced_ids(cfg.n);
            let mut net = generate(
                InitialTopology::RandomSparse { extra: 2 },
                &ids,
                pcfg,
                cfg.seed,
            )
            .into_network(cfg.seed);
            net.attach_sink(sink, cfg.sample_every);
            let _ = run_to_ring(&mut net, cfg.budget);
            net.detach_sink();
        }
        // Join recovery: a newcomer in an interior gap, with the `join`
        // span bracketing its integration.
        "e5" => {
            let mut net = churn::stable_network(cfg.n, pcfg, cfg.seed, cfg.warmup);
            net.attach_sink(sink, cfg.sample_every);
            let ids = net.ids();
            let new_id = NodeId::from_bits(ids[3].bits() / 2 + ids[4].bits() / 2);
            let _ = churn::join(&mut net, new_id, ids[0], cfg.budget);
            net.detach_sink();
        }
        // Leave recovery (e7 additionally removes a second victim — a
        // small storm with two spans).
        "e6" | "e7" => {
            let mut net = churn::stable_network(cfg.n, pcfg, cfg.seed, cfg.warmup);
            net.attach_sink(sink, cfg.sample_every);
            let victim = net.ids()[cfg.n / 2];
            let _ = churn::leave(&mut net, victim, cfg.budget);
            if id == "e7" {
                let victim = net.ids()[cfg.n / 4];
                let _ = churn::leave(&mut net, victim, cfg.budget);
            }
            net.detach_sink();
        }
        // Fault injection, the one fault experiment's scenario: a crash
        // shock, a perturbation and a sustained loss window on the warmed
        // network, watched to re-stabilization — the trace carries the
        // `Fault` events (crashes, restarts, the perturbation, the loss
        // window opening), the `recovery` span and the watchdog's
        // `Verdict`.
        "e10" => {
            let mut net = churn::stable_network(cfg.n, pcfg, cfg.seed, cfg.warmup);
            net.attach_sink(sink, cfg.sample_every);
            let fault_round = net.round() + 1;
            let ids = net.ids();
            let mut plan = swn_sim::faults::FaultPlan::new(cfg.seed ^ 0xfa17)
                .with_drop(fault_round, fault_round + cfg.budget, 0.05)
                .with_perturbation(fault_round, (cfg.n / 10).max(2));
            for k in 1..=3usize {
                plan = plan.with_crash(fault_round, ids[k * ids.len() / 4], 10);
            }
            net.attach_faults(plan);
            // Land the fault before watching: the watchdog short-circuits
            // on an already-sorted ring.
            net.step();
            let _ = swn_sim::faults::watch_recovery(&mut net, cfg.budget);
            net.detach_faults();
            net.detach_sink();
        }
        // Stable-state ids (distribution, routing, probing, overhead,
        // ablations, extension): an observed window on a warmed network —
        // the fixture their measurements run on.
        _ => {
            let mut net = churn::stable_network(cfg.n, pcfg, cfg.seed, cfg.warmup);
            net.attach_sink(sink, cfg.sample_every);
            net.run(cfg.window);
            net.detach_sink();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_report;

    fn tiny() -> TraceCfg {
        TraceCfg {
            n: 16,
            sample_every: 4,
            warmup: 40,
            window: 40,
            budget: 5_000,
            seed: 7,
        }
    }

    fn trace_and_report(id: &str) -> String {
        let path = std::env::temp_dir().join(format!("swn_runlog_test_{id}.jsonl"));
        write_trace_cfg(id, &tiny(), &path).expect("trace written");
        let text = std::fs::read_to_string(&path).expect("readable");
        let report = render_report(&text).expect("report renders");
        let _ = std::fs::remove_file(&path);
        report
    }

    #[test]
    fn convergence_trace_reports_the_full_timeline() {
        let report = trace_and_report("e1");
        assert!(report.contains("ring@"), "ring milestone: {report}");
        assert!(report.contains("phase-time breakdown"), "{report}");
        assert!(report.contains("latency (rounds"), "{report}");
        assert!(report.contains("lrl length"), "{report}");
    }

    #[test]
    fn churn_traces_report_recovery_spans() {
        let join = trace_and_report("e5");
        assert!(join.contains("span join"), "{join}");
        let leave = trace_and_report("e6");
        assert!(leave.contains("span leave"), "{leave}");
    }

    #[test]
    fn fault_trace_reports_injections_and_verdict() {
        let report = trace_and_report("e10");
        assert!(report.contains("fault crash@"), "{report}");
        assert!(report.contains("fault restart@"), "{report}");
        assert!(report.contains("fault perturb@"), "{report}");
        assert!(report.contains("fault drop_window@"), "{report}");
        assert!(report.contains("span recovery"), "{report}");
        assert!(report.contains("verdict recovered@"), "{report}");
    }

    #[test]
    fn stable_window_trace_reports_message_mix() {
        let report = trace_and_report("e9");
        assert!(report.contains("message-kind mix"), "{report}");
        assert!(report.contains("totals: "), "{report}");
    }
}
