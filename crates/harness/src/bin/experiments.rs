//! Experiment runner: regenerates every table of DESIGN.md §4.
//!
//! ```text
//! experiments <id>... [--quick] [--trace-out FILE]
//! experiments all [--quick]
//! experiments report FILE
//! experiments postmortem FILE
//! experiments chaos [--quick] [--reproducers DIR]
//! experiments replay FILE...
//! experiments list
//! ```
//!
//! Ids: e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 a1 a2 a3 x1. `--quick` switches
//! every experiment to its reduced-scale preset (used by CI smoke runs);
//! the default is the full scale reported in EXPERIMENTS.md.
//!
//! `--trace-out FILE` additionally runs the id's representative traced
//! scenario with a JSONL observation sink attached (see DESIGN.md §9);
//! `report FILE` renders such a trace as a human-readable run report.
//! With several ids, each id's trace goes to `FILE.<id>` instead.
//!
//! `postmortem FILE` runs the sole-carrier disconnection demo (E10b)
//! with an anomaly-armed flight recorder: the permanently-disconnected
//! verdict auto-dumps the recent-event ring to `FILE` as JSONL, naming
//! the culprit drop. The dump is itself a valid trace for `report`.
//!
//! `chaos` runs the seeded chaos campaign over E10's fault model (its
//! table is titled E12b) as a gate: any unclassified scenario (panic,
//! budget exhaustion, unattributed disconnection) exits non-zero, with
//! every failure shrunk to a minimal JSON reproducer under
//! `--reproducers DIR`. `replay FILE` re-runs such a reproducer
//! deterministically and prints its verdict.

use std::time::Instant;
use swn_harness::table::Table;
use swn_harness::*;
use swn_sim::faults::Verdict;

/// `$m::Params` at the requested scale.
macro_rules! preset {
    ($m:ident, $quick:expr) => {
        if $quick {
            $m::Params::quick()
        } else {
            $m::Params::full()
        }
    };
}

/// Printed by `list` and, on stderr, for an unknown `--` flag.
const USAGE: &str = "usage: experiments <id>... [--quick] [--trace-out FILE] | all [--quick] | report FILE | postmortem FILE | chaos [--quick] [--reproducers DIR] | replay FILE... | list";

/// Runs one experiment; `true` selects the reduced-scale preset.
type Runner = fn(bool) -> Vec<Table>;

/// Every experiment: id, one-line description, runner.
const EXPERIMENTS: [(&str, &str, Runner); 14] = [
    (
        "e1",
        "convergence from adversarial initial states (Thms 4.3/4.9/4.18)",
        |q| vec![e1_convergence::run(&preset!(e1_convergence, q))],
    ),
    (
        "e2",
        "long-range link length distribution (Thm 4.22 / Fact 4.21)",
        |q| vec![e2_distribution::run(&preset!(e2_distribution, q))],
    ),
    (
        "e3",
        "greedy routing hops vs n (Thm 4.22 / Lemma 4.23)",
        |q| vec![e3_routing::run(&preset!(e3_routing, q))],
    ),
    (
        "e4",
        "probing hops vs distance (Thm 4.3 / Lemma 4.23)",
        |q| vec![e4_probing::run(&preset!(e4_probing, q))],
    ),
    ("e5", "join integration cost (Thm 4.24)", |q| {
        vec![e5_join_leave::run_join(&preset!(e5_join_leave, q))]
    }),
    ("e6", "leave recovery cost (Thm 4.24)", |q| {
        vec![e5_join_leave::run_leave(&preset!(e5_join_leave, q))]
    }),
    (
        "e7",
        "robustness: failures and attacks (Sec I / IV.G)",
        |q| vec![e7_robustness::run(&preset!(e7_robustness, q))],
    ),
    ("e8", "Watts-Strogatz interpolation figure ([24])", |q| {
        vec![e8_watts_strogatz::run(&preset!(e8_watts_strogatz, q))]
    }),
    (
        "e9",
        "stable-state overhead and forget horizon (Sec IV.F)",
        |q| vec![e9_overhead::run(&preset!(e9_overhead, q))],
    ),
    (
        "e10",
        "self-stabilization under sustained faults and restarts (fault engine + watchdog)",
        |q| {
            vec![
                e10_faults::run(&preset!(e10_faults, q)),
                e10_faults::run_disconnect_demo(),
            ]
        },
    ),
    ("a1", "ablation: lrl shortcuts in linearization", |q| {
        vec![ablations::run_a1(&preset!(ablations, q))]
    }),
    ("a2", "ablation: forget exponent eps", |q| {
        vec![ablations::run_a2(&preset!(ablations, q))]
    }),
    ("a3", "ablation: probing cadence", |q| {
        vec![ablations::run_a3(&preset!(ablations, q))]
    }),
    ("x1", "extension: multidimensional move-and-forget", |q| {
        vec![x1_multidim::run(&preset!(x1_multidim, q))]
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| match args.get(i + 1) {
            Some(path) if !path.starts_with("--") => std::path::PathBuf::from(path),
            _ => {
                eprintln!("--trace-out requires a file path");
                std::process::exit(2);
            }
        });
    let reproducers =
        args.iter()
            .position(|a| a == "--reproducers")
            .map(|i| match args.get(i + 1) {
                Some(path) if !path.starts_with("--") => std::path::PathBuf::from(path),
                _ => {
                    eprintln!("--reproducers requires a directory path");
                    std::process::exit(2);
                }
            });
    let mut positional: Vec<&str> = Vec::new();
    let mut skip = false;
    for a in &args {
        if skip {
            skip = false;
            continue;
        }
        if a == "--trace-out" || a == "--reproducers" {
            skip = true;
        } else if !a.starts_with("--") {
            positional.push(a.as_str());
        } else if a != "--quick" {
            eprintln!("unknown flag: {a}\n{USAGE}");
            std::process::exit(2);
        }
    }
    let ids = positional;

    if let Some(("report", files)) = ids.split_first().map(|(f, r)| (*f, r)) {
        if files.is_empty() {
            eprintln!("usage: experiments report FILE");
            std::process::exit(2);
        }
        for file in files {
            let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
                eprintln!("cannot read {file}: {e}");
                std::process::exit(1);
            });
            match swn_harness::report::render_report(&text) {
                Ok(report) => print!("{report}"),
                Err(e) => {
                    eprintln!("{file}: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    if let Some(("postmortem", files)) = ids.split_first().map(|(f, r)| (*f, r)) {
        let [file] = files else {
            eprintln!("usage: experiments postmortem FILE");
            std::process::exit(2);
        };
        let rep = swn_harness::e10_faults::write_post_mortem(file);
        eprintln!(
            "verdict: {} — flight-recorder dump written to {file}",
            rep.verdict.outcome()
        );
        if !matches!(rep.verdict, Verdict::PermanentlyDisconnected { .. }) {
            eprintln!("expected a permanently-disconnected verdict, got {rep:?}");
            std::process::exit(1);
        }
        return;
    }

    if let Some(("chaos", rest)) = ids.split_first().map(|(f, r)| (*f, r)) {
        if !rest.is_empty() {
            eprintln!("usage: experiments chaos [--quick] [--reproducers DIR]");
            std::process::exit(2);
        }
        let p = preset!(e10_faults, quick);
        eprintln!(
            ">>> chaos campaign: {} scenarios (seed {:#x})",
            p.scenarios,
            e10_faults::CAMPAIGN_SEED
        );
        let report = e10_faults::run_campaign_report(&p);
        e10_faults::campaign_table(&report).print();
        if let Some(dir) = &reproducers {
            match e10_faults::write_reproducers(&report, dir) {
                Ok(paths) => {
                    for path in paths {
                        eprintln!("shrunk reproducer written to {}", path.display());
                    }
                }
                Err(e) => {
                    eprintln!("cannot write reproducers to {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
        if !report.clean() {
            eprintln!(
                "chaos campaign FAILED: {} unclassified scenario(s)",
                report.failures.len()
            );
            std::process::exit(1);
        }
        eprintln!("chaos campaign clean: every scenario classified");
        return;
    }

    if let Some(("replay", files)) = ids.split_first().map(|(f, r)| (*f, r)) {
        if files.is_empty() {
            eprintln!("usage: experiments replay FILE...");
            std::process::exit(2);
        }
        let mut failed = false;
        for file in files {
            match e10_faults::replay_file(file) {
                Ok((scenario, result)) => {
                    println!(
                        "{file}: n={} start={:?} entries={} -> {} ({:?})",
                        scenario.n,
                        scenario.start,
                        scenario.plan.entry_count(),
                        result.outcome.label(),
                        result.outcome
                    );
                    failed |= !result.outcome.classified();
                }
                Err(e) => {
                    eprintln!("{file}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    if ids.is_empty() || ids == ["list"] {
        println!("{USAGE}\n");
        for (id, describe, _) in EXPERIMENTS {
            println!("  {id}  {describe}");
        }
        return;
    }

    let ids: Vec<&str> = if ids == ["all"] {
        EXPERIMENTS.iter().map(|e| e.0).collect()
    } else {
        ids
    };

    let multi = ids.len() > 1;
    for id in &ids {
        let start = Instant::now();
        let found = EXPERIMENTS.iter().find(|e| e.0 == *id);
        eprintln!(
            ">>> {id} ({}) — {}",
            if quick { "quick" } else { "full" },
            found.map_or("unknown", |e| e.1)
        );
        let Some((_, _, run)) = found else {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        };
        for table in run(quick) {
            table.print();
        }
        if let Some(base) = &trace_out {
            // One trace per id: the given path for a single id, an
            // id-suffixed sibling when several ids share the run.
            let path = if multi {
                base.with_extension(format!("{id}.jsonl"))
            } else {
                base.clone()
            };
            eprintln!(
                "    tracing representative {id} scenario -> {}",
                path.display()
            );
            if let Err(e) = swn_harness::runlog::write_trace(id, quick, &path) {
                eprintln!("trace-out failed for {id}: {e}");
                std::process::exit(1);
            }
        }
        eprintln!("<<< {id} finished in {:.1?}\n", start.elapsed());
    }
}
