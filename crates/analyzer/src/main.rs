//! `analyzer` — run the small-scope checker from the shell.
//!
//! ```text
//! analyzer [--n N] [--family line|star|clique|ring|all] [--budget K]
//!          [--seed S] [--max-states M]
//!          [--mutant drop-lin|self-echo|bounce-lin] [--json]
//! ```
//!
//! A scope is one seeded initial state at a given (family, n, budget).
//! Each is judged once, from its one graph (`swn_analyzer::explore`)
//! over every schedule and every coin outcome, on every property:
//!
//! * safety — the monitors fired on no edge and the graph is exhaustive;
//! * livelock-freedom — no weakly fair cycle avoids the sorted ring
//!   (terminal states are tallied as goal vs. budget-starved);
//! * closure — no edge leaves the `is_ring_stable_config` region;
//! * ranking — the potential never rises along an edge and goal states
//!   sit at its minimum; its fair stutter-cycle obligation is the
//!   livelock sweep.
//!
//! The default run judges all four families (line, star, clique and the
//! sorted ring) at n = 3 with one regular action per node, prints the
//! minimized counterexample of any failure, and exits 1 if a scope
//! fails.
//!
//! `--mutant` judges a deliberately broken stepper on its demo fixture
//! and expects the checker to reject it (exit 0 when caught): `drop-lin`
//! and `self-echo` trip the safety monitors, `bounce-lin` livelocks and
//! is caught by the fair-cycle detector with a minimized, replayable
//! lasso. `--json` emits one machine-readable JSON document on stdout
//! instead of the human tables: one record per scope with every verdict,
//! size and SCC count and any counterexample schedules.

#![forbid(unsafe_code)]

use swn_analyzer::families::{demo_fault_state, livelock_demo_state};
use swn_analyzer::{
    analyze, format_trace, minimize, BounceLinStepper, DropLinStepper, FairGraph, Family,
    RealStepper, Report, SelfEchoStepper, State, Stepper, Transition,
};

struct Args {
    n: usize,
    families: Vec<Family>,
    budget: u32,
    seed: u64,
    max_states: usize,
    mutant: Option<String>,
    json: bool,
}

/// One scope's record in the `--json` document.
#[derive(serde::Serialize)]
struct JsonRun {
    stepper: &'static str,
    /// `null` for a mutant's demo fixture.
    family: Option<&'static str>,
    states: usize,
    edges: usize,
    truncated: bool,
    goal_states: usize,
    terminals: usize,
    terminal_nongoal: usize,
    scc_count: usize,
    max_scc: usize,
    fair_sccs: usize,
    /// States satisfying `is_sorted_ring` (the same count as
    /// `goal_states`).
    ring_states: usize,
    stable_states: usize,
    monotone: bool,
    goal_at_minimum: bool,
    /// For a mutant, true when the checker caught it.
    ok: bool,
    verdict: String,
    lasso: Option<JsonLasso>,
    /// The schedule behind the first failure the verdict names, other
    /// than a livelock: a monitor violation (minimized), an escape from
    /// the ring-stable region (minimized) or a rank increase.
    escape: Option<Vec<String>>,
}

#[derive(serde::Serialize)]
struct JsonLasso {
    stem: Vec<String>,
    cycle: Vec<String>,
}

#[derive(serde::Serialize)]
struct JsonDoc {
    n: usize,
    budget: u32,
    seed: u64,
    channel_bound: u32,
    failed: bool,
    runs: Vec<JsonRun>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: analyzer [--n N] [--family line|star|clique|ring|all] [--budget K] \
         [--seed S] [--max-states M] \
         [--mutant drop-lin|self-echo|bounce-lin] [--json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 3,
        families: Family::ALL.to_vec(),
        budget: 1,
        seed: 1,
        max_states: 2_000_000,
        mutant: None,
        json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i)
            .cloned()
            .unwrap_or_else(|| usage("flag needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--n" => {
                args.n = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--n expects an integer"));
                if args.n < 2 || args.n > 5 {
                    usage("--n must be in 2..=5 (small-scope checker)");
                }
            }
            "--family" => {
                let v = value(&mut i);
                args.families = if v == "all" {
                    Family::ALL.to_vec()
                } else {
                    vec![Family::parse(&v)
                        .unwrap_or_else(|| usage("--family expects line|star|clique|ring|all"))]
                };
            }
            "--budget" => {
                args.budget = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--budget expects an integer"));
            }
            "--seed" => {
                args.seed = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--seed expects an integer"));
            }
            "--max-states" => {
                args.max_states = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--max-states expects an integer"));
            }
            "--mutant" => {
                let v = value(&mut i);
                if !["drop-lin", "self-echo", "bounce-lin"].contains(&v.as_str()) {
                    usage("--mutant expects drop-lin|self-echo|bounce-lin");
                }
                args.mutant = Some(v);
            }
            "--json" => args.json = true,
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    args
}

/// One seeded initial state to judge, and the stepper to judge it under.
struct Scope {
    /// `None` for a mutant's demo fixture.
    family: Option<Family>,
    initial: State,
    stepper: &'static dyn Stepper,
}

fn fmt_schedule(ts: &[Transition]) -> Vec<String> {
    ts.iter().map(std::string::ToString::to_string).collect()
}

/// The verdict line: `ok (exhaustive)`, or every failure, `; `-joined.
fn verdict(g: &FairGraph, r: &Report) -> String {
    let mut failures = Vec::new();
    if let Some(found) = &g.violation {
        failures.push(format!("VIOLATION: {}", found.violation));
    } else if g.truncated {
        failures.push("TRUNCATED (raise --max-states for an exhaustive run)".to_owned());
    }
    if let Some(l) = &r.lasso {
        failures.push(format!(
            "LIVELOCK: fair cycle of {} steps avoids the sorted ring",
            l.cycle.len()
        ));
    }
    if let Some(e) = &r.escape {
        failures.push(format!(
            "ESCAPE: ring-stable region left after {} steps",
            e.len()
        ));
    }
    if let Some((t, from, to)) = &r.increase {
        failures.push(format!(
            "RANK INCREASE {from:?} -> {to:?} after {} steps",
            t.len()
        ));
    }
    if !r.goal_at_minimum {
        failures.push("GOAL STATE ABOVE MINIMUM RANK".to_owned());
    }
    if failures.is_empty() {
        "ok (exhaustive)".to_owned()
    } else {
        failures.join("; ")
    }
}

/// Builds the one graph of a scope, judges it on every property and, in
/// the human output, prints its rows and any counterexample.
fn judge(scope: &Scope, args: &Args) -> JsonRun {
    let (initial, stepper) = (&scope.initial, scope.stepper);
    let g = FairGraph::build(initial, stepper, args.max_states);
    let r = analyze(&g, stepper);
    let minimized = g
        .violation
        .as_ref()
        .map(|found| minimize(initial, stepper, &found.trace));
    let escape = minimized
        .as_deref()
        .or(r.escape.as_deref())
        .or(r.increase.as_ref().map(|(t, _, _)| t.as_slice()));
    let run = JsonRun {
        stepper: stepper.label(),
        family: scope.family.map(Family::label),
        states: g.len(),
        edges: g.edge_count(),
        truncated: g.truncated,
        goal_states: r.goal_states,
        terminals: r.terminals,
        terminal_nongoal: r.terminal_nongoal,
        scc_count: r.scc_count,
        max_scc: r.max_scc,
        fair_sccs: r.fair_sccs,
        ring_states: r.goal_states,
        stable_states: r.stable_states,
        monotone: r.monotone(),
        goal_at_minimum: r.goal_at_minimum,
        ok: !g.truncated && r.closed() && r.certified(),
        lasso: r.lasso.as_ref().map(|l| JsonLasso {
            stem: fmt_schedule(&l.stem),
            cycle: fmt_schedule(&l.cycle),
        }),
        escape: escape.map(fmt_schedule),
        verdict: verdict(&g, &r),
    };
    if args.json {
        return run;
    }
    println!(
        "  {:<7} states={:>8} edges={:>9}  {}",
        scope.family.map_or("fixture", Family::label),
        run.states,
        run.edges,
        run.verdict
    );
    println!(
        "          terminal={} (starved {}) sccs={} fair={} ring={} stable={} \
         monotone={} goal_at_min={}",
        run.terminals,
        run.terminal_nongoal,
        run.scc_count,
        run.fair_sccs,
        run.ring_states,
        run.stable_states,
        run.monotone,
        run.goal_at_minimum
    );
    if g.coalesced_sends > 0 {
        println!(
            "          ({} sends coalesced by channel bound 1; exhaustive relative to it)",
            g.coalesced_sends
        );
    }
    if let Some(l) = &run.lasso {
        println!(
            "  minimized lasso (stem {} + cycle {}):",
            l.stem.len(),
            l.cycle.len()
        );
        for t in &l.stem {
            println!("    stem:  {t}");
        }
        for t in &l.cycle {
            println!("    cycle: {t}");
        }
    }
    if let Some(min) = &minimized {
        print!("{}", format_trace(initial, stepper, min));
    } else {
        for t in run.escape.iter().flatten() {
            println!("    escape: {t}");
        }
    }
    run
}

fn main() {
    let args = parse_args();
    let mutant = |stepper: &'static dyn Stepper, initial: State| {
        vec![Scope {
            family: None,
            initial,
            stepper,
        }]
    };
    let scopes = match args.mutant.as_deref() {
        Some("drop-lin") => mutant(&DropLinStepper, demo_fault_state(args.budget.min(1))),
        Some("self-echo") => mutant(&SelfEchoStepper, demo_fault_state(args.budget.min(1))),
        Some("bounce-lin") => mutant(&BounceLinStepper, livelock_demo_state()),
        _ => args
            .families
            .iter()
            .map(|&f| Scope {
                family: Some(f),
                initial: f.initial_state(args.n, args.budget, args.seed),
                stepper: &RealStepper,
            })
            .collect(),
    };
    let first = &scopes[0].initial;
    let (n, budget) = (first.nodes.len(), first.budgets[0]);
    if !args.json {
        match &args.mutant {
            Some(m) => println!("mutant '{m}' on its demo fixture: n = {n}, budget = {budget}"),
            None => println!(
                "small-scope check: n = {n}, budget = {budget}, seed = {}, channel bound = 1",
                args.seed
            ),
        }
    }
    let mut runs: Vec<JsonRun> = scopes.iter().map(|s| judge(s, &args)).collect();
    if args.mutant.is_some() {
        // A mutant's run is ok when the checker rejects it.
        for run in &mut runs {
            run.ok = !run.ok;
        }
        if !runs[0].ok {
            eprintln!("mutant fixture judged clean — the checker is broken");
        } else if !args.json {
            println!("  caught: the checker rejects the mutant");
        }
    }
    let failed = runs.iter().any(|r| !r.ok);
    if args.json {
        let doc = JsonDoc {
            n,
            budget,
            seed: args.seed,
            channel_bound: 1,
            failed,
            runs,
        };
        println!("{}", serde_json::to_string(&doc).expect("serialize"));
    }
    if failed {
        std::process::exit(1);
    }
}
