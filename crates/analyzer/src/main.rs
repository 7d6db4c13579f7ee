//! `analyzer` — run the small-scope checkers from the shell.
//!
//! ```text
//! analyzer [--mode safety|liveness|closure|ranking]
//!          [--n N] [--family line|star|clique|all] [--budget K]
//!          [--seed S] [--max-states M] [--channel-bound B]
//!          [--mutant drop-lin|self-echo|bounce-lin] [--json]
//! ```
//!
//! Every mode builds one graph per scope (`swn_analyzer::explore`), over
//! every schedule and every coin outcome, with the safety monitors
//! running on every edge, and fails on a monitor violation or a
//! truncated graph. The default mode, `safety`, asks nothing more: it
//! exhaustively checks every family at n = 3 with one regular action per
//! node (2.05 M distinct states) and prints the minimized schedule of
//! any violation.
//! The three liveness modes add the fair-cycle machinery of
//! `swn_analyzer::liveness`:
//!
//! * `liveness` — livelock-freedom: no weakly-fair cycle avoids the
//!   sorted ring; also accounts terminal states (goal vs. budget-starved);
//! * `closure` — from the canonical sorted ring with a fresh budget,
//!   every reachable state is still the sorted ring;
//! * `ranking` — the potential-function certificate: non-increasing on
//!   every edge, goal at the minimum, no fair equal-rank cycle through a
//!   non-goal state.
//!
//! `--mutant` runs a deliberately broken stepper on its demo fixture and
//! expects the checker to catch it (exit 0 when caught): `drop-lin` and
//! `self-echo` are safety mutants, `bounce-lin` livelocks and is caught
//! by the fair-cycle detector with a minimized, replayable lasso.
//! `--json` emits one machine-readable JSON document on stdout instead
//! of the human tables (the verdicts, sizes, SCC stats and any
//! counterexample schedules).

#![forbid(unsafe_code)]

use swn_analyzer::families::{livelock_demo_state, ring_state};
use swn_analyzer::{
    check_closure, check_convergence, check_ranking, format_trace, minimize, BounceLinStepper,
    DropLinStepper, FairGraph, Family, Lasso, RealStepper, SelfEchoStepper, State, Stepper,
    Transition,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Safety,
    Liveness,
    Closure,
    Ranking,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Safety => "safety",
            Mode::Liveness => "liveness",
            Mode::Closure => "closure",
            Mode::Ranking => "ranking",
        }
    }
}

struct Args {
    mode: Mode,
    n: usize,
    families: Vec<Family>,
    budget: u32,
    seed: u64,
    max_states: usize,
    channel_bound: u32,
    mutant: Option<String>,
    json: bool,
}

/// One checker run in the `--json` document. Fields that a mode does
/// not produce are `None` and serialize as `null`.
#[derive(serde::Serialize)]
struct JsonRun {
    mode: &'static str,
    stepper: &'static str,
    family: Option<&'static str>,
    states: usize,
    edges: usize,
    truncated: bool,
    goal_states: Option<usize>,
    terminals: Option<usize>,
    terminal_nongoal: Option<usize>,
    scc_count: Option<usize>,
    max_scc: Option<usize>,
    fair_sccs: Option<usize>,
    ring_states: Option<usize>,
    stable_states: Option<usize>,
    monotone: Option<bool>,
    goal_at_minimum: Option<bool>,
    stutter_fair_sccs: Option<usize>,
    ok: bool,
    verdict: String,
    lasso: Option<JsonLasso>,
    escape: Option<Vec<String>>,
}

#[derive(serde::Serialize)]
struct JsonLasso {
    stem: Vec<String>,
    cycle: Vec<String>,
}

#[derive(serde::Serialize)]
struct JsonDoc {
    mode: &'static str,
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
        "usage: analyzer [--mode safety|liveness|closure|ranking] [--n N] \
         [--family line|star|clique|all] [--budget K] \
         [--seed S] [--max-states M] [--channel-bound B] \
         [--mutant drop-lin|self-echo|bounce-lin] [--json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: Mode::Safety,
        n: 3,
        families: Family::ALL.to_vec(),
        budget: 1,
        seed: 1,
        max_states: 2_000_000,
        channel_bound: 1,
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
            "--mode" => {
                args.mode = match value(&mut i).as_str() {
                    "safety" => Mode::Safety,
                    "liveness" => Mode::Liveness,
                    "closure" => Mode::Closure,
                    "ranking" => Mode::Ranking,
                    _ => usage("--mode expects safety|liveness|closure|ranking"),
                };
            }
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
                        .unwrap_or_else(|| usage("--family expects line|star|clique|all"))]
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
            "--channel-bound" => {
                args.channel_bound = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--channel-bound expects an integer"));
                if args.channel_bound == 0 {
                    usage("--channel-bound must be at least 1");
                }
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

const TRUNCATED: &str = "TRUNCATED (raise --max-states for an exhaustive run)";

impl JsonRun {
    /// The fields every run reports, read off its graph; the
    /// mode-specific ones start out `null`.
    fn new(
        mode: Mode,
        stepper: &dyn Stepper,
        family: Option<Family>,
        g: &FairGraph,
        ok: bool,
        verdict: String,
    ) -> JsonRun {
        JsonRun {
            mode: mode.label(),
            stepper: stepper.label(),
            family: family.map(Family::label),
            states: g.len(),
            edges: g.edge_count(),
            truncated: g.truncated,
            goal_states: None,
            terminals: None,
            terminal_nongoal: None,
            scc_count: None,
            max_scc: None,
            fair_sccs: None,
            ring_states: None,
            stable_states: None,
            monotone: None,
            goal_at_minimum: None,
            stutter_fair_sccs: None,
            ok,
            verdict,
            lasso: None,
            escape: None,
        }
    }
}

fn fmt_schedule(ts: &[Transition]) -> Vec<String> {
    ts.iter().map(std::string::ToString::to_string).collect()
}

fn json_lasso(l: &Lasso) -> JsonLasso {
    JsonLasso {
        stem: fmt_schedule(&l.stem),
        cycle: fmt_schedule(&l.cycle),
    }
}

fn print_lasso(lasso: &JsonLasso) {
    println!(
        "  minimized lasso (stem {} + cycle {}):",
        lasso.stem.len(),
        lasso.cycle.len()
    );
    for t in &lasso.stem {
        println!("    stem:  {t}");
    }
    for t in &lasso.cycle {
        println!("    cycle: {t}");
    }
}

/// Prints the `--json` document; it has `failed` set when a run is not ok.
fn print_doc(mode: &'static str, n: usize, budget: u32, args: &Args, runs: Vec<JsonRun>) {
    let doc = JsonDoc {
        mode,
        n,
        budget,
        seed: args.seed,
        channel_bound: args.channel_bound,
        failed: runs.iter().any(|r| !r.ok),
        runs,
    };
    println!("{}", serde_json::to_string(&doc).expect("serialize"));
}

/// Runs a safety mutant (drop-lin / self-echo) on the two-node demo
/// fixture and prints the minimized counterexample; exits non-zero when
/// the monitors fail to catch it.
fn run_safety_mutant(args: &Args, stepper: &dyn Stepper) {
    let budget = args.budget.min(1);
    let initial = swn_analyzer::families::demo_fault_state(budget);
    let g = FairGraph::build(&initial, stepper, args.max_states);
    let Some(found) = &g.violation else {
        eprintln!("mutant fixture unexpectedly clean — the monitors are broken");
        std::process::exit(1);
    };
    let min = minimize(&initial, stepper, &found.trace);
    if args.json {
        let verdict = format!("caught: {}", found.violation);
        let mut run = JsonRun::new(Mode::Safety, stepper, None, &g, true, verdict);
        run.escape = Some(fmt_schedule(&min));
        print_doc("safety", 2, budget, args, vec![run]);
        return;
    }
    println!(
        "mutant: injected fault '{}' caught after exploring {} states",
        stepper.label(),
        g.len()
    );
    println!("raw trace: {} steps; minimizing...", found.trace.len());
    print!("{}", format_trace(&initial, stepper, &min));
}

/// Runs the bounce-lin mutant through the fair-cycle detector on its
/// three-node livelock fixture; exits non-zero unless a validated lasso
/// counterexample is produced.
fn run_bounce_mutant(args: &Args) {
    let stepper = BounceLinStepper;
    let initial = livelock_demo_state();
    let g = FairGraph::build(&initial, &stepper, args.max_states);
    let (mut run, row) = convergence_run(&g, &stepper, None);
    let Some(lasso) = &run.lasso else {
        eprintln!("bounce-lin fixture has no fair non-goal cycle — the detector is broken");
        std::process::exit(1);
    };
    if args.json {
        // For this mutant a run is "ok" when the livelock IS caught.
        run.ok = true;
        print_doc("liveness", initial.nodes.len(), 0, args, vec![run]);
        return;
    }
    println!(
        "mutant: '{}' livelock detected — states={} edges={} {row}",
        stepper.label(),
        run.states,
        run.edges
    );
    print_lasso(lasso);
    println!("  replays: the cycle is weakly fair and never reaches the sorted ring");
}

/// `--mode safety`: the graph's own verdict, nothing on top.
fn safety_run(g: &FairGraph, family: Option<Family>) -> (JsonRun, String) {
    let (ok, verdict) = if g.truncated {
        (false, TRUNCATED)
    } else {
        (true, "ok (exhaustive)")
    };
    let terminals = g.terminals().count();
    let mut run = JsonRun::new(
        Mode::Safety,
        &RealStepper,
        family,
        g,
        ok,
        verdict.to_owned(),
    );
    run.terminals = Some(terminals);
    (run, format!("quiescent={terminals:>6}"))
}

/// `--mode liveness`, and the bounce-lin mutant.
fn convergence_run(
    g: &FairGraph,
    stepper: &dyn Stepper,
    family: Option<Family>,
) -> (JsonRun, String) {
    let r = check_convergence(g, stepper);
    let verdict = if let Some(l) = &r.counterexample {
        format!(
            "LIVELOCK: fair cycle of {} steps avoids the sorted ring",
            l.cycle.len()
        )
    } else if r.truncated {
        TRUNCATED.to_owned()
    } else {
        format!(
            "livelock-free ({} terminal states, {} budget-starved)",
            r.terminals, r.terminal_nongoal
        )
    };
    let row = format!(
        "goal={:>7} terminal={:>6} (starved {}) sccs={} fair={}",
        r.goal_states, r.terminals, r.terminal_nongoal, r.scc_count, r.fair_sccs
    );
    let run = JsonRun {
        goal_states: Some(r.goal_states),
        terminals: Some(r.terminals),
        terminal_nongoal: Some(r.terminal_nongoal),
        scc_count: Some(r.scc_count),
        max_scc: Some(r.max_scc),
        fair_sccs: Some(r.fair_sccs),
        lasso: r.counterexample.as_ref().map(json_lasso),
        ..JsonRun::new(
            Mode::Liveness,
            stepper,
            family,
            g,
            r.livelock_free(),
            verdict,
        )
    };
    (run, row)
}

/// `--mode closure`.
fn closure_run(g: &FairGraph) -> (JsonRun, String) {
    let r = check_closure(g, &RealStepper);
    let verdict = if let Some(escape) = &r.escape {
        format!("ESCAPE: ring broken after {} steps", escape.len())
    } else if r.truncated {
        TRUNCATED.to_owned()
    } else {
        "closed (every reachable state is the sorted ring)".to_owned()
    };
    let row = format!("ring={:>8} stable={:>8}", r.ring_states, r.stable_states);
    let run = JsonRun {
        ring_states: Some(r.ring_states),
        stable_states: Some(r.stable_states),
        escape: r.escape.as_deref().map(fmt_schedule),
        ..JsonRun::new(Mode::Closure, &RealStepper, None, g, r.closed(), verdict)
    };
    (run, row)
}

/// `--mode ranking`.
fn ranking_run(g: &FairGraph, family: Option<Family>) -> (JsonRun, String) {
    let r = check_ranking(g, &RealStepper);
    let verdict = if let Some((trace, from, to)) = &r.increase {
        format!(
            "RANK INCREASE {from:?} -> {to:?} after {} steps",
            trace.len()
        )
    } else if !r.goal_at_minimum {
        "GOAL STATE ABOVE MINIMUM RANK".to_owned()
    } else if r.stutter_counterexample.is_some() {
        "FAIR RANK-CONSTANT CYCLE OUTSIDE GOAL".to_owned()
    } else if r.truncated {
        TRUNCATED.to_owned()
    } else {
        "certified (monotone, goal at minimum, stutter cycles goal-only)".to_owned()
    };
    let row = format!(
        "monotone={} goal_at_min={} stutter_fair={}",
        r.monotone, r.goal_at_minimum, r.stutter_fair_sccs
    );
    let run = JsonRun {
        monotone: Some(r.monotone),
        goal_at_minimum: Some(r.goal_at_minimum),
        stutter_fair_sccs: Some(r.stutter_fair_sccs),
        lasso: r.stutter_counterexample.as_ref().map(json_lasso),
        escape: r.increase.as_ref().map(|(t, _, _)| fmt_schedule(t)),
        ..JsonRun::new(
            Mode::Ranking,
            &RealStepper,
            family,
            g,
            r.certified(),
            verdict,
        )
    };
    (run, row)
}

/// Builds the one graph of a scope and lets `args.mode` judge it. A
/// monitor violation overrides whatever the mode concluded from the part
/// of the graph built before it.
fn check_scope(initial: &State, family: Option<Family>, args: &Args) -> JsonRun {
    let g = FairGraph::build(initial, &RealStepper, args.max_states);
    let (mut run, row) = match args.mode {
        Mode::Safety => safety_run(&g, family),
        Mode::Liveness => convergence_run(&g, &RealStepper, family),
        Mode::Closure => closure_run(&g),
        Mode::Ranking => ranking_run(&g, family),
    };
    let minimized = g
        .violation
        .as_ref()
        .map(|found| minimize(initial, &RealStepper, &found.trace));
    if let Some(found) = &g.violation {
        run.ok = false;
        run.verdict = format!("VIOLATION: {}", found.violation);
        run.lasso = None;
        run.escape = minimized.as_deref().map(fmt_schedule);
    }
    if args.json {
        return run;
    }
    println!(
        "  {:<6} states={:>8} edges={:>9} {row}  {}",
        family.map_or("ring", Family::label),
        run.states,
        run.edges,
        run.verdict
    );
    if g.coalesced_sends > 0 {
        println!(
            "         ({} sends coalesced by channel bound {}; exhaustive relative to it)",
            g.coalesced_sends, args.channel_bound
        );
    }
    if let Some(min) = &minimized {
        print!("{}", format_trace(initial, &RealStepper, min));
    } else {
        if let Some(l) = &run.lasso {
            print_lasso(l);
        }
        for t in run.escape.iter().flatten() {
            println!("    escape: {t}");
        }
    }
    run
}

fn main() {
    let args = parse_args();
    match args.mutant.as_deref() {
        Some("drop-lin") => return run_safety_mutant(&args, &DropLinStepper),
        Some("self-echo") => return run_safety_mutant(&args, &SelfEchoStepper),
        Some("bounce-lin") => return run_bounce_mutant(&args),
        _ => {}
    }

    if !args.json {
        println!(
            "small-scope {} check: n = {}, budget = {}, seed = {}, channel bound = {}",
            args.mode.label(),
            args.n,
            args.budget,
            args.seed,
            args.channel_bound
        );
    }
    let scopes: Vec<(Option<Family>, State)> = if args.mode == Mode::Closure {
        // Closure has one canonical seed per (n, budget), not one per
        // family: the sorted ring itself.
        vec![(None, ring_state(args.n, args.budget))]
    } else {
        let seeded = |f: &Family| {
            f.initial_state_bounded(args.n, args.budget, args.seed, args.channel_bound)
        };
        args.families
            .iter()
            .map(|f| (Some(*f), seeded(f)))
            .collect()
    };
    let runs: Vec<JsonRun> = scopes
        .iter()
        .map(|(family, initial)| check_scope(initial, *family, &args))
        .collect();
    let failed = runs.iter().any(|r| !r.ok);
    if args.json {
        print_doc(args.mode.label(), args.n, args.budget, &args, runs);
    }
    if failed {
        std::process::exit(1);
    }
}
