//! The `analyzer` binary end to end, at n = 2 where every scope builds
//! in milliseconds: the `--json` document, the ring family, the retired
//! `--mode` flag and the livelock mutant.

use serde::Value;
use std::process::{Command, Output};

fn analyzer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analyzer"))
        .args(args)
        .output()
        .expect("the analyzer binary runs")
}

/// Runs the analyzer with `--json`, expects exit 0, and returns stdout
/// with the `runs` array it parses to.
fn json(args: &[&str]) -> (String, Vec<Value>) {
    let out = analyzer(&[args, &["--json"]].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc: Value = serde_json::from_str(&text).expect("one JSON document");
    let Value::Seq(runs) = field(&doc, "runs").clone() else {
        panic!("runs is not an array: {text}");
    };
    (text, runs)
}

/// The value of `key` in a JSON object; panics when it is absent.
fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    let Value::Map(entries) = v else {
        panic!("not an object: {v}");
    };
    entries
        .iter()
        .find_map(|(k, x)| (k == key).then_some(x))
        .unwrap_or_else(|| panic!("no field {key} in {v}"))
}

fn str_of(v: &Value) -> &str {
    let Value::Str(s) = v else {
        panic!("not a string: {v}");
    };
    s
}

const TRUE: Value = Value::Bool(true);

/// Every field that carries a verdict, size or SCC count.
const VERDICT_FIELDS: [&str; 17] = [
    "stepper",
    "family",
    "states",
    "edges",
    "truncated",
    "goal_states",
    "terminals",
    "terminal_nongoal",
    "scc_count",
    "max_scc",
    "fair_sccs",
    "ring_states",
    "stable_states",
    "monotone",
    "goal_at_minimum",
    "ok",
    "verdict",
];

#[test]
fn default_json_judges_four_scopes_on_every_property() {
    let (text, runs) = json(&["--n", "2"]);
    assert!(text.contains(r#""failed":false"#), "{text}");
    let families: Vec<&str> = runs.iter().map(|r| str_of(field(r, "family"))).collect();
    assert_eq!(families, ["line", "star", "clique", "ring"]);
    for run in &runs {
        for name in VERDICT_FIELDS {
            assert_ne!(field(run, name), &Value::Null, "{name} in {run}");
        }
        assert_eq!(field(run, "ok"), &TRUE, "{run}");
        assert_eq!(field(run, "fair_sccs"), &Value::U64(0), "{run}");
        assert_eq!(field(run, "monotone"), &TRUE, "{run}");
        assert_eq!(field(run, "goal_at_minimum"), &TRUE, "{run}");
    }
}

#[test]
fn ring_family_stays_ring_stable() {
    let (_, runs) = json(&["--n", "2", "--family", "ring"]);
    let [ring] = &runs[..] else {
        panic!("one scope expected: {runs:?}");
    };
    assert_eq!(str_of(field(ring, "family")), "ring");
    assert_eq!(field(ring, "ok"), &TRUE, "{ring}");
    let states = field(ring, "states");
    assert_eq!(states, &Value::U64(1_369));
    assert_eq!(field(ring, "ring_states"), states);
    assert_eq!(field(ring, "stable_states"), states);
}

#[test]
fn mode_flag_is_gone() {
    let out = analyzer(&["--mode", "liveness"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.contains("unknown flag --mode"), "{err}");
    assert!(err.contains("usage: analyzer"), "{err}");
}

#[test]
fn bounce_mutant_yields_a_lasso() {
    let (text, runs) = json(&["--mutant", "bounce-lin"]);
    assert!(text.contains(r#""fair_sccs":1"#), "{text}");
    assert_eq!(field(&runs[0], "ok"), &TRUE, "caught: {text}");
    let Value::Seq(cycle) = field(field(&runs[0], "lasso"), "cycle") else {
        panic!("no lasso cycle: {text}");
    };
    assert!(!cycle.is_empty());
}
