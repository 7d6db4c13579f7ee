//! The repository's benchmark. `README.md` beside `Cargo.toml` has the
//! workloads, the metrics and how they are meant to move together.
//!
//! ```text
//! benchmark --workload <name> [--seed S] [--seconds T] [--trace 0|1]
//!           [--quick] [--spans FILE] [--append FILE]
//! benchmark --all [--sets K] [--seed S] [--seconds T] [--quick]
//! benchmark --list | --manifest
//! ```
//!
//! One process, one thread. A run repeats trials (seed `S`, `S+1`, ...)
//! until `T` seconds have passed and prints two lines: the full record,
//! then `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).

mod json;
mod measure;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::process::{Command, ExitCode};

use json::Obj;
use measure::Report;
use spec::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::{median, quartile_spread};

struct Options {
    /// Index into `spec::WORKLOADS`.
    workload: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    spans: Option<String>,
    append: Option<String>,
}

impl Options {
    fn declared(&self) -> &'static [MetricSpec] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }
}

/// Measures one workload and refuses a result that is not exactly the
/// declared metrics, each a finite number.
fn run(o: &Options) -> Result<Report, String> {
    let w = workloads::workload(o.workload, o.quick);
    let report = if o.traced {
        measure::traced(&w, o.seed, o.seconds, o.spans.as_deref())?
    } else {
        measure::untraced(&w, o.seed, o.seconds)?
    };
    let measured: Vec<&str> = report.rows.iter().map(|r| r.name).collect();
    let declared: Vec<&str> = o.declared().iter().map(|m| m.name).collect();
    if measured != declared {
        return Err(format!("measured {measured:?}, declared {declared:?}"));
    }
    if let Some(bad) = report.rows.iter().find(|r| !r.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name));
    }
    Ok(report)
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `core.node.on_message_ns.lin` belongs to layer `core.node`.
fn layer(o: &Options, name: &str) -> String {
    if !o.traced {
        return "end_to_end".to_string();
    }
    let parts: Vec<&str> = name.split('.').collect();
    let own = if parts[0] == "reconcile" { 1 } else { 2 };
    parts[..own].join(".")
}

/// Who measured what, then one row per metric: as one document, or in
/// ledger form, where every row is a line that carries the header.
fn record(o: &Options, r: &Report, ledger: bool) -> Vec<String> {
    let mut head = Obj::new();
    head.str("schema", "swn-benchmark/1");
    head.str("workload", WORKLOADS[o.workload].name);
    head.str("commit", &commit());
    head.int(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    head.raw("quick", if o.quick { "true" } else { "false" });
    head.int("seed", o.seed);
    head.int("trials", r.trials);
    head.str("sim_digest", &format!("{:016x}", r.sim_digest));
    head.int("ops", r.attempted);
    head.int("failed_ops", r.failed);
    let head = head.finish();
    let head = head.trim_end_matches('}');
    let rows = r.rows.iter().zip(o.declared()).map(|(row, m)| {
        let mut line = Obj::new();
        line.str("layer", &layer(o, row.name));
        line.str("metric", row.name);
        line.num("value", row.value);
        line.str("unit", m.unit);
        line.num("spread", row.spread);
        line.finish()
    });
    if ledger {
        rows.map(|row| format!("{head}, {}", &row[1..])).collect()
    } else {
        let rows: Vec<String> = rows.collect();
        vec![format!(
            "{head}, \"rows\": [{}], \"claim\": null}}",
            rows.join(", ")
        )]
    }
}

/// The line the driver reads: last on standard output.
fn result_line(o: &Options, r: &Report) -> String {
    let mut metrics = Obj::new();
    for (row, m) in r.rows.iter().zip(o.declared()) {
        let mut v = Obj::new();
        v.num("value", row.value);
        v.str("unit", m.unit);
        metrics.raw(row.name, &v.finish());
    }
    let mut line = Obj::new();
    line.raw("correct", if r.correct { "true" } else { "false" });
    line.int("attempted", r.attempted);
    line.int("failed", r.failed);
    line.raw("metrics", &metrics.finish());
    line.finish()
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:18} {}", w.name, w.why);
    }
    for (title, metrics) in [
        ("end to end", &END_TO_END[..]),
        ("per layer", &PER_LAYER[..]),
    ] {
        println!("{title}:");
        for m in metrics {
            let better = if m.higher { "higher" } else { "lower" };
            let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
            println!("  {:42} {:9} {better}{bound}", m.name, m.unit);
        }
    }
}

/// Runs this program once more and returns its standard output.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run a workload: {e}"))?;
    std::io::stderr().write_all(&out.stderr).ok();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!("workload run failed ({}): {text}", out.status));
    }
    Ok(text)
}

/// Repeatability: every workload `sets` times untraced, each in its own
/// process with its own seed, and once traced. Prints every value, and
/// per end-to-end metric the spread between the sets (quartile distance
/// over median; the plain relative gap with fewer than four sets)
/// beside its bound. Fails when a spread exceeds its bound, a run is not
/// correct, or the traced and untraced passes digest differently.
fn all(o: &Options, sets: u64) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let args = |seed: u64, traced: bool| {
            let mut a: Vec<String> = [
                "--workload",
                w.name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &o.seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ]
            .map(String::from)
            .to_vec();
            if o.quick {
                a.push("--quick".to_string());
            }
            a
        };
        let digest = |text: &str| {
            let at = text.find("\"sim_digest\": \"")? + 15;
            text.get(at..at + 16).map(str::to_string)
        };
        let correct = |line: &str| line.starts_with("{\"correct\": true");
        let mut first_digest = None;
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for set in 0..sets {
            let text = child(&args(o.seed + set, false))?;
            let line = text.lines().last().unwrap_or_default();
            ok &= correct(line);
            if set == 0 {
                first_digest = digest(&text);
            }
            for (m, v) in END_TO_END.iter().zip(&mut values) {
                v.push(json::metric_value(line, m.name).ok_or("unreadable result line")?);
            }
        }
        println!("{}", w.name);
        for (m, v) in END_TO_END.iter().zip(&values) {
            let spread = if v.len() >= 4 {
                quartile_spread(v)
            } else {
                let lo = v.iter().copied().fold(f64::MAX, f64::min);
                let hi = v.iter().copied().fold(f64::MIN, f64::max);
                (hi - lo) / lo
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let verdict = if m.name == "setup_s" {
                "exempt"
            } else if spread > bound {
                ok = false;
                "FAIL"
            } else if spread > bound / 3.0 {
                "loose"
            } else {
                "ok"
            };
            println!(
                "  {:18} median {:<16.6} spread {spread:.4}  bound {bound:.2}  {verdict:6} {v:?}",
                m.name,
                median(v),
            );
        }
        let text = child(&args(o.seed, true))?;
        let line = text.lines().last().unwrap_or_default();
        let same = digest(&text) == first_digest;
        ok &= correct(line) && same;
        let layer = |name| json::metric_value(line, name).unwrap_or(f64::NAN);
        println!(
            "  traced: digest {}, unattributed_share {:.4}, trace_overhead_ratio {:.3}, handler_share {:.3}",
            if same { "same" } else { "DIFFERS" },
            layer("reconcile.unattributed_share"),
            layer("reconcile.trace_overhead_ratio"),
            layer("core.node.handler_share"),
        );
    }
    Ok(ok)
}

const USAGE: &str = "usage: benchmark --workload <name> [--seed S] [--seconds T] [--trace 0|1] \
[--quick] [--spans FILE] [--append FILE]
       benchmark --all [--sets K] [--seed S] [--seconds T] [--quick]
       benchmark --list | --manifest";

fn main_inner() -> Result<bool, String> {
    let mut o = Options {
        workload: 0,
        seed: 1,
        seconds: f64::NAN,
        traced: false,
        quick: false,
        spans: None,
        append: None,
    };
    let (mut chosen, mut run_all, mut sets) = (false, false, 2);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        let bad = |what: &str| format!("{flag}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                o.workload = spec::workload(&value()?).ok_or(bad("no such workload"))?;
                chosen = true;
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                o.seconds = (value()?.parse().ok())
                    .filter(|s| (0.0..=600.0).contains(s))
                    .ok_or(bad("not a number of seconds from 0 to 600"))?;
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("is 0 or 1")),
                }
            }
            "--sets" => {
                sets = (value()?.parse().ok())
                    .filter(|k| (2..=64).contains(k))
                    .ok_or(bad("is 2 to 64"))?;
            }
            "--spans" => o.spans = Some(value()?),
            "--append" => o.append = Some(value()?),
            "--quick" => o.quick = true,
            "--all" => run_all = true,
            "--list" => {
                list();
                return Ok(true);
            }
            "--manifest" => {
                print!("{}", spec::manifest_json());
                return Ok(true);
            }
            _ => return Err(USAGE.to_string()),
        }
    }
    if o.seconds.is_nan() {
        // `--quick` makes the fewest trials a run can.
        o.seconds = if o.quick { 0.0 } else { RUN_SECONDS as f64 };
    }
    if run_all {
        return all(&o, sets);
    }
    if !chosen {
        return Err(USAGE.to_string());
    }
    let report = run(&o)?;
    if let Some(path) = &o.append {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        for row in record(&o, &report, true) {
            writeln!(file, "{row}").map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    println!("{}", record(&o, &report, false)[0]);
    println!("{}", result_line(&o, &report));
    Ok(report.correct)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: usize, traced: bool) -> Options {
        Options {
            workload,
            seed: 1,
            seconds: 0.0,
            traced,
            quick: true,
            spans: None,
            append: None,
        }
    }

    #[test]
    fn benchmark_json_is_the_declared_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, spec::manifest_json(), "regenerate with --manifest");
    }

    #[test]
    fn declared_names_and_bounds_are_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        let bound = |m: &MetricSpec| m.bound.expect("end-to-end metrics have bounds");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END
            .iter()
            .all(|m| bound(m) <= bound(setup) && bound(setup) <= 0.25));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `run` refuses a result whose names differ from the declared ones or
    /// whose values are not finite, so a passing quick run of each pass is
    /// the name-drift check; the traced pass must also have simulated what
    /// the untraced one did.
    #[test]
    fn quick_runs_emit_the_declared_metrics_and_agree_on_the_execution() {
        for (workload, w) in WORKLOADS.iter().enumerate() {
            let plain = run(&quick(workload, false)).expect(w.name);
            let traced = run(&quick(workload, true)).expect(w.name);
            assert!(plain.correct && traced.correct, "{}", w.name);
            assert_eq!(plain.failed + traced.failed, 0, "{}", w.name);
            assert_eq!(plain.sim_digest, traced.sim_digest, "{}", w.name);
            let o = quick(workload, true);
            let doc = &record(&o, &traced, false)[0];
            assert!(doc.contains("\"quick\": true") && doc.ends_with("\"claim\": null}"));
            assert!(result_line(&o, &traced).starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    #[test]
    fn result_lines_read_back() {
        let line = "{\"metrics\": {\"a_b\": {\"value\": 1.5, \"unit\": \"s\"}, \"c\": {\"value\": 2e3, \"unit\": \"1/s\"}}}";
        assert_eq!(json::metric_value(line, "a_b"), Some(1.5));
        assert_eq!(json::metric_value(line, "c"), Some(2000.0));
        assert_eq!(json::metric_value(line, "b"), None);
    }
}
