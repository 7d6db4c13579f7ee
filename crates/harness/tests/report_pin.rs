//! The rendered run report of two traced scenarios, pinned as text.
//!
//! `experiments report` is what a reader sees of a `--trace-out` file:
//! the convergence timeline, the message-kind mix, the repair cascade,
//! the totals and every histogram. Changes to the record stream (what
//! an event carries, which histograms a `Summary` holds) must leave that
//! text alone, so the pin covers everything except two lines of output
//! that legitimately move: the `run report (N records)` header, whose
//! count depends on how many records a round is split into, and the
//! `phase-time breakdown` section, which is wall-clock time.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p swn-harness --test
//! report_pin` after an intentional change to what the report shows.

use swn_harness::report::render_report;
use swn_harness::runlog::{write_trace_cfg, TraceCfg};

fn small() -> TraceCfg {
    TraceCfg {
        n: 16,
        sample_every: 4,
        warmup: 40,
        window: 40,
        budget: 5_000,
        seed: 7,
    }
}

/// The report for `id` without its record-count header and its
/// phase-time section (header line through the blank line ending it).
fn pinned_report(id: &str) -> String {
    let path = std::env::temp_dir().join(format!("swn_report_pin_{id}.jsonl"));
    write_trace_cfg(id, &small(), &path).expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    let report = render_report(&text).expect("report renders");
    let mut lines = report.lines();
    let header = lines.next().expect("report has a header");
    assert!(header.starts_with("run report ("), "{header}");
    let mut out = String::new();
    let mut in_phases = false;
    for line in lines {
        if line.starts_with("phase-time breakdown") {
            in_phases = true;
        } else if in_phases && line.is_empty() {
            in_phases = false;
            continue;
        }
        if !in_phases {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn check(id: &str) {
    let actual = pinned_report(id);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("report_{id}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture has a parent dir"))
            .expect("create golden dir");
        std::fs::write(&path, &actual).expect("write report fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing report fixture {}: {e}", path.display()));
    assert_eq!(expected, actual, "the rendered {id} report changed");
}

#[test]
fn convergence_report_matches_the_pinned_text() {
    check("e1");
}

#[test]
fn fault_report_matches_the_pinned_text() {
    check("e10");
}
