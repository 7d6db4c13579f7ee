//! The `report` subcommand: renders a JSONL observation trace (written
//! via `--trace-out`, see [`crate::runlog`]) as a human-readable run
//! report — per-phase time breakdown, convergence timeline,
//! message-kind mix over time and the distribution summaries.

use std::fmt::Write as _;
use swn_core::message::MessageKind;
use swn_sim::obs::{parse_record, Event, Histogram};
use swn_sim::trace::RoundStats;

/// Renders the report for a JSONL trace (one record per line). Fails on
/// malformed lines and unknown schema versions, with the line number.
pub fn render_report(jsonl: &str) -> Result<String, String> {
    let mut events = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rec = parse_record(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(rec.event);
    }
    if events.is_empty() {
        return Err("trace contains no records".to_string());
    }
    let mut out = String::new();
    let _ = writeln!(out, "run report ({} records)", events.len());
    render_meta(&mut out, &events);
    render_timeline(&mut out, &events);
    render_phases(&mut out, &events);
    render_mix(&mut out, &events);
    render_cascades(&mut out, &events);
    render_summary(&mut out, &events);
    Ok(out)
}

fn render_meta(out: &mut String, events: &[Event]) {
    for e in events {
        if let Event::RunMeta {
            n,
            seed,
            policy,
            sample_every,
            round,
        } = e
        {
            let _ = writeln!(
                out,
                "  n={n} seed={seed} policy={policy} sample_every={sample_every} attached@round {round}"
            );
        }
    }
}

fn render_timeline(out: &mut String, events: &[Event]) {
    let transitions: Vec<(&str, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Transition { round, phase } => Some((phase.as_str(), *round)),
            _ => None,
        })
        .collect();
    let spans: Vec<(&str, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span { label, start, end } => Some((label.as_str(), *start, *end)),
            _ => None,
        })
        .collect();
    let faults: Vec<(u64, &str, &str)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Fault {
                round,
                kind,
                detail,
            } => Some((*round, kind.as_str(), detail.as_str())),
            _ => None,
        })
        .collect();
    let verdicts: Vec<(u64, &str, &str)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Verdict {
                round,
                outcome,
                detail,
            } => Some((*round, outcome.as_str(), detail.as_str())),
            _ => None,
        })
        .collect();
    if transitions.is_empty() && spans.is_empty() && faults.is_empty() && verdicts.is_empty() {
        return;
    }
    let _ = writeln!(out, "\nconvergence timeline");
    if !transitions.is_empty() {
        let marks: Vec<String> = transitions
            .iter()
            .map(|(phase, round)| format!("{phase}@{round}"))
            .collect();
        let _ = writeln!(out, "  {}", marks.join("  "));
    }
    for (round, kind, detail) in faults {
        let _ = writeln!(out, "  fault {kind}@{round}: {detail}");
    }
    for (label, start, end) in spans {
        let _ = writeln!(
            out,
            "  span {label}: rounds {start} -> {end} ({} rounds)",
            end.saturating_sub(start)
        );
    }
    for (round, outcome, detail) in verdicts {
        let _ = writeln!(out, "  verdict {outcome}@{round}: {detail}");
    }
}

#[allow(clippy::cast_precision_loss)]
fn render_phases(out: &mut String, events: &[Event]) {
    const NAMES: [&str; 5] = ["order", "channel", "deliver", "flush", "stats"];
    let samples: Vec<[u64; 5]> = events
        .iter()
        .filter_map(|e| match e {
            Event::Round { phases: p, .. } => Some([
                p.shuffle_ns,
                p.channel_ns,
                p.deliver_ns,
                p.flush_ns,
                p.stats_ns,
            ]),
            _ => None,
        })
        .collect();
    if samples.is_empty() {
        return;
    }
    let mut mean = [0f64; 5];
    for s in &samples {
        for (m, &v) in mean.iter_mut().zip(s) {
            *m += v as f64;
        }
    }
    for m in &mut mean {
        *m /= samples.len() as f64;
    }
    let total: f64 = mean.iter().sum();
    let _ = writeln!(
        out,
        "\nphase-time breakdown (mean over {} sampled rounds, total {:.1} us/round)",
        samples.len(),
        total / 1_000.0
    );
    for (name, m) in NAMES.iter().zip(&mean) {
        let pct = if total > 0.0 { 100.0 * m / total } else { 0.0 };
        let _ = writeln!(out, "  {name:<8} {:>10.1} ns  {pct:>5.1}%", m);
    }
}

fn render_mix(out: &mut String, events: &[Event]) {
    let rounds: Vec<(u64, &RoundStats)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Round { round, stats, .. } => Some((*round, stats)),
            _ => None,
        })
        .collect();
    if rounds.is_empty() {
        return;
    }
    let _ = writeln!(out, "\nmessage-kind mix over time (sampled rounds)");
    let mut header = String::from("  rounds          ");
    for kind in MessageKind::ALL {
        let _ = write!(header, "{:>8}", kind.name());
    }
    let _ = writeln!(out, "{header}{:>8}", "total");
    // Up to six windows of consecutive samples, so long runs stay
    // readable without losing the time dimension.
    let per_window = rounds.len().div_ceil(6).max(1);
    for w in rounds.chunks(per_window) {
        let lo = w.first().map_or(0, |&(r, _)| r);
        let hi = w.last().map_or(0, |&(r, _)| r);
        let mut sum = RoundStats::default();
        for (_, stats) in w {
            sum += *stats;
        }
        let mut row = format!("  {:>6} ..{:>6}  ", lo, hi);
        for s in &sum.sent {
            let _ = write!(row, "{s:>8}");
        }
        let _ = writeln!(out, "{row}{:>8}", sum.total_sent());
    }
}

/// Repair-cascade sections: one per [`Event::Cascade`], with the cascade
/// shape (roots/edges/depth/width) and the per-message-kind fan-out —
/// how many follow-up sends each handled kind caused on average.
#[allow(clippy::cast_precision_loss)]
fn render_cascades(out: &mut String, events: &[Event]) {
    for e in events {
        if let Event::Cascade {
            label,
            start,
            end,
            delivered,
            roots,
            edges,
            depth,
            width_max,
            handled_by_kind,
            children_by_kind,
        } = e
        {
            let _ = writeln!(
                out,
                "\nrepair cascade \"{label}\": rounds {start} -> {end} ({} rounds)",
                end.saturating_sub(*start)
            );
            let _ = writeln!(
                out,
                "  {delivered} deliveries = {roots} roots + {edges} caused, depth max {}, width max {width_max}",
                depth.max()
            );
            render_hist(out, "cascade depth (hops from root)", depth);
            let _ = writeln!(
                out,
                "  per-kind fan-out (children caused per handled message)"
            );
            let _ = writeln!(
                out,
                "    {:<8} {:>10} {:>10} {:>8}",
                "kind", "handled", "children", "fan-out"
            );
            for kind in MessageKind::ALL {
                let handled = handled_by_kind.get(kind.index()).copied().unwrap_or(0);
                let children = children_by_kind.get(kind.index()).copied().unwrap_or(0);
                if handled == 0 && children == 0 {
                    continue;
                }
                let fanout = if handled > 0 {
                    children as f64 / handled as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "    {:<8} {handled:>10} {children:>10} {fanout:>8.2}",
                    kind.name()
                );
            }
        }
    }
}

fn render_summary(out: &mut String, events: &[Event]) {
    for e in events {
        if let Event::Summary {
            rounds,
            totals,
            depth,
            forget_age,
            lrl_len,
            latency_by_kind,
            cascade_depth,
        } = e
        {
            let sent = totals.total_sent();
            let _ = writeln!(out, "\ntotals: {rounds} rounds, {sent} messages sent");
            let mut latency = Histogram::new();
            for h in latency_by_kind {
                latency.merge(h);
            }
            render_hist(out, "latency (rounds, enqueue->deliver)", &latency);
            render_latency_by_kind(out, latency_by_kind);
            render_hist(out, "channel depth high-water (msgs)", depth);
            render_hist(out, "cascade depth (all windows)", cascade_depth);
            render_hist(out, "lrl age at forget (rounds)", forget_age);
            render_hist(out, "lrl length (rank distance)", lrl_len);
        }
    }
}

/// Per-message-kind latency percentile table. Kinds that never saw a
/// delivery are skipped, so Immediate-policy runs (all-zero latency)
/// still show which kinds actually flowed.
fn render_latency_by_kind(out: &mut String, hists: &[Histogram]) {
    if hists.iter().all(Histogram::is_empty) {
        return;
    }
    let _ = writeln!(out, "  latency percentiles by message kind (rounds)");
    let _ = writeln!(
        out,
        "    {:<8} {:>10} {:>8} {:>6} {:>6} {:>6} {:>6}",
        "kind", "n", "mean", "p50", "p90", "p99", "max"
    );
    for kind in MessageKind::ALL {
        let Some(h) = hists.get(kind.index()) else {
            continue;
        };
        if h.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "    {:<8} {:>10} {:>8.2} {:>6} {:>6} {:>6} {:>6}",
            kind.name(),
            h.count(),
            h.mean(),
            h.approx_quantile(0.5),
            h.approx_quantile(0.9),
            h.approx_quantile(0.99),
            h.max()
        );
    }
}

#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn render_hist(out: &mut String, name: &str, h: &Histogram) {
    if h.is_empty() {
        let _ = writeln!(out, "  {name}: no samples");
        return;
    }
    let _ = writeln!(
        out,
        "  {name}: n={} mean={:.2} p50<={} p99<={} max={}",
        h.count(),
        h.mean(),
        h.approx_quantile(0.5),
        h.approx_quantile(0.99),
        h.max()
    );
    let peak = h.buckets().iter().copied().max().unwrap_or(1).max(1);
    for (b, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let (lo, hi) = Histogram::bucket_bounds(b);
        let label = if lo == hi {
            format!("{lo}")
        } else if hi == u64::MAX {
            format!("{lo}+")
        } else {
            format!("{lo}-{hi}")
        };
        let width = ((c as f64 / peak as f64) * 40.0).ceil() as usize;
        let _ = writeln!(out, "    {label:>12} |{} {c}", "#".repeat(width.max(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_sim::obs::{PhaseTimes, Record, SCHEMA_VERSION};

    fn line(ev: Event) -> String {
        serde_json::to_string(&Record::new(ev)).expect("serialize")
    }

    fn sample_trace() -> String {
        let mut h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(3);
        let events = vec![
            Event::RunMeta {
                n: 16,
                seed: 7,
                policy: "Immediate".to_string(),
                sample_every: 4,
                round: 0,
            },
            Event::Round {
                round: 4,
                depth_max: 3,
                stats: RoundStats {
                    sent: [10, 2, 1, 1, 1, 0, 0],
                    ..RoundStats::default()
                },
                phases: PhaseTimes {
                    shuffle_ns: 100,
                    channel_ns: 300,
                    deliver_ns: 500,
                    flush_ns: 80,
                    stats_ns: 20,
                },
            },
            Event::Transition {
                round: 2,
                phase: "lcc".to_string(),
            },
            Event::Transition {
                round: 5,
                phase: "list".to_string(),
            },
            Event::Transition {
                round: 9,
                phase: "ring".to_string(),
            },
            Event::Span {
                label: "join".to_string(),
                start: 10,
                end: 14,
            },
            Event::Fault {
                round: 10,
                kind: "crash".to_string(),
                detail: "node 0.5 down for 4 rounds".to_string(),
            },
            Event::Verdict {
                round: 14,
                outcome: "recovered".to_string(),
                detail: "rounds=4".to_string(),
            },
            Event::Cascade {
                label: "recovery".to_string(),
                start: 10,
                end: 14,
                delivered: 9,
                roots: 2,
                edges: 7,
                depth: h.clone(),
                width_max: 4,
                handled_by_kind: vec![5, 4, 0, 0, 0, 0, 0],
                children_by_kind: vec![6, 1, 0, 0, 0, 0, 0],
            },
            Event::Summary {
                rounds: 9,
                totals: RoundStats {
                    sent: [100, 20, 3, 0, 0, 0, 0],
                    ..RoundStats::default()
                },
                depth: h.clone(),
                forget_age: Histogram::new(),
                lrl_len: h.clone(),
                latency_by_kind: {
                    let mut per_kind = vec![Histogram::new(); MessageKind::COUNT];
                    per_kind[0] = h.clone();
                    per_kind
                },
                cascade_depth: h,
            },
        ];
        events.into_iter().map(line).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn report_contains_every_section() {
        let report = render_report(&sample_trace()).expect("render");
        assert!(report.contains("n=16 seed=7"), "{report}");
        assert!(report.contains("lcc@2"), "{report}");
        assert!(report.contains("list@5"), "{report}");
        assert!(report.contains("ring@9"), "{report}");
        assert!(report.contains("span join: rounds 10 -> 14 (4 rounds)"));
        assert!(report.contains("fault crash@10: node 0.5 down"), "{report}");
        assert!(
            report.contains("verdict recovered@14: rounds=4"),
            "{report}"
        );
        assert!(report.contains("phase-time breakdown"), "{report}");
        assert!(report.contains("deliver"), "{report}");
        assert!(report.contains("message-kind mix"), "{report}");
        assert!(report.contains("lin"), "kind names present: {report}");
        assert!(report.contains("123 messages sent"), "{report}");
        assert!(report.contains("latency (rounds"), "{report}");
        assert!(
            report.contains("latency percentiles by message kind"),
            "{report}"
        );
        assert!(report.contains("p90"), "{report}");
        assert!(
            report.contains("repair cascade \"recovery\": rounds 10 -> 14"),
            "{report}"
        );
        assert!(
            report.contains("9 deliveries = 2 roots + 7 caused"),
            "{report}"
        );
        assert!(report.contains("per-kind fan-out"), "{report}");
        // lin: 6 children / 5 handled = 1.20 fan-out.
        assert!(report.contains("1.20"), "{report}");
        assert!(report.contains("cascade depth"), "{report}");
        assert!(report.contains("no samples"), "empty forget hist: {report}");
        // The deliver phase dominates the synthetic sample: 500/1000.
        assert!(report.contains("50.0%"), "{report}");
    }

    #[test]
    fn report_rejects_bad_input() {
        assert!(render_report("").unwrap_err().contains("no records"));
        assert!(render_report("not json").unwrap_err().contains("line 1"));
        let mut bad = line(Event::Transition {
            round: 1,
            phase: "lcc".to_string(),
        });
        bad = bad.replace(&format!("\"v\":{SCHEMA_VERSION}"), "\"v\":999");
        let err = render_report(&bad).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
    }

    #[test]
    fn report_rejects_a_histogram_off_the_bucket_layout() {
        // The Summary's depth histogram with a 34th bucket, its count
        // raised to match: refused where it is parsed, not a panic in
        // the quantile reader.
        let trace = sample_trace();
        let summary = trace.lines().last().expect("summary line");
        let mut h = Histogram::new();
        for v in [1, 1, 3] {
            h.record(v);
        }
        let good = serde_json::to_string(&h).expect("serialize");
        let extra = good
            .replacen(']', ",1]", 1)
            .replace("\"count\":3", "\"count\":4");
        let tampered = summary.replacen(
            &format!("\"depth\":{good}"),
            &format!("\"depth\":{extra}"),
            1,
        );
        assert_ne!(tampered, summary, "the depth histogram was found");
        let err = render_report(&trace.replace(summary, &tampered)).unwrap_err();
        let lineno = trace.lines().count();
        assert!(err.contains(&format!("line {lineno}:")), "{err}");
        assert!(err.contains("Histogram"), "{err}");
    }
}
