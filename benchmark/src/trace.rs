//! Spans recorded from outside the library: one around each public call
//! the traced pass makes, kept in memory and written out at exit.
//!
//! A span's *self time* is its duration minus its direct children's, so
//! the self times under a root add up to the root: what the root keeps
//! for itself is the time no layer accounts for.

use std::io::Write as _;
use std::time::Instant;

use crate::json::Obj;

pub struct Span {
    pub parent: Option<usize>,
    pub trial: u64,
    /// `setup`, `timed`, `probe` (on the trial's final network) or
    /// `fixture` (on a fixed-size network built for the purpose).
    pub phase: &'static str,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// Records nothing when disabled, so the untraced pass runs the same
/// set-up code without paying for clocks.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    pub trial: u64,
    pub phase: &'static str,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            trial: 0,
            phase: "setup",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        nanos(self.t0)
    }

    /// Opens a span that encloses the spans recorded until [`exit`](Self::exit).
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            trial: self.trial,
            phase: self.phase,
            layer,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = now;
    }

    /// A span around one call.
    pub fn leaf<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations of every span of this phase, layer and name, in order.
    pub fn durations(&self, phase: &str, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.phase == phase && s.layer == layer && s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    pub fn total(&self, phase: &str, layer: &str, name: &str) -> f64 {
        self.durations(phase, layer, name).iter().sum()
    }

    /// Self time of every span: duration minus direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Writes the spans as JSON lines: `id, parent, trial, phase, layer,
    /// name, start_ns, end_ns`, times relative to the tracer's start.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = Obj::new();
            o.int("id", id as u64);
            match s.parent {
                Some(p) => o.int("parent", p as u64),
                None => o.raw("parent", "null"),
            }
            o.int("trial", s.trial);
            o.str("phase", s.phase);
            o.str("layer", s.layer);
            o.str("name", s.name);
            o.int("start_ns", s.start_ns);
            o.int("end_ns", s.end_ns);
            writeln!(w, "{}", o.finish())?;
        }
        w.flush()
    }
}
