//! The flight recorder: a bounded ring of recent observation records
//! that survives long soaks and dumps itself on anomalies.
//!
//! Long fault soaks cannot afford an unbounded in-memory trace and
//! rarely need one: when something goes wrong, the *recent* history is
//! what explains it. A [`FlightBuffer`] keeps the last `capacity`
//! records; a [`FlightRecorder`] sink feeds one — it is the in-memory
//! sink, tests included — and, once armed with a dump path, writes the
//! buffered records out as JSONL for a post-mortem (`experiments report
//! <dump>` renders it) when the watchdog's verdict is `disconnected` or
//! `budget_exhausted`, or when [`FlightRecorder::dump_now`] is called
//! from a tripped debug invariant.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use super::{Event, Record, Sink};

/// A fixed-capacity ring buffer of [`Record`]s: pushing beyond capacity
/// evicts the oldest record.
#[derive(Debug)]
pub struct FlightBuffer {
    buf: VecDeque<Record>,
    capacity: usize,
}

impl FlightBuffer {
    /// An empty buffer holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightBuffer {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, rec: Record) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(rec);
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates the buffered records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.buf.iter()
    }

    /// The buffered records as a contiguous vec, oldest first.
    pub fn snapshot(&self) -> Vec<Record> {
        self.buf.iter().cloned().collect()
    }

    /// The oldest buffered record.
    pub fn first(&self) -> Option<&Record> {
        self.buf.front()
    }

    /// The newest buffered record.
    pub fn last(&self) -> Option<&Record> {
        self.buf.back()
    }

    /// Serializes the buffered records as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.buf {
            out.push_str(&serde_json::to_string(rec).expect("record serialization cannot fail"));
            out.push('\n');
        }
        out
    }
}

impl<'a> IntoIterator for &'a FlightBuffer {
    type Item = &'a Record;
    type IntoIter = std::collections::vec_deque::Iter<'a, Record>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

/// True for the watchdog outcomes that warrant a post-mortem: permanent
/// disconnection and budget exhaustion. A clean `recovered` is not an
/// anomaly.
fn is_anomaly(ev: &Event) -> bool {
    matches!(
        ev,
        Event::Verdict { outcome, .. } if outcome == "disconnected" || outcome == "budget_exhausted"
    )
}

/// A [`Sink`] over a shared [`FlightBuffer`] that auto-dumps the buffer
/// as JSONL when an anomalous verdict flows through it.
///
/// The buffer handle is shared (`Arc<Mutex<_>>`) so the dump — and any
/// test assertion — stays reachable after the sink is consumed by
/// `Network::attach_sink`.
pub struct FlightRecorder {
    buf: Arc<Mutex<FlightBuffer>>,
    dump_path: Option<PathBuf>,
    dumps: u64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("dump_path", &self.dump_path)
            .field("dumps", &self.dumps)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records, plus the shared
    /// buffer handle.
    pub fn new(capacity: usize) -> (Self, Arc<Mutex<FlightBuffer>>) {
        let buf = Arc::new(Mutex::new(FlightBuffer::new(capacity)));
        (
            FlightRecorder {
                buf: Arc::clone(&buf),
                dump_path: None,
                dumps: 0,
            },
            buf,
        )
    }

    /// Arms the auto-dump: anomalous verdicts write the buffer to
    /// `path` as JSONL (truncating; the *last* anomaly wins).
    #[must_use]
    pub fn with_dump_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.dump_path = Some(path.into());
        self
    }

    /// How many times the recorder has dumped.
    pub fn dumps(&self) -> u64 {
        self.dumps
    }

    /// Writes the buffered records to `path` as JSONL — the manual
    /// trigger for tripped debug invariants.
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        let jsonl = self.buf.lock().expect("flight buffer poisoned").to_jsonl();
        std::fs::write(path, jsonl)
    }

    /// Dumps to the armed path (no-op without one). Returns whether a
    /// dump was written.
    pub fn dump_now(&mut self) -> bool {
        let Some(path) = self.dump_path.clone() else {
            return false;
        };
        match self.dump_to(&path) {
            Ok(()) => {
                self.dumps += 1;
                true
            }
            Err(e) => {
                debug_assert!(false, "flight-recorder dump failed: {e}");
                false
            }
        }
    }
}

impl Sink for FlightRecorder {
    fn record(&mut self, rec: &Record) {
        self.buf
            .lock()
            .expect("flight buffer poisoned")
            .push(rec.clone());
        if is_anomaly(&rec.event) {
            self.dump_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::parse_record;

    fn rec(round: u64) -> Record {
        Record::new(Event::Transition {
            round,
            phase: "lcc".to_string(),
        })
    }

    #[test]
    fn ring_wraps_and_evicts_the_oldest() {
        let mut b = FlightBuffer::new(3);
        for r in 0..5 {
            b.push(rec(r));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.capacity(), 3);
        let rounds: Vec<u64> = b
            .iter()
            .map(|r| match &r.event {
                Event::Transition { round, .. } => *round,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![2, 3, 4], "oldest evicted, order kept");
        assert_eq!(b.first(), Some(&rec(2)));
        assert_eq!(b.last(), Some(&rec(4)));
        assert_eq!(b.snapshot().len(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut b = FlightBuffer::new(0);
        b.push(rec(1));
        b.push(rec(2));
        assert_eq!(b.len(), 1);
        assert_eq!(b.first(), Some(&rec(2)));
    }

    #[test]
    fn jsonl_dump_parses_line_by_line() {
        let mut b = FlightBuffer::new(8);
        b.push(rec(1));
        b.push(rec(2));
        let jsonl = b.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            parse_record(line).expect("every dumped line parses");
        }
    }

    #[test]
    fn anomalous_verdict_triggers_the_dump() {
        let dir = std::env::temp_dir().join("swn_flight_test_dump");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("postmortem.jsonl");
        let _ = std::fs::remove_file(&path);
        let (rec_sink, _buf) = FlightRecorder::new(16);
        let mut sink = rec_sink.with_dump_path(&path);
        sink.record(&rec(1));
        sink.record(&Record::new(Event::Verdict {
            round: 5,
            outcome: "recovered".to_string(),
            detail: "rounds=4".to_string(),
        }));
        assert_eq!(sink.dumps(), 0, "clean recovery is not an anomaly");
        assert!(!path.exists());
        sink.record(&Record::new(Event::Verdict {
            round: 9,
            outcome: "disconnected".to_string(),
            detail: "sole carrier".to_string(),
        }));
        assert_eq!(sink.dumps(), 1);
        let dumped = std::fs::read_to_string(&path).expect("dump written");
        assert_eq!(dumped.lines().count(), 3, "whole buffer dumped");
        assert!(dumped.contains("sole carrier"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recorder_shares_its_records() {
        let (mut sink, records) = FlightRecorder::new(8);
        sink.record(&Record::new(Event::Span {
            label: "join".to_string(),
            start: 5,
            end: 9,
        }));
        assert_eq!(records.lock().expect("records").len(), 1);
    }

    #[test]
    fn recorder_is_capped_by_its_ring() {
        let (mut sink, records) = FlightRecorder::new(2);
        for round in 0..5 {
            sink.record(&rec(round));
        }
        let buf = records.lock().expect("records");
        assert_eq!(buf.len(), 2, "ring keeps only the newest records");
        assert_eq!(buf.snapshot(), vec![rec(3), rec(4)]);
    }

    #[test]
    fn disconnected_verdict_without_a_dump_path_is_only_buffered() {
        let (mut sink, buf) = FlightRecorder::new(4);
        let verdict = Record::new(Event::Verdict {
            round: 9,
            outcome: "disconnected".to_string(),
            detail: "sole carrier".to_string(),
        });
        sink.record(&verdict);
        assert_eq!(sink.dumps(), 0, "nothing to write to");
        assert_eq!(buf.lock().expect("buffer").last(), Some(&verdict));
    }

    #[test]
    fn budget_exhaustion_also_dumps_and_unarmed_recorder_does_not() {
        let (mut sink, buf) = FlightRecorder::new(4);
        sink.record(&Record::new(Event::Verdict {
            round: 2,
            outcome: "budget_exhausted".to_string(),
            detail: "budget=10".to_string(),
        }));
        assert_eq!(sink.dumps(), 0, "no dump path armed: buffer only");
        assert!(!sink.dump_now(), "manual trigger without a path is a no-op");
        assert_eq!(buf.lock().expect("buffer").len(), 1);
        let dir = std::env::temp_dir().join("swn_flight_test_budget");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("postmortem.jsonl");
        let mut armed = FlightRecorder::new(4).0.with_dump_path(&path);
        armed.record(&Record::new(Event::Verdict {
            round: 2,
            outcome: "budget_exhausted".to_string(),
            detail: "budget=10".to_string(),
        }));
        assert_eq!(armed.dumps(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
