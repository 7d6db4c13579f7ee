//! Observability: pluggable sinks, phase timers and online histograms.
//!
//! The simulator's hot loop promises two things that are usually in
//! tension: it is fast (PR 3's dense-handle engine), and it is
//! *explainable* — the paper's theorems are statements about
//! distributions over time (convergence phases, the 1-harmonic
//! lrl-length law, recovery spans), so a run must be able to report
//! where rounds go and how those distributions evolve. This module
//! resolves the tension with a strictly read-only observer layer:
//!
//! * a [`Sink`] trait receiving schema-versioned [`Record`]s, with a
//!   [`JsonlSink`] that streams them as JSON lines and the in-memory
//!   [`flight::FlightRecorder`];
//! * one record per sampled round, [`Event::Round`]: the round's
//!   [`RoundStats`] — the very row the trace keeps — plus the channel
//!   depth high-water mark and the sampled [`PhaseTimes`] of
//!   `Network::step` (activation-order build, channel cycle, handler
//!   execution, outbox flush, stats accounting);
//! * online, mergeable fixed-bucket [`Histogram`]s (message latency in
//!   rounds by kind, channel depth high-water marks, lrl age at forget,
//!   lrl ring length), closed by a `Summary` whose totals sum the
//!   observed rounds' `RoundStats`.
//!
//! **The disabled path is free.** `Network::step` has one arm of the
//! round loop per combination of hook groups — the observer and fault
//! injector (`HOOKS`), the active-set scheduler (`SCHED`). With no sink
//! and no fault plan attached an arm without `HOOKS` runs, in which
//! every observer branch is constant-folded away; with no scheduler
//! either it compiles to exactly the pre-observability round loop. The
//! `HOOKS` arms test for the observer at run time (`tests/perf_guards.rs`
//! holds the observed arm to 1.5× the bare one, and to 1.55× with a
//! cascade window open).
//!
//! **Observers read, never mutate, and consume no RNG.** Events are
//! derived from state the loop already computes; the channel take
//! (either [`Delivery`](crate::channel::Delivery) form) consumes the
//! identical RNG stream whether or not enqueue rounds and cause tags
//! ride along;
//! wall-clock readings appear only in timing payloads. The golden-trace suite pins both halves: state
//! digests are bit-for-bit identical with a sink attached, and the
//! structural event stream itself is fingerprinted.
//!
//! Two submodules extend the layer (PR 9): [`causal`] tags every
//! enqueued message with its repair-cascade depth and reports the
//! cascades' depth, width and per-kind fan-out, and [`flight`] bounds
//! trace memory with a ring buffer that dumps a JSONL post-mortem on
//! anomalous watchdog verdicts.

pub mod causal;
pub mod flight;

use serde::{helpers, DeError, Deserialize, Serialize, Value};
use std::io::Write as _;

use crate::trace::RoundStats;
use causal::{CausalState, CauseTag};
use swn_core::message::MessageKind;

/// Version tag stamped on every emitted [`Record`]. Bumped on any
/// breaking change to the [`Event`] layout; readers reject unknown
/// versions instead of guessing.
///
/// v2 (PR 9): `Summary` gained `latency_by_kind` + `cascade_depth`,
/// and the `Cascade` event was added.
/// v3: `Round` carries the round's `RoundStats` and its [`PhaseTimes`]
/// (the `PhaseTimes` event is gone); `Summary` carries `totals` over the
/// observed rounds instead of `total_sent`, and drops `latency` (the
/// merge of `latency_by_kind`).
/// v4: `RoundStats` (in `Round` and `Summary`) drops its count of
/// forged messages, with the lying-state fault that was its only source.
/// v5: `RoundStats` drops its token-move, neighbour-adoption, ring-reset
/// and salvaged-pointer counts, with the handler events that fed them.
pub const SCHEMA_VERSION: u32 = 5;

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `2^32 - 1` (everything larger lands in the last bucket).
pub const HIST_BUCKETS: usize = 33;

/// An online, mergeable, fixed-bucket histogram over `u64` samples.
///
/// Buckets are base-2 exponential: bucket 0 holds the value `0`,
/// bucket `b >= 1` holds `[2^(b-1), 2^b - 1]`, and the last bucket is
/// open-ended. The layout is fixed, so two histograms (e.g. from
/// parallel trials or trace shards) merge by element-wise addition —
/// merging is associative and commutative, which the property tests
/// pin.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

/// Read by hand to refuse a histogram that breaks the fixed layout
/// ([`Histogram::is_well_formed`]): a trace file is outside input, and
/// the bucket readers index by the layout.
impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        const TY: &str = "Histogram";
        let m = helpers::as_map(v, TY)?;
        let h = Histogram {
            buckets: helpers::field(m, "buckets", TY)?,
            count: helpers::field(m, "count", TY)?,
            sum: helpers::field(m, "sum", TY)?,
            max: helpers::field(m, "max", TY)?,
        };
        if !h.is_well_formed() {
            return Err(DeError::new(format!(
                "{TY}: want {HIST_BUCKETS} buckets summing to count {}, got {} buckets",
                h.count,
                h.buckets.len()
            )));
        }
        Ok(h)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    pub(crate) fn bucket_index(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        let b = usize::try_from(64 - v.leading_zeros()).expect("bit index fits usize");
        b.min(HIST_BUCKETS - 1)
    }

    /// The inclusive `[lo, hi]` value range of bucket `b` (the last
    /// bucket's `hi` is `u64::MAX`).
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        assert!(b < HIST_BUCKETS, "bucket index out of range");
        if b == 0 {
            (0, 0)
        } else if b == HIST_BUCKETS - 1 {
            (1 << (b - 1), u64::MAX)
        } else {
            (1 << (b - 1), (1 << b) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merges `other` into `self` (element-wise bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum as f64 / self.count as f64
        }
    }

    /// The per-bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper bound of the first bucket whose cumulative count reaches
    /// the `q`-quantile (`0.0..=1.0`) — a coarse quantile, exact up to
    /// bucket resolution. Returns 0 for an empty histogram.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        #[allow(clippy::cast_possible_truncation)]
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_bounds(b).1.min(self.max);
            }
        }
        self.max
    }

    /// True when the fixed-layout invariants hold (bucket vector length
    /// and count consistency) — used when accepting deserialized data.
    pub fn is_well_formed(&self) -> bool {
        let sum = self.buckets.iter().try_fold(0u64, |a, &b| a.checked_add(b));
        self.buckets.len() == HIST_BUCKETS && sum == Some(self.count)
    }
}

/// Sampled wall-clock phase breakdown of one `Network::step`, in
/// nanoseconds summed over the round. *Payload only*: golden
/// fingerprints hash the round, not the clock readings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Activation-order build: the copy of the index's sorted lane, or
    /// the agenda's sort by id. The name is kept from schema v5, when
    /// the order was also shuffled; it now times only the build.
    pub shuffle_ns: u64,
    /// Channel cycle: `take_deliverable` across all nodes.
    pub channel_ns: u64,
    /// Protocol handler execution (receive + regular actions).
    pub deliver_ns: u64,
    /// Outbox flushing (routing, bounce/drop handling) and the mailbox
    /// commit at the round boundary.
    pub flush_ns: u64,
    /// Stats accounting: trace push + observer bookkeeping (histograms,
    /// the lrl-length scan), up to but excluding the emission of the
    /// `Round` record that carries these times.
    pub stats_ns: u64,
}

/// One observation from a simulation run. Externally tagged in JSON
/// (`{"Round": {...}}`), wrapped in a [`Record`] carrying the schema
/// version.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Emitted once when a sink is attached: run identity.
    RunMeta {
        /// Live node count at attach time.
        n: usize,
        /// The seed the network was built with.
        seed: u64,
        /// Debug rendering of the delivery policy.
        policy: String,
        /// Sampling interval for `Round` records.
        sample_every: u64,
        /// Round counter at attach time (non-zero when attached mid-run).
        round: u64,
    },
    /// One sampled round, emitted every `sample_every` rounds once the
    /// round's stats timer stops.
    Round {
        /// The round these counters describe.
        round: u64,
        /// Channel depth high-water mark across all nodes this round.
        depth_max: u64,
        /// The round's counters: the row the trace records for it.
        stats: RoundStats,
        /// Where the round's wall-clock time went.
        phases: PhaseTimes,
    },
    /// A convergence phase milestone was reached (emitted by
    /// `run_to_ring`): `phase` is `"lcc"`, `"list"` or `"ring"`.
    Transition {
        /// Rounds from the start of the measurement loop.
        round: u64,
        /// Milestone label.
        phase: String,
    },
    /// A bracketed span of rounds (join/leave recovery, Theorem 4.24).
    Span {
        /// Span label, e.g. `"join"` or `"leave"`.
        label: String,
        /// Absolute round the span started at.
        start: u64,
        /// Absolute round the span ended at.
        end: u64,
    },
    /// A fault was injected by the fault engine (`swn_sim::faults`):
    /// a crash, a restart, a state perturbation, or the opening of a
    /// drop/duplication/partition window. Per-message drop/duplicate
    /// decisions are *not* individually emitted — they aggregate into
    /// each round's `dropped_fault`/`duplicated_fault` counters.
    Fault {
        /// The round the fault landed in.
        round: u64,
        /// Fault class: `"crash"`, `"restart"`, `"perturb"`,
        /// `"drop_window"`, `"dup_window"` or `"partition"`.
        kind: String,
        /// Human-readable parameters (victim id, rate, window).
        detail: String,
    },
    /// The watchdog's final classification of a recovery watch
    /// (`faults::watch_recovery`).
    Verdict {
        /// The round the verdict was reached at.
        round: u64,
        /// `"recovered"`, `"disconnected"` or `"budget_exhausted"`.
        outcome: String,
        /// Root cause / parameters (e.g. the culprit drop for a
        /// permanent disconnection).
        detail: String,
    },
    /// Shape of the repair cascade observed over one causal window
    /// (`Network::cascade_begin` .. `cascade_take`; the fault watchdog
    /// brackets every recovery watch with one).
    Cascade {
        /// Window label, e.g. `"recovery"`.
        label: String,
        /// Round the window opened at.
        start: u64,
        /// Round the window closed at.
        end: u64,
        /// Total messages delivered inside the window.
        delivered: u64,
        /// Deliveries at depth 0: cascade chains started.
        roots: u64,
        /// Deliveries at depth > 0: realized parent→child edges.
        edges: u64,
        /// Cascade depth of every delivery (0 = root).
        depth: Histogram,
        /// Deliveries at the most populated depth level.
        width_max: u64,
        /// Deliveries by message kind (`MessageKind::index` order).
        handled_by_kind: Vec<u64>,
        /// Children emitted, indexed by the parent's kind.
        children_by_kind: Vec<u64>,
    },
    /// Emitted when the sink is detached: run totals and the online
    /// histograms.
    Summary {
        /// Rounds observed while the sink was attached.
        rounds: u64,
        /// The observed rounds' `RoundStats`, summed.
        totals: RoundStats,
        /// Per-round channel depth high-water marks.
        depth: Histogram,
        /// lrl link age at forget events.
        forget_age: Histogram,
        /// lrl ring length (rank distance), sampled every
        /// `sample_every` rounds.
        lrl_len: Histogram,
        /// Message latency in rounds (enqueue → deliver), by kind
        /// (`MessageKind::index` order); their merge is the whole run's.
        latency_by_kind: Vec<Histogram>,
        /// Cascade depth of every delivered message over the run
        /// (0 = root; see [`causal`]).
        cascade_depth: Histogram,
    },
}

/// A schema-versioned envelope around an [`Event`] — the unit a
/// [`Sink`] receives and a JSONL trace stores per line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Schema version ([`SCHEMA_VERSION`] on emission).
    pub v: u32,
    /// The observation.
    pub event: Event,
}

impl Record {
    /// Wraps an event with the current schema version.
    pub fn new(event: Event) -> Self {
        Record {
            v: SCHEMA_VERSION,
            event,
        }
    }
}

/// Parses one JSONL line into a [`Record`], rejecting unknown schema
/// versions *before* interpreting the event payload.
pub fn parse_record(line: &str) -> Result<Record, String> {
    let value: serde::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let fields = serde::helpers::as_map(&value, "Record").map_err(|e| e.to_string())?;
    let v = fields
        .iter()
        .find(|(k, _)| k == "v")
        .ok_or_else(|| "record missing schema version field `v`".to_string())?;
    let version = u32::from_value(&v.1).map_err(|e| e.to_string())?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    Record::from_value(&value).map_err(|e| e.to_string())
}

/// A consumer of observation [`Record`]s.
///
/// Sinks are strictly passive: the simulator hands them finished
/// records and never reads anything back, so a sink cannot perturb the
/// computation it observes. `Send` because networks (and therefore
/// their sinks) may be driven from worker threads.
pub trait Sink: Send {
    /// Consumes one record.
    fn record(&mut self, rec: &Record);
    /// Flushes any buffering (called on detach).
    fn flush(&mut self) {}
}

/// The do-nothing sink. Attaching it still routes `step` through a
/// `HOOKS` arm of the round loop (events are built, then discarded
/// here); the *guaranteed-free* spelling is attaching no sink at all,
/// which selects an arm with every observer branch compiled out.
/// `NoopSink` exists for
/// generic call sites that must hand over *some* sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&mut self, _rec: &Record) {}
}

/// Streams records as JSON lines (one [`Record`] per line) into any
/// writer, buffered.
pub struct JsonlSink {
    out: std::io::BufWriter<Box<dyn std::io::Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// A sink over an arbitrary writer.
    pub fn new(writer: Box<dyn std::io::Write + Send>) -> Self {
        JsonlSink {
            out: std::io::BufWriter::new(writer),
        }
    }

    /// Creates (truncating) `path` and streams records into it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(std::fs::File::create(path)?)))
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, rec: &Record) {
        let line = serde_json::to_string(rec).expect("record serialization cannot fail");
        writeln!(self.out, "{line}").expect("trace sink write failed");
    }

    fn flush(&mut self) {
        self.out.flush().expect("trace sink flush failed");
    }
}

/// Live observer state owned by an instrumented network: the sink, the
/// observed rounds' totals, the online histograms and per-round scratch. Private to the
/// crate — `Network` is the only driver.
pub(crate) struct ObsState {
    pub(crate) sink: Box<dyn Sink>,
    pub(crate) sample_every: u64,
    /// Rounds observed since attach (the `Summary`'s `rounds`).
    pub(crate) rounds: u64,
    /// The observed rounds' stats, summed.
    pub(crate) totals: RoundStats,
    pub(crate) depth: Histogram,
    pub(crate) forget_age: Histogram,
    pub(crate) lrl_len: Histogram,
    /// Message latency split by kind (`MessageKind::index` order).
    pub(crate) latency_by_kind: Vec<Histogram>,
    /// Causal tracing: batch attribution, cascade stats.
    pub(crate) causal: CausalState,
    /// High-water channel depth seen so far in the current round.
    pub(crate) depth_round_max: u64,
    /// Scratch for the observed channel take: (message, enqueue round,
    /// cascade depth tag).
    pub(crate) tagged: Vec<(swn_core::message::Message, u64, CauseTag)>,
    /// Scratch for the sampled lrl-length scan: (id, lrl) ascending.
    pub(crate) lrl_scratch: Vec<(swn_core::id::NodeId, swn_core::id::NodeId)>,
}

impl std::fmt::Debug for ObsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsState")
            .field("sample_every", &self.sample_every)
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

impl ObsState {
    pub(crate) fn new(sink: Box<dyn Sink>, sample_every: u64) -> Self {
        ObsState {
            sink,
            sample_every: sample_every.max(1),
            rounds: 0,
            totals: RoundStats::default(),
            depth: Histogram::new(),
            forget_age: Histogram::new(),
            lrl_len: Histogram::new(),
            latency_by_kind: vec![Histogram::new(); MessageKind::COUNT],
            causal: CausalState::new(),
            depth_round_max: 0,
            tagged: Vec::new(),
            lrl_scratch: Vec::new(),
        }
    }

    /// Wraps `ev` in a versioned [`Record`] and hands it to the sink.
    pub(crate) fn emit(&mut self, ev: Event) {
        self.sink.record(&Record::new(ev));
    }

    /// The end-of-run summary event over the observed rounds
    /// (histograms cloned out).
    pub(crate) fn summary(&self) -> Event {
        Event::Summary {
            rounds: self.rounds,
            totals: self.totals,
            depth: self.depth.clone(),
            forget_age: self.forget_age.clone(),
            lrl_len: self.lrl_len.clone(),
            latency_by_kind: self.latency_by_kind.clone(),
            cascade_depth: self.causal.run_depth.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 0 is its own bucket; 2^k opens bucket k+1; 2^k − 1 closes
        // bucket k.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        for k in 1..31 {
            let lo = 1u64 << k;
            assert_eq!(Histogram::bucket_index(lo), k + 1, "2^{k} opens bucket");
            assert_eq!(Histogram::bucket_index(lo - 1), k, "2^{k}-1 closes bucket");
            let (blo, bhi) = Histogram::bucket_bounds(k + 1);
            assert_eq!(blo, lo);
            if k + 1 < HIST_BUCKETS - 1 {
                assert_eq!(bhi, (lo << 1) - 1);
            }
        }
        // Everything at and beyond 2^32 collapses into the last bucket.
        assert_eq!(Histogram::bucket_index(1 << 32), HIST_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert!(h.mean().is_nan());
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-9);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert!(h.is_well_formed());
    }

    #[test]
    fn approx_quantile_walks_buckets() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.approx_quantile(0.5), 1);
        // p99 lands in 1000's bucket; the coarse answer is capped at max.
        assert_eq!(h.approx_quantile(0.99), 1000);
        assert_eq!(Histogram::new().approx_quantile(0.5), 0);
    }

    #[test]
    fn merge_is_commutative_and_associative_on_fixed_samples() {
        let build = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = build(&[0, 5, 17]);
        let b = build(&[1, 1, 1, 900]);
        let c = build(&[u64::MAX, 3]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must associate");
        // And merging equals recording the concatenation.
        assert_eq!(ab_c, build(&[0, 5, 17, 1, 1, 1, 900, u64::MAX, 3]));
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let mut stats = RoundStats {
            sent: [4, 0, 1, 0, 0, 2, 2],
            dropped_churn: 1,
            links_changed: true,
            forget_age_max: 7,
            ..RoundStats::default()
        };
        stats.count_delivered(MessageKind::Lin);
        let rec = Record::new(Event::Round {
            round: 17,
            depth_max: 12,
            stats,
            phases: PhaseTimes {
                shuffle_ns: 1,
                channel_ns: 2,
                deliver_ns: 3,
                flush_ns: 4,
                stats_ns: 5,
            },
        });
        let line = serde_json::to_string(&rec).expect("serialize");
        let back = parse_record(&line).expect("round trip");
        assert_eq!(back, rec);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let rec = Record {
            v: SCHEMA_VERSION + 1,
            event: Event::Transition {
                round: 3,
                phase: "lcc".to_string(),
            },
        };
        let line = serde_json::to_string(&rec).expect("serialize");
        let err = parse_record(&line).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "got: {err}");
        assert!(parse_record("not json").is_err());
        assert!(parse_record("42").is_err(), "non-map record rejected");
        assert!(
            parse_record("{\"event\":{}}")
                .unwrap_err()
                .contains("missing schema version"),
            "missing v rejected"
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        use std::sync::{Arc, Mutex};
        // Write through a shared buffer we can inspect afterwards.
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buffer").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = JsonlSink::new(Box::new(Shared(Arc::clone(&buf))));
        sink.record(&Record::new(Event::Transition {
            round: 1,
            phase: "lcc".to_string(),
        }));
        sink.record(&Record::new(Event::Transition {
            round: 2,
            phase: "list".to_string(),
        }));
        Sink::flush(&mut sink);
        let text = String::from_utf8(buf.lock().expect("buffer").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            parse_record(line).expect("every line parses");
        }
    }
}
