//! Causal repair tracing: who triggered whom.
//!
//! The paper's convergence argument is about *chains* of linearization
//! steps — a corrupted edge heals because a `Lin` triggered a `Lin`
//! that triggered a repair. The flat per-round counters of the obs
//! layer cannot see those chains, so this module gives every delivered
//! message an identity ([`CauseId`]) and every enqueued message a
//! provenance tag ([`CauseTag`]): receive-action emissions inherit the
//! id of the message whose handler produced them, regular-action and
//! external sends are cascade *roots*. The result is a repair-cascade
//! DAG whose shape (depth, width, per-kind fan-out) the fault watchdog
//! reports per recovery span as a [`CascadeReport`].
//!
//! **Acyclicity is by construction.** A child is enqueued while its
//! parent's delivery round is executing, and becomes eligible strictly
//! later (receipt strictly follows transmission), so every edge
//! satisfies `parent.round < child.round` — and `seq` is globally
//! monotone over deliveries, so `parent.seq < child.seq` too. The
//! `causal_prop` suite pins both orderings over random fault scenarios.
//!
//! Tagging lives entirely inside the `HOOKS` arms of the round loop: the
//! other arms only ever push [`CauseTag::ROOT`], which never touches
//! the mailbox's lazy tag lanes, so it stays byte-identical, and tagging
//! itself consumes no RNG.

use serde::{Deserialize, Serialize};
use swn_core::message::MessageKind;

use super::Histogram;

/// Identity of one *delivered* message: the round and node slot it was
/// handled at, plus a globally monotone sequence number (unique per
/// attached observer, strictly increasing in delivery order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CauseId {
    /// Round the message was delivered (handled) in.
    pub round: u64,
    /// Slot index of the receiving node.
    pub slot: u32,
    /// Global delivery sequence number.
    pub seq: u64,
}

impl CauseId {
    /// Sentinel for "no cause": regular-action sends, preloads, and any
    /// message enqueued while no observer was attached.
    pub const EXTERNAL: CauseId = CauseId {
        round: u64::MAX,
        slot: u32::MAX,
        seq: u64::MAX,
    };
}

/// Provenance of one *enqueued* message: the delivered message whose
/// handler emitted it (or [`CauseId::EXTERNAL`]) and the cascade depth
/// it sits at — 0 for roots, parent depth + 1 otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CauseTag {
    /// The delivered message this one was emitted in response to.
    pub parent: CauseId,
    /// Chain length from the nearest root (0 = root).
    pub depth: u32,
}

impl CauseTag {
    /// The root tag: no parent, depth 0.
    pub const ROOT: CauseTag = CauseTag {
        parent: CauseId::EXTERNAL,
        depth: 0,
    };

    /// True when this message started a cascade (regular action,
    /// preload, or untracked provenance).
    pub fn is_root(&self) -> bool {
        self.parent == CauseId::EXTERNAL
    }
}

/// Cascade width is tracked per depth level up to this many levels;
/// deeper deliveries lump into the last slot. Real repair cascades are
/// far shallower (a chain crosses the whole ring in O(n) rounds), so
/// the cap only bounds memory, not fidelity.
pub const WIDTH_LEVELS: usize = 64;

/// Parent→child edges are logged verbatim up to this many per cascade
/// window; beyond it only the aggregate counters grow (and
/// `edges_dropped` says how many edges the log is missing).
pub const EDGE_LOG_CAP: usize = 16_384;

/// Aggregate shape of the repair cascades observed in one window
/// (between `cascade_begin` and `cascade_take`, or over the whole run).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CascadeStats {
    /// Depth of every delivered message (0 = cascade root).
    pub depth: Histogram,
    /// Deliveries at depth 0: chains started.
    pub roots: u64,
    /// Deliveries at depth > 0: parent→child edges realized.
    pub edges: u64,
    /// Deliveries per depth level (`width[d]`), capped at
    /// [`WIDTH_LEVELS`] — the cascade's width profile.
    pub width: Vec<u64>,
    /// Deliveries by message kind (`MessageKind::index` order).
    pub handled_by_kind: Vec<u64>,
    /// Children emitted, indexed by the *parent's* kind: the per-kind
    /// fan-out numerator (divide by `handled_by_kind`).
    pub children_by_kind: Vec<u64>,
    /// Verbatim parent→child edges, capped at [`EDGE_LOG_CAP`].
    pub edge_log: Vec<(CauseId, CauseId)>,
    /// Edges beyond the log cap (aggregates above still count them).
    pub edges_dropped: u64,
}

impl CascadeStats {
    fn new() -> Self {
        CascadeStats {
            depth: Histogram::new(),
            roots: 0,
            edges: 0,
            width: vec![0; WIDTH_LEVELS],
            handled_by_kind: vec![0; MessageKind::COUNT],
            children_by_kind: vec![0; MessageKind::COUNT],
            edge_log: Vec::new(),
            edges_dropped: 0,
        }
    }

    fn record_delivery(&mut self, id: CauseId, tag: CauseTag, kind: MessageKind) {
        let d = u64::from(tag.depth);
        self.depth.record(d);
        self.width[(tag.depth as usize).min(WIDTH_LEVELS - 1)] += 1;
        self.handled_by_kind[kind.index()] += 1;
        if tag.is_root() {
            self.roots += 1;
        } else {
            self.edges += 1;
            if self.edge_log.len() < EDGE_LOG_CAP {
                self.edge_log.push((tag.parent, id));
            } else {
                self.edges_dropped += 1;
            }
        }
    }

    /// Widest depth level (deliveries at the most populated depth).
    pub fn width_max(&self) -> u64 {
        self.width.iter().copied().max().unwrap_or(0)
    }
}

/// A finished cascade window: everything [`CascadeStats`] counted, plus
/// the round bracket it covered. Attached to the fault watchdog's
/// `WatchReport` so E10 can relate cascade shape to MTTR.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CascadeReport {
    /// Round the window opened at.
    pub start: u64,
    /// Round the window closed at.
    pub end: u64,
    /// The aggregated cascade shape.
    pub stats: CascadeStats,
}

impl CascadeReport {
    /// Total deliveries observed in the window.
    pub fn delivered(&self) -> u64 {
        self.stats.depth.count()
    }

    /// Deepest chain observed (max delivered depth).
    pub fn depth_max(&self) -> u64 {
        self.stats.depth.max()
    }
}

/// Live causal-tracing state owned by an attached observer. Crate-
/// private: the `HOOKS` arms of `Network`'s round loop are the only driver.
///
/// Tracing is *window-gated*: the per-message work (id assignment,
/// boundary bookkeeping, non-root pushes into the mailbox's tag
/// lanes) runs only while a cascade window is open (`begin_window` …
/// `take_window`). Outside a window the observed take still hands out
/// the one `(message, enqueue round, tag)` form, but every tag is a root
/// and the lanes stay empty — steady-state runs pay for latency
/// accounting only, which is what keeps the instrumented/noop ratio
/// inside the bench guard.
#[derive(Debug)]
pub(crate) struct CausalState {
    /// True while a cascade window is open — the round loop's gate for
    /// all per-message causal work.
    pub(crate) active: bool,
    /// Next delivery sequence number.
    seq: u64,
    /// Per handled message of the current action batch, in handling
    /// order: its fresh id, inherited depth, and kind.
    pub(crate) deliv: Vec<(CauseId, u32, MessageKind)>,
    /// `outbox.sends().len()` after each handled message: send `k`
    /// belongs to the first entry `j` with `k < bounds[j]` (the outbox
    /// is flushed once per batch, so attribution needs the cumulative
    /// boundaries).
    pub(crate) bounds: Vec<usize>,
    /// Stats for the current cascade window (reset by `begin_window`).
    pub(crate) window: CascadeStats,
    /// Round the current window opened at.
    pub(crate) window_start: u64,
    /// Whole-run depth histogram (never reset; feeds the Summary).
    pub(crate) run_depth: Histogram,
}

impl CausalState {
    pub(crate) fn new() -> Self {
        CausalState {
            active: false,
            seq: 0,
            deliv: Vec::new(),
            bounds: Vec::new(),
            window: CascadeStats::new(),
            window_start: 0,
            run_depth: Histogram::new(),
        }
    }

    /// Registers one delivered message: assigns its [`CauseId`] and
    /// feeds the window + run accounting. Call in handling order.
    pub(crate) fn on_delivery(&mut self, round: u64, slot: u32, tag: CauseTag, kind: MessageKind) {
        let id = CauseId {
            round,
            slot,
            seq: self.seq,
        };
        self.seq += 1;
        self.window.record_delivery(id, tag, kind);
        self.run_depth.record(u64::from(tag.depth));
        self.deliv.push((id, tag.depth, kind));
    }

    /// The tag for send index `k` of the current batch flush, walking
    /// the boundary `cursor` forward. Sends past the last boundary (or
    /// with no handled messages at all) are roots.
    pub(crate) fn tag_for_send(&mut self, k: usize, cursor: &mut usize) -> CauseTag {
        while *cursor < self.bounds.len() && k >= self.bounds[*cursor] {
            *cursor += 1;
        }
        match self.deliv.get(*cursor) {
            Some(&(id, depth, kind)) if *cursor < self.bounds.len() => {
                self.window.children_by_kind[kind.index()] += 1;
                CauseTag {
                    parent: id,
                    depth: depth + 1,
                }
            }
            _ => CauseTag::ROOT,
        }
    }

    /// Clears the per-batch attribution scratch (call once per flush).
    pub(crate) fn end_batch(&mut self) {
        self.deliv.clear();
        self.bounds.clear();
    }

    /// Opens a fresh cascade window at `round` and switches per-message
    /// tracing on. Messages already in flight were enqueued untagged and
    /// deliver as cascade roots.
    pub(crate) fn begin_window(&mut self, round: u64) {
        self.active = true;
        self.window = CascadeStats::new();
        self.window_start = round;
    }

    /// Closes the current window at `round`, returning its report and
    /// switching per-message tracing back off (until the next
    /// `begin_window`). Tags still in flight are invalidated by the
    /// next untraced take of their channel — a later window sees them
    /// as roots.
    pub(crate) fn take_window(&mut self, round: u64) -> CascadeReport {
        self.active = false;
        let stats = std::mem::replace(&mut self.window, CascadeStats::new());
        let start = self.window_start;
        self.window_start = round;
        CascadeReport {
            start,
            end: round,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind0() -> MessageKind {
        MessageKind::ALL[0]
    }

    #[test]
    fn root_tag_is_external_depth_zero() {
        assert!(CauseTag::ROOT.is_root());
        assert_eq!(CauseTag::ROOT.depth, 0);
        let child = CauseTag {
            parent: CauseId {
                round: 1,
                slot: 0,
                seq: 0,
            },
            depth: 1,
        };
        assert!(!child.is_root());
    }

    #[test]
    fn deliveries_get_monotone_seq_and_feed_the_window() {
        let mut st = CausalState::new();
        st.on_delivery(5, 0, CauseTag::ROOT, kind0());
        st.on_delivery(5, 1, CauseTag::ROOT, kind0());
        let parent = st.deliv[0].0;
        st.on_delivery(6, 2, CauseTag { parent, depth: 1 }, kind0());
        assert_eq!(st.deliv.len(), 3);
        assert!(st.deliv[0].0.seq < st.deliv[1].0.seq);
        assert!(st.deliv[1].0.seq < st.deliv[2].0.seq);
        assert_eq!(st.window.roots, 2);
        assert_eq!(st.window.edges, 1);
        assert_eq!(st.window.edge_log, vec![(parent, st.deliv[2].0)]);
        assert_eq!(st.window.width[0], 2);
        assert_eq!(st.window.width[1], 1);
        assert_eq!(st.window.handled_by_kind[kind0().index()], 3);
        assert_eq!(st.run_depth.count(), 3);
    }

    #[test]
    fn tag_for_send_walks_the_batch_boundaries() {
        let mut st = CausalState::new();
        st.on_delivery(9, 4, CauseTag::ROOT, kind0());
        st.on_delivery(9, 4, CauseTag::ROOT, kind0());
        // First handled message emitted 2 sends, second emitted 1.
        st.bounds.push(2);
        st.bounds.push(3);
        let (id_a, _, _) = st.deliv[0];
        let (id_b, _, _) = st.deliv[1];
        let mut cursor = 0;
        assert_eq!(st.tag_for_send(0, &mut cursor).parent, id_a);
        assert_eq!(st.tag_for_send(1, &mut cursor).parent, id_a);
        let t = st.tag_for_send(2, &mut cursor);
        assert_eq!(t.parent, id_b);
        assert_eq!(t.depth, 1);
        // Past the last boundary: a regular-action send, a root.
        assert!(st.tag_for_send(3, &mut cursor).is_root());
        assert_eq!(st.window.children_by_kind[kind0().index()], 3);
        st.end_batch();
        assert!(st.deliv.is_empty() && st.bounds.is_empty());
    }

    #[test]
    fn windows_reset_but_run_accounting_persists() {
        let mut st = CausalState::new();
        st.begin_window(10);
        st.on_delivery(11, 0, CauseTag::ROOT, kind0());
        let rep = st.take_window(12);
        assert_eq!((rep.start, rep.end), (10, 12));
        assert_eq!(rep.delivered(), 1);
        assert_eq!(rep.stats.roots, 1);
        assert_eq!(rep.depth_max(), 0);
        assert_eq!(st.window.depth.count(), 0, "window reset");
        assert_eq!(st.run_depth.count(), 1, "run histogram kept");
        st.on_delivery(13, 0, CauseTag::ROOT, kind0());
        assert_eq!(st.deliv[1].0.seq, 1, "seq survives window turnover");
    }

    #[test]
    fn edge_log_caps_and_counts_overflow() {
        let mut st = CausalState::new();
        let parent = CauseId {
            round: 0,
            slot: 0,
            seq: 0,
        };
        for _ in 0..(EDGE_LOG_CAP + 10) {
            st.on_delivery(1, 0, CauseTag { parent, depth: 1 }, kind0());
        }
        assert_eq!(st.window.edge_log.len(), EDGE_LOG_CAP);
        assert_eq!(st.window.edges_dropped, 10);
        assert_eq!(st.window.edges, (EDGE_LOG_CAP + 10) as u64);
    }

    #[test]
    fn cascade_report_serde_round_trips() {
        let mut st = CausalState::new();
        st.on_delivery(2, 1, CauseTag::ROOT, kind0());
        let rep = st.take_window(3);
        let json = serde_json::to_string(&rep).expect("serialize");
        let back: CascadeReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, rep);
    }
}
