//! Causal repair tracing: how deep each repair chain runs.
//!
//! The paper's convergence argument is about *chains* of linearization
//! steps — a corrupted edge heals because a `Lin` triggered a `Lin`
//! that triggered a repair. The flat per-round counters of the obs
//! layer cannot see those chains, so this module tags every enqueued
//! message with its cascade depth ([`CauseTag`]): receive-action
//! emissions sit one level below the message whose handler produced
//! them, regular-action and external sends are cascade *roots* (depth
//! 0). The fault watchdog reports the cascades' shape (depth, width,
//! per-kind fan-out) per recovery span as a [`CascadeReport`].
//!
//! A child is enqueued while its parent's delivery round is executing
//! and becomes eligible strictly later (receipt strictly follows
//! transmission), so a message at depth `d` is delivered at least `d`
//! rounds after the root of its chain. The `causal_prop` suite pins
//! that bound over random fault scenarios.
//!
//! Tagging lives entirely inside the `HOOKS` arms of the round loop: the
//! other arms only ever push [`CauseTag::ROOT`], which never touches
//! the mailbox's lazy tag lanes, so it stays byte-identical, and tagging
//! itself consumes no RNG.

use serde::{Deserialize, Serialize};
use swn_core::message::MessageKind;

use super::Histogram;

/// Provenance of one *enqueued* message: the cascade depth it sits at —
/// 0 for roots, the depth of the delivered message whose handler
/// emitted it plus 1 otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CauseTag {
    /// Chain length from the nearest root (0 = root).
    pub depth: u32,
}

impl CauseTag {
    /// The root tag: depth 0.
    pub const ROOT: CauseTag = CauseTag { depth: 0 };

    /// True when this message started a cascade (regular action,
    /// preload, or untracked provenance).
    pub fn is_root(&self) -> bool {
        self.depth == 0
    }
}

/// Cascade width is tracked per depth level up to this many levels;
/// deeper deliveries lump into the last slot. Real repair cascades are
/// far shallower (a chain crosses the whole ring in O(n) rounds), so
/// the cap only bounds memory, not fidelity.
pub const WIDTH_LEVELS: usize = 64;

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
        }
    }

    fn record_delivery(&mut self, tag: CauseTag, kind: MessageKind) {
        let d = u64::from(tag.depth);
        self.depth.record(d);
        self.width[(tag.depth as usize).min(WIDTH_LEVELS - 1)] += 1;
        self.handled_by_kind[kind.index()] += 1;
        if tag.is_root() {
            self.roots += 1;
        } else {
            self.edges += 1;
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
/// Tracing is *window-gated*: the per-message work (depth accounting,
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
    /// Per handled message of the current action batch, in handling
    /// order: its depth and kind.
    pub(crate) deliv: Vec<(u32, MessageKind)>,
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
            deliv: Vec::new(),
            bounds: Vec::new(),
            window: CascadeStats::new(),
            window_start: 0,
            run_depth: Histogram::new(),
        }
    }

    /// Registers one delivered message: feeds the window + run
    /// accounting. Call in handling order.
    pub(crate) fn on_delivery(&mut self, tag: CauseTag, kind: MessageKind) {
        self.window.record_delivery(tag, kind);
        self.run_depth.record(u64::from(tag.depth));
        self.deliv.push((tag.depth, kind));
    }

    /// The tag for send index `k` of the current batch flush, walking
    /// the boundary `cursor` forward. Sends past the last boundary (or
    /// with no handled messages at all) are roots.
    pub(crate) fn tag_for_send(&mut self, k: usize, cursor: &mut usize) -> CauseTag {
        while *cursor < self.bounds.len() && k >= self.bounds[*cursor] {
            *cursor += 1;
        }
        match self.deliv.get(*cursor) {
            Some(&(depth, kind)) if *cursor < self.bounds.len() => {
                self.window.children_by_kind[kind.index()] += 1;
                CauseTag { depth: depth + 1 }
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
        assert!(!CauseTag { depth: 1 }.is_root());
    }

    #[test]
    fn deliveries_feed_the_window_in_handling_order() {
        let mut st = CausalState::new();
        st.on_delivery(CauseTag::ROOT, kind0());
        st.on_delivery(CauseTag::ROOT, kind0());
        st.on_delivery(CauseTag { depth: 1 }, kind0());
        assert_eq!(st.deliv, vec![(0, kind0()), (0, kind0()), (1, kind0())]);
        assert_eq!(st.window.roots, 2);
        assert_eq!(st.window.edges, 1);
        assert_eq!(st.window.width[0], 2);
        assert_eq!(st.window.width[1], 1);
        assert_eq!(st.window.handled_by_kind[kind0().index()], 3);
        assert_eq!(st.run_depth.count(), 3);
    }

    #[test]
    fn tag_for_send_walks_the_batch_boundaries() {
        let mut st = CausalState::new();
        st.on_delivery(CauseTag::ROOT, kind0());
        st.on_delivery(CauseTag { depth: 4 }, kind0());
        // First handled message emitted 2 sends, second emitted 1.
        st.bounds.push(2);
        st.bounds.push(3);
        let mut cursor = 0;
        assert_eq!(st.tag_for_send(0, &mut cursor).depth, 1);
        assert_eq!(st.tag_for_send(1, &mut cursor).depth, 1);
        assert_eq!(st.tag_for_send(2, &mut cursor).depth, 5);
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
        st.on_delivery(CauseTag::ROOT, kind0());
        let rep = st.take_window(12);
        assert_eq!((rep.start, rep.end), (10, 12));
        assert_eq!(rep.delivered(), 1);
        assert_eq!(rep.stats.roots, 1);
        assert_eq!(rep.depth_max(), 0);
        assert_eq!(st.window.depth.count(), 0, "window reset");
        assert_eq!(st.run_depth.count(), 1, "run histogram kept");
    }

    #[test]
    fn cascade_report_serde_round_trips() {
        let mut st = CausalState::new();
        st.on_delivery(CauseTag { depth: 2 }, kind0());
        let rep = st.take_window(3);
        let json = serde_json::to_string(&rep).expect("serialize");
        let back: CascadeReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, rep);
    }
}
