//! Deterministic fault injection and the recovery watchdog.
//!
//! The paper's self-stabilization claim (Theorems 4.3/4.18/4.24) is a
//! statement about recovery from *transient faults*, yet the base
//! simulator only perturbs the start state: the channels
//! ([`crate::channel`]) are lossless and nodes never fail mid-run. This
//! module injects faults into the running protocol, deterministically:
//!
//! * a seedable, serde-serializable [`FaultPlan`] — per-round message
//!   drop/duplication rate windows, transient bidirectional
//!   [`Partition`]s, node [`Crash`]+restart with channel loss, and
//!   random [`Perturbation`] of k nodes' neighbour state;
//! * a [`FaultInjector`] owned by the network (`Network::attach_faults`)
//!   with its **own RNG stream** seeded from the plan, so the protocol
//!   computation's RNG draws are untouched: a network with an *empty*
//!   plan attached replays the fault-free run bit-for-bit, and the
//!   detached path stays byte-identical — `Network::step` runs an arm
//!   of the round loop compiled without the `HOOKS` group, in which no
//!   injector branch is left.
//!   The injector compiles the plan **once** into a round-ordered
//!   agenda of typed steps; `Network::apply_round_faults` below pops
//!   what is due each round (crashes, restarts, perturbations, window
//!   openings and closings), and the per-send
//!   decisions read only the short list of windows in force — a plan
//!   entry that is not due costs a round one comparison and a send
//!   nothing;
//! * a convergence **watchdog** ([`watch_recovery`]) over the union
//!   knowledge graph (the CC view: stored links ∪ in-flight payloads).
//!   Linearize *forwards without storing*, so a dropped `lin` message
//!   can carry the sole remaining reference to an identifier. Knowledge
//!   is closed under the protocol — no rule invents an identifier — so
//!   once CC disconnects it can never reconnect, and the watchdog
//!   reports the culprit drop as root cause instead of letting the run
//!   time out silently. (An injected [`Perturbation`] *can* re-link
//!   components by oracle, so E10 schedules perturbations before, not
//!   after, its loss windows.)

// Runs while faults are live, where a panic is indistinguishable from
// the protocol bug being hunted: errors are `Result`s or named outcomes.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_types,
    reason = "injector state keyed by id is touched per fault event, never per message"
)]

use crate::network::Network;
use crate::obs::causal::CascadeReport;
use crate::obs::Event;
use crate::trace::RoundStats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom as _;
use rand::{Rng, RngExt as _, SeedableRng};
use serde::{helpers, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use swn_core::id::{Extended, NodeId};
use swn_core::invariants::{component_labels_view, weakly_connected_view};
use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::views::View;

/// Cap on the retained drop log. Old entries are evicted from the
/// front, so culprit analysis always sees the most recent drops.
const DROP_LOG_CAP: usize = 8192;

/// A message-loss (or duplication) probability active over a half-open
/// round window `start..end`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RateWindow {
    /// First round (inclusive) the rate applies to.
    pub start: u64,
    /// First round (exclusive) the rate no longer applies to.
    pub end: u64,
    /// Per-message probability in `[0, 1]`.
    pub p: f64,
}

impl RateWindow {
    /// True when the window covers `round` with a non-zero rate. A
    /// `p = 0` window never consumes injector RNG, so it is exactly
    /// equivalent to no window at all.
    pub fn active(&self, round: u64) -> bool {
        self.p > 0.0 && round >= self.start && round < self.end
    }
}

/// A transient bidirectional partition: while active, every message
/// between the two sides of the id-space cut at `cut` is dropped
/// (nodes `≤ cut` on one side, `> cut` on the other).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// First round (inclusive) the partition holds.
    pub start: u64,
    /// First round (exclusive) the partition is healed.
    pub end: u64,
    /// The id-space cut point.
    pub cut: NodeId,
}

impl Partition {
    /// True when the partition (while in force) separates `a` from `b`.
    pub fn cuts(&self, a: NodeId, b: NodeId) -> bool {
        (a <= self.cut) != (b <= self.cut)
    }
}

/// How a crashed node rejoins when its downtime ends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Restart {
    /// The node comes back with blank joining state; its former
    /// neighbours' stored pointers are what reintegrate it.
    #[default]
    Amnesia,
    /// The node restores the state it had at the start of round
    /// `snapshot_round` (captured by the injector before the crash
    /// lands, like a periodic checkpoint written to disk). The restored
    /// view is stale — pointers may reference since-departed or moved
    /// neighbours — but it is a *valid* protocol state, so recovery is
    /// bounded by re-validation instead of a full rejoin.
    Durable {
        /// The round whose start-of-round state is restored. Must be
        /// `≤` the crash round; when no capture exists (e.g. the node
        /// was already down at `snapshot_round`) the restart degrades
        /// to amnesia.
        snapshot_round: u64,
    },
}

/// A node crash with restart: at `round` the node loses its volatile
/// state and its channel content, then sits out `down_for` rounds —
/// messages addressed to it while down are lost. How it comes back is
/// governed by [`Restart`]: blank ([`Restart::Amnesia`]) or from its
/// last checkpoint ([`Restart::Durable`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Crash {
    /// The round the crash lands in.
    pub round: u64,
    /// The crashing node.
    pub node: NodeId,
    /// Rounds the node stays down (min 1).
    pub down_for: u64,
    /// How the node rejoins after its downtime.
    pub restart: Restart,
}

/// A random corruption of `k` live nodes' neighbour state at `round`:
/// each victim's `r`, `lrl` and `ring` variables are rewritten to
/// uniformly random live identifiers (its `l` pointer is kept, so the
/// stored left-pointer chain keeps the knowledge graph weakly connected
/// — the damage is always recoverable by Theorem 4.3 unless a
/// subsequent loss fault severs a sole carrier). Ages and probe phases
/// reset with the rebuild.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Perturbation {
    /// The round the perturbation lands in.
    pub round: u64,
    /// Number of victims (clamped to the live population).
    pub k: usize,
}

/// A deterministic, serializable schedule of faults. Attach to a
/// network with `Network::attach_faults`; the same plan + network seed
/// replays the exact same faulted computation.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream (drop/duplicate coin
    /// flips, perturbation victim/target picks). Independent of the
    /// network seed by construction.
    pub seed: u64,
    /// Message-loss rate windows. For overlapping windows the first
    /// active one wins.
    pub drop: Vec<RateWindow>,
    /// Message-duplication rate windows (an extra copy is enqueued).
    pub duplicate: Vec<RateWindow>,
    /// Transient bidirectional partitions.
    pub partitions: Vec<Partition>,
    /// Node crashes with restart.
    pub crashes: Vec<Crash>,
    /// Random neighbour-state perturbations.
    pub perturbations: Vec<Perturbation>,
}

/// Read by hand to refuse, by name, a plan that schedules `behaviors`:
/// nodes that keep censoring, lying or flooding ids while they run.
/// Such faults are not transient, and the injector no longer models
/// them. The vendored serde skips unknown keys, so without this check
/// such a plan would replay as a different run, with no error. An empty
/// list loads: every plan written while behaviours existed carries one.
impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        const TY: &str = "FaultPlan";
        let m = helpers::as_map(v, TY)?;
        let empty = |b: &Value| matches!(b, Value::Seq(s) if s.is_empty());
        if m.iter().any(|(k, b)| k == "behaviors" && !empty(b)) {
            return Err(DeError::new(format!(
                "{TY}: `behaviors` (selective forwarding, lying state, sybil clusters) \
                 are not transient faults and are no longer modeled"
            )));
        }
        Ok(FaultPlan {
            seed: helpers::field(m, "seed", TY)?,
            drop: helpers::field(m, "drop", TY)?,
            duplicate: helpers::field(m, "duplicate", TY)?,
            partitions: helpers::field(m, "partitions", TY)?,
            crashes: helpers::field(m, "crashes", TY)?,
            perturbations: helpers::field(m, "perturbations", TY)?,
        })
    }
}

impl FaultPlan {
    /// An empty plan with the given injector seed. An empty plan
    /// attached to a network changes nothing: no RNG is consumed and
    /// the computation is bit-for-bit the fault-free one.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a message-loss window over rounds `start..end`.
    #[must_use]
    pub fn with_drop(mut self, start: u64, end: u64, p: f64) -> Self {
        self.drop.push(RateWindow { start, end, p });
        self
    }

    /// Adds a duplication window over rounds `start..end`.
    #[must_use]
    pub fn with_duplicate(mut self, start: u64, end: u64, p: f64) -> Self {
        self.duplicate.push(RateWindow { start, end, p });
        self
    }

    /// Adds a bidirectional partition over rounds `start..end`.
    #[must_use]
    pub fn with_partition(mut self, start: u64, end: u64, cut: NodeId) -> Self {
        self.partitions.push(Partition { start, end, cut });
        self
    }

    /// Adds an amnesiac crash of `node` at `round`, down for `down_for`
    /// rounds.
    #[must_use]
    pub fn with_crash(mut self, round: u64, node: NodeId, down_for: u64) -> Self {
        self.crashes.push(Crash {
            round,
            node,
            down_for,
            restart: Restart::Amnesia,
        });
        self
    }

    /// Adds a durable crash of `node` at `round` restoring the state it
    /// had at the start of `snapshot_round` (must be `≤ round`).
    #[must_use]
    pub fn with_durable_crash(
        mut self,
        round: u64,
        node: NodeId,
        down_for: u64,
        snapshot_round: u64,
    ) -> Self {
        self.crashes.push(Crash {
            round,
            node,
            down_for,
            restart: Restart::Durable { snapshot_round },
        });
        self
    }

    /// Adds a `k`-victim state perturbation at `round`.
    #[must_use]
    pub fn with_perturbation(mut self, round: u64, k: usize) -> Self {
        self.perturbations.push(Perturbation { round, k });
        self
    }

    /// Every scheduled fault as a typed [`Entry`], in plan order: drop
    /// windows, duplication windows, partitions, crashes, perturbations.
    /// The one walk over a plan — validation, the injector's
    /// agenda compiler, the chaos horizon and the shrinker all use it.
    pub fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        let drops = self.drop.iter().copied().map(Entry::Drop);
        let duplicates = self.duplicate.iter().copied().map(Entry::Duplicate);
        let partitions = self.partitions.iter().copied().map(Entry::Partition);
        let crashes = self.crashes.iter().copied().map(Entry::Crash);
        let perturbations = self.perturbations.iter().copied().map(Entry::Perturbation);
        drops
            .chain(duplicates)
            .chain(partitions)
            .chain(crashes)
            .chain(perturbations)
    }

    /// Appends `entry` to its category — the inverse of
    /// [`FaultPlan::entries`].
    pub fn push(&mut self, entry: Entry) {
        match entry {
            Entry::Drop(w) => self.drop.push(w),
            Entry::Duplicate(w) => self.duplicate.push(w),
            Entry::Partition(p) => self.partitions.push(p),
            Entry::Crash(c) => self.crashes.push(c),
            Entry::Perturbation(p) => self.perturbations.push(p),
        }
    }

    /// Total number of scheduled fault entries across all categories —
    /// the unit the chaos shrinker minimizes over.
    pub fn entry_count(&self) -> usize {
        self.entries().count()
    }

    /// True when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.entries().next().is_none()
    }

    /// Checks structural validity: probabilities in `[0, 1]`, windows
    /// non-inverted, crash downtimes and perturbation sizes non-zero,
    /// per-node crash windows non-overlapping, and durable snapshots
    /// taken no later than their crash.
    pub fn validate(&self) -> Result<(), String> {
        let mut later_crashes = self.crashes.iter();
        for entry in self.entries() {
            if let Some((start, end)) = entry.window().filter(|(start, end)| end < start) {
                return Err(format!("inverted window {start}..{end}"));
            }
            match &entry {
                Entry::Drop(w) | Entry::Duplicate(w) => {
                    if !(0.0..=1.0).contains(&w.p) {
                        return Err(format!("rate {} outside [0, 1]", w.p));
                    }
                }
                Entry::Partition(_) => {}
                Entry::Crash(c) => {
                    if c.down_for == 0 {
                        return Err("crash with zero downtime".to_string());
                    }
                    if let Restart::Durable { snapshot_round } = c.restart {
                        if snapshot_round > c.round {
                            return Err(format!(
                                "durable crash of {:?} snapshots at round {snapshot_round}, \
                                 after its crash round {}",
                                c.node, c.round
                            ));
                        }
                    }
                    // A node can crash repeatedly, but two downtime windows
                    // for the same node must not overlap: the agenda holds
                    // one restart step per crash and the down map one
                    // restart round per node, so the second crash would land
                    // on an already-down node.
                    later_crashes.next();
                    for other in later_crashes.clone().filter(|o| o.node == c.node) {
                        let c_end = c.round.saturating_add(c.down_for);
                        let o_end = other.round.saturating_add(other.down_for);
                        if c.round < o_end && other.round < c_end {
                            return Err(format!(
                                "overlapping crash windows for {:?}: {}..{c_end} and {}..{o_end}",
                                c.node, c.round, other.round
                            ));
                        }
                    }
                }
                Entry::Perturbation(p) => {
                    if p.k == 0 {
                        return Err("perturbation of zero nodes".to_string());
                    }
                }
            }
        }
        Ok(())
    }
}

/// One scheduled fault of a [`FaultPlan`], whatever its category: what
/// [`FaultPlan::entries`] yields and [`FaultPlan::push`] takes back —
/// the unit of validation, of agenda compilation and of chaos shrinking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Entry {
    /// A message-loss rate window.
    Drop(RateWindow),
    /// A message-duplication rate window.
    Duplicate(RateWindow),
    /// A transient partition.
    Partition(Partition),
    /// A crash with restart.
    Crash(Crash),
    /// A neighbour-state perturbation.
    Perturbation(Perturbation),
}

impl Entry {
    /// The half-open round window `(start, end)` of a windowed entry —
    /// rates and partitions; `None` for the one-shot crashes
    /// and perturbations.
    pub fn window(&self) -> Option<(u64, u64)> {
        match self {
            Entry::Drop(w) | Entry::Duplicate(w) => Some((w.start, w.end)),
            Entry::Partition(p) => Some((p.start, p.end)),
            Entry::Crash(_) | Entry::Perturbation(_) => None,
        }
    }

    /// The entry with its window ending at `end` instead (one-shot
    /// entries are returned unchanged).
    #[must_use]
    pub fn with_end(mut self, end: u64) -> Self {
        match &mut self {
            Entry::Drop(w) | Entry::Duplicate(w) => w.end = end,
            Entry::Partition(p) => p.end = end,
            Entry::Crash(_) | Entry::Perturbation(_) => {}
        }
        self
    }
}

/// One message destroyed by the injector — the watchdog's evidence
/// trail for root-cause analysis. Crash channel loss is logged with the
/// crashed node as both endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DropRecord {
    /// The round the drop happened in.
    pub round: u64,
    /// The sending node.
    pub src: NodeId,
    /// The intended destination.
    pub dest: NodeId,
    /// The destroyed message.
    pub msg: Message,
}

/// The per-send decision the injector hands the round loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Deliver normally.
    Deliver,
    /// Destroy the message (already logged and to be counted as
    /// `dropped_fault`).
    Drop,
    /// Enqueue an extra copy alongside the original.
    Duplicate,
}

/// The injector's RNG with an exact draw counter. Every sampling path
/// in the vendored `rand` (ints, floats, bools, ranges, shuffles)
/// funnels through `next_u64`, so the count of calls *is* the stream
/// cursor: re-seeding and advancing `draws` words reproduces the state
/// bit-for-bit. That makes the injector checkpointable (persist v2)
/// without serializing generator internals.
#[derive(Clone, Debug)]
struct CountedRng {
    inner: StdRng,
    draws: u64,
}

impl CountedRng {
    fn seeded(seed: u64) -> Self {
        CountedRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }

    /// Re-seeds and fast-forwards to a persisted cursor. Linear in the
    /// cursor — fine for checkpointed runs, whose draw counts are
    /// bounded by sends inside fault windows.
    fn at_cursor(seed: u64, draws: u64) -> Self {
        let mut rng = Self::seeded(seed);
        for _ in 0..draws {
            rng.next_u64();
        }
        rng
    }
}

impl Rng for CountedRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// The serializable checkpoint of a [`FaultInjector`]: everything a
/// durable restore needs to continue the faulted computation exactly —
/// the plan, the RNG cursor (draw count), the down map, the drop log
/// and any captured durable-crash node states. The agenda position is
/// not captured: the agenda is a function of the plan and its cursor a
/// function of the round the restored network resumes at (see
/// [`FaultInjector::from_state`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InjectorState {
    /// The plan being executed.
    pub plan: FaultPlan,
    /// Number of `next_u64` words the injector has consumed.
    pub rng_draws: u64,
    /// Crashed nodes → the round they restart at.
    pub down: Vec<(NodeId, u64)>,
    /// The retained drop log.
    pub drop_log: Vec<DropRecord>,
    /// Captured pre-crash states for pending durable restarts.
    pub saved: Vec<(NodeId, Node)>,
}

/// One step of the compiled agenda: what one plan entry does at the
/// start of one round. Declared in phase order — the order steps due in
/// the same round are applied and announced in (see [`Step::phase`]).
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A crashed node's downtime is over.
    Restart(NodeId),
    /// Window `windows[i]` comes into force (and is announced).
    Open(usize),
    /// Window `windows[i]` is over.
    Close(usize),
    /// Capture the node's start-of-round state for its durable restart.
    Capture(NodeId),
    /// The crash lands.
    Crash(Crash),
    /// `k` live nodes' neighbour state is randomized.
    Perturb(usize),
}

impl Step {
    /// Rank of the step within its round. Restarts come first, so a node
    /// whose downtime ends in the round its next crash lands is up to be
    /// crashed; a window opens before it closes, so an empty window
    /// (`start == end`) is announced and never in force; captures precede
    /// crashes, so `snapshot_round == round` saves the immediately
    /// pre-crash state; perturbations see the round's down set.
    fn phase(self) -> u8 {
        match self {
            Step::Restart(_) => 0,
            Step::Open(_) => 1,
            Step::Close(_) => 2,
            Step::Capture(_) => 3,
            Step::Crash(_) => 4,
            Step::Perturb(_) => 5,
        }
    }
}

/// Live fault-injection state owned by a faulted network: the plan
/// compiled into a round-ordered agenda, the injector's private RNG,
/// the set of currently-down nodes, the recent drop log and captured
/// durable-crash states.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Every round-start effect of the plan as `(round, step)`, sorted
    /// by round, then [`Step::phase`], then plan order. Nothing is ever
    /// scheduled at run time — a restart round is its crash round plus
    /// the downtime — so a sorted `Vec` and a cursor are the whole
    /// mechanism.
    agenda: Vec<(u64, Step)>,
    /// The plan's windowed entries (zero-rate windows excepted), in plan
    /// order; `Open`/`Close` steps and
    /// `active` index it.
    windows: Vec<Entry>,
    /// First agenda step not yet applied.
    cursor: usize,
    /// The round `cursor` and `active` are positioned for. A round that
    /// finds it elsewhere — the first after an attach or a restore —
    /// re-seeks.
    at: u64,
    /// Indices of the windows in force, ascending: the first match in
    /// plan order wins, as it did when every send scanned the plan.
    active: Vec<usize>,
    rng: CountedRng,
    /// Crashed nodes → the round they restart at.
    down: BTreeMap<NodeId, u64>,
    drop_log: Vec<DropRecord>,
    /// Pre-crash states captured for durable restarts.
    saved: BTreeMap<NodeId, Node>,
}

impl FaultInjector {
    /// Builds an injector for a validated plan.
    ///
    /// # Panics
    /// Panics when [`FaultPlan::validate`] rejects the plan.
    #[expect(
        clippy::expect_used,
        reason = "documented panic on invalid plans; fallible callers use `try_new`"
    )]
    pub fn new(plan: FaultPlan) -> Self {
        Self::try_new(plan).expect("invalid fault plan")
    }

    /// Builds an injector for `plan`, rejecting invalid plans as an
    /// error instead of panicking.
    pub fn try_new(plan: FaultPlan) -> Result<Self, String> {
        Self::from_state(InjectorState {
            plan,
            rng_draws: 0,
            down: Vec::new(),
            drop_log: Vec::new(),
            saved: Vec::new(),
        })
    }

    /// Captures the injector's complete serializable state.
    pub fn state(&self) -> InjectorState {
        InjectorState {
            plan: self.plan.clone(),
            rng_draws: self.rng.draws,
            down: self.down.iter().map(|(&id, &until)| (id, until)).collect(),
            drop_log: self.drop_log.clone(),
            saved: self
                .saved
                .iter()
                .map(|(&id, node)| (id, node.clone()))
                .collect(),
        }
    }

    /// Rebuilds an injector from a checkpoint (a fresh plan is the
    /// checkpoint with nothing consumed): validates the plan, compiles
    /// it into the agenda, re-seeds the RNG and fast-forwards it to the
    /// persisted cursor. The agenda cursor and the active windows are
    /// not part of the state — the first round the injector is asked to
    /// apply positions them (`seek`).
    pub fn from_state(state: InjectorState) -> Result<Self, String> {
        state.plan.validate()?;
        let mut agenda = Vec::new();
        let mut windows = Vec::new();
        for entry in state.plan.entries() {
            match entry {
                Entry::Crash(c) => {
                    if let Restart::Durable { snapshot_round } = c.restart {
                        agenda.push((snapshot_round, Step::Capture(c.node)));
                    }
                    agenda.push((c.round, Step::Crash(c)));
                    let back_up = c.round.saturating_add(c.down_for);
                    agenda.push((back_up, Step::Restart(c.node)));
                }
                Entry::Perturbation(p) => agenda.push((p.round, Step::Perturb(p.k))),
                // A zero rate never consumes injector RNG: exactly
                // equivalent to no window at all.
                Entry::Drop(w) | Entry::Duplicate(w) if w.p <= 0.0 => {}
                window => {
                    if let Some((start, end)) = window.window() {
                        agenda.push((start, Step::Open(windows.len())));
                        agenda.push((end, Step::Close(windows.len())));
                        windows.push(window);
                    }
                }
            }
        }
        // Stable, so steps of one round and phase keep plan order —
        // except restarts, which come back in id order as the down
        // map's iteration had them.
        agenda.sort_by_key(|&(round, step)| {
            let restarting = match step {
                Step::Restart(id) => Some(id),
                _ => None,
            };
            (round, step.phase(), restarting)
        });
        Ok(FaultInjector {
            rng: CountedRng::at_cursor(state.plan.seed, state.rng_draws),
            plan: state.plan,
            agenda,
            windows,
            cursor: 0,
            at: 0,
            active: Vec::new(),
            down: state.down.into_iter().collect(),
            drop_log: state.drop_log,
            saved: state.saved.into_iter().collect(),
        })
    }

    /// Positions the agenda for round `now`: the cursor by binary search,
    /// the active windows by replaying — side-effect-free, nothing is
    /// announced and no state is touched — the open/close steps of the
    /// rounds before it. Steps skipped this way are in the past: a plan
    /// attached mid-run never applies them late, and a restored
    /// injector's down map, captures and drop log already hold their
    /// effects.
    fn seek(&mut self, now: u64) {
        self.cursor = self.agenda.partition_point(|&(round, _)| round < now);
        self.active.clear();
        for &(_, step) in &self.agenda[..self.cursor] {
            match step {
                Step::Open(w) => insert_sorted(&mut self.active, w),
                Step::Close(w) => self.active.retain(|&a| a != w),
                _ => {}
            }
        }
        self.at = now;
    }

    /// Pops the next step due at `now`, if any.
    fn pop_due(&mut self, now: u64) -> Option<Step> {
        let &(round, step) = self.agenda.get(self.cursor)?;
        (round <= now).then(|| {
            self.cursor += 1;
            step
        })
    }

    /// True while `id` is crashed (skipped by the round loop; messages
    /// to it are destroyed).
    pub fn is_down(&self, id: NodeId) -> bool {
        self.down.contains_key(&id)
    }

    /// The retained log of injector-destroyed messages, oldest first
    /// (bounded — old entries are evicted, recent ones always kept).
    pub fn drops(&self) -> &[DropRecord] {
        &self.drop_log
    }

    /// Records a destroyed message in the bounded log.
    fn note_drop(&mut self, round: u64, src: NodeId, dest: NodeId, msg: Message) {
        if self.drop_log.len() >= DROP_LOG_CAP {
            self.drop_log.drain(..DROP_LOG_CAP / 2);
        }
        self.drop_log.push(DropRecord {
            round,
            src,
            dest,
            msg,
        });
    }

    /// Records every stored pointer value a fault is about to overwrite
    /// in `victim` as a state erasure (`victim → victim`, `Lin(target)`),
    /// returning how many were logged. The old target can be the
    /// knowledge graph's only edge into its component, so an erasure can
    /// sever connectivity with no message ever dropped — the watchdog
    /// attributes it from these records exactly like a sole-carrier drop.
    fn note_erasures(&mut self, round: u64, victim: NodeId, erased: &[Option<NodeId>]) -> u64 {
        let mut logged = 0;
        for t in erased.iter().flatten().copied().filter(|&t| t != victim) {
            self.note_drop(round, victim, victim, Message::Lin(t));
            logged += 1;
        }
        logged
    }

    /// The windows in force this round, in plan order.
    fn in_force(&self) -> impl Iterator<Item = &Entry> {
        self.active.iter().map(|&w| &self.windows[w])
    }

    /// Draws `k` distinct victims from `pool` (injector RNG).
    fn pick_distinct(&mut self, k: usize, pool: &[NodeId]) -> Vec<NodeId> {
        let mut v = pool.to_vec();
        v.shuffle(&mut self.rng);
        v.truncate(k.min(v.len()));
        v
    }

    /// Draws one uniform element of `pool` (injector RNG).
    ///
    /// # Panics
    /// Panics on an empty pool.
    fn pick_one(&mut self, pool: &[NodeId]) -> NodeId {
        pool[self.rng.random_range(0..pool.len())]
    }

    /// Decides the fate of one send from the windows in force — the
    /// first of each kind in plan order. Fixed decision order (down
    /// endpoint, partition, loss rate, duplication rate); injector RNG is
    /// consumed **only** when a rate window is in force, so rounds
    /// outside every window replay the fault-free computation exactly.
    pub(crate) fn fate(&mut self, round: u64, src: NodeId, dest: NodeId, msg: Message) -> Fate {
        let mut cut = self.is_down(dest) || self.is_down(src);
        let (mut lose, mut duplicate) = (None, None);
        for w in self.in_force() {
            match w {
                Entry::Partition(p) => cut |= p.cuts(src, dest),
                Entry::Drop(w) => lose = lose.or(Some(w.p)),
                Entry::Duplicate(w) => duplicate = duplicate.or(Some(w.p)),
                Entry::Crash(_) | Entry::Perturbation(_) => {}
            }
        }
        // Short-circuit: each coin is drawn only if every earlier test
        // let the message through.
        if cut || lose.is_some_and(|p| self.rng.random_bool(p)) {
            self.note_drop(round, src, dest, msg);
            return Fate::Drop;
        }
        if duplicate.is_some_and(|p| self.rng.random_bool(p)) {
            return Fate::Duplicate;
        }
        Fate::Deliver
    }
}

/// Inserts `w` into the ascending list `sorted`.
fn insert_sorted(sorted: &mut Vec<usize>, w: usize) {
    let at = sorted.partition_point(|&a| a < w);
    sorted.insert(at, w);
}

impl Network {
    /// Applies the attached plan's round-start faults for round `now`:
    /// pops the agenda steps that are due, in phase order (restarts,
    /// window openings and closings, durable captures, crashes,
    /// perturbations — [`Step::phase`] says why). Called by the hooked
    /// round loop at most once per round; a round with nothing due costs
    /// two comparisons and allocates nothing.
    pub(crate) fn apply_round_faults(&mut self, now: u64, stats: &mut RoundStats) {
        // Take the injector out to split its borrow from the node table;
        // a `Box` move, no allocation.
        let Some(mut inj) = self.faults.take() else {
            return;
        };
        if inj.at != now {
            inj.seek(now);
        }
        while let Some(step) = inj.pop_due(now) {
            self.apply(&mut inj, now, step, stats);
        }
        inj.at = now.saturating_add(1);
        self.faults = Some(inj);
    }

    /// Applies one agenda step — the only place a scheduled fault touches
    /// the network.
    fn apply(&mut self, inj: &mut FaultInjector, now: u64, step: Step, stats: &mut RoundStats) {
        match step {
            Step::Restart(id) => {
                // No down entry: the crash never landed (its node had
                // departed, or the plan was attached past it).
                if inj.down.remove(&id).is_none() {
                    return;
                }
                stats.links_changed = true;
                let restored = inj.saved.remove(&id);
                let how = if restored.is_some() {
                    "from its durable checkpoint"
                } else {
                    "with blank state"
                };
                if let Some(slot) = self.index.get(id) {
                    // Durable restart: the checkpointed state is adopted
                    // verbatim — a stale but *valid* protocol view whose
                    // pointers re-validate instead of rebuilding from
                    // scratch. Neighbours whose settlement certificates
                    // assumed the blank crash state are re-verified
                    // against the resurrected pointers. Either way the
                    // node rejoins the loop this round, unsettled: blank
                    // or stale, its state needs re-validation.
                    let mut targets = [None; 3];
                    if let Some(saved) = restored {
                        targets = [saved.left().fin(), saved.right().fin(), saved.ring()];
                        self.nodes[slot] = Some(saved);
                    }
                    self.unsettle(id, slot, true, targets);
                }
                self.fault_event(now, "restart", format!("{id:?} back up {how}"));
            }
            // Announced on the timeline, so reports show when loss regimes
            // begin.
            Step::Open(w) => {
                insert_sorted(&mut inj.active, w);
                let (kind, detail) = match &inj.windows[w] {
                    Entry::Drop(r) => (
                        "drop_window",
                        format!("p={} over rounds {}..{}", r.p, r.start, r.end),
                    ),
                    Entry::Duplicate(r) => (
                        "dup_window",
                        format!("p={} over rounds {}..{}", r.p, r.start, r.end),
                    ),
                    Entry::Partition(p) => (
                        "partition",
                        format!("cut at {:?} over rounds {}..{}", p.cut, p.start, p.end),
                    ),
                    Entry::Crash(_) | Entry::Perturbation(_) => return, // never windows
                };
                self.fault_event(now, kind, detail);
            }
            Step::Close(w) => inj.active.retain(|&a| a != w),
            // A node already down has no live state to capture — its
            // restart degrades to amnesia, as documented on
            // `Restart::Durable`.
            Step::Capture(id) => {
                if let Some(node) = self.node(id).filter(|_| !inj.is_down(id)) {
                    inj.saved.insert(id, node.clone());
                }
            }
            Step::Crash(c) => {
                let Some(slot) = self.index.get(c.node) else {
                    return; // departed before its crash was due
                };
                let Some(victim) = self.nodes[slot].as_ref() else {
                    return;
                };
                // The settled neighbours' certificates reference the
                // victim's pre-crash pointers (reciprocity, ring pairing);
                // capture the targets before blanking so they can be
                // re-verified.
                let old_targets = [victim.left().fin(), victim.right().fin(), victim.ring()];
                // The blanked pointers are erased knowledge under either
                // restart discipline: a durable checkpoint only comes
                // back when the downtime ends.
                let [l, r, ring] = old_targets;
                let erased = [l, r, Some(victim.lrl()), ring];
                stats.erased_fault += inj.note_erasures(now, c.node, &erased);
                let blank = Node::new(c.node, *victim.config());
                // Channel loss: in-flight mail addressed to the victim
                // dies with it. Logged for the watchdog's culprit analysis
                // (with the victim as both endpoints — the true senders
                // are gone from the queue's bookkeeping).
                let mut lost = 0u64;
                for &m in self.mail.as_slice(slot) {
                    inj.note_drop(now, c.node, c.node, m);
                    lost += 1;
                }
                self.nodes[slot] = Some(blank);
                self.mail.clear(slot);
                inj.down.insert(c.node, now.saturating_add(c.down_for));
                stats.dropped_fault += lost;
                stats.links_changed = true;
                // Down nodes sit the round out, so the victim is not woken.
                self.unsettle(c.node, slot, false, old_targets);
                let (node, down_for) = (c.node, c.down_for);
                self.fault_event(
                    now,
                    "crash",
                    format!("{node:?} down for {down_for} rounds, {lost} queued messages lost"),
                );
            }
            Step::Perturb(k) => {
                let live: Vec<NodeId> = self.index.ids().filter(|id| !inj.is_down(*id)).collect();
                if live.len() < 2 {
                    return;
                }
                let victims = inj.pick_distinct(k, &live);
                let hit = victims.len();
                for v in victims {
                    let Some(slot) = self.index.get(v) else {
                        continue;
                    };
                    let Some(node) = self.nodes[slot].as_ref() else {
                        continue;
                    };
                    let cfg = *node.config();
                    // Keep `l`: the stored left-pointer chain keeps the
                    // knowledge graph weakly connected, so the damage is
                    // recoverable by Theorem 4.3 (see the module docs).
                    // Its target's certificate still holds; the rewritten
                    // pointers' old reciprocal holders need theirs
                    // re-verified.
                    let l = node.left();
                    let old_targets = [node.right().fin(), node.ring(), None];
                    let erased = [node.right().fin(), Some(node.lrl()), node.ring()];
                    stats.erased_fault += inj.note_erasures(now, v, &erased);
                    let r = Extended::Fin(inj.pick_one(&live));
                    let lrl = inj.pick_one(&live);
                    let ring = Some(inj.pick_one(&live));
                    self.nodes[slot] = Some(Node::with_state(v, l, r, lrl, ring, cfg));
                    stats.links_changed = true;
                    self.unsettle(v, slot, true, old_targets);
                }
                self.fault_event(
                    now,
                    "perturb",
                    format!("{hit} nodes' r/lrl/ring randomized"),
                );
            }
        }
    }

    /// Voids the settlement certificate of the node `id` in `slot` after
    /// a fault rewrote its state — waking it with `wake` — re-evaluates
    /// its placement in the sorted list, and re-verifies the certificates
    /// that referenced the overwritten pointers `old_targets`. No-op
    /// under full scan.
    fn unsettle(&mut self, id: NodeId, slot: usize, wake: bool, old_targets: [Option<NodeId>; 3]) {
        let Some(sched) = self.sched.as_mut() else {
            return;
        };
        sched.unsettle(slot, id, wake);
        sched.refresh_placement(&self.nodes, &self.index, slot);
        for t in old_targets.into_iter().flatten() {
            sched.recheck(&self.nodes, &self.index, t);
        }
    }

    /// Emits a `Fault` timeline event to the attached sink, if any.
    fn fault_event(&mut self, round: u64, kind: &str, detail: String) {
        self.emit(Event::Fault {
            round,
            kind: kind.to_string(),
            detail,
        });
    }
}

/// The watchdog's final classification of a recovery watch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The sorted ring held again after `rounds` rounds (counted from
    /// the watch start).
    Recovered {
        /// Rounds from the watch start to re-stabilization.
        rounds: u64,
    },
    /// The union knowledge graph (CC view) fell apart: some identifier
    /// is unreachable from the rest and no protocol rule can ever
    /// reintroduce it. `culprit` is the most recent logged drop whose
    /// payload ended up in a different component than its sender — the
    /// sole-carrier drop that severed the network — when one is
    /// identifiable.
    PermanentlyDisconnected {
        /// The absolute round disconnection was detected at.
        round: u64,
        /// The responsible drop, if identifiable from the log.
        culprit: Option<DropRecord>,
    },
    /// The round budget ran out with the knowledge graph still
    /// connected — slow convergence, not impossibility.
    BudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl Verdict {
    /// Stable label for reports: `"recovered"`, `"disconnected"` or
    /// `"budget_exhausted"`.
    pub fn outcome(&self) -> &'static str {
        match self {
            Verdict::Recovered { .. } => "recovered",
            Verdict::PermanentlyDisconnected { .. } => "disconnected",
            Verdict::BudgetExhausted { .. } => "budget_exhausted",
        }
    }

    /// Rounds to recovery, when recovered.
    pub fn recovered_rounds(&self) -> Option<u64> {
        match self {
            Verdict::Recovered { rounds } => Some(*rounds),
            _ => None,
        }
    }
}

/// Outcome of a [`watch_recovery`] run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WatchReport {
    /// The watchdog's classification.
    pub verdict: Verdict,
    /// Messages sent during the watch (overhead accounting).
    pub messages: u64,
    /// Messages the injector destroyed during the watch.
    pub dropped_fault: u64,
    /// The round budget the watch ran under.
    pub budget: u64,
    /// Shape of the repair cascade observed during the watch: depth
    /// histogram, width profile and per-kind fan-out of its repair chains.
    /// Present only when a sink was attached — depth tags exist only on
    /// the instrumented path.
    pub cascade: Option<CascadeReport>,
}

/// The one "step until it is the sorted ring again" loop:
/// `measure_recovery`, [`watch_recovery`] and the chaos scenario run are
/// this function with their own `on_round` accumulators.
///
/// Rounds up to `horizon` (an absolute round; one already reached, such
/// as 0, means none) are driven regardless — scheduled faults are still
/// landing, so a ring that holds mid-window is not recovery. From there
/// on the watch ends as soon as [`Network::is_sorted_ring`] holds, or
/// after `budget` rounds — with one last connectivity check, so a network
/// severed by something no round reported (bare departures) is called
/// disconnected, not slow. In either stretch, a round that destroyed
/// knowledge — a drop (crash channel loss counts) or a state erasure (a
/// perturbed or crashed node's overwritten pointers) — may
/// have removed the only edge into a component, and a disconnected CC
/// view is final (see [`watch_recovery`]).
pub(crate) fn watch(
    net: &mut Network,
    horizon: u64,
    budget: u64,
    mut on_round: impl FnMut(&RoundStats),
) -> Verdict {
    let severed = |net: &Network| {
        (!weakly_connected_view(&net.view(), View::Cc)).then(|| Verdict::PermanentlyDisconnected {
            round: net.round(),
            culprit: find_culprit(net),
        })
    };
    let start = horizon.max(net.round());
    loop {
        if let Some(rounds) = net.round().checked_sub(start) {
            if net.is_sorted_ring() {
                return Verdict::Recovered { rounds };
            }
            if rounds == budget {
                // Knowledge can also be lost where no watched round shows
                // it — bare departures, or damage done before the watch
                // began — so a run that spent its budget is slow only if
                // it is still connected.
                return severed(net).unwrap_or(Verdict::BudgetExhausted { budget });
            }
        }
        let stats = net.step();
        on_round(&stats);
        if stats.dropped_fault > 0 || stats.erased_fault > 0 {
            if let Some(verdict) = severed(net) {
                return verdict;
            }
        }
    }
}

/// Runs the network for up to `budget` rounds from the fault instant
/// (the call time), classifying the outcome:
///
/// * **recovered** — [`Network::is_sorted_ring`] holds again;
/// * **permanently disconnected** — the CC view (node states ∪
///   in-flight payloads) is no longer weakly connected. Checked on
///   rounds that destroyed knowledge, and once more when the budget
///   runs out; once disconnected, the knowledge closure argument makes
///   recovery impossible, so the watch stops immediately and names the
///   culprit drop when one is identifiable;
/// * **budget exhausted** — `budget` rounds on, still connected and
///   still not the sorted ring.
///
/// Emits a `"recovery"` [`Event::Span`] plus an [`Event::Verdict`] to
/// the attached sink, if any.
pub fn watch_recovery(net: &mut Network, budget: u64) -> WatchReport {
    let start = net.round();
    // Bracket the watch in a cascade window so the repair's cascades
    // are accounted separately from whatever ran before (no-op without a
    // sink).
    net.cascade_begin();
    let (mut messages, mut dropped_fault) = (0, 0);
    let verdict = watch(net, start, budget, |stats| {
        messages += stats.total_sent();
        dropped_fault += stats.dropped_fault;
    });
    let end = net.round();
    let report = WatchReport {
        verdict,
        messages,
        dropped_fault,
        budget,
        cascade: net.cascade_take(),
    };
    net.emit(Event::Span {
        label: "recovery".to_string(),
        start,
        end,
    });
    if let Some(c) = report.cascade.as_ref() {
        let ev = Event::Cascade {
            label: "recovery".to_string(),
            start: c.start,
            end: c.end,
            delivered: c.delivered(),
            roots: c.stats.roots,
            edges: c.stats.edges,
            depth: c.stats.depth.clone(),
            width_max: c.stats.width_max(),
            handled_by_kind: c.stats.handled_by_kind.clone(),
            children_by_kind: c.stats.children_by_kind.clone(),
        };
        net.emit(ev);
    }
    // The verdict goes last: an anomalous one trips the flight
    // recorder's auto-dump, and the dump should already contain the
    // span and cascade records above.
    net.emit(Event::Verdict {
        round: end,
        outcome: report.verdict.outcome().to_string(),
        detail: verdict_detail(&report.verdict),
    });
    report
}

/// Scans the injector's drop log (most recent first) for a destroyed
/// message whose payload now sits in a different weak component of the
/// CC view than its sender — the signature of a sole-carrier drop.
fn find_culprit(net: &Network) -> Option<DropRecord> {
    let inj = net.fault_injector()?;
    let v = net.view();
    let labels = component_labels_view(&v, View::Cc);
    for rec in inj.drops().iter().rev() {
        let Some(src_rank) = v.index_of(rec.src) else {
            continue;
        };
        for x in rec.msg.carried_ids() {
            if let Some(x_rank) = v.index_of(x) {
                if labels[x_rank] != labels[src_rank] {
                    return Some(*rec);
                }
            }
        }
    }
    None
}

fn verdict_detail(v: &Verdict) -> String {
    match v {
        Verdict::Recovered { rounds } => format!("rounds={rounds}"),
        Verdict::PermanentlyDisconnected {
            round,
            culprit: Some(c),
        } => format!(
            "at round {round}: dropped {:?} from {:?} to {:?} in round {} was a sole carrier",
            c.msg, c.src, c.dest, c.round
        ),
        Verdict::PermanentlyDisconnected {
            round,
            culprit: None,
        } => {
            format!("at round {round}: culprit not identifiable from the drop log")
        }
        Verdict::BudgetExhausted { budget } => format!("budget={budget}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::{evenly_spaced_ids, Extended};
    use swn_core::invariants::make_sorted_ring;
    use swn_core::node::Node;

    fn fid(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    /// a—b form a sorted 2-list; c is blank (knows nobody, nobody knows
    /// it) except for the preloaded `Lin(c)` hints.
    fn three_node_net(hint_to_b: bool) -> (Network, NodeId, NodeId, NodeId) {
        let cfg = ProtocolConfig::default();
        let (a, b, c) = (fid(0.2), fid(0.5), fid(0.8));
        let na = Node::with_state(a, Extended::NegInf, Extended::Fin(b), a, None, cfg);
        let nb = Node::with_state(b, Extended::Fin(a), Extended::PosInf, b, None, cfg);
        let nc = Node::new(c, cfg);
        let mut net = Network::new(vec![na, nb, nc], 3);
        net.preload(a, Message::Lin(c));
        if hint_to_b {
            net.preload(b, Message::Lin(c));
        }
        (net, a, b, c)
    }

    #[test]
    fn sole_carrier_drop_is_reported_with_its_culprit_edge() {
        // Only a knows c, as an in-flight Lin(c). a's handler forwards
        // it toward b without storing (c > a.r = b), and the round-1
        // loss window destroys the forward — the sole carrier. The
        // watchdog must classify this as permanent disconnection and
        // name the a→b Lin(c) drop.
        let (mut net, a, b, c) = three_node_net(false);
        net.attach_faults(FaultPlan::new(7).with_drop(1, 2, 1.0));
        let report = watch_recovery(&mut net, 100);
        match &report.verdict {
            Verdict::PermanentlyDisconnected { culprit, .. } => {
                let rec = culprit.expect("culprit identifiable");
                assert_eq!(rec.msg, Message::Lin(c));
                assert_eq!(rec.src, a);
                assert_eq!(rec.dest, b);
                assert_eq!(rec.round, 1);
            }
            other => panic!("expected permanent disconnection, got {other:?}"),
        }
        assert!(report.dropped_fault > 0);
        assert_eq!(report.verdict.outcome(), "disconnected");
    }

    #[test]
    fn duplicate_carrier_survives_the_same_drop() {
        // Same scenario, but b also holds a Lin(c) hint: b adopts c as
        // its right neighbour on delivery (before any send can be
        // dropped), so the knowledge graph stays connected through the
        // loss window and the ring closes over all three nodes.
        let (mut net, _a, _b, c) = three_node_net(true);
        net.attach_faults(FaultPlan::new(7).with_drop(1, 2, 1.0));
        let report = watch_recovery(&mut net, 500);
        assert!(
            matches!(report.verdict, Verdict::Recovered { rounds } if rounds > 0),
            "expected recovery, got {:?}",
            report.verdict
        );
        assert!(net.node(c).is_some());
    }

    #[test]
    fn same_plan_and_seeds_replay_bit_for_bit() {
        let run = || {
            let ids = evenly_spaced_ids(12);
            let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 5);
            net.attach_faults(
                FaultPlan::new(11)
                    .with_drop(3, 20, 0.3)
                    .with_duplicate(5, 15, 0.2)
                    .with_crash(8, ids[4], 4)
                    .with_perturbation(2, 3),
            );
            net.run(30);
            (
                format!("{:?}", net.snapshot().as_view().edges(View::Cc)),
                net.trace().rounds().to_vec(),
                net.fault_injector().expect("attached").drops().to_vec(),
            )
        };
        let (e1, t1, d1) = run();
        let (e2, t2, d2) = run();
        assert_eq!(e1, e2);
        assert_eq!(t1, t2);
        assert_eq!(d1, d2);
        assert!(!d1.is_empty(), "the loss window must have destroyed mail");
    }

    #[test]
    fn different_fault_seeds_diverge() {
        let run = |fault_seed: u64| {
            let ids = evenly_spaced_ids(12);
            let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 5);
            net.attach_faults(FaultPlan::new(fault_seed).with_drop(1, 30, 0.4));
            net.run(30);
            net.fault_injector().expect("attached").drops().to_vec()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn crash_and_restart_recovers_on_a_stable_ring() {
        let ids = evenly_spaced_ids(10);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 9);
        net.run(10);
        net.attach_faults(FaultPlan::new(1).with_crash(net.round() + 1, ids[4], 3));
        net.step(); // crash lands
        let inj = net.fault_injector().expect("attached");
        assert!(inj.is_down(ids[4]));
        assert_eq!(ids.iter().filter(|&&id| inj.is_down(id)).count(), 1);
        let report = watch_recovery(&mut net, 5000);
        assert!(
            matches!(report.verdict, Verdict::Recovered { .. }),
            "crash+restart must heal: {:?}",
            report.verdict
        );
        assert!(!net.fault_injector().expect("attached").is_down(ids[4]));
    }

    #[test]
    fn crash_that_erases_a_sole_edge_is_attributed() {
        // a ↔ b → c: b's `r` is the only edge into c anywhere (c knows
        // nobody, nobody else knows c). The amnesiac crash blanks
        // it with no message ever dropped; the erased pointer must be in
        // the drop log so the disconnection names its cause.
        let cfg = ProtocolConfig::default();
        let (a, b, c) = (fid(0.2), fid(0.5), fid(0.8));
        let na = Node::with_state(a, Extended::NegInf, Extended::Fin(b), a, None, cfg);
        let nb = Node::with_state(b, Extended::Fin(a), Extended::Fin(c), b, None, cfg);
        let mut net = Network::new(vec![na, nb, Node::new(c, cfg)], 3);
        net.attach_faults(FaultPlan::new(1).with_crash(1, b, 3));
        let report = watch_recovery(&mut net, 500);
        let erased_edge = DropRecord {
            round: 1,
            src: b,
            dest: b,
            msg: Message::Lin(c),
        };
        assert_eq!(
            report.verdict,
            Verdict::PermanentlyDisconnected {
                round: 1,
                culprit: Some(erased_edge),
            }
        );
        assert_eq!(net.trace().rounds()[0].erased_fault, 2, "b's l and r");
    }

    #[test]
    fn perturbation_is_recoverable_damage() {
        let ids = evenly_spaced_ids(16);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 4);
        net.run(10);
        net.attach_faults(FaultPlan::new(2).with_perturbation(net.round() + 1, 5));
        net.step(); // perturbation lands
        assert!(
            !net.is_sorted_ring(),
            "5 corrupted nodes must break the ring"
        );
        let report = watch_recovery(&mut net, 5000);
        assert!(
            matches!(report.verdict, Verdict::Recovered { .. }),
            "l-preserving perturbation is recoverable: {:?}",
            report.verdict
        );
    }

    #[test]
    fn partition_heals_after_the_window() {
        let ids = evenly_spaced_ids(12);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 6);
        net.run(5);
        let cut = ids[5];
        let now = net.round();
        net.attach_faults(FaultPlan::new(3).with_partition(now + 1, now + 11, cut));
        net.run(10);
        assert!(
            net.trace().since(0).dropped_fault > 0,
            "cross-cut traffic must be destroyed while partitioned"
        );
        let report = watch_recovery(&mut net, 5000);
        assert!(
            matches!(report.verdict, Verdict::Recovered { .. }),
            "stored pointers survive a partition: {:?}",
            report.verdict
        );
    }

    #[test]
    fn plan_validation_rejects_bad_parameters() {
        assert!(FaultPlan::new(0).validate().is_ok());
        assert!(FaultPlan::new(0).with_drop(0, 5, 1.5).validate().is_err());
        assert!(FaultPlan::new(0).with_drop(5, 2, 0.5).validate().is_err());
        assert!(FaultPlan::new(0)
            .with_partition(9, 3, fid(0.5))
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .with_crash(1, fid(0.5), 0)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .with_perturbation(1, 0)
            .validate()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn injector_rejects_invalid_plans() {
        let _ = FaultInjector::new(FaultPlan::new(0).with_drop(0, 5, -0.1));
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new(42)
            .with_drop(1, 10, 0.25)
            .with_duplicate(2, 8, 0.5)
            .with_partition(3, 6, fid(0.4))
            .with_crash(4, fid(0.6), 2)
            .with_durable_crash(6, fid(0.7), 2, 4)
            .with_perturbation(5, 7);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(1).is_empty());
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
    }

    #[test]
    fn adversarial_plan_round_trips_through_json() {
        // A crash storm: several victims down over the same window, each
        // snapshotting at its crash round, beside a duplicate window.
        let plan = [0.2, 0.4, 0.6, 0.8]
            .into_iter()
            .fold(FaultPlan::new(13).with_duplicate(1, 5, 0.5), |plan, x| {
                plan.with_durable_crash(3, fid(x), 4, 3)
            });
        assert!(plan.validate().is_ok());
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
    }

    #[test]
    fn rate_window_is_inactive_at_zero_probability() {
        let w = RateWindow {
            start: 0,
            end: 100,
            p: 0.0,
        };
        assert!(!w.active(50), "p = 0 must behave as no window at all");
    }

    #[test]
    fn plan_validation_rejects_overlapping_crash_windows() {
        // Overlap: [5, 9) and [7, 10) down this same node twice at once.
        assert!(FaultPlan::new(0)
            .with_crash(5, fid(0.3), 4)
            .with_crash(7, fid(0.3), 3)
            .validate()
            .is_err());
        // Touching windows do not overlap: [5, 9) then [9, 12).
        assert!(FaultPlan::new(0)
            .with_crash(5, fid(0.3), 4)
            .with_crash(9, fid(0.3), 3)
            .validate()
            .is_ok());
        // The same window on different nodes is fine.
        assert!(FaultPlan::new(0)
            .with_crash(5, fid(0.3), 4)
            .with_crash(5, fid(0.7), 4)
            .validate()
            .is_ok());
    }

    #[test]
    fn plan_validation_rejects_bad_behaviors() {
        // A durable crash must snapshot no later than it crashes.
        assert!(FaultPlan::new(0)
            .with_durable_crash(5, fid(0.5), 2, 7)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .with_durable_crash(5, fid(0.5), 2, 5)
            .validate()
            .is_ok());
    }

    #[test]
    fn durable_restart_restores_the_captured_state() {
        let ids = evenly_spaced_ids(10);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 9);
        net.run(10);
        let crash_round = net.round() + 1;
        let victim = ids[4];
        let before = net.node(victim).expect("live").clone();
        net.attach_faults(FaultPlan::new(1).with_durable_crash(
            crash_round,
            victim,
            3,
            crash_round,
        ));
        net.step(); // capture happens at round start, then the crash lands
        let inj = net.fault_injector().expect("attached");
        assert!(inj.is_down(victim));
        net.run(3); // downtime elapses; the restart restores the capture
        let after = net.node(victim).expect("restored");
        assert_eq!(after.left(), before.left(), "restored stale left pointer");
        assert_eq!(
            after.right(),
            before.right(),
            "restored stale right pointer"
        );
        assert_eq!(after.ring(), before.ring(), "restored ring edge");
        let inj = net.fault_injector().expect("attached");
        assert!(!inj.is_down(victim));
        assert!(inj.state().saved.is_empty(), "the capture is spent");
        let report = watch_recovery(&mut net, 5000);
        assert!(
            matches!(report.verdict, Verdict::Recovered { .. }),
            "durable restart must heal: {:?}",
            report.verdict
        );
    }

    #[test]
    fn durable_restart_without_a_capture_degrades_to_amnesia() {
        let ids = evenly_spaced_ids(10);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 9);
        net.run(10);
        let victim = ids[4];
        // snapshot_round 0 is long past when the plan attaches, so
        // nothing is ever captured and the restart falls back to a
        // blank rejoin.
        net.attach_faults(FaultPlan::new(1).with_durable_crash(net.round() + 1, victim, 3, 0));
        net.step();
        assert!(net
            .fault_injector()
            .expect("attached")
            .state()
            .saved
            .is_empty());
        let report = watch_recovery(&mut net, 5000);
        assert!(
            matches!(report.verdict, Verdict::Recovered { .. }),
            "amnesia fallback must still heal: {:?}",
            report.verdict
        );
    }

    #[test]
    fn counted_rng_cursor_restores_the_stream() {
        let mut a = CountedRng::seeded(42);
        for _ in 0..37 {
            a.next_u64();
        }
        let mut b = CountedRng::at_cursor(42, a.draws);
        assert_eq!(a.draws, b.draws);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64(), "streams must stay in lockstep");
        }
    }

    #[test]
    fn injector_state_round_trips_and_rebuilds() {
        let ids = evenly_spaced_ids(12);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 5);
        net.attach_faults(
            FaultPlan::new(11)
                .with_drop(1, 10, 0.5)
                .with_durable_crash(3, ids[2], 2, 2),
        );
        net.run(6);
        let state = net.fault_injector().expect("attached").state();
        assert!(state.rng_draws > 0, "the loss window must have drawn coins");
        let json = serde_json::to_string(&state).expect("serialize");
        let back: InjectorState = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, state);
        let rebuilt = FaultInjector::from_state(back).expect("rebuild");
        assert_eq!(rebuilt.state(), state, "state capture must be a fixpoint");
    }

    /// The `Fault` events of `round`, as `kind` labels in emission order.
    fn fault_kinds(records: &crate::obs::flight::FlightBuffer, round: u64) -> Vec<String> {
        let kinds = records.iter().filter_map(|r| match &r.event {
            Event::Fault {
                round: at, kind, ..
            } if *at == round => Some(kind.clone()),
            _ => None,
        });
        kinds.collect()
    }

    #[test]
    fn steps_due_in_one_round_land_in_phase_order() {
        // Round 4 holds one step of every kind: a restart (crash at 2,
        // down 2), two windows opening, a durable capture with
        // `snapshot_round == round`, its crash and a perturbation —
        // announced restart, windows in plan order, crash, perturbation,
        // whatever order the plan lists them in.
        let ids = evenly_spaced_ids(12);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 5);
        let (sink, records) = crate::obs::flight::FlightRecorder::new(1 << 12);
        net.attach_sink(Box::new(sink), 1);
        net.attach_faults(
            FaultPlan::new(3)
                .with_perturbation(4, 2)
                .with_durable_crash(4, ids[7], 3, 4)
                .with_crash(2, ids[1], 2)
                .with_partition(4, 5, ids[5])
                .with_drop(4, 6, 0.5),
        );
        net.run(3);
        let before = net.node(ids[7]).expect("live").clone();
        net.step();
        let kinds = fault_kinds(&records.lock().expect("records"), 4);
        let want = ["restart", "drop_window", "partition", "crash", "perturb"];
        assert_eq!(kinds, want);
        // The capture ran before the crash blanked the node.
        let inj = net.fault_injector().expect("attached");
        assert_eq!(inj.state().saved, vec![(ids[7], before)]);
        assert!(inj.is_down(ids[7]) && !inj.is_down(ids[1]));
    }

    #[test]
    fn empty_window_is_announced_and_never_in_force() {
        let ids = evenly_spaced_ids(8);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 2);
        let (sink, records) = crate::obs::flight::FlightRecorder::new(1 << 12);
        net.attach_sink(Box::new(sink), 1);
        net.attach_faults(FaultPlan::new(1).with_drop(3, 3, 1.0));
        net.run(6);
        let records = records.lock().expect("records");
        assert_eq!(fault_kinds(&records, 3), ["drop_window"]);
        assert_eq!(net.trace().since(0).dropped_fault, 0);
        let state = net.fault_injector().expect("attached").state();
        assert_eq!((state.rng_draws, state.drop_log.len()), (0, 0));
    }

    #[test]
    fn crash_of_a_departed_node_is_skipped_and_so_is_its_restart() {
        let ids = evenly_spaced_ids(8);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 2);
        let (sink, records) = crate::obs::flight::FlightRecorder::new(1 << 12);
        net.attach_sink(Box::new(sink), 1);
        net.attach_faults(FaultPlan::new(1).with_crash(3, ids[4], 2));
        net.run(2);
        net.remove_node(ids[4]).expect("was live");
        net.run(4); // past the crash round and the restart round
        let records = records.lock().expect("records");
        let faults = records
            .iter()
            .filter(|r| matches!(r.event, Event::Fault { .. }));
        assert_eq!(faults.count(), 0, "nothing landed, nothing announced");
        let inj = net.fault_injector().expect("attached");
        assert!(ids.iter().all(|&id| !inj.is_down(id)));
        assert!(inj.drops().is_empty());
    }

    #[test]
    fn plan_attached_mid_run_skips_its_past_and_joins_open_windows() {
        // Attached after round 5: the round-2 perturbation and crash are
        // history and must not land late; the 3..9 loss window is in
        // force from the first faulted round, without an announcement.
        let ids = evenly_spaced_ids(8);
        let mut net = Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), 2);
        net.run(5);
        let (sink, records) = crate::obs::flight::FlightRecorder::new(1 << 12);
        net.attach_sink(Box::new(sink), 1);
        net.attach_faults(
            FaultPlan::new(1)
                .with_perturbation(2, 3)
                .with_crash(2, ids[4], 2)
                .with_drop(3, 9, 1.0),
        );
        let stats = net.step();
        assert!(stats.dropped_fault > 0, "round 6 is inside the loss window");
        assert_eq!(stats.erased_fault, 0);
        net.run(5);
        let records = records.lock().expect("records");
        let faults = records
            .iter()
            .filter(|r| matches!(r.event, Event::Fault { .. }));
        assert_eq!(faults.count(), 0);
        assert_eq!(net.trace().rounds().last().expect("ran").dropped_fault, 0);
    }

    /// A plan document written by the injector's predecessor (the parent
    /// of the agenda compile), one entry of every kind it then had,
    /// behaviours included.
    const PARENT_PLAN_JSON: &str = r#"
        {"seed":13,"drop":[{"start":2,"end":9,"p":0.5}],"duplicate":[{"start":3,"end":5,
        "p":0.25}],"partitions":[{"start":4,"end":6,"cut":6917529027641081853}],
        "crashes":[{"round":3,"node":2305843009213693951,"down_for":2,"restart":"Amnesia"},
        {"round":4,"node":11529215046068469755,"down_for":6,
        "restart":{"Durable":{"snapshot_round":2}}}],"perturbations":[{"round":7,"k":2}],
        "behaviors":[{"start":1,"end":8,"node":4611686018427387902,
        "kind":{"SelectiveForward":{"kinds":["Lin","Ring"],"p":0.5}}},{"start":2,"end":9,
        "node":9223372036854775804,"kind":{"LyingState":{"mode":"Scramble"}}},{"start":3,
        "end":4,"node":13835058055282163706,"kind":{"SybilCluster":{"k":2,
        "center":13835058055282163706}}}]}
    "#;

    /// An injector checkpoint written by the same predecessor, two rounds
    /// into a durable crash with a lying window in force.
    const PARENT_STATE_JSON: &str = r#"
        {"plan":{"seed":9,"drop":[{"start":3,"end":6,"p":0.2}],"duplicate":[],"partitions":[],
        "crashes":[{"round":2,"node":6148914691236517205,"down_for":4,
        "restart":{"Durable":{"snapshot_round":1}}}],"perturbations":[],"behaviors":[{"start":1,
        "end":7,"node":12297829382473034410,"kind":{"LyingState":{"mode":"SelfPromote"}}}]},
        "rng_draws":0,"down":[[6148914691236517205,6]],"drop_log":[{"round":1,
        "src":12297829382473034410,"dest":6148914691236517205,"msg":{"ProbL":0}},{"round":2,
        "src":6148914691236517205,"dest":6148914691236517205,"msg":{"Lin":0}},{"round":2,
        "src":6148914691236517205,"dest":6148914691236517205,
        "msg":{"Lin":12297829382473034410}},{"round":2,"src":6148914691236517205,
        "dest":6148914691236517205,"msg":{"Lin":12297829382473034410}},{"round":2,
        "src":6148914691236517205,"dest":6148914691236517205,
        "msg":{"ProbL":12297829382473034410}},{"round":2,"src":6148914691236517205,
        "dest":6148914691236517205,"msg":{"IncLrl":6148914691236517205}},{"round":2,
        "src":6148914691236517205,"dest":6148914691236517205,"msg":{"Lin":0}},{"round":2,
        "src":6148914691236517205,"dest":6148914691236517205,
        "msg":{"ProbR":12297829382473034410}},{"round":2,"src":12297829382473034410,
        "dest":12297829382473034410,"msg":{"ResLrl":[{"Fin":6148914691236517205},{"Fin":0}]}},
        {"round":2,"src":12297829382473034410,"dest":6148914691236517205,
        "msg":{"Lin":6148914691236517205}},{"round":2,"src":12297829382473034410,
        "dest":6148914691236517205,"msg":{"Lin":12297829382473034410}},{"round":2,
        "src":12297829382473034410,"dest":6148914691236517205,
        "msg":{"Lin":12297829382473034410}},{"round":2,"src":12297829382473034410,
        "dest":6148914691236517205,"msg":{"ProbL":0}},{"round":2,"src":12297829382473034410,
        "dest":6148914691236517205,"msg":{"ProbL":12297829382473034410}},{"round":2,"src":0,
        "dest":6148914691236517205,"msg":{"Lin":6148914691236517205}},{"round":2,"src":0,
        "dest":6148914691236517205,"msg":{"Lin":0}},{"round":2,"src":0,
        "dest":6148914691236517205,"msg":{"ProbR":12297829382473034410}}],
        "saved":[[6148914691236517205,{"id":6148914691236517205,"l":{"Fin":0},
        "r":{"Fin":12297829382473034410},"lrl":6148914691236517205,"ring":null,"age":0,"tick":0,
        "cfg":{"epsilon":0.1,"lrl_shortcut":true,"probe_period":1}}]]}
    "#;

    /// `doc` with every `behaviors` list emptied: what its writer would
    /// have written with no behaviour scheduled.
    fn without_behaviors(doc: &str) -> String {
        fn strip(v: &mut Value) {
            match v {
                Value::Map(entries) => {
                    for (k, x) in entries {
                        if k == "behaviors" {
                            *x = Value::Seq(Vec::new());
                        } else {
                            strip(x);
                        }
                    }
                }
                Value::Seq(items) => items.iter_mut().for_each(strip),
                _ => {}
            }
        }
        let mut v: Value = serde_json::from_str(doc).expect("JSON");
        strip(&mut v);
        serde_json::to_string(&v).expect("renders")
    }

    #[test]
    fn documents_written_before_the_agenda_still_load() {
        // As written, both documents schedule behaviours: refused by name.
        let plan = serde_json::from_str::<FaultPlan>(PARENT_PLAN_JSON).map(drop);
        let state = serde_json::from_str::<InjectorState>(PARENT_STATE_JSON).map(drop);
        for err in [plan, state].map(|r| r.expect_err("refused").to_string()) {
            assert!(err.contains("behaviors"), "{err}");
        }
        // Without them, they load and round-trip.
        let json = without_behaviors(PARENT_PLAN_JSON);
        let plan: FaultPlan = serde_json::from_str(&json).expect("plan parses");
        assert!(plan.validate().is_ok());
        assert_eq!(plan.entry_count(), 6);
        assert_eq!(plan.entries().filter(|e| e.window().is_some()).count(), 3);
        let back: FaultPlan =
            serde_json::from_str(&serde_json::to_string(&plan).expect("renders")).expect("parses");
        assert_eq!(back, plan);
        let json = without_behaviors(PARENT_STATE_JSON);
        let state: InjectorState = serde_json::from_str(&json).expect("state parses");
        assert_eq!((state.down.len(), state.saved.len()), (1, 1));
        let rebuilt = FaultInjector::from_state(state.clone()).expect("rebuild");
        assert_eq!(rebuilt.state(), state);
    }
}
