//! The simulated network: node table, mailbox and the round loop.
//!
//! A **round** delivers every eligible message (per the delivery policy)
//! and runs every node's regular action once, one node's turn after
//! another in ascending id order. Messages sent during a round become
//! eligible in the next one, so receipt strictly follows transmission,
//! no turn reads what another turn of its round wrote (which makes the
//! round's law independent of the turn order — DESIGN.md §2 note 8), and
//! one round of the simulator corresponds to one unit of the paper's
//! asynchronous time (every enabled action executes — weak fairness;
//! every old message is offered for delivery — fair receipt).
//!
//! Under [`ScheduleMode::ActiveSet`] the round activates only the nodes
//! the scheduler put on the agenda (pending mail, an unverified local
//! state, a churn/fault touch) instead of every live node — see
//! [`crate::sched`] for the settlement certificate and the quiescence
//! invariant. The default [`ScheduleMode::FullScan`] is the paper's
//! schedule: every live node takes a turn every round.
//!
//! The whole run is deterministic in the seed: the same seed, initial
//! state and policy replay the exact same computation.

use crate::channel::DeliveryPolicy;
use crate::faults::{Fate, FaultInjector, FaultPlan};
use crate::mailbox::Mailbox;
use crate::obs::causal::{CascadeReport, CauseTag};
use crate::obs::{Event, ObsState, PhaseTimes, Sink};
use crate::sched::{self, SchedState, ScheduleMode};
use crate::slots::SlotIndex;
use crate::trace::{RoundStats, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use swn_core::id::NodeId;
use swn_core::invariants::{is_sorted_list_view, is_sorted_ring_view};
use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::outbox::{Outbox, ProtocolEvent};
use swn_core::views::{NetView, Snapshot};

/// How far the stored links are along Definitions 4.8/4.17, as last
/// evaluated — the cache behind [`Network::is_sorted_list`] and
/// [`Network::is_sorted_ring`]. Ordered: each level implies the ones
/// before it (`Stale` aside, which is "not evaluated since the links
/// last changed").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum SortedLevel {
    Stale,
    Unsorted,
    List,
    Ring,
}

impl SortedLevel {
    /// The level of a state given its sorted-list verdict and, asked only
    /// when that holds, whether the ring edges close it.
    fn of(sorted_list: bool, ring_closed: impl FnOnce() -> bool) -> Self {
        if !sorted_list {
            SortedLevel::Unsorted
        } else if ring_closed() {
            SortedLevel::Ring
        } else {
            SortedLevel::List
        }
    }
}

/// A simulated asynchronous message-passing network.
#[derive(Debug)]
pub struct Network {
    // The node table, mailbox and index are crate-visible for the fault
    // applier (`faults.rs`), which rewrites them at round start.
    pub(crate) nodes: Vec<Option<Node>>,
    pub(crate) mail: Mailbox,
    pub(crate) index: SlotIndex,
    free: Vec<usize>,
    policy: DeliveryPolicy,
    rng: StdRng,
    round: u64,
    trace: Trace,
    outbox: Outbox,
    tracked: Option<NodeId>,
    // `forwarders[slot]`: the node in `slot` forwarded the tracked id in
    // a `lin`; `forwarder_count` counts the set flags.
    forwarders: Vec<bool>,
    forwarder_count: usize,
    // Per-round scratch buffers, reused across `step` calls so the round
    // loop allocates nothing in steady state. Taken with `mem::take`
    // while in use and put back afterwards.
    order_buf: Vec<usize>,
    inbox_buf: Vec<Message>,
    // The three round hooks, in two groups: the observer and the fault
    // injector (`HOOKS`), and the scheduler (`SCHED`). `step` runs the
    // arm of the round loop compiled for the groups that are present;
    // a group's branches are constant-folded away in the arms without
    // it, so the bare network pays one pointer of space per hook and
    // one well-predicted dispatch per round. The `HOOKS` arms test the
    // observer's and the injector's `Option`s at run time.
    //
    // Observability: present iff a sink is attached (`attach_sink`).
    obs: Option<Box<ObsState>>,
    // Fault injection: present iff a plan is attached (`attach_faults`).
    pub(crate) faults: Option<Box<FaultInjector>>,
    // Active-set scheduler: present iff `ScheduleMode::ActiveSet` is
    // selected (`set_schedule_mode`).
    pub(crate) sched: Option<Box<SchedState>>,
    seed: u64,
    // The dirty-tracking rule (DESIGN.md §8.2), owned here: the level is
    // evaluated on demand and stays valid until a round reports
    // `links_changed` or a node is inserted or removed. Read under full
    // scan only; the active set asks the scheduler's counter instead.
    sorted: Cell<SortedLevel>,
    // Test-only: makes the round flush the outbox after every handled
    // message (`step_reference`, the flush-equivalence oracle).
    #[cfg(test)]
    flush_per_message: bool,
}

impl Network {
    /// Builds a network over the given nodes with the default
    /// ([`DeliveryPolicy::Immediate`]) policy.
    pub fn new(nodes: Vec<Node>, seed: u64) -> Self {
        Self::with_policy(nodes, seed, DeliveryPolicy::Immediate)
    }

    /// Builds a network with an explicit delivery policy.
    ///
    /// # Panics
    /// Panics on duplicate node ids or invalid policy/config parameters.
    pub fn with_policy(nodes: Vec<Node>, seed: u64, policy: DeliveryPolicy) -> Self {
        policy.validate().expect("invalid delivery policy");
        let mut pairs = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            n.config().validate().expect("invalid protocol config");
            pairs.push((n.id(), i));
        }
        // Bulk build: one sort instead of n splices, so million-node
        // constructions stay O(n log n) (linear for sorted generators).
        let index = match SlotIndex::from_pairs(pairs) {
            Ok(idx) => idx,
            Err(dup) => panic!("duplicate node id {dup:?}"),
        };
        Network {
            mail: Mailbox::with_slots(nodes.len()),
            nodes: nodes.into_iter().map(Some).collect(),
            index,
            free: Vec::new(),
            policy,
            rng: StdRng::seed_from_u64(seed),
            round: 0,
            trace: Trace::new(),
            outbox: Outbox::new(),
            tracked: None,
            forwarders: Vec::new(),
            forwarder_count: 0,
            order_buf: Vec::new(),
            inbox_buf: Vec::new(),
            obs: None,
            faults: None,
            sched: None,
            seed,
            sorted: Cell::new(SortedLevel::Stale),
            #[cfg(test)]
            flush_per_message: false,
        }
    }

    /// The seed this network was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Attaches an observation sink: subsequent rounds run the
    /// instrumented loop, recording latency/depth/forget-age/lrl-length
    /// histograms online and emitting one `Round` record (the round's
    /// `RoundStats` plus its phase times) every `sample_every` rounds
    /// (clamped to ≥ 1). Emits a `RunMeta` record immediately. Replaces
    /// (and drops) any previous sink.
    ///
    /// Observers read, never mutate, and consume no RNG: attaching a sink
    /// changes nothing about the computation — state and trace stay
    /// bit-for-bit identical (pinned by the golden-trace suite).
    pub fn attach_sink(&mut self, sink: Box<dyn Sink>, sample_every: u64) {
        let mut state = Box::new(ObsState::new(sink, sample_every));
        state.emit(Event::RunMeta {
            n: self.index.len(),
            seed: self.seed,
            policy: format!("{:?}", self.policy),
            sample_every: state.sample_every,
            round: self.round,
        });
        self.obs = Some(state);
    }

    /// Detaches the sink, emitting a final `Summary` record (totals over
    /// the observed rounds plus the histograms) and flushing. Returns the
    /// sink, or `None` when nothing was attached.
    pub fn detach_sink(&mut self) -> Option<Box<dyn Sink>> {
        let mut state = self.obs.take()?;
        let summary = state.summary();
        state.emit(summary);
        state.sink.flush();
        Some(state.sink)
    }

    /// True when an observation sink is attached.
    pub fn has_sink(&self) -> bool {
        self.obs.is_some()
    }

    /// Attaches a fault plan: subsequent rounds run a `HOOKS` arm of the
    /// round loop, which applies the plan's crashes/restarts/perturbations at
    /// round start and consults the injector for every send's fate.
    /// Replaces any previous injector.
    ///
    /// The injector draws from its **own** RNG stream (seeded from
    /// `plan.seed`), and only inside active windows — attaching an
    /// empty plan replays the fault-free computation bit-for-bit.
    ///
    /// # Panics
    /// Panics when [`FaultPlan::validate`] rejects the plan.
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(Box::new(FaultInjector::new(plan)));
    }

    /// Attaches a pre-built injector — e.g. one rebuilt from a persisted
    /// checkpoint ([`FaultInjector::from_state`]) — replacing any
    /// previous one. The injector resumes mid-plan: its RNG cursor, down
    /// map and drop log continue from wherever the checkpoint left off.
    pub fn attach_injector(&mut self, inj: FaultInjector) {
        self.faults = Some(Box::new(inj));
    }

    /// Sets the round counter (persist restore only: a restored network
    /// must resume at the checkpointed round or every plan window would
    /// shift).
    pub(crate) fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Detaches the fault injector (subsequent rounds are fault-free),
    /// returning it so callers can inspect the drop log. `None` when
    /// nothing was attached.
    pub fn detach_faults(&mut self) -> Option<Box<FaultInjector>> {
        self.faults.take()
    }

    /// The attached fault injector, if any — the watchdog reads its
    /// drop log for root-cause analysis.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Opens a causal cascade window at the current round: subsequent
    /// deliveries accumulate into a fresh window account (depth
    /// histogram, width profile, per-kind fan-out — see
    /// [`CascadeReport`]). No-op without an attached sink: cascade
    /// depths are only tagged on the instrumented path.
    pub fn cascade_begin(&mut self) {
        let round = self.round;
        if let Some(o) = self.obs.as_mut() {
            o.causal.begin_window(round);
        }
    }

    /// Closes the current cascade window, returning its report and
    /// opening a fresh one. `None` without an attached sink.
    pub fn cascade_take(&mut self) -> Option<CascadeReport> {
        let round = self.round;
        let o = self.obs.as_mut()?;
        Some(o.causal.take_window(round))
    }

    /// Selects the round schedule. [`ScheduleMode::FullScan`] (the
    /// default) runs every live node every round; switching to it drops
    /// any scheduler state. [`ScheduleMode::ActiveSet`] starts the
    /// active-set engine with every live node on the agenda, unsettled —
    /// the scheduler earns its certificates from scratch, so switching
    /// is always safe, at the cost of one full round of verification
    /// (plus one pass over the nodes here, counting the misplaced ones
    /// for [`is_sorted_ring`](Self::is_sorted_ring)).
    ///
    /// The two modes are *semantically* equivalent (both converge to the
    /// same sorted ring — pinned by `tests/active_set_prop.rs`) but not
    /// bit-for-bit: the active set changes which nodes act, hence the
    /// RNG schedule, and settled nodes pause their lrl walk, ages and
    /// probe ticks (see [`crate::sched`]).
    pub fn set_schedule_mode(&mut self, mode: ScheduleMode) {
        match mode {
            ScheduleMode::FullScan => {
                self.sched = None;
            }
            ScheduleMode::ActiveSet => {
                let mut st = Box::new(SchedState::new(&self.nodes, &self.index));
                let index = &self.index;
                for (&slot, &id) in index.sorted_slots().iter().zip(index.sorted_ids()) {
                    st.schedule(slot, id);
                }
                self.sched = Some(st);
            }
        }
    }

    /// Nodes scheduled to act in the next round: the agenda's size under
    /// [`ScheduleMode::ActiveSet`] (a departed node leaves it with its
    /// slot), every live node under [`ScheduleMode::FullScan`].
    pub fn active_count(&self) -> usize {
        match self.sched.as_ref() {
            Some(s) => s.active_len(),
            None => self.index.len(),
        }
    }

    /// True when the next round is provably a no-op on node and channel
    /// state: active-set mode with an empty agenda. Always false under
    /// [`ScheduleMode::FullScan`].
    pub fn is_quiescent(&self) -> bool {
        self.sched.as_ref().is_some_and(|s| s.active_len() == 0)
    }

    /// Emits an event to the attached sink, if any (no-op otherwise).
    /// Used by the convergence and churn drivers for timeline events
    /// (phase transitions, recovery spans).
    pub fn emit(&mut self, event: Event) {
        if let Some(o) = self.obs.as_mut() {
            o.emit(event);
        }
    }

    /// Starts counting messages that carry `id` in their payload (see
    /// [`RoundStats::tracked_sent`]) and recording the distinct nodes that
    /// forward it in `lin` messages — the "number of steps" metric of
    /// Theorem 4.24: how far a joining node's identifier travels until it
    /// reaches its sorted position. Pass `None` to stop tracking (the
    /// forwarder set is reset on every call).
    pub fn track_id(&mut self, id: Option<NodeId>) {
        self.tracked = id;
        if self.forwarder_count > 0 {
            self.forwarders.fill(false);
            self.forwarder_count = 0;
        }
    }

    /// Distinct nodes (other than the tracked node itself) that forwarded
    /// the tracked identifier in a `lin` message since tracking started —
    /// the length of the integration path.
    pub fn tracked_forwarder_count(&self) -> usize {
        self.forwarder_count
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The metrics trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes the metrics trace accumulated so far, leaving an empty one
    /// behind. Every round appends a [`RoundStats`] row (200 bytes), so
    /// long-lived large-n runs — a million-node soak, a quiescent
    /// network idling for millions of rounds — drain the trace
    /// periodically instead of letting it grow without bound. Taking the
    /// trace changes nothing about the computation: state, RNG stream
    /// and future rounds are unaffected.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// The live node with the given id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.index.get(id).and_then(|i| self.nodes[i].as_ref())
    }

    /// All live node ids in ascending order.
    pub fn ids(&self) -> Vec<NodeId> {
        self.index.ids().collect()
    }

    /// Preloads a message into a node's channel (for adversarial initial
    /// states with in-flight garbage). No-op if the destination is absent.
    ///
    /// Each call commits the mailbox so [`view`](Self::view) sees the
    /// message at once, which costs O(messages in flight) whenever some
    /// are; bulk loaders go through the crate's `preload_all`.
    pub fn preload(&mut self, dest: NodeId, msg: Message) {
        self.preload_all([(dest, msg)]);
    }

    /// [`preload`](Self::preload) for many messages with one commit.
    pub(crate) fn preload_all(&mut self, mail: impl IntoIterator<Item = (NodeId, Message)>) {
        for (dest, msg) in mail {
            if let Some(i) = self.index.get(dest) {
                self.mail.push(i, msg, CauseTag::ROOT);
                if let Some(sched) = self.sched.as_mut() {
                    sched.schedule(i, dest);
                }
            }
        }
        // Enqueued as "already in flight", so deliverable in the very
        // next round.
        self.mail.commit(self.round.saturating_sub(1));
    }

    /// Executes one round; returns its stats (also appended to the trace).
    pub fn step(&mut self) -> RoundStats {
        // One arm per combination of hook groups: `SCHED` when the
        // active-set scheduler is selected, `HOOKS` when a sink or a
        // fault plan is attached. In an arm without a group every branch
        // of that group is constant-folded away, so the bare network
        // runs exactly the pre-observability round loop, and a network
        // with only the scheduler runs the active set without any
        // observer or injector test (`tests/perf_guards.rs` holds the
        // observed arm to 1.5x the bare one, and to 1.55x with a cascade
        // window open).
        let hooks = self.obs.is_some() || self.faults.is_some();
        match (self.sched.is_some(), hooks) {
            (false, false) => self.step_impl::<false, false>(),
            (true, false) => self.step_impl::<true, false>(),
            (false, true) => self.step_impl::<false, true>(),
            (true, true) => self.step_impl::<true, true>(),
        }
    }

    /// The reference round with per-message outbox flushing — the
    /// pre-batching engine, kept as the oracle for the flush-equivalence
    /// proptest (see the `tests` module and DESIGN.md §8).
    #[cfg(test)]
    fn step_reference(&mut self) -> RoundStats {
        self.flush_per_message = true;
        let stats = self.step_impl::<false, false>();
        self.flush_per_message = false;
        stats
    }

    fn step_impl<const SCHED: bool, const HOOKS: bool>(&mut self) -> RoundStats {
        self.round += 1;
        let now = self.round;
        let mut stats = RoundStats::default();

        if HOOKS && self.faults.is_some() {
            self.apply_round_faults(now, &mut stats);
        }

        // Phase timers run only on sampled rounds of an observed network;
        // in the arms without `HOOKS` `sample` is constant false and every
        // `timed` call folds to a plain call.
        let sample = HOOKS
            && self
                .obs
                .as_ref()
                .is_some_and(|o| now.is_multiple_of(o.sample_every));
        // Accumulators in phase order: order build (the `shuffle_ns`
        // field of the schema), channel, deliver, flush, stats.
        let mut ph = [0u64; 5];

        // The round's turns run in ascending id order. No turn reads what
        // another turn of the same round wrote (DESIGN.md §2 note 8), so
        // the order fixes only which RNG words each turn draws, not the
        // law of the round; ascending id keeps the walk over the node
        // table and mailbox sequential wherever slots follow ids.
        let mut order = std::mem::take(&mut self.order_buf);
        timed(sample, &mut ph[0], || {
            order.clear();
            match self.sched.as_mut() {
                // The agenda, sorted by id: a function of the *set* of
                // active nodes, never of the order in which scheduling
                // happened to discover them.
                Some(sched) if SCHED => sched.begin_round(&mut order),
                // Full scan: every live slot, memcpy'd off the index's
                // incrementally maintained sorted lane.
                _ => order.extend_from_slice(self.index.sorted_slots()),
            }
        });

        let mut inbox = std::mem::take(&mut self.inbox_buf);
        for &i in &order {
            let Some(node) = self.nodes[i].as_ref() else {
                continue; // removed earlier in this round by churn callers
            };
            // Crashed nodes sit out entirely: no deliveries, no regular
            // action (sends *to* them die in `flush_outbox`).
            if HOOKS && self.faults.as_ref().is_some_and(|f| f.is_down(node.id())) {
                continue;
            }
            // The settlement machinery diffs the whole turn (deliveries
            // *and* regular action) against this tuple — reciprocity is
            // mutual, so the far end of every certificate this turn can
            // break is a target in the before- or after-tuple.
            let turn_before = (node.left(), node.right(), node.ring());
            let lrl_before = node.lrl();
            // Receive actions: all eligible messages, shuffled. The
            // outbox is flushed once per action *batch*, not per message.
            // Flushing consumes no RNG and mailbox pushes keep their
            // relative order, so every RNG draw and the per-message
            // delivery order match per-message flushing exactly — except
            // that a send to a *departed* destination now clears the
            // sender's dangling pointers after the whole batch ran
            // instead of between handlers. That reordering only exists
            // in churn rounds and is itself a valid atomic-action
            // schedule; `flush_equivalence` in the tests below pins both
            // halves of this claim against the per-message reference.
            if HOOKS {
                self.take_hooked(i, now, sample, &mut ph[1], &mut inbox);
            } else {
                let (mail, rng) = (&mut self.mail, &mut self.rng);
                mail.take_deliverable_into(i, now, self.policy, rng, false, &mut inbox);
            }
            if !inbox.is_empty() {
                stats.links_changed = true;
            }
            timed(sample, &mut ph[2], || {
                for &m in &inbox {
                    stats.count_delivered(m.kind());
                    let node = self.nodes[i].as_mut().expect("checked above");
                    node.on_message(m, &mut self.rng, &mut self.outbox);
                    if HOOKS {
                        // Cumulative send-count boundary: outbox sends
                        // up to here were emitted by the messages
                        // handled so far; `flush_outbox` resolves send
                        // index → handled message from these markers.
                        // Only worth keeping while a window collects.
                        if let Some(obs) = self.obs.as_mut().filter(|o| o.causal.active) {
                            obs.causal.bounds.push(self.outbox.sends().len());
                        }
                    }
                    #[cfg(test)]
                    if self.flush_per_message {
                        self.flush_outbox::<SCHED, HOOKS>(i, now, &mut stats);
                    }
                }
            });
            timed(sample, &mut ph[3], || {
                self.flush_outbox::<SCHED, HOOKS>(i, now, &mut stats);
            });
            // Regular action — skipped for settled nodes under ActiveSet:
            // the verified certificate says it could only re-send
            // fixpoint no-ops, and the lrl walk pauses by design (see
            // `crate::sched`). The handler rewrites link state without
            // emitting an event, so compare the link tuple around the
            // call for the dirty flag.
            if !(SCHED && self.sched.as_ref().is_some_and(|s| s.is_settled(i))) {
                let node = self.nodes[i].as_mut().expect("checked above");
                let links_before = (node.left(), node.right(), node.lrl(), node.ring());
                timed(sample, &mut ph[2], || node.on_regular(&mut self.outbox));
                if (node.left(), node.right(), node.lrl(), node.ring()) != links_before {
                    stats.links_changed = true;
                }
                timed(sample, &mut ph[3], || {
                    self.flush_outbox::<SCHED, HOOKS>(i, now, &mut stats);
                });
            }
            if SCHED {
                if let Some(sched) = self.sched.as_mut() {
                    let mail = !self.mail.is_empty(i);
                    let (nodes, index) = (&self.nodes, &self.index);
                    sched.finish_turn(nodes, index, i, turn_before, lrl_before, mail);
                }
            }
        }
        inbox.clear();
        self.inbox_buf = inbox;
        self.order_buf = order;
        // The round boundary: this round's sends become next round's
        // mail, behind whatever each node kept back.
        timed(sample, &mut ph[3], || self.mail.commit(now));

        #[expect(
            clippy::disallowed_methods,
            reason = "phase-timer sampling; feeds observability only"
        )]
        let t_stats = if sample {
            Some(std::time::Instant::now())
        } else {
            None
        };
        self.trace.push(stats);
        // Covers every write of the round, the round-start fault applier
        // included: whatever rewrites `l`/`r`/`ring` sets the flag.
        if stats.links_changed {
            self.sorted.set(SortedLevel::Stale);
        }
        let depth_max = if HOOKS {
            self.observe_round_end(sample, &stats)
        } else {
            0
        };
        if let Some(t0) = t_stats {
            ph[4] = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let [shuffle_ns, channel_ns, deliver_ns, flush_ns, stats_ns] = ph;
            self.emit(Event::Round {
                round: now,
                depth_max,
                stats,
                phases: PhaseTimes {
                    shuffle_ns,
                    channel_ns,
                    deliver_ns,
                    flush_ns,
                    stats_ns,
                },
            });
        }
        stats
    }

    /// The channel take of the `HOOKS` arms. Unobserved, it is the plain
    /// take.
    /// Observed, it hands out the same messages in the same order off
    /// the same RNG draws (see [`Mailbox::take_deliverable_into`]), with
    /// each message's enqueue round feeding the latency histograms and —
    /// while a cascade window is open — its cascade depth feeding the
    /// window's accounting; the channel-depth high-water mark is read
    /// before draining. Outside a window the take voids the channel's tags, so
    /// a later window sees whatever stayed queued as roots.
    fn take_hooked(
        &mut self,
        i: usize,
        now: u64,
        sample: bool,
        channel_ns: &mut u64,
        inbox: &mut Vec<Message>,
    ) {
        let (mail, policy, rng) = (&mut self.mail, self.policy, &mut self.rng);
        let Some(obs) = self.obs.as_mut() else {
            return mail.take_deliverable_into(i, now, policy, rng, false, inbox);
        };
        let depth = u64::try_from(mail.len(i)).unwrap_or(u64::MAX);
        obs.depth_round_max = obs.depth_round_max.max(depth);
        let (tracing, tagged) = (obs.causal.active, &mut obs.tagged);
        timed(sample, channel_ns, || {
            mail.take_deliverable_into(i, now, policy, rng, tracing, tagged);
        });
        inbox.clear();
        for &(m, enqueued, tag) in &obs.tagged {
            let lat = now.saturating_sub(enqueued);
            obs.latency_by_kind[m.kind().index()].record(lat);
            if tracing {
                obs.causal.on_delivery(tag, m.kind());
            }
            inbox.push(m);
        }
    }

    /// End-of-round observer bookkeeping (instrumented path only): the
    /// run totals and the depth high-water histogram every round, and on
    /// sampled rounds the lrl-length scan. Returns the round's depth
    /// high-water mark for the `Round` record. Reads state the loop
    /// already computed; touches no RNG.
    fn observe_round_end(&mut self, sample: bool, stats: &RoundStats) -> u64 {
        let Some(obs) = self.obs.as_mut() else {
            return 0;
        };
        obs.rounds += 1;
        obs.totals += stats;
        let depth_max = obs.depth_round_max;
        obs.depth.record(depth_max);
        obs.depth_round_max = 0;
        if !sample {
            return depth_max;
        }
        // lrl ring length: the circular rank distance from each node to
        // its token endpoint, 0 when the token sits at its origin. The
        // scan walks the index's sorted lane (ascending id order, always
        // current) and rank-resolves endpoints by binary search.
        let mut scratch = std::mem::take(&mut obs.lrl_scratch);
        scratch.clear();
        for &slot in self.index.sorted_slots() {
            if let Some(n) = &self.nodes[slot] {
                scratch.push((n.id(), n.lrl()));
            }
        }
        let n_live = scratch.len();
        let obs = self.obs.as_mut().expect("present above");
        for (rank_a, &(_, lrl)) in scratch.iter().enumerate() {
            if let Ok(rank_b) = scratch.binary_search_by_key(&lrl, |&(id, _)| id) {
                let d = rank_a.abs_diff(rank_b);
                obs.lrl_len
                    .record(u64::try_from(d.min(n_live - d)).unwrap_or(u64::MAX));
            }
        }
        scratch.clear();
        obs.lrl_scratch = scratch;
        depth_max
    }

    /// The part of Definition 4.17 beyond the sorted list, an O(1) read:
    /// the global extremes hold each other as ring edges (trivially so
    /// for fewer than two nodes).
    fn ring_closed(&self) -> bool {
        let [first, .., last] = self.index.sorted_slots() else {
            return true;
        };
        match (&self.nodes[*first], &self.nodes[*last]) {
            (Some(min), Some(max)) => min.ring() == Some(max.id()) && max.ring() == Some(min.id()),
            _ => false,
        }
    }

    /// The sorted level of the current state. Under full scan the cached
    /// level is re-evaluated only when a dirty round or a membership
    /// change voided it: the per-rank term of Definition 4.8
    /// ([`sched::misplaced`]) over the index's sorted lanes, stopping at
    /// the first misplaced node. Under [`ScheduleMode::ActiveSet`] the
    /// scheduler's running count of the same term answers in O(1).
    fn sorted_level(&self) -> SortedLevel {
        let Some(sched) = self.sched.as_ref() else {
            if self.sorted.get() == SortedLevel::Stale {
                let list = !(0..self.index.len())
                    .any(|rank| sched::misplaced(&self.nodes, &self.index, rank));
                self.sorted
                    .set(SortedLevel::of(list, || self.ring_closed()));
            }
            return self.sorted.get();
        };
        let level = SortedLevel::of(sched.is_sorted_list(), || self.ring_closed());
        // Tests build with debug assertions, so every sim test that asks
        // is a differential test of the counter's seams against the
        // definitions in `swn-core`.
        debug_assert_eq!(
            level,
            {
                let v = self.view();
                SortedLevel::of(is_sorted_list_view(&v), || is_sorted_ring_view(&v))
            },
            "misplaced-node counter disagrees with the definitions"
        );
        level
    }

    /// Definition 4.8 on the current state: LCP is the sorted list.
    /// Costs what [`is_sorted_ring`](Self::is_sorted_ring) costs.
    pub fn is_sorted_list(&self) -> bool {
        self.sorted_level() >= SortedLevel::List
    }

    /// Definition 4.17 on the current state: RCP is the sorted ring —
    /// the legitimacy predicate every driver steps towards.
    ///
    /// Under [`ScheduleMode::FullScan`] the answer is cached: a round
    /// whose [`links_changed`](RoundStats::links_changed) flag is clear
    /// provably preserves it, so only dirty rounds, [`insert_node`] and
    /// [`remove_node`] make the next call pay one O(n) walk of the sorted
    /// lanes (no allocation; it stops at the first misplaced node).
    ///
    /// Under [`ScheduleMode::ActiveSet`] every call is O(1): the
    /// scheduler counts the misplaced nodes at the seams that already
    /// re-verify settlement certificates (see [`crate::sched`]), and the
    /// ring closure is a read of the two extremes. Both modes are exact —
    /// they agree with `is_sorted_ring_view(&net.view())` on every state.
    ///
    /// [`insert_node`]: Self::insert_node
    /// [`remove_node`]: Self::remove_node
    pub fn is_sorted_ring(&self) -> bool {
        self.sorted_level() == SortedLevel::Ring
    }

    /// Runs exactly `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// A frozen copy of the global state (nodes + channel contents).
    pub fn snapshot(&self) -> Snapshot {
        let mut nodes = Vec::with_capacity(self.index.len());
        let mut channels = Vec::with_capacity(self.index.len());
        for i in self.index.slots_by_id() {
            if let Some(n) = &self.nodes[i] {
                nodes.push(n.clone());
                channels.push(self.mail.as_slice(i).to_vec());
            }
        }
        Snapshot::new(nodes, channels)
    }

    /// A borrowed view of the global state: `&Node`s in ascending id
    /// order plus each node's channel as a `&[Message]` slice. This is
    /// the zero-copy input to `classify_view`, `is_sorted_ring_view` and
    /// the convergence predicates — only two pointer vecs are allocated,
    /// never the state itself.
    pub fn view(&self) -> NetView<'_> {
        let mut nodes = Vec::with_capacity(self.index.len());
        let mut channels = Vec::with_capacity(self.index.len());
        for i in self.index.slots_by_id() {
            if let Some(n) = &self.nodes[i] {
                nodes.push(n);
                channels.push(self.mail.as_slice(i));
            }
        }
        NetView::new(nodes, channels)
    }

    /// Adds a node (churn: join). Returns false if the id already exists.
    ///
    /// # Panics
    /// Panics when the node carries an invalid [`ProtocolConfig`] — the
    /// same check [`Network::with_policy`] performs on the initial nodes,
    /// so churn joins cannot smuggle in configs the constructor rejects.
    ///
    /// [`ProtocolConfig`]: swn_core::config::ProtocolConfig
    pub fn insert_node(&mut self, node: Node) -> bool {
        node.config().validate().expect("invalid protocol config");
        let id = node.id();
        if self.index.contains(id) {
            return false;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s] = Some(node);
                self.mail.clear(s);
                s
            }
            None => {
                self.nodes.push(Some(node));
                self.mail.add_slot();
                self.nodes.len() - 1
            }
        };
        self.index.insert(id, slot);
        self.sorted.set(SortedLevel::Stale);
        if let Some(sched) = self.sched.as_mut() {
            sched.on_insert(&self.nodes, &self.index, id, slot);
        }
        true
    }

    /// Removes a node (churn: leave/crash). Its channel content vanishes
    /// with it; links pointing at it dangle until their owners detect the
    /// departure. Returns the removed node.
    ///
    /// Tracking state is kept consistent: if the departed node is the
    /// tracked id, tracking stops (its integration path is moot); if it
    /// was recorded as a forwarder, it is forgotten so the Theorem-4.24
    /// step count only ever counts live nodes.
    pub fn remove_node(&mut self, id: NodeId) -> Option<Node> {
        let slot = self.index.remove(id)?;
        self.sorted.set(SortedLevel::Stale);
        if self.tracked == Some(id) {
            self.track_id(None);
        }
        if let Some(f) = self.forwarders.get_mut(slot).filter(|f| **f) {
            *f = false;
            self.forwarder_count -= 1;
        }
        self.free.push(slot);
        self.mail.clear(slot);
        let node = self.nodes[slot].take();
        if let Some(sched) = self.sched.as_mut() {
            sched.on_remove(&self.nodes, &self.index, id, slot);
        }
        node
    }

    /// Sends `msg` to `dest` as an external input (e.g. a joining node's
    /// first announcement). Like [`preload`](Self::preload), each call
    /// commits the mailbox: O(messages in flight) whenever some are.
    pub fn send_external(&mut self, dest: NodeId, msg: Message) -> bool {
        if let Some(i) = self.index.get(dest) {
            self.mail.push(i, msg, CauseTag::ROOT);
            self.mail.commit(self.round);
            if let Some(sched) = self.sched.as_mut() {
                sched.schedule(i, dest);
            }
            true
        } else {
            false
        }
    }

    fn flush_outbox<const SCHED: bool, const HOOKS: bool>(
        &mut self,
        sender: usize,
        now: u64,
        stats: &mut RoundStats,
    ) {
        // Destructure to split the borrows: the send list stays borrowed
        // from the outbox while routing mutates mailbox/nodes — no
        // buffer swap, no copy of the sends.
        let Network {
            nodes,
            mail,
            index,
            outbox,
            tracked,
            forwarders,
            forwarder_count,
            obs,
            faults,
            sched,
            ..
        } = self;
        // In the arms without a hook group its hooks are constant `None`.
        let mut obs = obs.as_deref_mut().filter(|_| HOOKS);
        let mut faults = faults.as_deref_mut().filter(|_| HOOKS);
        let mut sched = sched.as_deref_mut().filter(|_| SCHED);
        let sender_id = nodes[sender].as_ref().map(Node::id);
        for ev in outbox.drain_events() {
            stats.count_event(&ev);
            if let (Some(o), ProtocolEvent::LrlForgotten { age }) = (obs.as_mut(), ev) {
                o.forget_age.record(age);
            }
        }
        // Causal attribution (observed with an open cascade window
        // only): send `k` of this flush belongs to the handled message
        // whose cumulative-send boundary covers it
        // (`CausalState::tag_for_send`); flushes with no boundaries
        // (regular actions, external inputs) tag everything as cascade
        // roots. Attribution is pure bookkeeping — no RNG, no effect on
        // routing — and outside a window every send is pushed as a root,
        // leaving the mailbox's tag lanes untouched.
        let mut causal = obs.map(|o| &mut o.causal).filter(|c| c.active);
        let mut cause_cursor = 0usize;
        for (k, &(dest, msg)) in outbox.sends().iter().enumerate() {
            stats.count_sent(msg.kind());
            if let Some(t) = *tracked {
                if msg.carried_ids().any(|x| x == t) {
                    stats.tracked_sent += 1;
                }
                if msg == Message::Lin(t) && sender_id.is_some_and(|id| id != t) {
                    forwarders.resize(nodes.len(), false);
                    if !std::mem::replace(&mut forwarders[sender], true) {
                        *forwarder_count += 1;
                    }
                }
            }
            let mut copies = 1;
            // The injector decides each send's fate with its own RNG
            // stream (consumed only inside active windows), so the
            // protocol RNG draws are untouched by any plan.
            if let (Some(inj), Some(src)) = (faults.as_mut(), sender_id) {
                match inj.fate(now, src, dest, msg) {
                    Fate::Deliver => {}
                    Fate::Drop => {
                        stats.dropped_fault += 1;
                        continue;
                    }
                    Fate::Duplicate => {
                        stats.duplicated_fault += 1;
                        copies = 2;
                    }
                }
            }
            let tag = match causal.as_mut() {
                Some(c) => c.tag_for_send(k, &mut cause_cursor),
                None => CauseTag::ROOT,
            };
            match index.get(dest) {
                Some(j) => {
                    for _ in 0..copies {
                        mail.push(j, msg, tag);
                    }
                    // Mail wakes its recipient: settled or not, the
                    // destination must run its receive action next round.
                    if let Some(s) = sched.as_mut() {
                        s.schedule(j, dest);
                    }
                }
                None => {
                    // The destination left the network: the sender applies
                    // the failure-detector rule (`Node::undeliverable`,
                    // DESIGN.md deviation #7) — dangling pointers cleared,
                    // a `lin` naming a *live* node handed back for
                    // reprocessing, anything else dropped. Only the latter
                    // counts as a drop.
                    stats.links_changed = true;
                    let mut bounced = false;
                    if let Some(node) = nodes[sender].as_mut() {
                        if let Some(back) = node.undeliverable(dest, msg, |x| index.contains(x)) {
                            // The bounce keeps its depth: the
                            // reprocessed copy continues the same
                            // chain, not a fresh root.
                            mail.push(sender, back, tag);
                            bounced = true;
                        }
                        // No wake here: this flush runs inside the
                        // sender's own turn, and `finish_turn` keeps the
                        // sender on the agenda while the bounce is queued
                        // or the dangling-pointer clear left it unsettled.
                    }
                    if bounced {
                        stats.bounced += 1;
                    } else {
                        stats.dropped_churn += 1;
                    }
                }
            }
        }
        // The batch's attribution scratch is spent; the next flush (the
        // regular action's) starts clean, so its sends are roots.
        if let Some(c) = causal {
            c.end_batch();
        }
        outbox.clear();
    }
}

/// Runs `f`, adding its wall-clock duration (nanoseconds, saturating) to
/// `acc` when `on` — the sampled phase timer of `step_impl`. With `on`
/// constant false (every arm of the round loop without `HOOKS`) this
/// inlines to a plain call.
#[inline]
fn timed<T>(on: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if on {
        #[expect(
            clippy::disallowed_methods,
            reason = "phase-timer sampling; feeds observability only"
        )]
        let t0 = std::time::Instant::now();
        let r = f();
        *acc = acc.saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        r
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::{drain_to_quiescence, run_to_ring};
    use crate::init::{generate, InitialTopology};
    use proptest::prelude::*;
    use rand::seq::SliceRandom as _;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::evenly_spaced_ids;
    use swn_core::invariants::make_sorted_ring;

    fn id(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    fn stable_net(n: usize, seed: u64) -> Network {
        let ids = evenly_spaced_ids(n);
        Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), seed)
    }

    #[test]
    fn stable_ring_stays_stable() {
        let mut net = stable_net(16, 1);
        assert!(is_sorted_ring_view(&net.view()));
        net.run(50);
        assert!(is_sorted_ring_view(&net.view()), "stability violated");
        assert_eq!(net.trace().since(0).probe_repairs, 0);
        assert_eq!(net.trace().since(0).dropped(), 0);
    }

    #[test]
    fn two_isolated_nodes_with_a_hint_linearize() {
        let cfg = ProtocolConfig::default();
        let a = Node::new(id(0.2), cfg);
        let b = Node::new(id(0.8), cfg);
        let mut net = Network::new(vec![a, b], 7);
        // One temporary link: a learns about b.
        net.preload(id(0.2), Message::Lin(id(0.8)));
        let done = run_to_ring(&mut net, 50);
        assert!(done.stabilized(), "2-node network failed to stabilize");
        let na = net.node(id(0.2)).unwrap();
        let nb = net.node(id(0.8)).unwrap();
        assert_eq!(na.right().fin(), Some(id(0.8)));
        assert_eq!(nb.left().fin(), Some(id(0.2)));
        assert_eq!(na.ring(), Some(id(0.8)));
        assert_eq!(nb.ring(), Some(id(0.2)));
    }

    #[test]
    fn determinism_same_seed_same_computation() {
        let run = |seed: u64| {
            let mut net = stable_net(12, seed);
            net.run(30);
            let s = net.snapshot();
            let lrls: Vec<_> = s.nodes().iter().map(swn_core::node::Node::lrl).collect();
            (net.trace().since(0).total_sent(), lrls)
        };
        assert_eq!(run(42), run(42));
        // Different seed: lrl random walks diverge with overwhelming
        // probability on 12 nodes over 30 rounds.
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn view_matches_snapshot() {
        let mut net = stable_net(8, 2);
        net.run(3);
        let s = net.snapshot();
        let (v, sv) = (net.view(), s.as_view());
        assert_eq!(v.len(), s.len());
        for rank in 0..v.len() {
            assert_eq!(v.node(rank), sv.node(rank));
            assert_eq!(v.channel(rank), sv.channel(rank));
        }
    }

    #[test]
    fn insert_and_remove_nodes() {
        let mut net = stable_net(4, 1);
        assert_eq!(net.len(), 4);
        let newcomer = Node::new(id(0.33), ProtocolConfig::default());
        assert!(net.insert_node(newcomer));
        assert!(!net.insert_node(Node::new(id(0.33), ProtocolConfig::default())));
        assert_eq!(net.len(), 5);
        assert!(net.remove_node(id(0.33)).is_some());
        assert!(net.remove_node(id(0.33)).is_none());
        assert_eq!(net.len(), 4);
        // Slot is recycled.
        assert!(net.insert_node(Node::new(id(0.44), ProtocolConfig::default())));
        assert_eq!(net.len(), 5);
    }

    #[test]
    fn messages_to_departed_nodes_bounce_back_to_their_sender() {
        let mut net = stable_net(8, 3);
        let victims = net.ids();
        let victim = victims[3];
        net.remove_node(victim);
        net.run(3);
        // The interior victim's neighbours keep sending `lin` messages
        // naming themselves (live), so those bounce — they are not drops.
        assert!(net.trace().since(0).bounced > 0, "lin to departed bounces");
    }

    #[test]
    fn bounces_and_true_drops_are_counted_separately() {
        let mut net = stable_net(8, 3);
        let max = *net.ids().last().unwrap();
        net.remove_node(max);
        net.run(3);
        // The min node's `ring` message to the departed max is a true
        // drop (its payload is stored at the responder); the max's left
        // neighbour's `lin` naming itself bounces.
        assert!(
            net.trace().since(0).dropped() > 0,
            "ring messages to the departed max are dropped"
        );
        assert!(
            net.trace().since(0).bounced > 0,
            "lin messages to the departed max bounce"
        );
    }

    #[test]
    fn message_counting_matches_kinds() {
        let mut net = stable_net(8, 3);
        net.run(5);
        let sent = net.trace().since(0).sent;
        let of = |kind: swn_core::message::MessageKind| sent[kind.index()];
        // Every round every interior node sends 2 lin, extremes 1 lin +
        // 1 ring, everyone 1 inclrl.
        assert!(of(swn_core::message::MessageKind::IncLrl) >= 8 * 5);
        assert!(of(swn_core::message::MessageKind::Lin) > 0);
        assert!(of(swn_core::message::MessageKind::Ring) > 0);
    }

    #[test]
    fn random_delay_policy_still_stabilizes_small_net() {
        let cfg = ProtocolConfig::default();
        let a = Node::new(id(0.2), cfg);
        let b = Node::new(id(0.5), cfg);
        let c = Node::new(id(0.8), cfg);
        let mut net = Network::with_policy(
            vec![a, b, c],
            11,
            DeliveryPolicy::RandomDelay {
                p_deliver: 0.3,
                max_delay: 5,
            },
        );
        net.preload(id(0.2), Message::Lin(id(0.5)));
        net.preload(id(0.5), Message::Lin(id(0.8)));
        let done = run_to_ring(&mut net, 300);
        assert!(done.stabilized(), "failed to stabilize under random delay");
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_ids_rejected() {
        let cfg = ProtocolConfig::default();
        let _ = Network::new(vec![Node::new(id(0.5), cfg), Node::new(id(0.5), cfg)], 1);
    }

    #[test]
    #[should_panic(expected = "invalid protocol config")]
    fn insert_node_rejects_invalid_config() {
        let mut net = stable_net(4, 1);
        let bad = ProtocolConfig {
            probe_period: 0,
            ..ProtocolConfig::default()
        };
        let _ = net.insert_node(Node::new(id(0.33), bad));
    }

    #[test]
    fn remove_node_clears_stale_tracking_state() {
        // A tracked id travels through forwarders; when a forwarder
        // departs it must leave the forwarder set, and when the tracked
        // node itself departs tracking must stop entirely.
        let mut net = stable_net(8, 5);
        let ids = net.ids();
        let joiner = id(0.0001); // sorts before every existing node
        assert!(net.insert_node(Node::new(joiner, ProtocolConfig::default())));
        net.track_id(Some(joiner));
        net.send_external(ids[7], Message::Lin(joiner));
        net.run(6);
        let before = net.tracked_forwarder_count();
        assert!(before > 0, "the joiner's id should have been forwarded");
        // Remove every original node: recorded forwarders must drop out
        // of the count rather than keep counting departed nodes.
        for fid in ids {
            net.remove_node(fid);
        }
        assert_eq!(
            net.tracked_forwarder_count(),
            0,
            "departed forwarders must not linger in the step count"
        );
    }

    #[test]
    fn a_newcomer_in_a_forwarders_slot_starts_unmarked() {
        let cfg = ProtocolConfig::default();
        let mut net = stable_net(8, 5);
        let ids = net.ids();
        let joiner = id(0.0001);
        assert!(net.insert_node(Node::new(joiner, cfg)));
        net.track_id(Some(joiner));
        // The announcement lands at the maximum, which routes it left.
        net.send_external(ids[7], Message::Lin(joiner));
        net.run(2);
        let before = net.tracked_forwarder_count();
        assert!(before > 0, "the joiner's id should have been forwarded");
        let slot = net.index.get(ids[7]).expect("live");
        net.remove_node(ids[7]);
        assert_eq!(net.tracked_forwarder_count(), before - 1);
        assert!(net.insert_node(Node::new(id(0.99), cfg)));
        assert_eq!(net.index.get(id(0.99)), Some(slot), "the slot is reused");
        assert_eq!(
            net.tracked_forwarder_count(),
            before - 1,
            "the newcomer must not inherit the departed forwarder's mark"
        );
        net.track_id(None);
        assert_eq!(net.tracked_forwarder_count(), 0);
    }

    #[test]
    fn removing_the_tracked_node_stops_tracking() {
        let mut net = stable_net(8, 5);
        let ids = net.ids();
        let joiner = id(0.0001);
        assert!(net.insert_node(Node::new(joiner, ProtocolConfig::default())));
        net.track_id(Some(joiner));
        net.send_external(ids[7], Message::Lin(joiner));
        net.run(2);
        // The tracked node departs while its id is still circulating in
        // `lin` messages; a stale `tracked` would keep counting them.
        net.remove_node(joiner);
        let rounds_before = net.trace().len();
        net.run(4);
        assert_eq!(net.tracked_forwarder_count(), 0);
        let tracked_after: u64 = net.trace().rounds()[rounds_before..]
            .iter()
            .map(|r| r.tracked_sent)
            .sum();
        assert_eq!(tracked_after, 0, "tracking must stop with the node");
    }

    /// Everything the engine computes, as one comparable string: every
    /// node's variables (ascending id order), its channel contents in
    /// queue order, and the full per-round trace.
    fn fingerprint(net: &Network) -> String {
        use std::fmt::Write as _;
        let v = net.view();
        let mut s = String::new();
        for (rank, n) in v.nodes().iter().enumerate() {
            let _ = write!(
                s,
                "{:?} l={:?} r={:?} lrl={:?} ring={:?} age={} pt={} ch={:?};",
                n.id(),
                n.left(),
                n.right(),
                n.lrl(),
                n.ring(),
                n.age(),
                n.probe_tick(),
                v.channel(rank),
            );
        }
        let _ = write!(s, "trace={:?}", net.trace().rounds());
        s
    }

    // The flush-equivalence property behind the batched outbox flush
    // (see `step_impl` and DESIGN.md §8). Two halves:
    //
    // 1. Without churn, batched flushing is *bit-for-bit* identical to
    //    the per-message reference: same RNG draws, same delivery order,
    //    same per-round stats, same final state.
    // 2. Under churn the two engines may schedule departure detection
    //    differently (batched detection runs after the whole receive
    //    batch), but both remain valid executions: each reconverges to
    //    the unique sorted ring over the surviving ids.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn flush_equivalence_bit_for_bit_without_churn(
            n in 4usize..14,
            seed in 0u64..500,
            rounds in 1u64..30,
        ) {
            let ids = evenly_spaced_ids(n);
            let fresh = || {
                generate(
                    InitialTopology::RandomSparse { extra: 2 },
                    &ids,
                    ProtocolConfig::default(),
                    seed,
                )
                .into_network(seed)
            };
            let mut batched = fresh();
            let mut reference = fresh();
            for _ in 0..rounds {
                let a = batched.step();
                let b = reference.step_reference();
                prop_assert_eq!(a, b, "per-round stats diverged");
            }
            prop_assert_eq!(fingerprint(&batched), fingerprint(&reference));
        }

        #[test]
        fn flush_equivalence_semantic_under_churn(
            n in 6usize..14,
            seed in 0u64..500,
            warmup in 1u64..12,
            victim_rank in 1usize..5,
        ) {
            let ids = evenly_spaced_ids(n);
            let fresh = || Network::new(make_sorted_ring(&ids, ProtocolConfig::default()), seed);
            let mut batched = fresh();
            let mut reference = fresh();
            for _ in 0..warmup {
                batched.step();
                reference.step_reference();
            }
            let victim = batched.ids()[victim_rank];
            prop_assert!(batched.remove_node(victim).is_some());
            prop_assert!(reference.remove_node(victim).is_some());
            let mut ring_batched = false;
            let mut ring_reference = false;
            for _ in 0..3000 {
                if is_sorted_ring_view(&batched.view()) {
                    ring_batched = true;
                    break;
                }
                batched.step();
            }
            for _ in 0..3000 {
                if is_sorted_ring_view(&reference.view()) {
                    ring_reference = true;
                    break;
                }
                reference.step_reference();
            }
            prop_assert!(ring_batched, "batched engine failed to re-stabilize");
            prop_assert!(ring_reference, "reference engine failed to re-stabilize");
            // The sorted ring over a fixed id set is unique in its
            // list pointers (and the predicate already pins the ring
            // edges at the extremes; interior `ring` values are
            // unconstrained leftovers), so both engines agree on every
            // structural pointer.
            let structure = |net: &Network| -> Vec<_> {
                net.view()
                    .nodes()
                    .iter()
                    .map(|p| (p.id(), p.left(), p.right()))
                    .collect()
            };
            prop_assert_eq!(structure(&batched), structure(&reference));
        }
    }

    /// The run the hook-neutrality tests replay: a random sparse start,
    /// 40 rounds, a leave (churn keeps the general channel path and the
    /// bounce/drop routing in play), 40 more rounds — with any subset of
    /// the three round hooks attached.
    fn hooked_run(sink: Option<Box<dyn Sink>>, empty_plan: bool, mode: ScheduleMode) -> String {
        let mut net = sparse_net(DeliveryPolicy::Immediate);
        net.set_schedule_mode(mode);
        if let Some(sink) = sink {
            net.attach_sink(sink, 1);
        }
        if empty_plan {
            net.attach_faults(crate::faults::FaultPlan::new(123));
        }
        churn_run(net)
    }

    fn sparse_net(policy: DeliveryPolicy) -> Network {
        let ids = evenly_spaced_ids(12);
        generate(
            InitialTopology::RandomSparse { extra: 2 },
            &ids,
            ProtocolConfig::default(),
            9,
        )
        .into_network_with_policy(9, policy)
    }

    fn churn_run(mut net: Network) -> String {
        net.run(40);
        let victim = net.ids()[5];
        net.remove_node(victim);
        net.run(40);
        fingerprint(&net)
    }

    #[test]
    fn turn_order_ignores_slot_layout() {
        // Turns run in ascending id order whatever slot each node sits
        // in: a ring built in id order and the same ring built in seeded
        // random slots compute the same round for round.
        let nodes = make_sorted_ring(&evenly_spaced_ids(24), ProtocolConfig::default());
        let mut scattered = nodes.clone();
        scattered.shuffle(&mut StdRng::seed_from_u64(7));
        for mode in [ScheduleMode::FullScan, ScheduleMode::ActiveSet] {
            let run = |nodes: Vec<Node>| {
                let mut net = Network::new(nodes, 7);
                net.set_schedule_mode(mode);
                net.run(20);
                fingerprint(&net)
            };
            assert_eq!(run(nodes.clone()), run(scattered.clone()), "{mode:?}");
        }
    }

    #[test]
    fn attached_sink_never_perturbs_the_computation() {
        // The determinism contract of the observability layer: a network
        // observed at the maximal sampling rate computes bit-for-bit the
        // same states, trace and RNG stream as an unobserved one.
        let (sink, _records) = crate::obs::flight::FlightRecorder::new(1 << 20);
        assert_eq!(
            hooked_run(None, false, ScheduleMode::FullScan),
            hooked_run(Some(Box::new(sink)), false, ScheduleMode::FullScan)
        );
    }

    #[test]
    fn empty_fault_plan_never_perturbs_the_computation() {
        // The determinism contract of the fault layer: an attached but
        // empty plan consumes no injector RNG and touches no state, so
        // the computation (including churn rounds) is bit-for-bit the
        // fault-free one.
        assert_eq!(
            hooked_run(None, false, ScheduleMode::FullScan),
            hooked_run(None, true, ScheduleMode::FullScan)
        );
        // A sink and an empty plan on top of the scheduler change nothing
        // either: the `SCHED, HOOKS` arm replays the scheduler-only one.
        assert_eq!(
            hooked_run(None, false, ScheduleMode::ActiveSet),
            hooked_run(
                Some(Box::new(crate::obs::NoopSink)),
                true,
                ScheduleMode::ActiveSet
            )
        );
    }

    /// A seeded run of `churn::join`s and `churn::leave_random`s on a
    /// stable ring under `mode`, fingerprinted after every event; with
    /// `empty_plan` an empty fault plan is attached throughout.
    fn churn_events_run(mode: ScheduleMode, empty_plan: bool) -> Vec<String> {
        use rand::RngExt as _;
        let mut net = crate::churn::stable_network(24, ProtocolConfig::default(), 17, 30);
        net.set_schedule_mode(mode);
        if empty_plan {
            net.attach_faults(crate::faults::FaultPlan::new(5));
        }
        let mut rng = StdRng::seed_from_u64(17);
        let mut prints = Vec::new();
        for event in 0..8u64 {
            if event % 2 == 0 {
                let new_id = NodeId::from_bits(rng.random());
                let ids = net.ids();
                let contact = ids[rng.random_range(0..ids.len())];
                let report = crate::churn::join(&mut net, new_id, contact, 3000);
                assert!(report.recovered(), "join {event} under {mode:?}");
            } else {
                let (_, report) = crate::churn::leave_random(&mut net, event, 3000);
                assert!(report.recovered(), "leave {event} under {mode:?}");
            }
            net.run(5);
            prints.push(fingerprint(&net));
        }
        prints
    }

    #[test]
    fn hook_free_arms_match_the_hooked_arms_through_churn() {
        // Bare, the active set runs in the scheduler-only arm of the round
        // loop and full scan in the plain one; with an empty plan attached
        // each runs in its `HOOKS` arm. Joins and leaves take the insert,
        // remove, bounce and drop seams of both arms, and every event's
        // state, channels and trace must come out the same.
        for mode in [ScheduleMode::ActiveSet, ScheduleMode::FullScan] {
            let (bare, hooked) = (churn_events_run(mode, false), churn_events_run(mode, true));
            for (k, (b, h)) in bare.iter().zip(&hooked).enumerate() {
                assert_eq!(b, h, "{mode:?}: diverged by churn event {k}");
            }
        }
    }

    #[test]
    fn fault_injector_attach_detach_roundtrip() {
        let mut net = stable_net(6, 2);
        assert!(net.fault_injector().is_none());
        assert!(net.detach_faults().is_none());
        net.attach_faults(crate::faults::FaultPlan::new(1).with_drop(1, 3, 1.0));
        assert!(net.fault_injector().is_some());
        net.run(4);
        assert!(net.trace().since(0).dropped_fault > 0);
        let inj = net.detach_faults().expect("was attached");
        assert!(!inj.drops().is_empty());
        assert!(net.fault_injector().is_none());
        // Detached again, rounds are fault-free.
        let before = net.trace().since(0).dropped_fault;
        net.run(4);
        assert_eq!(net.trace().since(0).dropped_fault, before);
    }

    #[test]
    fn duplication_window_enqueues_extra_copies() {
        let mut net = stable_net(8, 5);
        net.attach_faults(crate::faults::FaultPlan::new(4).with_duplicate(1, 6, 1.0));
        net.run(10);
        let t = net.trace().since(0);
        let dup = t.duplicated_fault;
        assert!(dup > 0, "a p=1 window must duplicate every send");
        // Immediate policy on a stable ring: every copy sent in round r
        // is delivered in r+1, so over the run delivered = sent + dup
        // minus the last round's still-in-flight mail.
        let in_flight = net.trace().rounds().last().expect("ran").total_sent();
        assert_eq!(t.total_delivered(), t.total_sent() + dup - in_flight);
        // Duplicates never disturb a stable ring (delivery is idempotent
        // on sorted state).
        assert!(is_sorted_ring_view(&net.view()));
    }

    #[test]
    fn sink_receives_meta_rounds_phases_and_summary() {
        use crate::obs::{flight::FlightRecorder, Event};
        let mut net = stable_net(8, 4);
        let (sink, records) = FlightRecorder::new(1 << 20);
        net.attach_sink(Box::new(sink), 4);
        assert!(net.has_sink());
        net.run(12);
        assert!(net.detach_sink().is_some());
        assert!(!net.has_sink());
        assert!(net.detach_sink().is_none(), "second detach is a no-op");
        let recs = records.lock().unwrap();
        assert!(
            recs.iter().all(|r| r.v == crate::obs::SCHEMA_VERSION),
            "every record is schema-tagged"
        );
        let meta = recs.first().expect("records present");
        assert!(
            matches!(meta.event, Event::RunMeta { n: 8, seed: 4, .. }),
            "first record is RunMeta: {meta:?}"
        );
        // sample_every = 4 over rounds 1..=12 → rounds 4, 8, 12 sampled,
        // one record each: RunMeta, three Rounds, Summary.
        assert_eq!(recs.len(), 5);
        let rounds: Vec<u64> = recs
            .iter()
            .filter_map(|r| match &r.event {
                Event::Round { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(rounds, vec![4, 8, 12]);
        match &recs.last().expect("records present").event {
            Event::Summary {
                rounds,
                totals,
                latency_by_kind,
                depth,
                lrl_len,
                ..
            } => {
                assert_eq!(*rounds, 12);
                assert_eq!(*totals, net.trace().since(0));
                // Immediate policy: every message delivered in the next
                // round, latency exactly 1; depth high-waters observed
                // every round; lrl lengths sampled on sampled rounds.
                let mut latency = crate::obs::Histogram::new();
                for h in latency_by_kind {
                    latency.merge(h);
                }
                assert_eq!(latency.count(), totals.total_delivered());
                assert_eq!(latency.max(), 1);
                assert_eq!(depth.count(), 12);
                assert!(depth.max() >= 1);
                assert_eq!(lrl_len.count(), 3 * 8, "8 nodes per sampled round");
            }
            other => panic!("last record must be Summary, got {other:?}"),
        }
        // Emitting without a sink is a silent no-op.
        net.emit(Event::Transition {
            round: 1,
            phase: "lcc".to_string(),
        });
    }

    #[test]
    fn forget_ages_reach_the_observer_histogram() {
        use crate::obs::{flight::FlightRecorder, Event};
        // A warmed stable ring keeps moving and forgetting its tokens, so
        // a long observed window must see forget events, and the
        // histogram must agree with the trace counters over that window.
        let mut net = stable_net(16, 11);
        net.run(50);
        let start = net.trace().len();
        let (sink, records) = FlightRecorder::new(1 << 20);
        net.attach_sink(Box::new(sink), 64);
        net.run(400);
        net.detach_sink();
        let forgets: u64 = net.trace().rounds()[start..]
            .iter()
            .map(|r| r.lrl_forgets)
            .sum();
        assert!(forgets > 0, "no forget events in 400 stable rounds");
        let recs = records.lock().unwrap();
        let Some(Event::Summary {
            rounds,
            totals,
            depth,
            forget_age: forget_hist,
            ..
        }) = recs.last().map(|r| &r.event)
        else {
            panic!("summary present");
        };
        // The totals cover exactly the rounds the sink observed, as the
        // histograms do, not the unobserved warm-up before the attach.
        assert_eq!(*rounds, 400);
        let observed: u64 = net.trace().rounds()[start..]
            .iter()
            .map(RoundStats::total_sent)
            .sum();
        assert_eq!(totals.total_sent(), observed);
        assert_eq!(*totals, net.trace().since(start));
        assert_eq!(depth.count(), 400);
        assert_eq!(forget_hist.count(), forgets);
        assert_eq!(forget_hist.max(), totals.forget_age_max);
        assert_eq!(forget_hist.sum(), totals.forget_age_sum);
    }

    /// The rows folded field by field, without `AddAssign` — the oracle
    /// for `Trace::since` and the observer's `Summary` totals.
    fn fold_rows(rows: &[RoundStats]) -> RoundStats {
        let sum = |f: fn(&RoundStats) -> u64| rows.iter().map(f).sum();
        let mut sent = [0; swn_core::message::MessageKind::COUNT];
        let mut delivered = sent;
        for r in rows {
            for (acc, v) in sent.iter_mut().zip(r.sent) {
                *acc += v;
            }
            for (acc, v) in delivered.iter_mut().zip(r.delivered) {
                *acc += v;
            }
        }
        RoundStats {
            sent,
            delivered,
            dropped_churn: sum(|r| r.dropped_churn),
            dropped_fault: sum(|r| r.dropped_fault),
            duplicated_fault: sum(|r| r.duplicated_fault),
            erased_fault: sum(|r| r.erased_fault),
            bounced: sum(|r| r.bounced),
            links_changed: rows.iter().any(|r| r.links_changed),
            probe_repairs: sum(|r| r.probe_repairs),
            lrl_forgets: sum(|r| r.lrl_forgets),
            forget_age_sum: sum(|r| r.forget_age_sum),
            forget_age_max: rows.iter().map(|r| r.forget_age_max).max().unwrap_or(0),
            tracked_sent: sum(|r| r.tracked_sent),
        }
    }

    #[test]
    fn one_round_record_feeds_trace_sink_and_summary() {
        use crate::obs::{flight::FlightRecorder, Event};
        // A faulted churn run observed from round 11 on: the trace's
        // window sums, the sampled `Round` records and the `Summary`
        // totals must all be the same per-round rows.
        let mut net = stable_net(16, 21);
        net.run(10);
        let attached = net.trace().len();
        let (sink, records) = FlightRecorder::new(1 << 20);
        net.attach_sink(Box::new(sink), 3);
        let ids = net.ids();
        net.track_id(Some(ids[7]));
        let start = net.round() + 1;
        net.attach_faults(
            crate::faults::FaultPlan::new(5)
                .with_drop(start, start + 20, 0.2)
                .with_duplicate(start, start + 20, 0.2)
                .with_perturbation(start + 1, 2)
                .with_crash(start + 2, ids[4], 6),
        );
        net.run(15);
        net.remove_node(ids[9]);
        assert!(net.insert_node(Node::new(id(0.515), ProtocolConfig::default())));
        net.run(25);
        net.detach_faults();
        net.detach_sink();

        let t = net.trace();
        let rows = t.rounds();
        for k in [0, 1, attached, rows.len() / 2, rows.len() - 1, rows.len()] {
            assert_eq!(t.since(k), fold_rows(&rows[k..]), "since({k})");
        }
        let all = t.since(0);
        assert!(all.dropped_fault > 0 && all.duplicated_fault > 0 && all.erased_fault > 0);
        assert!(all.tracked_sent > 0);
        assert!(all.bounced + all.dropped_churn > 0, "the departure shows");

        let recs = records.lock().unwrap();
        let mut sampled = Vec::new();
        let mut summaries = 0;
        for rec in recs.iter() {
            match &rec.event {
                Event::Round { round, stats, .. } => {
                    let row = usize::try_from(*round).expect("fits") - 1;
                    assert_eq!(*stats, rows[row], "round {round}");
                    sampled.push(*round);
                }
                Event::Summary { rounds, totals, .. } => {
                    summaries += 1;
                    assert_eq!(*rounds, 40);
                    assert_eq!(*totals, fold_rows(&rows[attached..]));
                }
                _ => {}
            }
        }
        assert_eq!(summaries, 1);
        let expected: Vec<u64> = (11..=50).filter(|r| r % 3 == 0).collect();
        assert_eq!(sampled, expected, "one Round record per sampled round");
    }

    #[test]
    fn cascade_window_reports_repair_shape_after_churn() {
        let mut net = stable_net(10, 6);
        let (sink, _records) = crate::obs::flight::FlightRecorder::new(1 << 20);
        net.attach_sink(Box::new(sink), 8);
        net.run(5);
        net.cascade_begin();
        let victim = net.ids()[4];
        net.remove_node(victim);
        net.run(30);
        let rep = net.cascade_take().expect("sink attached");
        assert_eq!(rep.start, 5);
        assert_eq!(rep.end, 35);
        assert!(rep.delivered() > 0);
        assert!(rep.stats.roots > 0, "regular actions seed cascade roots");
        assert!(rep.stats.edges > 0, "receive handlers cause further sends");
        assert!(rep.depth_max() >= 1, "repairs chain at least once");
        assert!(rep.stats.width_max() >= 1);
        assert_eq!(
            rep.delivered(),
            rep.stats.roots + rep.stats.edges,
            "every delivery is a root or an edge"
        );
        let handled: u64 = rep.stats.handled_by_kind.iter().sum();
        assert_eq!(handled, rep.delivered());
        // The window reset: a fresh window starts empty.
        let rep2 = net.cascade_take().expect("sink still attached");
        assert_eq!(rep2.delivered(), 0);
        // Without a sink the window API is inert.
        net.detach_sink();
        assert!(net.cascade_take().is_none());
        net.cascade_begin();
    }

    /// Steps until the agenda is empty (panics after `max` rounds).
    fn drain(net: &mut Network, max: u64) -> u64 {
        for k in 0..=max {
            if net.is_quiescent() {
                return k;
            }
            net.step();
        }
        panic!("network failed to drain within {max} rounds");
    }

    #[test]
    fn active_set_stable_ring_reaches_quiescence() {
        let mut net = stable_net(16, 1);
        assert!(!net.is_quiescent(), "full scan is never quiescent");
        net.set_schedule_mode(crate::sched::ScheduleMode::ActiveSet);
        assert_eq!(net.active_count(), 16, "everything starts scheduled");
        let rounds = drain(&mut net, 50);
        assert!(rounds > 0, "certificates take at least one round to earn");
        assert_eq!(net.active_count(), 0);
        assert!(is_sorted_ring_view(&net.view()));
        // Back to full scan: never quiescent, every node active.
        net.set_schedule_mode(crate::sched::ScheduleMode::FullScan);
        assert!(!net.is_quiescent());
        assert_eq!(net.active_count(), 16);
    }

    #[test]
    fn active_set_join_of_new_global_max_reintegrates() {
        // The freeze-risk path: a quiescent ring, then a join that
        // dethrones the settled global maximum. The insert hook must
        // unsettle the old extremes eagerly or the seam never moves.
        let mut net = stable_net(8, 3);
        net.set_schedule_mode(crate::sched::ScheduleMode::ActiveSet);
        drain(&mut net, 50);
        let joiner = NodeId::from_bits(u64::MAX - 7); // beyond every id
        assert!(net.insert_node(Node::new(joiner, ProtocolConfig::default())));
        let contact = net.ids()[0];
        net.send_external(contact, Message::Lin(joiner));
        assert!(!net.is_quiescent(), "the join must wake the network");
        let done = run_to_ring(&mut net, 3000);
        assert!(done.stabilized(), "new maximum failed to integrate");
        drain(&mut net, 200);
        let max = *net.ids().last().unwrap();
        assert_eq!(max, joiner);
        let min = net.ids()[0];
        assert_eq!(net.node(min).unwrap().ring(), Some(joiner));
        assert_eq!(net.node(joiner).unwrap().ring(), Some(min));
    }

    #[test]
    fn active_set_leave_of_settled_interior_node_recovers() {
        let mut net = stable_net(10, 4);
        net.set_schedule_mode(crate::sched::ScheduleMode::ActiveSet);
        drain(&mut net, 50);
        let victim = net.ids()[4];
        assert!(net.remove_node(victim).is_some());
        assert!(
            !net.is_quiescent(),
            "the victim's reciprocal neighbours must wake"
        );
        let done = run_to_ring(&mut net, 3000);
        assert!(done.stabilized(), "ring failed to close over the gap");
        drain(&mut net, 200);
        assert_eq!(net.len(), 9);
    }

    #[test]
    fn bare_leave_bounces_are_rescheduled_by_the_senders_turn() {
        // `remove_node` without `churn::leave`'s rewrite: the departed
        // id's holders keep it and send to it, so `flush_outbox` bounces
        // their `lin`s and clears their dangling pointers. Nothing there
        // wakes the sender; its own `finish_turn` must keep it on the
        // agenda, in the scheduler-only arm and in its `HOOKS` arm alike.
        let ids = evenly_spaced_ids(16);
        let victim = ids[7];
        let settled = |empty_plan: bool| {
            let mut net = stable_net(16, 6);
            net.set_schedule_mode(crate::sched::ScheduleMode::ActiveSet);
            if empty_plan {
                net.attach_faults(FaultPlan::new(6));
            }
            drain(&mut net, 100);
            assert!(net.remove_node(victim).is_some());
            net
        };
        let (mut bare, mut hooked) = (settled(false), settled(true));
        let mut bounced = 0;
        for round in 0.. {
            assert!(round < 3000, "ring failed to close over the gap");
            if bare.is_sorted_ring() {
                break;
            }
            bounced += bare.step().bounced;
            hooked.step();
            assert_eq!(fingerprint(&bare), fingerprint(&hooked), "round {round}");
        }
        assert!(bounced > 0, "holders of the departed id must bounce");
        // The fingerprint carries the whole trace, so equal drains agree
        // round for round.
        let drained = drain_to_quiescence(&mut bare, 3000).expect("bare arm drains");
        assert_eq!(drain_to_quiescence(&mut hooked, 3000), Some(drained));
        assert_eq!(fingerprint(&bare), fingerprint(&hooked));
        let mut full = stable_net(16, 6);
        assert!(full.remove_node(victim).is_some());
        assert!(run_to_ring(&mut full, 3000).stabilized());
        let links = |net: &Network| -> Vec<sched::TurnLinks> {
            let v = net.view();
            v.nodes()
                .iter()
                .map(|n| (n.left(), n.right(), n.ring()))
                .collect()
        };
        assert_eq!(links(&bare), links(&full));
    }

    #[test]
    fn a_settled_senders_bounce_keeps_it_on_the_agenda() {
        // A settled node that adopted a departed id as its lrl (as a
        // `res_lrl` in flight can hand it one) forwards a `lin` over that
        // lrl: the send bounces, the clear resets only the lrl, which no
        // certificate reads, and the node stays settled with the regular
        // action skipped. Only the queued bounce (`finish_turn`'s mail
        // flag) can bring it back to the agenda.
        let ids = evenly_spaced_ids(16);
        let (p, victim, x) = (ids[2], ids[8], ids[12]);
        let mut net = stable_net(16, 6);
        net.set_schedule_mode(crate::sched::ScheduleMode::ActiveSet);
        assert!(net.remove_node(victim).is_some());
        drain(&mut net, 3000);
        let slot = net.index.get(p).expect("live");
        let n = net.nodes[slot].as_ref().expect("live");
        let adopted = Node::with_state(p, n.left(), n.right(), victim, n.ring(), *n.config());
        net.nodes[slot] = Some(adopted);
        assert!(net.send_external(p, Message::Lin(x)));
        let mut bounced = 0;
        for _ in 0..3000 {
            if net.is_quiescent() {
                break;
            }
            bounced += net.step().bounced;
        }
        assert!(net.is_quiescent());
        assert_eq!(bounced, 1, "the lin over the dead lrl bounces once");
        let v = net.view();
        let stranded = (0..v.nodes().len()).filter(|&rank| !v.channel(rank).is_empty());
        assert_eq!(
            stranded.count(),
            0,
            "a bounce was left on a node the agenda dropped"
        );
        assert!(net.is_sorted_ring());
    }

    #[test]
    fn active_set_leave_of_global_extreme_recovers() {
        // Removing the maximum breaks both seam certificates (the min's
        // ring pairing and the new max's PosInf claim).
        let mut net = stable_net(10, 5);
        net.set_schedule_mode(crate::sched::ScheduleMode::ActiveSet);
        drain(&mut net, 50);
        let max = *net.ids().last().unwrap();
        assert!(net.remove_node(max).is_some());
        let done = run_to_ring(&mut net, 3000);
        assert!(done.stabilized(), "seam failed to re-close");
        drain(&mut net, 200);
        let min = net.ids()[0];
        let new_max = *net.ids().last().unwrap();
        assert_eq!(net.node(min).unwrap().ring(), Some(new_max));
        assert_eq!(net.node(new_max).unwrap().ring(), Some(min));
    }

    #[test]
    fn clean_rounds_report_links_unchanged() {
        // A stable ring under Immediate policy still delivers messages
        // every round (dirty), but a network whose channels have drained
        // and whose nodes only re-send stored ids is clean.
        let mut net = stable_net(6, 2);
        net.run(10);
        let last = net.trace().rounds().last().unwrap();
        assert!(
            last.links_changed,
            "immediate-policy rounds deliver messages, hence dirty"
        );
        // Single node: sends go nowhere new, state never changes, first
        // round delivers nothing — the round must be clean.
        let mut solo = Network::new(make_sorted_ring(&[id(0.5)], ProtocolConfig::default()), 1);
        let stats = solo.step();
        assert!(!stats.links_changed, "solo first round is clean");
    }
}
