//! Per-layer measurements the traced pass makes beside its spans.
//!
//! [`RoundProbe`] rides along the timed loop: it counts what the
//! scheduler and the channels held before each step and, every
//! [`SAMPLE_EVERY`]th round, replays a sample of nodes and their queued
//! messages through the handlers in isolation. [`after_trial`] then
//! times, on the trial's final network, the calls that set the cost of
//! observing, of churn and of the small-world evaluation, so that every
//! workload reports every layer at its own size and state.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, NodeId};
use swn_core::invariants::{classify_view, is_sorted_ring_view, make_sorted_ring};
use swn_core::message::{Message, MessageKind};
use swn_core::node::Node;
use swn_core::outbox::Outbox;
use swn_core::views::{NetView, View};
use swn_harness::testbed::harmonic_network;
use swn_sim::init::{generate, InitialTopology};
use swn_sim::trace::RoundStats;
use swn_sim::{Network, ScheduleMode};
use swn_topology::distribution::{ks_to_cdf, log_corrected_harmonic_cdf, lrl_lengths_view};
use swn_topology::routing::evaluate_routing;
use swn_topology::Graph;

use crate::trace::{nanos, Tracer};
use crate::workloads::{ChurnInputs, Traced, EPSILON};

/// Rounds between two handler replays.
const SAMPLE_EVERY: u64 = 16;
/// Nodes replayed per sample at most (evenly strided over the ring).
const SAMPLE_NODES: usize = 4096;
/// Pairs routed and gaps filled on a trial's final network.
pub const PROBE_PAIRS: usize = 500;
const PROBE_GAPS: usize = 16;
/// Size of the fixture the start-state builders and whole churn events
/// are timed on, the rounds its agenda gets to settle, and its events.
const FIXTURE_N: usize = 2048;
const FIXTURE_SETTLE: u64 = 256;
const FIXTURE_EVENTS: u64 = 6;

/// Handler work replayed in isolation: deliveries and their time by
/// message kind, the sends they made, regular actions and their time.
#[derive(Clone, Copy, Default)]
pub struct Replayed {
    pub deliveries: [u64; MessageKind::COUNT],
    pub delivery_ns: [u64; MessageKind::COUNT],
    pub sends: u64,
    pub regular_runs: u64,
    pub regular_ns: u64,
}

/// Counters over the timed rounds of a traced run, all trials pooled.
pub struct RoundProbe {
    rounds: u64,
    pub active_sum: u64,
    pub active_max: u64,
    pub quiescent_rounds: u64,
    pub dirty_rounds: u64,
    pub samples: u64,
    pub in_flight_sum: u64,
    pub replayed: Replayed,
    /// Kinds no sampled channel held; timed on made-up messages instead.
    pub synthetic: [bool; MessageKind::COUNT],
    rng: StdRng,
    out: Outbox,
    nodes: Vec<Node>,
    rehearsed: Vec<Node>,
    queued: [Vec<(usize, Message)>; MessageKind::COUNT],
}

impl RoundProbe {
    pub fn new(seed: u64) -> Self {
        RoundProbe {
            rounds: 0,
            active_sum: 0,
            active_max: 0,
            quiescent_rounds: 0,
            dirty_rounds: 0,
            samples: 0,
            in_flight_sum: 0,
            replayed: Replayed::default(),
            synthetic: [false; MessageKind::COUNT],
            rng: StdRng::seed_from_u64(seed),
            out: Outbox::new(),
            nodes: Vec::new(),
            rehearsed: Vec::new(),
            queued: Default::default(),
        }
    }

    pub fn before_step(&mut self, net: &Network, tr: &mut Tracer) {
        let active = net.active_count() as u64;
        self.active_sum += active;
        self.active_max = self.active_max.max(active);
        self.quiescent_rounds += u64::from(active == 0);
        if self.rounds.is_multiple_of(SAMPLE_EVERY) {
            tr.leaf("bench", "handler_replay", || self.sample(net));
        }
        self.rounds += 1;
    }

    pub fn after_step(&mut self, stats: &RoundStats) {
        self.dirty_rounds += u64::from(stats.links_changed);
    }

    /// Replays what the channels hold now: *isolated, warm*.
    fn sample(&mut self, net: &Network) {
        let v = net.view();
        self.samples += 1;
        self.in_flight_sum += v.messages_in_flight() as u64;
        self.load(&v, false);
        drop(v);
        let got = self.replay();
        let all = &mut self.replayed;
        for k in 0..MessageKind::COUNT {
            all.deliveries[k] += got.deliveries[k];
            all.delivery_ns[k] += got.delivery_ns[k];
        }
        all.sends += got.sends;
        all.regular_runs += got.regular_runs;
        all.regular_ns += got.regular_ns;
    }

    /// Times a made-up message of every kind the run never queued (on a
    /// settled agenda the extremes send no `ring`), so that each kind has
    /// a handler time on every workload. Such kinds weigh nothing in
    /// `handler_share`: no delivery of theirs was counted.
    pub fn fill_unseen_kinds(&mut self, net: &Network) {
        self.load(&net.view(), true);
        let got = self.replay();
        for k in 0..MessageKind::COUNT {
            if got.deliveries[k] > 0 {
                self.synthetic[k] = true;
                self.replayed.deliveries[k] = got.deliveries[k];
                self.replayed.delivery_ns[k] = got.delivery_ns[k];
            }
        }
    }

    /// Clones a strided sample of nodes out of the view and queues, by
    /// kind, the messages their channels hold, or (`made_up`) one message
    /// of every kind that has not been replayed yet.
    fn load(&mut self, v: &NetView<'_>, made_up: bool) {
        self.nodes.clear();
        self.queued.iter_mut().for_each(Vec::clear);
        for i in (0..v.len()).step_by(v.len().div_ceil(SAMPLE_NODES)) {
            let node = v.node(i);
            let near = node.right().fin().or(node.left().fin());
            let near = near.unwrap_or(node.id());
            let invented = [
                Message::Lin(near),
                Message::IncLrl(near),
                Message::ResLrl(node.left(), node.right()),
                Message::Ring(near),
                Message::ResRing(near),
                Message::ProbR(node.lrl()),
                Message::ProbL(node.lrl()),
            ];
            let messages = if made_up { &invented[..] } else { v.channel(i) };
            for m in messages {
                let k = m.kind().index();
                if !made_up || self.replayed.deliveries[k] == 0 {
                    self.queued[k].push((self.nodes.len(), *m));
                }
            }
            self.nodes.push(node.clone());
        }
    }

    /// Replays the loaded sample twice, on two copies of the nodes, and
    /// returns the second pass: the first brings code and data into cache.
    fn replay(&mut self) -> Replayed {
        self.rehearsed.clone_from(&self.nodes);
        std::mem::swap(&mut self.nodes, &mut self.rehearsed);
        self.replay_once();
        std::mem::swap(&mut self.nodes, &mut self.rehearsed);
        self.replay_once()
    }

    /// One timed loop per message kind and one for the regular action.
    fn replay_once(&mut self) -> Replayed {
        let mut got = Replayed::default();
        for k in 0..MessageKind::COUNT {
            // An empty loop would still book the clock's own cost.
            if self.queued[k].is_empty() {
                continue;
            }
            let t0 = Instant::now();
            for &(i, m) in &self.queued[k] {
                self.nodes[i].on_message(m, &mut self.rng, &mut self.out);
                got.sends += black_box(self.out.sends().len()) as u64;
                self.out.clear();
            }
            got.delivery_ns[k] = nanos(t0);
            got.deliveries[k] = self.queued[k].len() as u64;
        }
        let t0 = Instant::now();
        for node in &mut self.nodes {
            node.on_regular(&mut self.out);
            black_box(self.out.sends().len());
            self.out.clear();
        }
        got.regular_ns = nanos(t0);
        got.regular_runs = self.nodes.len() as u64;
        got
    }
}

/// What the probes found on one final network.
pub struct Found {
    pub lrl_ks: f64,
    pub greedy_hops_mean: f64,
    pub success_share: f64,
    /// A fixture join or leave did not re-form the ring.
    pub failed: bool,
}

/// Times the calls that observe and evaluate a network and change its
/// membership, on the final network of a traced trial (phase `probe`),
/// then the start-state builders and whole churn events on a network of
/// [`FIXTURE_N`] nodes (phase `fixture`), so that the layers a workload
/// never enters still read the same way on it. The metrics read the
/// spans back by phase, layer and name.
pub fn after_trial(net: &mut Network, seed: u64, tr: &mut Tracer) -> Found {
    tr.phase = "probe";
    let root = tr.enter("bench", "after_trial");
    let n = net.len();

    // Observation: what `run_to_ring` and `measure_recovery` pay per
    // dirty round, and what a leave pays for its id list.
    let v = tr.leaf("sim.network", "view", || net.view());
    tr.leaf("core.invariants", "classify_view", || classify_view(&v));
    tr.leaf("core.invariants", "is_sorted_ring_view", || {
        is_sorted_ring_view(&v)
    });
    let ids = tr.leaf("sim.network", "ids", || net.ids());

    // Small-world evaluation (phase 4's yardstick).
    let lengths = tr.leaf("topology.distribution", "lrl_lengths_view", || {
        lrl_lengths_view(&v)
    });
    let lrl_ks = tr.leaf("topology.distribution", "ks_to_cdf", || {
        ks_to_cdf(&lengths, &log_corrected_harmonic_cdf(n / 2, EPSILON))
    });
    let g = tr.leaf("topology.graph", "from_view", || {
        Graph::from_view(&v, View::Cp)
    });
    drop(v);
    let max_hops = u32::try_from(n).expect("n fits u32");
    let routed = tr.leaf("topology.routing", "evaluate_routing", || {
        evaluate_routing(&g, PROBE_PAIRS, max_hops, seed, None)
    });

    // Membership under the workload's own schedule: a fresh-id
    // insert/remove pair in several gaps. Then the cost of enabling the
    // agenda on a network of this size.
    let cfg = *net.node(ids[0]).expect("ring is not empty").config();
    for gap in 0..PROBE_GAPS {
        let at = gap * (ids.len() - 1) / PROBE_GAPS;
        let (a, b) = (ids[at].bits(), ids[at + 1].bits());
        let id = NodeId::from_bits(a + (b - a) / 2);
        if id == ids[at] {
            continue;
        }
        tr.leaf("sim.network", "insert_node", || {
            net.insert_node(Node::new(id, cfg))
        });
        tr.leaf("sim.network", "remove_node", || net.remove_node(id));
    }
    tr.leaf("sim.sched", "set_schedule_mode", || {
        net.set_schedule_mode(ScheduleMode::ActiveSet);
    });
    tr.exit(root);

    tr.phase = "fixture";
    let root = tr.enter("bench", "fixture");
    let cfg = ProtocolConfig::with_epsilon(EPSILON);
    let ids = evenly_spaced_ids(FIXTURE_N);
    let init = tr.leaf("sim.init", "generate", || {
        generate(InitialTopology::RandomSparse { extra: 3 }, &ids, cfg, seed)
    });
    black_box(tr.leaf("sim.init", "into_network", || init.into_network(seed)));
    black_box(tr.leaf("core.invariants", "make_sorted_ring", || {
        make_sorted_ring(&ids, cfg)
    }));
    let mut small = tr.leaf("harness.testbed", "harmonic_network", || {
        harmonic_network(FIXTURE_N, cfg, seed)
    });
    small.set_schedule_mode(ScheduleMode::ActiveSet);
    small.run(FIXTURE_SETTLE);
    let mut inputs = ChurnInputs::new(ids, seed);
    let mut t = Traced { tr, probe: None };
    let mut failed = false;
    for e in 0..FIXTURE_EVENTS {
        failed |= t.apply(&mut small, inputs.event(e)).0.is_none();
    }
    tr.exit(root);
    Found {
        lrl_ks,
        greedy_hops_mean: routed.mean_hops,
        success_share: routed.success_rate(),
        failed,
    }
}
