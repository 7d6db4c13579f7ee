//! The five workloads: set-up, the timed section twice over, and the
//! checks on what it produced.
//!
//! [`timed_whole`] calls the library's entry points as a user would
//! (`run_to_ring`, `churn::join`, ...) and is what the end-to-end numbers
//! are measured on. [`timed_traced`] drives the same seeds through loops
//! written here over the public calls those entry points are made of, a
//! span around each, and must reproduce the same simulated execution:
//! the digests of the two passes are compared for every trial.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, Extended, NodeId};
use swn_core::invariants::{classify_view, is_sorted_ring_view, make_sorted_ring, Phase};
use swn_core::message::{Message, MessageKind};
use swn_core::node::Node;
use swn_core::views::View;
use swn_harness::testbed::harmonic_network;
use swn_sim::churn;
use swn_sim::convergence::run_to_ring;
use swn_sim::init::{generate, InitialTopology};
use swn_sim::trace::RoundStats;
use swn_sim::{DeliveryPolicy, Network, ScheduleMode};
use swn_topology::distribution::{ks_to_cdf, log_corrected_harmonic_cdf, lrl_lengths_view};
use swn_topology::routing::evaluate_routing;
use swn_topology::Graph;

use crate::probes::RoundProbe;
use crate::stats::Digest;
use crate::trace::{nanos, Tracer};

/// Round budget of one stabilisation; no trial comes near it.
const RING_BUDGET: u64 = 200_000;
/// Round budget of one churn recovery.
pub const RECOVERY_BUDGET: u64 = 5_000;
/// Rounds between two lrl-length samples of `mix-harmonic`.
const EPOCH_ROUNDS: u64 = 50;
/// Source/target pairs routed on the final `mix-harmonic` graph.
const ROUTE_PAIRS: usize = 2_000;
/// The forget exponent the harmonic workloads run with.
pub const EPSILON: f64 = 0.1;
/// `mix-harmonic` passes when the pooled lrl lengths are this close to
/// the stationary law.
const KS_LIMIT: f64 = 0.25;

#[derive(Clone, Copy)]
pub enum Kind {
    Stabilize(DeliveryPolicy),
    Steady,
    Mix,
    Churn,
}

/// Sizes of one workload. `warm` rounds run before measuring starts in
/// `steady-large` (warm-up) and `churn-activeset` (settling the agenda),
/// and open the timed walk in `mix-harmonic`; `work` counts timed steps,
/// sampling epochs or churn events.
#[derive(Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub n: usize,
    pub warm: u64,
    pub work: u64,
}

/// The workload at `spec::WORKLOADS[idx]`, full size or `--quick`.
pub fn workload(idx: usize, quick: bool) -> Workload {
    let delay = DeliveryPolicy::RandomDelay {
        p_deliver: 0.5,
        max_delay: 8,
    };
    let (kind, full, small) = match idx {
        0 => (
            Kind::Stabilize(DeliveryPolicy::Immediate),
            (2048, 0, 1),
            (256, 0, 1),
        ),
        1 => (Kind::Stabilize(delay), (1024, 0, 1), (256, 0, 1)),
        2 => (Kind::Steady, (131_072, 4, 12), (8192, 2, 4)),
        3 => (Kind::Mix, (512, 7000, 40), (128, 1500, 10)),
        4 => (Kind::Churn, (16_384, 512, 48), (1024, 192, 8)),
        _ => unreachable!("five workloads"),
    };
    let (n, warm, work) = if quick { small } else { full };
    Workload {
        kind,
        n,
        warm,
        work,
    }
}

/// What one timed section did, in simulated quantities.
#[derive(Default)]
pub struct Outcome {
    pub rounds: u64,
    /// Live nodes summed over the timed rounds.
    pub node_rounds: u64,
    pub deliveries: u64,
    pub delivered_by_kind: [u64; MessageKind::COUNT],
    /// Rounds and messages of each operation: one stabilisation, one
    /// churn event, or the whole fixed-length run.
    pub op_rounds: Vec<u64>,
    pub op_msgs: Vec<u64>,
    /// Operations whose output failed a check.
    pub failed: u64,
    pub digest: u64,
    /// `(lrl_ks, greedy_hops_mean, success_share)` of `mix-harmonic`.
    pub small_world: Option<(f64, f64, f64)>,
}

impl Outcome {
    pub fn ops(&self) -> u64 {
        self.op_rounds.len() as u64
    }
}

fn config(kind: Kind) -> ProtocolConfig {
    match kind {
        Kind::Stabilize(_) | Kind::Steady => ProtocolConfig::default(),
        Kind::Mix | Kind::Churn => ProtocolConfig::with_epsilon(EPSILON),
    }
}

/// Builds the start state. Everything here is reported as `setup_s`.
pub fn setup(w: &Workload, seed: u64, tr: &mut Tracer) -> Network {
    let cfg = config(w.kind);
    match w.kind {
        Kind::Stabilize(policy) => {
            let ids = evenly_spaced_ids(w.n);
            let init = tr.leaf("sim.init", "generate", || {
                generate(InitialTopology::RandomSparse { extra: 3 }, &ids, cfg, seed)
            });
            tr.leaf("sim.init", "into_network", || {
                init.into_network_with_policy(seed, policy)
            })
        }
        Kind::Steady | Kind::Mix => {
            let ids = evenly_spaced_ids(w.n);
            let nodes = tr.leaf("core.invariants", "make_sorted_ring", || {
                make_sorted_ring(&ids, cfg)
            });
            let mut net = tr.leaf("sim.network", "new", || Network::new(nodes, seed));
            if matches!(w.kind, Kind::Steady) {
                tr.leaf("sim.network", "warm_up", || net.run(w.warm));
                net.take_trace();
            }
            net
        }
        Kind::Churn => {
            let mut net = tr.leaf("harness.testbed", "harmonic_network", || {
                harmonic_network(w.n, cfg, seed)
            });
            tr.leaf("sim.sched", "set_schedule_mode", || {
                net.set_schedule_mode(ScheduleMode::ActiveSet);
            });
            // The harmonic fixture starts with a probe in flight per node;
            // they walk the ring for a few hundred rounds. Events are
            // measured on the settled agenda they leave behind.
            tr.leaf("sim.network", "settle", || net.run(w.warm));
            net.take_trace();
            net
        }
    }
}

/// The inputs of `churn-activeset`, made from the seed: joins at the
/// midpoint of a random gap with a random contact, alternating with
/// leaves of a random interior node. Keeps its own sorted copy of the
/// live ids, so making an input reads nothing from the network.
pub struct ChurnInputs {
    rng: StdRng,
    ids: Vec<NodeId>,
    seed: u64,
}

pub enum Event {
    Join {
        new_id: NodeId,
        contact: NodeId,
    },
    /// `churn::leave_random` draws its victim from `seed`; `victim` is
    /// the node that draw names, so that the two passes can be held to it.
    Leave {
        seed: u64,
        victim: NodeId,
    },
}

impl ChurnInputs {
    pub fn new(ids: Vec<NodeId>, seed: u64) -> Self {
        ChurnInputs {
            rng: StdRng::seed_from_u64(seed ^ 0x00c4_u64.rotate_left(48)),
            ids,
            seed,
        }
    }

    pub fn event(&mut self, e: u64) -> Event {
        if e % 2 == 1 {
            let seed = self.seed.wrapping_mul(1_000_003).wrapping_add(e);
            let at = StdRng::seed_from_u64(seed).random_range(1..self.ids.len() - 1);
            return Event::Leave {
                seed,
                victim: self.ids.remove(at),
            };
        }
        let (at, new_id) = loop {
            let g = self.rng.random_range(0..self.ids.len() - 1);
            let (a, b) = (self.ids[g].bits(), self.ids[g + 1].bits());
            if b - a >= 2 {
                break (g + 1, NodeId::from_bits(a + (b - a) / 2));
            }
        };
        let contact = self.ids[self.rng.random_range(0..self.ids.len())];
        self.ids.insert(at, new_id);
        Event::Join { new_id, contact }
    }
}

/// The events of one `churn-activeset` trial, each through `apply`,
/// which returns the rounds to recovery (if it recovered) and the
/// messages sent.
fn churn_events(
    w: &Workload,
    net: &mut Network,
    seed: u64,
    out: &mut Outcome,
    mut apply: impl FnMut(&mut Network, Event) -> (Option<u64>, u64),
) {
    let mut inputs = ChurnInputs::new(evenly_spaced_ids(w.n), seed);
    for e in 0..w.work {
        let (rounds, msgs) = apply(net, inputs.event(e));
        out.failed += u64::from(rounds.is_none());
        let rounds = rounds.unwrap_or(RECOVERY_BUDGET);
        out.rounds += rounds;
        out.node_rounds += rounds * net.len() as u64;
        out.op_rounds.push(rounds);
        out.op_msgs.push(msgs);
    }
}

fn small_world_ok(ks: f64, success: f64) -> bool {
    ks <= KS_LIMIT && success >= 1.0
}

/// The timed section through the library's own entry points.
pub fn timed_whole(w: &Workload, net: &mut Network, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    match w.kind {
        Kind::Stabilize(_) => {
            let rep = run_to_ring(net, RING_BUDGET);
            out.rounds = rep.rounds_run;
            out.op_rounds.push(rep.rounds_run);
            out.op_msgs.push(rep.messages_to_ring);
            out.failed += u64::from(!(rep.stabilized() && rep.monotone));
        }
        Kind::Steady => {
            net.run(w.work);
            out.rounds = w.work;
        }
        Kind::Mix => {
            net.run(w.warm);
            let mut pooled = Vec::new();
            for _ in 0..w.work {
                net.run(EPOCH_ROUNDS);
                pooled.extend(lrl_lengths_view(&net.view()));
            }
            let ks = ks_to_cdf(&pooled, &log_corrected_harmonic_cdf(w.n / 2, EPSILON));
            let g = Graph::from_view(&net.view(), View::Cp);
            let max_hops = u32::try_from(w.n).expect("n fits u32");
            let routed = evaluate_routing(&g, ROUTE_PAIRS, max_hops, seed, None);
            out.rounds = w.warm + w.work * EPOCH_ROUNDS;
            out.small_world = Some((ks, routed.mean_hops, routed.success_rate()));
            out.failed += u64::from(!small_world_ok(ks, routed.success_rate()));
        }
        Kind::Churn => churn_events(w, net, seed, &mut out, |net, event| match event {
            Event::Join { new_id, contact } => {
                let rep = churn::join(net, new_id, contact, RECOVERY_BUDGET);
                (rep.rounds, rep.messages)
            }
            Event::Leave { seed, victim } => {
                let (left, rep) = churn::leave_random(net, seed, RECOVERY_BUDGET);
                (rep.rounds.filter(|_| left == victim), rep.messages)
            }
        }),
    }
    out
}

/// The traced pass's hands: a tracer, and the per-round probe while the
/// timed section runs (the probes after a trial step without it).
pub struct Traced<'a> {
    pub tr: &'a mut Tracer,
    pub probe: Option<&'a mut RoundProbe>,
}

impl Traced<'_> {
    pub fn step(&mut self, net: &mut Network) -> RoundStats {
        if let Some(p) = self.probe.as_deref_mut() {
            p.before_step(net, self.tr);
        }
        let stats = self.tr.leaf("sim.network", "step", || net.step());
        if let Some(p) = self.probe.as_deref_mut() {
            p.after_step(&stats);
        }
        stats
    }

    fn run(&mut self, net: &mut Network, rounds: u64) {
        for _ in 0..rounds {
            self.step(net);
        }
    }

    /// `view` + `is_sorted_ring_view`: the observation `run_to_ring` and
    /// `measure_recovery` make after a dirty round.
    fn sorted_ring(&mut self, net: &Network) -> bool {
        let v = self.tr.leaf("sim.network", "view", || net.view());
        self.tr.leaf("core.invariants", "is_sorted_ring_view", || {
            is_sorted_ring_view(&v)
        })
    }

    /// `churn::measure_recovery`, one span per call it makes.
    fn recover(&mut self, net: &mut Network) -> (Option<u64>, u64) {
        let mut msgs = 0;
        let mut sorted = self.sorted_ring(net);
        if sorted {
            return (Some(0), msgs);
        }
        for k in 1..=RECOVERY_BUDGET {
            let stats = self.step(net);
            msgs += stats.total_sent();
            if stats.links_changed {
                sorted = self.sorted_ring(net);
            }
            if sorted {
                return (Some(k), msgs);
            }
        }
        (None, msgs)
    }

    /// One churn event as `churn::join` and `churn::leave_random` make it.
    pub fn apply(&mut self, net: &mut Network, event: Event) -> (Option<u64>, u64) {
        match event {
            Event::Join { new_id, contact } => self.join(net, new_id, contact),
            Event::Leave { victim, .. } => self.leave(net, victim),
        }
    }

    /// `churn::join` without the message tracking, which only counts.
    fn join(&mut self, net: &mut Network, new_id: NodeId, contact: NodeId) -> (Option<u64>, u64) {
        let ev = self.tr.enter("sim.churn", "join");
        let cfg = *net.node(contact).expect("contact is live").config();
        let (l, r) = if contact < new_id {
            (Extended::Fin(contact), Extended::PosInf)
        } else {
            (Extended::NegInf, Extended::Fin(contact))
        };
        let newcomer = Node::with_state(new_id, l, r, new_id, None, cfg);
        let fresh = self
            .tr
            .leaf("sim.network", "insert_node", || net.insert_node(newcomer));
        assert!(fresh, "join id already present");
        self.tr.leaf("sim.network", "send_external", || {
            net.send_external(contact, Message::Lin(new_id))
        });
        let rep = self.recover(net);
        self.tr.exit(ev);
        rep
    }

    /// `churn::leave_random`: an id list to draw the victim from, its
    /// removal, a second id list for the sweep that resets every pointer
    /// at it, then recovery.
    fn leave(&mut self, net: &mut Network, victim: NodeId) -> (Option<u64>, u64) {
        let ev = self.tr.enter("sim.churn", "leave");
        self.tr.leaf("sim.network", "ids", || net.ids());
        self.tr
            .leaf("sim.network", "remove_node", || net.remove_node(victim))
            .expect("victim is live");
        let ids = self.tr.leaf("sim.network", "ids", || net.ids());
        let sweep = self.tr.enter("sim.churn", "leave_sweep");
        let gone = Extended::Fin(victim);
        for id in ids {
            let node = net.node(id).expect("listed ids are live");
            let (l, r, lrl, ring) = (node.left(), node.right(), node.lrl(), node.ring());
            if l != gone && r != gone && lrl != victim && ring != Some(victim) {
                continue;
            }
            let cfg = *node.config();
            net.remove_node(id);
            net.insert_node(Node::with_state(
                id,
                if l == gone { Extended::NegInf } else { l },
                if r == gone { Extended::PosInf } else { r },
                if lrl == victim { id } else { lrl },
                ring.filter(|&t| t != victim),
                cfg,
            ));
        }
        self.tr.exit(sweep);
        let rep = self.recover(net);
        self.tr.exit(ev);
        rep
    }
}

/// The timed section as a loop over public calls, a span around each.
pub fn timed_traced(w: &Workload, net: &mut Network, seed: u64, t: &mut Traced<'_>) -> Outcome {
    let mut out = Outcome::default();
    match w.kind {
        Kind::Stabilize(_) => {
            let v = t.tr.leaf("sim.network", "view", || net.view());
            let mut ring =
                t.tr.leaf("core.invariants", "classify_view", || classify_view(&v))
                    == Phase::SortedRing;
            drop(v);
            let mut msgs = 0;
            while !ring && out.rounds < RING_BUDGET {
                let stats = t.step(net);
                out.rounds += 1;
                msgs += stats.total_sent();
                if stats.links_changed {
                    ring = t.sorted_ring(net);
                }
            }
            out.op_rounds.push(out.rounds);
            out.op_msgs.push(msgs);
            out.failed += u64::from(!ring);
        }
        Kind::Steady => {
            t.run(net, w.work);
            out.rounds = w.work;
        }
        Kind::Mix => {
            t.run(net, w.warm);
            let mut pooled = Vec::new();
            for _ in 0..w.work {
                t.run(net, EPOCH_ROUNDS);
                let v = t.tr.leaf("sim.network", "view", || net.view());
                pooled.extend(t.tr.leaf("topology.distribution", "lrl_lengths_view", || {
                    lrl_lengths_view(&v)
                }));
            }
            let ks = t.tr.leaf("topology.distribution", "ks_to_cdf", || {
                ks_to_cdf(&pooled, &log_corrected_harmonic_cdf(w.n / 2, EPSILON))
            });
            let v = t.tr.leaf("sim.network", "view", || net.view());
            let g = t.tr.leaf("topology.graph", "from_view", || {
                Graph::from_view(&v, View::Cp)
            });
            let max_hops = u32::try_from(w.n).expect("n fits u32");
            let routed = t.tr.leaf("topology.routing", "evaluate_routing", || {
                evaluate_routing(&g, ROUTE_PAIRS, max_hops, seed, None)
            });
            out.rounds = w.warm + w.work * EPOCH_ROUNDS;
            out.small_world = Some((ks, routed.mean_hops, routed.success_rate()));
            out.failed += u64::from(!small_world_ok(ks, routed.success_rate()));
        }
        Kind::Churn => churn_events(w, net, seed, &mut out, |net, event| t.apply(net, event)),
    }
    out
}

/// Fills in what the network's own trace says about the timed rounds,
/// checks the final state, and digests the simulated execution.
pub fn account(w: &Workload, net: &Network, mut out: Outcome) -> Outcome {
    let all = net.trace().rounds();
    let timed = &all[all.len() - usize::try_from(out.rounds).expect("rounds fit usize")..];
    let mut digest = Digest::new();
    digest.word(out.rounds);
    let mut sent = [0u64; MessageKind::COUNT];
    let mut dropped = 0;
    for r in timed {
        for (total, x) in sent.iter_mut().zip(r.sent) {
            *total += x;
        }
        for (total, x) in out.delivered_by_kind.iter_mut().zip(r.delivered) {
            *total += x;
        }
        dropped += r.dropped();
    }
    out.deliveries = out.delivered_by_kind.iter().sum();
    for (s, d) in sent.iter().zip(out.delivered_by_kind) {
        digest.word(*s);
        digest.word(d);
    }
    let ext = |d: &mut Digest, x: Extended| match x {
        Extended::NegInf => d.word(0),
        Extended::Fin(id) => {
            d.word(1);
            d.word(id.bits());
        }
        Extended::PosInf => d.word(2),
    };
    let v = net.view();
    for node in v.nodes() {
        digest.word(node.id().bits());
        ext(&mut digest, node.left());
        ext(&mut digest, node.right());
        digest.word(node.lrl().bits());
        ext(
            &mut digest,
            node.ring().map_or(Extended::NegInf, Extended::Fin),
        );
    }
    out.digest = digest.value();

    // A run of fixed length is one operation.
    if out.op_rounds.is_empty() {
        out.op_rounds.push(out.rounds);
        out.op_msgs.push(sent.iter().sum());
    }
    // Only churn may drop a message (its destination left).
    let churn = matches!(w.kind, Kind::Churn);
    if !(is_sorted_ring_view(&v) && v.len() == w.n && (churn || dropped == 0)) {
        out.failed = out.failed.max(1);
    }
    if !churn {
        out.node_rounds = out.rounds * w.n as u64;
    }
    out
}

/// Set-up, timed section and accounting of one trial, with host times.
pub struct Trial {
    pub setup_ns: u64,
    pub wall_ns: u64,
    pub outcome: Outcome,
    pub net: Network,
}

pub fn trial(w: &Workload, seed: u64, tr: &mut Tracer, probe: Option<&mut RoundProbe>) -> Trial {
    tr.phase = "setup";
    let t0 = Instant::now();
    let root = tr.enter("bench", "setup");
    let mut net = setup(w, seed, tr);
    tr.exit(root);
    let setup_ns = nanos(t0);

    tr.phase = "timed";
    let t0 = Instant::now();
    let outcome = match probe {
        None => timed_whole(w, &mut net, seed),
        Some(p) => {
            let root = tr.enter("bench", "timed");
            let mut t = Traced { tr, probe: Some(p) };
            let out = timed_traced(w, &mut net, seed, &mut t);
            tr.exit(root);
            out
        }
    };
    let wall_ns = nanos(t0);
    let outcome = account(w, &net, outcome);
    Trial {
        setup_ns,
        wall_ns,
        outcome,
        net,
    }
}
