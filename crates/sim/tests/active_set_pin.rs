//! Pin: one `ActiveSet` execution, bit for bit, through churn and faults.
//!
//! The golden traces and the large-ring pin run the full-scan engine;
//! nothing else in the default suite fixes *which* nodes the active-set
//! scheduler runs, in which order, and with what result. This test
//! settles a 2 048-node ring whose long-range links are drawn from the
//! harmonic law, runs three joins alternating with three random leaves
//! (so the tracked-forwarder count is exercised), then a crash with an
//! amnesia restart and a 16-node perturbation, each watched to
//! recovery. It fingerprints with FNV-1a the agenda size before every
//! round it drives, every recorded round's sent/delivered counts by kind
//! and its `links_changed` flag, every recovery report, and the final
//! `(id, l, r, lrl, ring, age)` of every node. The constant was recorded
//! with each round's turns in ascending id order; a moved fingerprint
//! means the simulated execution changed.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, Extended, NodeId};
use swn_core::invariants::make_sorted_ring;
use swn_core::node::Node;
use swn_sim::churn::{self, RecoveryReport};
use swn_sim::faults::FaultPlan;
use swn_sim::{Network, ScheduleMode};

const N: usize = 2048;
const SEED: u64 = 0x5eed;
const BUDGET: u64 = 5_000;

/// FNV-1a over a stream of u64 words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn report(&mut self, rep: &RecoveryReport) {
        self.push(rep.rounds.unwrap_or(u64::MAX));
        self.push(rep.messages);
        self.push(rep.tracked_messages);
        self.push(rep.path_nodes as u64);
    }
}

fn encode_extended(e: Extended) -> u64 {
    match e {
        Extended::NegInf => 1,
        Extended::PosInf => 2,
        Extended::Fin(id) => id.bits().wrapping_mul(2).wrapping_add(3),
    }
}

/// The sorted ring with every long-range link drawn from the 1-harmonic
/// distance law, three rounds in: the stationary stable state the churn
/// experiments start from, built without walking the tokens there.
fn harmonic_ring(n: usize, cfg: ProtocolConfig, seed: u64) -> Network {
    let ids = evenly_spaced_ids(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cdf: Vec<f64> = (1..=n / 2)
        .scan(0.0, |h, d| {
            *h += 1.0 / d as f64;
            Some(*h)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    cdf.iter_mut().for_each(|p| *p /= total);
    let nodes = make_sorted_ring(&ids, cfg)
        .into_iter()
        .enumerate()
        .map(|(rank, node)| {
            let u: f64 = rng.random();
            let d = (cdf.partition_point(|&p| p < u) + 1).min(n / 2);
            let target = if rng.random_bool(0.5) {
                (rank + d) % n
            } else {
                (rank + n - d) % n
            };
            let (l, r, ring) = (node.left(), node.right(), node.ring());
            Node::with_state(node.id(), l, r, ids[target], ring, cfg)
        })
        .collect();
    let mut net = Network::new(nodes, seed);
    net.run(3);
    net
}

/// Steps `rounds` rounds, digesting the agenda size before each.
fn run(net: &mut Network, d: &mut Digest, rounds: u64) {
    for _ in 0..rounds {
        d.push(net.active_count() as u64);
        net.step();
    }
}

fn fingerprint() -> u64 {
    let cfg = ProtocolConfig::with_epsilon(0.1);
    let mut net = harmonic_ring(N, cfg, SEED);
    net.set_schedule_mode(ScheduleMode::ActiveSet);
    let mut d = Digest::new();
    run(&mut net, &mut d, 400);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xc4);
    for e in 0..3u64 {
        // A join at the midpoint of a random gap, through a random
        // contact, then a leave of a random interior node.
        let ids = net.ids();
        let g = rng.random_range(0..ids.len() - 1);
        let (a, b) = (ids[g].bits(), ids[g + 1].bits());
        let new_id = NodeId::from_bits(a + (b - a) / 2);
        let contact = ids[rng.random_range(0..ids.len())];
        let rep = churn::join(&mut net, new_id, contact, BUDGET);
        assert!(rep.recovered(), "join {e} did not recover: {rep:?}");
        d.report(&rep);
        run(&mut net, &mut d, 30);
        let (victim, rep) = churn::leave_random(&mut net, SEED + e, BUDGET);
        assert!(rep.recovered(), "leave {e} did not recover: {rep:?}");
        d.push(victim.bits());
        d.report(&rep);
        run(&mut net, &mut d, 30);
    }
    // A crash with an amnesia restart, then a perturbation of 16
    // nodes, each watched to recovery from the round it lands in.
    let ids = net.ids();
    let crash = FaultPlan::new(SEED).with_crash(net.round() + 1, ids[ids.len() / 3], 5);
    net.attach_faults(crash);
    run(&mut net, &mut d, 1);
    let rep = churn::measure_recovery(&mut net, BUDGET);
    assert!(rep.recovered(), "crash did not recover: {rep:?}");
    d.report(&rep);
    net.attach_faults(FaultPlan::new(SEED + 1).with_perturbation(net.round() + 1, 16));
    run(&mut net, &mut d, 1);
    let rep = churn::measure_recovery(&mut net, BUDGET);
    assert!(rep.recovered(), "perturbation did not recover: {rep:?}");
    d.report(&rep);
    run(&mut net, &mut d, 30);
    for r in net.trace().rounds() {
        for &c in r.sent.iter().chain(&r.delivered) {
            d.push(c);
        }
        d.push(u64::from(r.links_changed));
    }
    for n in net.view().nodes() {
        d.push(n.id().bits());
        d.push(encode_extended(n.left()));
        d.push(encode_extended(n.right()));
        d.push(n.lrl().bits());
        d.push(n.ring().map_or(0, |r| r.bits().wrapping_add(1)));
        d.push(n.age());
    }
    d.0
}

#[test]
fn active_set_churn_and_fault_run_matches_the_pinned_fingerprint() {
    let h = fingerprint();
    assert_eq!(
        h, 0x4ea3_5714_6e60_6f0d,
        "active-set fingerprint moved: {h:#018x} (the simulated execution changed)"
    );
}
