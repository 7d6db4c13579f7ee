//! Pin: a FullScan round at a size the golden traces never reach.
//!
//! Every golden scenario and every tier-1 network is small, so a
//! size-dependent path in the round loop could alter the computation of
//! a *large* round and nowhere else. This test steps a stable ring of
//! 32 768 nodes under `Immediate` and under `RandomDelay(0.5, 8)` and
//! fingerprints, with FNV-1a, every node's final `(id, l, r, lrl, ring,
//! age)`, its channel contents and each round's sent/delivered counts.
//! The round loop has no size-dependent path: its turns run in
//! ascending id order at every size. The constants were recorded with
//! that order; a moved fingerprint means the simulated execution
//! changed.

use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, Extended};
use swn_core::invariants::make_sorted_ring;
use swn_sim::channel::DeliveryPolicy;
use swn_sim::Network;

const N: usize = 32_768;

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
}

fn encode_extended(e: Extended) -> u64 {
    match e {
        Extended::NegInf => 1,
        Extended::PosInf => 2,
        Extended::Fin(id) => id.bits().wrapping_mul(2).wrapping_add(3),
    }
}

/// Steps a fresh stable ring `rounds` times under `policy` and digests
/// the per-round counts, then the final state in ascending id order.
fn fingerprint(policy: DeliveryPolicy, rounds: u64) -> u64 {
    let ids = evenly_spaced_ids(N);
    let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
    let mut net = Network::with_policy(nodes, 0x5eed, policy);
    let mut d = Digest::new();
    for _ in 0..rounds {
        let stats = net.step();
        d.push(stats.total_sent());
        d.push(stats.total_delivered());
    }
    let v = net.view();
    for (rank, n) in v.nodes().iter().enumerate() {
        d.push(n.id().bits());
        d.push(encode_extended(n.left()));
        d.push(encode_extended(n.right()));
        d.push(n.lrl().bits());
        d.push(n.ring().map_or(0, |r| r.bits().wrapping_add(1)));
        d.push(n.age());
        let ch = v.channel(rank);
        d.push(ch.len() as u64);
        for m in ch {
            d.push(m.kind().index() as u64 + 1);
            for id in m.carried_ids() {
                d.push(id.bits());
            }
        }
    }
    d.0
}

#[test]
fn immediate_large_ring_matches_the_pinned_fingerprint() {
    let h = fingerprint(DeliveryPolicy::Immediate, 6);
    assert_eq!(
        h, 0xf0a9_e5d0_1f8b_7b33,
        "large-ring fingerprint moved: {h:#018x} (the simulated execution changed)"
    );
}

#[test]
fn random_delay_large_ring_matches_the_pinned_fingerprint() {
    let policy = DeliveryPolicy::RandomDelay {
        p_deliver: 0.5,
        max_delay: 8,
    };
    let h = fingerprint(policy, 10);
    assert_eq!(
        h, 0x144c_9e31_b0c6_036d,
        "large-ring fingerprint moved: {h:#018x} (the simulated execution changed)"
    );
}
