//! Pin: on a formed ring the lrl token is not Chaintreau et al.'s
//! move-and-forget walk.
//!
//! In the pure process a token either moves one rank or is reset to its
//! owner, so its displacement at age a is a simple random walk of a
//! steps and E[d² | a] = a. Algorithms 1/3/4 as written send `inclrl`
//! every round without waiting for the answer, and `move-forget` accepts
//! any `reslrl`, so each node drives several interleaved walkers (two
//! under `Immediate`, more under `RandomDelay`). This test steps a stable
//! ring of 256 nodes for 4 000 rounds under both policies and checks the
//! two marks of that: the endpoint jumps two or more ranks without a
//! reset, and the mean squared displacement at ages 32…256 sits well
//! below the age. A reset is a round in which the node's age dropped.

use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, NodeId};
use swn_core::invariants::make_sorted_ring;
use swn_sim::channel::DeliveryPolicy;
use swn_sim::Network;

const N: usize = 256;
const ROUNDS: u64 = 4_000;
const AGES: std::ops::RangeInclusive<u64> = 32..=256;

/// Signed circular rank distance from `from` to `to` on the n-cycle,
/// in `(-n/2, n/2]`.
fn ring_delta(from: usize, to: usize) -> i64 {
    let n = N as i64;
    let d = (to as i64 - from as i64).rem_euclid(n);
    if d > n / 2 {
        d - n
    } else {
        d
    }
}

/// What the token did over every node-round of one run.
struct TokenStats {
    node_rounds: u64,
    /// Node-rounds whose endpoint moved two or more ranks without a reset.
    jumps: u64,
    /// Σ d² and Σ a over node-rounds that end at an age in [`AGES`].
    sum_d2: f64,
    sum_age: f64,
}

fn observe(policy: DeliveryPolicy) -> TokenStats {
    let ids = evenly_spaced_ids(N);
    let rank = |id: NodeId| ids.binary_search(&id).expect("lrl names a ring member");
    let mut net =
        Network::with_policy(make_sorted_ring(&ids, ProtocolConfig::default()), 1, policy);
    let snapshot = |net: &Network| -> Vec<(usize, u64)> {
        let v = net.view();
        assert_eq!(v.nodes().len(), N);
        v.nodes().iter().map(|n| (rank(n.lrl()), n.age())).collect()
    };
    let mut before = snapshot(&net);
    let mut s = TokenStats {
        node_rounds: 0,
        jumps: 0,
        sum_d2: 0.0,
        sum_age: 0.0,
    };
    for _ in 0..ROUNDS {
        net.step();
        let after = snapshot(&net);
        for (owner, (&(lrl0, age0), &(lrl1, age1))) in before.iter().zip(&after).enumerate() {
            s.node_rounds += 1;
            if age1 >= age0 && ring_delta(lrl0, lrl1).abs() >= 2 {
                s.jumps += 1;
            }
            if AGES.contains(&age1) {
                let d = ring_delta(owner, lrl1) as f64;
                s.sum_d2 += d * d;
                s.sum_age += age1 as f64;
            }
        }
        before = after;
    }
    assert!(net.is_sorted_ring(), "the ring stays formed");
    s
}

fn assert_not_move_and_forget(policy: DeliveryPolicy) {
    let s = observe(policy);
    let jump_share = s.jumps as f64 / s.node_rounds as f64;
    let ratio = s.sum_d2 / s.sum_age;
    assert!(
        jump_share >= 0.10,
        "{policy:?}: only {:.1} % of node-rounds jump two or more ranks without a reset",
        100.0 * jump_share
    );
    assert!(
        s.sum_age > 0.0 && ratio <= 0.75,
        "{policy:?}: pooled E[d² | a] / a = {ratio:.3} over ages {AGES:?}"
    );
}

#[test]
fn immediate_token_is_not_a_single_walker() {
    assert_not_move_and_forget(DeliveryPolicy::Immediate);
}

#[test]
fn random_delay_token_is_not_a_single_walker() {
    assert_not_move_and_forget(DeliveryPolicy::RandomDelay {
        p_deliver: 0.5,
        max_delay: 8,
    });
}
