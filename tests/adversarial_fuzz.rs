//! Adversarial state fuzzing: beyond the structured initial-state
//! families, generate *arbitrary* corrupt states — ill-typed variables,
//! swapped sentinels, garbage channel messages, self-pointers — keep only
//! weak CC-connectivity (the theorem's hypothesis), and require
//! stabilization every single time.

use proptest::prelude::*;
use self_stabilizing_smallworld::prelude::*;
use swn_core::node::Node;

/// Builds a completely arbitrary node state over the id universe, then a
/// spanning chain of lin messages to guarantee the weak-connectivity
/// hypothesis (the variables themselves are unconstrained garbage).
fn fuzz_network(
    n: usize,
    raw: &[(u8, usize, usize, usize, usize)],
    junk: &[(usize, u8, usize)],
    seed: u64,
) -> Network {
    let ids = evenly_spaced_ids(n);
    let cfg = ProtocolConfig::default();
    let pick = |k: usize| ids[k % n];
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            let (mode, l, r, lrl, ring) = raw[i % raw.len()];
            // mode bits choose which variables are garbage vs sentinel.
            let l = if mode & 1 == 0 {
                Extended::NegInf
            } else {
                Extended::Fin(pick(l))
            };
            let r = if mode & 2 == 0 {
                Extended::PosInf
            } else {
                Extended::Fin(pick(r))
            };
            let ring = if mode & 4 == 0 {
                None
            } else {
                Some(pick(ring))
            };
            Node::with_state(ids[i], l, r, pick(lrl), ring, cfg)
        })
        .collect();
    let mut net = Network::new(nodes, seed);
    // Weak connectivity: a chain of lin messages over a fixed permutation.
    for w in 0..n.saturating_sub(1) {
        net.preload(ids[w], Message::Lin(ids[w + 1]));
    }
    // Arbitrary junk traffic on top.
    for &(dest, kind, payload) in junk {
        let d = pick(dest);
        let p = pick(payload);
        let msg = match kind % 6 {
            0 => Message::Lin(p),
            1 => Message::IncLrl(p),
            2 => Message::Ring(p),
            3 => Message::ResRing(p),
            4 => Message::ProbR(p),
            _ => Message::ProbL(p),
        };
        net.preload(d, msg);
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_corrupt_states_always_stabilize(
        n in 2usize..24,
        raw in proptest::collection::vec(
            (any::<u8>(), 0usize..64, 0usize..64, 0usize..64, 0usize..64),
            1..24
        ),
        junk in proptest::collection::vec(
            (0usize..64, any::<u8>(), 0usize..64),
            0..20
        ),
        seed: u64,
    ) {
        let mut net = fuzz_network(n, &raw, &junk, seed);
        let report = run_to_ring(&mut net, 500_000);
        prop_assert!(
            report.stabilized(),
            "fuzzed state failed to stabilize: {report:?}"
        );
        // And the stable state is the genuine article.
        let v = net.view();
        prop_assert!(is_sorted_ring_view(&v));
        prop_assert!(is_small_world_structure_view(&v));
    }

    #[test]
    fn fuzzed_stable_states_survive_message_replay(
        n in 4usize..16,
        junk in proptest::collection::vec(
            (0usize..64, any::<u8>(), 0usize..64),
            1..30
        ),
        seed: u64,
    ) {
        // A correct stable ring bombarded with arbitrary garbage messages
        // must absorb them without ever leaving the stable phase for more
        // than the transient, and must re-stabilize.
        let ids = evenly_spaced_ids(n);
        let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let mut net = Network::new(nodes, seed);
        net.run(20);
        let pick = |k: usize| ids[k % n];
        for &(dest, kind, payload) in &junk {
            let msg = match kind % 6 {
                0 => Message::Lin(pick(payload)),
                1 => Message::IncLrl(pick(payload)),
                2 => Message::Ring(pick(payload)),
                3 => Message::ResRing(pick(payload)),
                4 => Message::ProbR(pick(payload)),
                _ => Message::ProbL(pick(payload)),
            };
            net.preload(pick(dest), msg);
        }
        let report = run_to_ring(&mut net, 100_000);
        prop_assert!(report.stabilized(), "garbage bombardment broke the ring");
    }
}
