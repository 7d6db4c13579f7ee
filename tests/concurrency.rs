//! Integration tests for the threaded runtime: the protocol stabilizes
//! under genuine concurrency, not just under the simulator's sequential
//! interleavings.

use self_stabilizing_smallworld::prelude::*;
use self_stabilizing_smallworld::runtime::Runtime;
use std::time::Duration;
use swn_core::views::Snapshot;
use swn_sim::init::generate;

/// The legitimacy predicate on what the runtime hands out.
fn is_sorted_ring(s: &Snapshot) -> bool {
    is_sorted_ring_view(&s.as_view())
}

fn spawn_family(family: InitialTopology, n: usize, seed: u64) -> Runtime {
    let ids = evenly_spaced_ids(n);
    let init = generate(family, &ids, ProtocolConfig::default(), seed);
    assert!(
        init.preloads.is_empty(),
        "concurrency tests need preload-free families"
    );
    Runtime::spawn(init.nodes, seed)
}

fn assert_stabilizes(family: InitialTopology, n: usize, seed: u64) {
    let rt = spawn_family(family, n, seed);
    let ok = rt.wait_until(
        Duration::from_secs(60),
        Duration::from_millis(15),
        is_sorted_ring,
    );
    let sent = rt.messages_sent();
    let finals = rt.shutdown();
    assert!(
        ok,
        "{} (n={n}) did not stabilize concurrently ({sent} msgs sent)",
        family.label()
    );
    assert!(is_sorted_ring(&Snapshot::from_nodes(finals)));
}

#[test]
fn star_stabilizes_concurrently() {
    assert_stabilizes(InitialTopology::Star, 16, 1);
}

#[test]
fn random_chain_stabilizes_concurrently() {
    assert_stabilizes(InitialTopology::RandomChain, 16, 2);
}

#[test]
fn list_without_ring_closes_concurrently() {
    assert_stabilizes(InitialTopology::SortedListNoRing, 20, 3);
}

#[test]
fn concurrent_run_matches_simulator_outcome() {
    // Both execution environments must reach the same unique stable
    // topology (the sorted ring over the same ids) from the same start.
    let n = 12;
    let family = InitialTopology::RandomChain;
    let ids = evenly_spaced_ids(n);

    // Simulator.
    let mut net = generate(family, &ids, ProtocolConfig::default(), 5).into_network(5);
    let rep = run_to_ring(&mut net, 100_000);
    assert!(rep.stabilized());

    // Threaded runtime.
    let rt = spawn_family(family, n, 5);
    let ok = rt.wait_until(
        Duration::from_secs(60),
        Duration::from_millis(10),
        is_sorted_ring,
    );
    assert!(ok);
    let rt_finals = rt.shutdown();

    // The l/r/ring structure is identical (the lrl tokens differ — they
    // are random walks).
    for (sim_node, rt_node) in net.view().nodes().iter().zip(&rt_finals) {
        assert_eq!(sim_node.id(), rt_node.id());
        assert_eq!(sim_node.left(), rt_node.left());
        assert_eq!(sim_node.right(), rt_node.right());
        assert_eq!(sim_node.ring(), rt_node.ring());
    }
}

#[test]
fn snapshots_are_consistent_while_running() {
    // Concurrent snapshotting must never observe an ill-typed node (the
    // per-node lock guarantees action atomicity).
    let rt = spawn_family(InitialTopology::RandomChain, 16, 9);
    for _ in 0..50 {
        let s = rt.snapshot();
        for node in s.nodes() {
            if let Extended::Fin(l) = node.left() {
                assert!(l < node.id(), "snapshot caught ill-typed l");
            }
            if let Extended::Fin(r) = node.right() {
                assert!(r > node.id(), "snapshot caught ill-typed r");
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    rt.shutdown();
}
