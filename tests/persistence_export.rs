//! Integration tests for checkpointing (swn-sim::persist) and DOT export
//! (swn-topology::export) across the full stack.

use self_stabilizing_smallworld::prelude::*;
use swn_sim::init::generate;
use swn_sim::persist::{network_from_snapshot, snapshot_from_json, snapshot_to_json};
use swn_topology::export::{snapshot_to_dot, to_dot};

#[test]
fn checkpoint_mid_stabilization_and_resume() {
    // Run a convergence halfway, checkpoint, restore, and finish — the
    // restored computation must stabilize to the same sorted ring.
    let ids = evenly_spaced_ids(24);
    let cfg = ProtocolConfig::default();
    let mut net = generate(InitialTopology::Star, &ids, cfg, 3).into_network(3);
    net.run(5); // partway through phase 2
    let json = snapshot_to_json(&net.snapshot());

    let restored = snapshot_from_json(&json).expect("valid checkpoint");
    let mut net2 = network_from_snapshot(&restored, 777);
    let rep = run_to_ring(&mut net2, 100_000);
    assert!(rep.stabilized(), "restored run failed: {rep:?}");

    // Both runs converge to the same unique list/ring structure.
    let rep1 = run_to_ring(&mut net, 100_000);
    assert!(rep1.stabilized());
    let (v1, v2) = (net.view(), net2.view());
    assert_eq!(v1.len(), v2.len());
    for (a, b) in v1.nodes().iter().zip(v2.nodes()) {
        assert_eq!(a.id(), b.id());
        assert_eq!(a.left(), b.left());
        assert_eq!(a.right(), b.right());
        assert_eq!(a.ring(), b.ring());
    }
}

#[test]
fn checkpoint_preserves_in_flight_messages() {
    let ids = evenly_spaced_ids(10);
    let mut net = generate(
        InitialTopology::RandomChain,
        &ids,
        ProtocolConfig::default(),
        9,
    )
    .into_network(9);
    net.run(2);
    let s = net.snapshot();
    let in_flight = net.view().messages_in_flight();
    assert!(in_flight > 0, "fixture needs traffic");
    let back = snapshot_from_json(&snapshot_to_json(&s)).expect("round trip");
    assert_eq!(back.as_view().messages_in_flight(), in_flight);
}

#[test]
fn dot_export_of_stabilized_network() {
    let ids = evenly_spaced_ids(16);
    let mut net =
        generate(InitialTopology::Clique, &ids, ProtocolConfig::default(), 4).into_network(4);
    let rep = run_to_ring(&mut net, 100_000);
    assert!(rep.stabilized());
    net.run(500); // let some tokens wander

    let v = net.view();
    let dot = snapshot_to_dot(&v, "stable");
    // Every rank appears as a node and the seam ring edges are rendered.
    for rank in 0..16 {
        assert!(
            dot.contains(&format!("{rank} [pos=")),
            "rank {rank} missing"
        );
    }
    assert!(
        dot.contains("style=dashed, color=blue"),
        "ring edges missing"
    );
    assert!(dot.contains("color=gray40"), "list links missing");

    // The plain-graph exporter agrees on edge count with the CP view.
    let g = Graph::from_view(&v, View::Cp);
    let plain = to_dot(&g, "cp", true);
    assert_eq!(plain.matches(" -> ").count(), g.m());
}
