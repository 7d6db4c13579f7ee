//! Checkpoint and visualize a stabilized network: stabilize from a
//! hostile start, write a JSON checkpoint and Graphviz DOT files for the
//! initial and final states, then restore from the checkpoint and verify
//! the computation continues.
//!
//! ```text
//! cargo run --release --example visualize
//! # then e.g.: neato -n2 -Tsvg smallworld_final.dot -o smallworld.svg
//! ```

use self_stabilizing_smallworld::prelude::*;
use self_stabilizing_smallworld::sim::persist::{
    network_from_snapshot, snapshot_from_json, snapshot_to_json,
};
use self_stabilizing_smallworld::topology::export::snapshot_to_dot;
use swn_sim::init::generate;

fn main() -> std::io::Result<()> {
    let n = 48;
    let cfg = ProtocolConfig::default();
    let ids = evenly_spaced_ids(n);
    let mut net = generate(InitialTopology::RandomChain, &ids, cfg, 11).into_network(11);

    let out_dir = std::env::temp_dir().join("smallworld-visualize");
    std::fs::create_dir_all(&out_dir)?;

    // Initial (scrambled) state, rendered straight from the live network.
    std::fs::write(
        out_dir.join("smallworld_initial.dot"),
        snapshot_to_dot(&net.view(), "initial"),
    )?;
    println!("initial phase: {:?}", classify_view(&net.view()));

    // Stabilize and let the tokens spread.
    let report = run_to_ring(&mut net, 1_000_000);
    assert!(report.stabilized());
    net.run(2000);
    println!(
        "stabilized after {} rounds (+2000 rounds of move-and-forget)",
        report.rounds_to_ring.expect("stabilized")
    );

    // Final state: DOT for the eyes, JSON for the machines.
    let fin = net.snapshot();
    let dot_path = out_dir.join("smallworld_final.dot");
    let json_path = out_dir.join("smallworld_final.json");
    std::fs::write(&dot_path, snapshot_to_dot(&fin.as_view(), "stable"))?;
    std::fs::write(&json_path, snapshot_to_json(&fin))?;
    println!("wrote {}", dot_path.display());
    println!("wrote {}", json_path.display());
    println!(
        "render with: neato -n2 -Tsvg {} -o smallworld.svg",
        dot_path.display()
    );

    // Round trip: restore the checkpoint and keep running.
    let restored = snapshot_from_json(&std::fs::read_to_string(&json_path)?)
        .expect("own checkpoint must parse");
    let mut net2 = network_from_snapshot(&restored, 999);
    net2.run(100);
    assert!(
        is_sorted_ring_view(&net2.view()),
        "restored network stays stable"
    );
    println!("checkpoint restored and verified: still a sorted ring after 100 more rounds");
    Ok(())
}
