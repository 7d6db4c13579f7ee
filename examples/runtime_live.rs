//! Real concurrency: run the protocol on one OS thread per node with
//! `std::sync::mpsc` channels — no simulated rounds, no global scheduler — and
//! watch it stabilize from a scrambled chain.
//!
//! ```text
//! cargo run --release --example runtime_live
//! ```

use self_stabilizing_smallworld::prelude::*;
use self_stabilizing_smallworld::runtime::Runtime;
use std::time::{Duration, Instant};

fn main() {
    let n = 24;
    let cfg = ProtocolConfig::default();

    println!("== threaded runtime: {n} nodes, one thread each ==\n");

    // A scrambled chain: a directed path over a random permutation of the
    // ids, so the id order must be rebuilt from scratch.
    let ids = evenly_spaced_ids(n);
    let seed = 7;
    let init = generate(InitialTopology::RandomChain, &ids, cfg, seed);
    let rt = Runtime::spawn(init.nodes, seed);
    let start = Instant::now();

    // Poll snapshots while the threads race.
    let mut last_phase = None;
    let stabilized = rt.wait_until(Duration::from_secs(60), Duration::from_millis(10), |s| {
        let phase = classify_view(&s.as_view());
        if last_phase != Some(phase) {
            println!("t = {:>6.1?}  phase {:?}", start.elapsed(), phase);
            last_phase = Some(phase);
        }
        phase == Phase::SortedRing
    });

    let sent = rt.messages_sent();
    let finals = rt.shutdown();
    assert!(stabilized, "threaded run failed to stabilize");
    println!(
        "\nstabilized in {:.1?} with {sent} messages across {} threads",
        start.elapsed(),
        finals.len()
    );

    // Show the final ring.
    println!("\nfinal ring (sorted by id):");
    for node in &finals {
        println!(
            "  {}  l={:<9} r={:<9} lrl={} ring={:?}",
            node.id(),
            node.left().to_string(),
            node.right().to_string(),
            node.lrl(),
            node.ring().map(|r| r.to_string()),
        );
    }
}
