//! A peer-to-peer overlay under churn: nodes join and leave while the
//! network keeps healing itself — the scenario the paper's introduction
//! motivates (overlays like CAN/Pastry/Chord, but self-stabilizing).
//!
//! ```text
//! cargo run --release --example overlay_churn
//! ```

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use self_stabilizing_smallworld::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let cfg = ProtocolConfig::default();
    let n0 = 48;

    println!("== overlay under churn ==\n");

    // Bootstrap: a stable ring of n0 peers, warmed up so the long-range
    // links have spread.
    let ids = evenly_spaced_ids(n0);
    let mut net = Network::new(make_sorted_ring(&ids, cfg), 7);
    net.run(2000);
    println!(
        "bootstrapped {} peers, phase {:?}",
        net.len(),
        classify_view(&net.view())
    );

    // Churn storm: alternate joins and leaves, measuring each recovery.
    let mut joins = 0u32;
    let mut leaves = 0u32;
    for event in 0u64..10 {
        if event.is_multiple_of(2) {
            // Join: a fresh peer contacts a random existing one.
            let existing = net.ids();
            let contact = existing[rng.random_range(0..existing.len())];
            let new_id = loop {
                let cand = NodeId::from_bits(rng.random::<u64>());
                if net.node(cand).is_none() {
                    break cand;
                }
            };
            let rep = join(&mut net, new_id, contact, 200_000);
            joins += 1;
            println!(
                "join  {:>8}  via {:>8}  -> recovered in {:>4} rounds, path {} nodes",
                format!("{new_id}"),
                format!("{contact}"),
                rep.rounds.expect("join recovery"),
                rep.path_nodes,
            );
        } else {
            let (victim, rep) = leave_random(&mut net, 1000 + event, 200_000);
            leaves += 1;
            println!(
                "leave {:>8}                 -> healed in  {:>4} rounds, {} messages",
                format!("{victim}"),
                rep.rounds.expect("leave recovery"),
                rep.messages,
            );
        }
        assert!(is_sorted_ring_view(&net.view()), "overlay must be healed");
    }

    println!(
        "\nfinal overlay: {} peers after {} joins / {} leaves, phase {:?}",
        net.len(),
        joins,
        leaves,
        classify_view(&net.view())
    );

    // Routing still works over the churned overlay.
    let g = Graph::from_view(&net.view(), View::Cp);
    let stats = evaluate_routing(&g, 300, 10_000, 5, None);
    println!(
        "greedy routing after churn: success {:.0}%, mean {:.1} hops",
        100.0 * stats.success_rate(),
        stats.mean_hops
    );
}
