//! Quickstart: self-stabilize a small overlay from a hostile start and
//! watch the phases complete.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use self_stabilizing_smallworld::prelude::*;

fn main() {
    let n = 64;
    let seed = 42;
    let cfg = ProtocolConfig::default();

    println!("== self-stabilizing small-world: quickstart (n = {n}) ==\n");

    // 1. An adversarial initial state: a random weakly connected digraph
    //    with pointers stuffed into arbitrary slots.
    let ids = evenly_spaced_ids(n);
    let init = generate(InitialTopology::RandomSparse { extra: 3 }, &ids, cfg, seed);
    let mut net = init.into_network(seed);
    println!("initial phase: {:?}", classify_view(&net.view()));

    // 2. Run the protocol; the network must pass through the proof's
    //    phases in order and never regress.
    let report = run_to_ring(&mut net, 1_000_000);
    assert!(report.stabilized(), "the theorem says this cannot fail");
    println!(
        "phase 1 (LCC weakly connected) after {:>5} rounds",
        report.rounds_to_lcc.unwrap()
    );
    println!(
        "phase 2 (sorted list)          after {:>5} rounds",
        report.rounds_to_list.unwrap()
    );
    println!(
        "phase 3 (sorted ring)          after {:>5} rounds",
        report.rounds_to_ring.unwrap()
    );
    println!(
        "messages: {}   monotone phases: {}\n",
        report.messages_to_ring, report.monotone
    );

    // 3. Keep running: move-and-forget spreads the long-range links.
    net.run(4000);
    let view = net.view();
    let lengths = lrl_lengths_view(&view);
    println!(
        "long-range links live: {}/{n}   log-log slope: {:.2} (harmonic ≈ -1)",
        lengths.len(),
        log_log_slope(&lengths, n / 2).unwrap_or(f64::NAN)
    );

    // 4. The overlay is navigable: greedy routing succeeds on every pair.
    let g = Graph::from_view(&view, View::Cp);
    let stats = evaluate_routing(&g, 500, 10_000, 1, None);
    println!(
        "greedy routing: success {:.0}%  mean {:.1} hops  p99 {} hops (ring would need ≈ {})",
        100.0 * stats.success_rate(),
        stats.mean_hops,
        stats.p99_hops,
        n / 4
    );
}
