//! Full-stack integration: the protocol + simulator + analysis crates
//! together reproduce the paper's headline theorem — stabilization from
//! any weakly connected initial state — across families, sizes and id
//! distributions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use self_stabilizing_smallworld::prelude::*;
use swn_sim::init::generate;
use swn_topology::connectivity::{is_strongly_connected, is_weakly_connected};

fn stabilize(family: InitialTopology, ids: &[NodeId], seed: u64) -> (Network, ConvergenceReport) {
    let cfg = ProtocolConfig::default();
    let mut net = generate(family, ids, cfg, seed).into_network(seed);
    let report = run_to_ring(&mut net, 2_000_000);
    (net, report)
}

#[test]
fn every_family_stabilizes_with_random_ids() {
    let mut rng = StdRng::seed_from_u64(0xabc);
    let ids = random_ids(40, &mut rng);
    for family in InitialTopology::ALL {
        let (net, report) = stabilize(family, &ids, 17);
        assert!(
            report.stabilized(),
            "{} did not stabilize: {report:?}",
            family.label()
        );
        assert!(report.monotone, "{} regressed a phase", family.label());
        assert_eq!(classify_view(&net.view()), Phase::SortedRing);
    }
}

#[test]
fn stabilized_network_has_strongly_connected_list() {
    let ids = evenly_spaced_ids(32);
    let (net, report) = stabilize(InitialTopology::Clique, &ids, 3);
    assert!(report.stabilized());
    let g = Graph::from_view(&net.view(), View::Lcp);
    // The sorted list's l/r pointers are mutual: strong connectivity.
    assert!(is_strongly_connected(&g));
}

#[test]
fn stability_is_preserved_indefinitely() {
    // Theorem 4.22's "maintains it forever": once stable, a long run of
    // continued protocol activity never breaks any phase property.
    let ids = evenly_spaced_ids(24);
    let (mut net, report) = stabilize(InitialTopology::RandomChain, &ids, 5);
    assert!(report.stabilized());
    for _ in 0..50 {
        net.run(20);
        assert_eq!(classify_view(&net.view()), Phase::SortedRing);
    }
    // No probe ever repaired anything after stabilization.
    let after = usize::try_from(report.rounds_run).expect("rounds fit usize");
    let repairs_after: u64 = net.trace().rounds()[after..]
        .iter()
        .map(|r| r.probe_repairs)
        .sum();
    assert_eq!(repairs_after, 0, "probing repaired in the stable state");
}

#[test]
fn two_node_and_three_node_networks_stabilize() {
    for n in [2usize, 3] {
        let ids = evenly_spaced_ids(n);
        for family in [
            InitialTopology::RandomSparse { extra: 1 },
            InitialTopology::RandomChain,
        ] {
            let (net, report) = stabilize(family, &ids, 11);
            assert!(report.stabilized(), "n={n} {} failed", family.label());
            assert!(is_sorted_ring_view(&net.view()));
        }
    }
}

#[test]
fn stabilizes_under_adversarial_message_delays() {
    let ids = evenly_spaced_ids(20);
    let cfg = ProtocolConfig::default();
    let init = generate(InitialTopology::Star, &ids, cfg, 9);
    let mut net = {
        let mut n = swn_sim::Network::with_policy(
            init.nodes,
            9,
            DeliveryPolicy::RandomDelay {
                p_deliver: 0.25,
                max_delay: 8,
            },
        );
        for (dest, msg) in init.preloads {
            n.preload(dest, msg);
        }
        n
    };
    let report = run_to_ring(&mut net, 2_000_000);
    assert!(
        report.stabilized(),
        "adversarial delays defeated stabilization: {report:?}"
    );
}

#[test]
fn long_range_links_spread_after_stabilization() {
    let ids = evenly_spaced_ids(64);
    let (mut net, _) = stabilize(InitialTopology::RandomSparse { extra: 2 }, &ids, 21);
    net.run(3000);
    let lengths = lrl_lengths_view(&net.view());
    assert!(
        lengths.len() > 32,
        "tokens failed to spread: {}",
        lengths.len()
    );
    assert!(
        lengths.iter().any(|&d| d >= 4),
        "no long link ever formed: {lengths:?}"
    );
    // And the CP graph (ring + links) is weakly connected throughout.
    let g = Graph::from_view(&net.view(), View::Cp);
    assert!(is_weakly_connected(&g));
}

#[test]
fn greedy_routing_works_on_every_stabilized_family() {
    let ids = evenly_spaced_ids(48);
    for family in [
        InitialTopology::Star,
        InitialTopology::Clique,
        InitialTopology::TwoBlobs,
    ] {
        let (mut net, report) = stabilize(family, &ids, 33);
        assert!(report.stabilized());
        net.run(1500);
        let g = Graph::from_view(&net.view(), View::Cp);
        let stats = evaluate_routing(&g, 200, 2_000, 3, None);
        assert_eq!(
            stats.success_rate(),
            1.0,
            "{}: routing failures on a ring-backed graph",
            family.label()
        );
        assert!(
            stats.mean_hops < 24.0,
            "{}: {} hops",
            family.label(),
            stats.mean_hops
        );
    }
}

#[test]
fn messages_only_reference_existing_nodes_after_start() {
    // Compare-store-send sanity: in a static network, no message ever
    // names an identifier outside the membership.
    let ids = evenly_spaced_ids(16);
    let (mut net, _) = stabilize(InitialTopology::RandomChain, &ids, 2);
    net.run(100);
    let v = net.view();
    for rank in 0..v.len() {
        for m in v.channel(rank) {
            for id in m.carried_ids() {
                assert!(v.index_of(id).is_some(), "message names unknown id {id}");
            }
        }
    }
    let dropped: u64 = net
        .trace()
        .rounds()
        .iter()
        .map(swn_sim::trace::RoundStats::dropped)
        .sum();
    assert_eq!(dropped, 0);
}
