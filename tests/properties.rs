//! Property-based tests (proptest) over the core data structures and the
//! protocol's key invariants.

use proptest::prelude::*;
use self_stabilizing_smallworld::prelude::*;
use swn_core::forget::{phi, survival};
use swn_core::invariants::UnionFind;
use swn_core::node::Node;
use swn_core::views::Snapshot;
use swn_sim::init::generate;
use swn_topology::connectivity::weak_components;
use swn_topology::distribution::{harmonic_cdf, ks_to_harmonic};
use swn_topology::paths::{bfs_distances, ring_distance};

proptest! {
    #[test]
    fn node_id_order_matches_bit_order(a: u64, b: u64) {
        let (x, y) = (NodeId::from_bits(a), NodeId::from_bits(b));
        prop_assert_eq!(x < y, a < b);
        prop_assert_eq!(x == y, a == b);
        // Extended embeds the order and the sentinels bound everything.
        prop_assert_eq!(Extended::Fin(x) < Extended::Fin(y), a < b);
        prop_assert!(Extended::NegInf < x);
        prop_assert!(x < Extended::PosInf);
    }

    #[test]
    fn phi_is_always_a_probability(alpha in 0u64..1_000_000, eps in 0.001f64..4.0) {
        let p = phi(alpha, eps);
        prop_assert!((0.0..=1.0).contains(&p));
        if alpha <= 2 {
            prop_assert_eq!(p, 0.0);
        }
    }

    #[test]
    fn survival_is_monotone_in_alpha(alpha in 1u64..2000, eps in 0.01f64..1.0) {
        prop_assert!(survival(alpha, eps) >= survival(alpha + 1, eps) - 1e-15);
    }

    #[test]
    fn linearize_conserves_identifiers(
        l_bits in proptest::option::of(0u64..u64::MAX / 2),
        r_bits in proptest::option::of(u64::MAX / 2 + 2..u64::MAX),
        lrl_bits: u64,
        incoming: u64,
    ) {
        // A node at the midpoint with arbitrary legal neighbours and an
        // arbitrary lrl. Any incoming id must be stored or forwarded —
        // never silently dropped (the CC-connectivity invariant,
        // Lemma 4.10).
        let me = NodeId::from_bits(u64::MAX / 2 + 1);
        let id = NodeId::from_bits(incoming);
        let node = Node::with_state(
            me,
            l_bits.map(|b| Extended::Fin(NodeId::from_bits(b))).unwrap_or(Extended::NegInf),
            r_bits.map(|b| Extended::Fin(NodeId::from_bits(b))).unwrap_or(Extended::PosInf),
            NodeId::from_bits(lrl_bits),
            None,
            ProtocolConfig::default(),
        );
        let mut node = node;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut out = swn_core::outbox::Outbox::new();
        node.on_message(Message::Lin(id), &mut rng, &mut out);
        if id != me {
            let stored = node.left() == id || node.right() == id;
            let forwarded = out
                .sends()
                .iter()
                .any(|(_, m)| matches!(m, Message::Lin(v) if *v == id));
            prop_assert!(stored || forwarded, "id dropped by linearize");
        }
        // Displaced neighbours must also survive (stored or forwarded).
        for old in l_bits.into_iter().chain(r_bits) {
            let old = NodeId::from_bits(old);
            let still_stored = node.left() == old || node.right() == old;
            let forwarded = out
                .sends()
                .iter()
                .any(|(_, m)| matches!(m, Message::Lin(v) if *v == old));
            prop_assert!(still_stored || forwarded, "old neighbour dropped");
        }
    }

    #[test]
    fn sanitize_restores_typed_invariants(
        l_bits: u64, r_bits: u64, lrl_bits: u64, ring_bits in proptest::option::of(any::<u64>())
    ) {
        // From ANY variable contents, one action restores l < id < r.
        let me = NodeId::from_bits(u64::MAX / 3);
        let mut node = Node::with_state(
            me,
            Extended::Fin(NodeId::from_bits(l_bits)),
            Extended::Fin(NodeId::from_bits(r_bits)),
            NodeId::from_bits(lrl_bits),
            ring_bits.map(NodeId::from_bits),
            ProtocolConfig::default(),
        );
        let mut out = swn_core::outbox::Outbox::new();
        node.on_regular(&mut out);
        if let Extended::Fin(l) = node.left() {
            prop_assert!(l < me);
        }
        if let Extended::Fin(r) = node.right() {
            prop_assert!(r > me);
        }
    }

    #[test]
    fn union_find_agrees_with_bfs(
        n in 2usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..120)
    ) {
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .collect();
        let mut uf = UnionFind::new(n);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        let g = Graph::from_edges(n, &edges);
        let (_, comps) = weak_components(&g);
        prop_assert_eq!(uf.components(), comps);
    }

    #[test]
    fn ring_distance_is_a_metric(a in 0usize..500, b in 0usize..500, c in 0usize..500) {
        let n = 500;
        prop_assert_eq!(ring_distance(a, b, n), ring_distance(b, a, n));
        prop_assert_eq!(ring_distance(a, a, n), 0);
        prop_assert!(ring_distance(a, b, n) <= n / 2);
        prop_assert!(
            ring_distance(a, c, n) <= ring_distance(a, b, n) + ring_distance(b, c, n)
        );
    }

    #[test]
    fn harmonic_cdf_is_a_cdf(max_d in 1usize..4000) {
        let cdf = harmonic_cdf(max_d);
        prop_assert_eq!(cdf.len(), max_d);
        prop_assert!((cdf[max_d - 1] - 1.0).abs() < 1e-9);
        for w in cdf.windows(2) {
            prop_assert!(w[0] < w[1] + 1e-15);
        }
    }

    #[test]
    fn ks_is_bounded(lengths in proptest::collection::vec(1usize..100, 0..200)) {
        let ks = ks_to_harmonic(&lengths, 100);
        prop_assert!((0.0..=1.0).contains(&ks));
    }

    #[test]
    fn greedy_routing_on_intact_ring_always_arrives(
        n in 4usize..120,
        shortcuts in proptest::collection::vec((0usize..120, 0usize..120), 0..30),
        s in 0usize..120,
        t in 0usize..120,
    ) {
        let (s, t) = (s % n, t % n);
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
            g.add_edge((i + 1) % n, i);
        }
        for (u, v) in shortcuts {
            g.add_edge(u % n, v % n);
        }
        // With the bidirectional ring intact, greedy always has a strictly
        // improving neighbour, so it must arrive within n/2 + 1 hops...
        match greedy_route(&g, s, t, u32::try_from(n).expect("n fits u32")) {
            RouteResult::Arrived(h) => prop_assert!(h as usize <= n / 2),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    #[test]
    fn bfs_distances_obey_triangle_on_edges(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 1..80)
    ) {
        let edges: Vec<(usize, usize)> = edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let g = Graph::from_edges(n, &edges);
        let d = bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            if d[u] != u32::MAX {
                prop_assert!(d[v] <= d[u] + 1, "edge ({u},{v}) violates BFS triangle");
            }
        }
    }

    #[test]
    fn generated_initial_states_are_weakly_connected(
        n in 2usize..40,
        seed: u64,
        family_idx in 0usize..8,
    ) {
        let family = InitialTopology::ALL[family_idx];
        let ids = evenly_spaced_ids(n);
        let net = generate(family, &ids, ProtocolConfig::default(), seed).into_network(seed);
        prop_assert!(weakly_connected_view(&net.view(), View::Cc));
    }

    #[test]
    fn small_networks_always_stabilize(n in 2usize..14, seed: u64) {
        // The headline theorem, property-tested at exhaustive-ish scale:
        // arbitrary random weakly connected starts always reach the ring.
        let ids = evenly_spaced_ids(n);
        let mut net = generate(
            InitialTopology::RandomSparse { extra: 2 },
            &ids,
            ProtocolConfig::default(),
            seed,
        )
        .into_network(seed);
        let report = run_to_ring(&mut net, 500_000);
        prop_assert!(report.stabilized());
        prop_assert!(report.monotone);
    }

    #[test]
    fn phase_predicates_monotone_along_random_fair_executions(
        n in 2usize..10,
        seed: u64,
        family_idx in 0usize..8,
        p_deliver in 0.2f64..1.0,
    ) {
        // The analyzer's monotone predicates, checked along *random*
        // fair executions rather than enumerated ones: under adversarial
        // bounded-delay asynchrony, weak CC-connectivity, the sorted
        // list and the sorted ring are never true in one round and false
        // in a later one. (LCC connectivity is excluded by design: a lin
        // edge legitimately leaves the linearization view while its
        // identifier rides an lrl/ring variable.)
        let family = InitialTopology::ALL[family_idx];
        let ids = evenly_spaced_ids(n);
        let mut net = generate(family, &ids, ProtocolConfig::default(), seed)
            .into_network_with_policy(
                seed,
                DeliveryPolicy::RandomDelay {
                    p_deliver,
                    max_delay: 8,
                },
            );
        let names = ["weakly_connected(Cc)", "is_sorted_list", "is_sorted_ring"];
        let mut seen = [false; 3];
        for round in 0..400u32 {
            let v = net.view();
            let now = [
                weakly_connected_view(&v, View::Cc),
                is_sorted_list_view(&v),
                is_sorted_ring_view(&v),
            ];
            for k in 0..3 {
                prop_assert!(
                    now[k] || !seen[k],
                    "{} flipped true -> false by round {} ({:?}, n = {}, seed = {})",
                    names[k], round, family, n, seed
                );
                seen[k] = seen[k] || now[k];
            }
            net.step();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn probe_replay_on_stable_snapshots_never_repairs(
        n in 4usize..64,
        lrl_targets in proptest::collection::vec(0usize..64, 4..64),
    ) {
        // Any sorted ring with arbitrary (existing) lrl targets: probes
        // always arrive, never diverge, never repair (Theorem 4.3's stable
        // half, property-tested).
        use swn_harness::probe_walk::{replay_lrl_probe, ProbeOutcome};
        let ids = evenly_spaced_ids(n);
        let cfg = ProtocolConfig::default();
        let nodes: Vec<Node> = make_sorted_ring(&ids, cfg)
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                let t = lrl_targets.get(i).copied().unwrap_or(i) % n;
                Node::with_state(node.id(), node.left(), node.right(), ids[t], node.ring(), cfg)
            })
            .collect();
        let s = Snapshot::from_nodes(nodes);
        let v = s.as_view();
        for i in 0..n {
            if let Some(outcome) = replay_lrl_probe(&v, i) {
                prop_assert!(
                    matches!(outcome, ProbeOutcome::Arrived { .. }),
                    "probe from {i}: {outcome:?}"
                );
            }
        }
    }
}

use rand::SeedableRng as _;
