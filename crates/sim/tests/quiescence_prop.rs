//! Property test: quiescence detection is *correct* — after
//! stabilization a fault-free active-set network reports zero active
//! nodes, and stepping a quiescent network is a no-op byte-for-byte on
//! node state, channel state and the RNG position.
//!
//! The RNG-position half cannot read the network's private generator, so
//! it is proven observationally with a **twin experiment**: two
//! identical networks converge and drain; one steps `extra` additional
//! quiescent rounds; then both perform the same join and run the same
//! number of rounds. If a quiescent round consumed even one RNG draw (or
//! touched any state), the twins' post-join computations — whose delivery
//! orders and lrl walks feed off the shared stream — would diverge;
//! their state fingerprints must stay equal.

use proptest::prelude::*;
use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, NodeId};
use swn_core::message::Message;
use swn_core::node::Node;
use swn_sim::convergence::{drain_to_quiescence, run_to_ring};
use swn_sim::init::{generate, InitialTopology};
use swn_sim::{Network, ScheduleMode};

/// Node and channel state only — no trace, no round counter, no enqueue
/// timestamps — so fingerprints compare across networks whose round
/// counters differ by the quiescent padding.
fn state_fingerprint(net: &Network) -> String {
    use std::fmt::Write as _;
    let v = net.view();
    let mut s = String::new();
    for (rank, n) in v.nodes().iter().enumerate() {
        let _ = write!(
            s,
            "{:?} l={:?} r={:?} lrl={:?} ring={:?} age={} pt={} ch={:?};",
            n.id(),
            n.left(),
            n.right(),
            n.lrl(),
            n.ring(),
            n.age(),
            n.probe_tick(),
            v.channel(rank),
        );
    }
    s
}

fn topology(pick: u8) -> InitialTopology {
    match pick % 4 {
        0 => InitialTopology::RandomSparse { extra: 2 },
        1 => InitialTopology::Star,
        2 => InitialTopology::SortedListNoRing,
        _ => InitialTopology::CorruptedRing { corruptions: 3 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero active nodes after stabilization, and every further step is
    /// a state no-op with an all-zero stats row.
    #[test]
    fn stabilized_network_drains_to_zero_active_nodes(
        n in 4usize..20,
        seed in 0u64..500,
        pick in 0u8..4,
        mode_first in any::<bool>(),
    ) {
        let ids = evenly_spaced_ids(n);
        let mut net =
            generate(topology(pick), &ids, ProtocolConfig::default(), seed).into_network(seed);
        if mode_first {
            // Converge under the scheduler itself.
            net.set_schedule_mode(ScheduleMode::ActiveSet);
        }
        let report = run_to_ring(&mut net, 20_000);
        prop_assert!(report.stabilized(), "failed to reach the ring");
        if !mode_first {
            // Converge under full scan, then hand over to the scheduler.
            net.set_schedule_mode(ScheduleMode::ActiveSet);
        }
        let drained = drain_to_quiescence(&mut net, 2_000);
        prop_assert!(drained.is_some(), "agenda failed to drain");
        prop_assert_eq!(net.active_count(), 0);
        prop_assert!(net.is_quiescent());
        let before = state_fingerprint(&net);
        for _ in 0..5 {
            let stats = net.step();
            prop_assert_eq!(stats.total_sent(), 0, "quiescent round sent mail");
            prop_assert_eq!(stats.total_delivered(), 0);
            prop_assert!(!stats.links_changed);
            prop_assert!(net.is_quiescent(), "quiescence must be absorbing");
        }
        prop_assert_eq!(state_fingerprint(&net), before, "state changed in a quiescent round");
    }

    /// The twin experiment: quiescent padding rounds leave the RNG
    /// position (and all state) untouched, so padded and unpadded twins
    /// compute identically afterwards.
    #[test]
    fn quiescent_rounds_leave_rng_position_untouched(
        n in 4usize..16,
        seed in 0u64..500,
        pick in 0u8..4,
        extra in 1u64..12,
    ) {
        let run = |padding: u64| -> Option<String> {
            let ids = evenly_spaced_ids(n);
            let mut net =
                generate(topology(pick), &ids, ProtocolConfig::default(), seed).into_network(seed);
            net.set_schedule_mode(ScheduleMode::ActiveSet);
            if !run_to_ring(&mut net, 20_000).stabilized() {
                return None;
            }
            drain_to_quiescence(&mut net, 2_000)?;
            net.run(padding);
            // An identical join wakes both twins: the newcomer sorts
            // between the two smallest ids (`evenly_spaced_ids` starts
            // at bits 0) and announces itself to the maximum.
            let joiner = NodeId::from_bits(1);
            assert!(net.insert_node(Node::new(joiner, ProtocolConfig::default())));
            let contact = *net.ids().last().expect("nonempty");
            net.send_external(contact, Message::Lin(joiner));
            net.run(30);
            Some(state_fingerprint(&net))
        };
        let unpadded = run(0);
        prop_assert!(unpadded.is_some(), "baseline failed to stabilize/drain");
        prop_assert_eq!(run(extra), unpadded, "padding perturbed the twin");
    }
}
