//! Acyclicity of the causal repair DAG.
//!
//! The causal tracer (obs/causal.rs) claims acyclicity *by
//! construction*: a child message is enqueued while its parent's
//! delivery round is executing and becomes eligible strictly later, so
//! every parent→child edge satisfies `parent.round < child.round`, and
//! the delivery sequence number is globally monotone, so `parent.seq <
//! child.seq` too. Either ordering alone already rules out cycles.
//!
//! This suite pins both orderings over randomized scenarios that keep
//! every engine path live — churn (bounce + drop routing), fault drop
//! windows, and delayed delivery — plus the bookkeeping identities the
//! report rendering relies on (roots + edges = deliveries, a complete
//! edge log, monotone log order).

use proptest::prelude::*;
use swn_core::config::ProtocolConfig;
use swn_core::id::evenly_spaced_ids;
use swn_core::invariants::make_sorted_ring;
use swn_sim::channel::DeliveryPolicy;
use swn_sim::faults::FaultPlan;
use swn_sim::obs::flight::FlightRecorder;
use swn_sim::Network;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn causal_dag_is_acyclic_with_parents_delivered_strictly_first(
        n in 6usize..16,
        seed in 0u64..200,
        warmup in 0u64..8,
        rounds in 5u64..40,
        drop_p in 0.0f64..0.4,
        delayed in any::<bool>(),
    ) {
        let ids = evenly_spaced_ids(n);
        let policy = if delayed {
            DeliveryPolicy::RandomDelay { p_deliver: 0.5, max_delay: 4 }
        } else {
            DeliveryPolicy::Immediate
        };
        let mut net = Network::with_policy(
            make_sorted_ring(&ids, ProtocolConfig::default()),
            seed,
            policy,
        );
        let (sink, _records) = FlightRecorder::new(1 << 20);
        net.attach_sink(Box::new(sink), 16);
        net.run(warmup);
        net.cascade_begin();
        // Churn plus a drop window keep the bounce/drop/duplicate
        // routing paths live while the window is open.
        net.attach_faults(FaultPlan::new(seed).with_drop(warmup + 1, warmup + 5, drop_p));
        let victim = net.ids()[n / 2];
        net.remove_node(victim);
        net.run(rounds);
        let rep = net.cascade_take().expect("sink attached");

        // The scenarios are far below the edge-log cap, so the log is
        // the complete edge set and the check below is exhaustive.
        prop_assert_eq!(rep.stats.edges_dropped, 0);
        prop_assert_eq!(rep.stats.edge_log.len() as u64, rep.stats.edges);
        let mut last_child_seq = None;
        for &(parent, child) in &rep.stats.edge_log {
            prop_assert!(
                parent.round < child.round,
                "parent must be delivered strictly before its child: {:?} -> {:?}",
                parent,
                child
            );
            prop_assert!(
                parent.seq < child.seq,
                "delivery seq must be monotone along edges: {:?} -> {:?}",
                parent,
                child
            );
            // The log is appended in delivery order, so child ids are
            // strictly increasing — no delivery appears twice.
            if let Some(prev) = last_child_seq {
                prop_assert!(child.seq > prev, "edge log out of delivery order");
            }
            last_child_seq = Some(child.seq);
        }

        // Accounting identities the report rendering relies on.
        prop_assert_eq!(rep.delivered(), rep.stats.roots + rep.stats.edges);
        let handled: u64 = rep.stats.handled_by_kind.iter().sum();
        prop_assert_eq!(handled, rep.delivered());
        let width: u64 = rep.stats.width.iter().sum();
        prop_assert_eq!(width, rep.delivered());
        if rep.stats.edges > 0 {
            prop_assert!(rep.depth_max() >= 1);
        }
    }
}
