//! Shape of the causal repair cascades.
//!
//! The causal tracer (obs/causal.rs) tags every message with its cascade
//! depth. A child is enqueued while its parent's delivery round is
//! executing and becomes eligible strictly later, so a message at depth
//! `d` is delivered at least `d` rounds after the root of its chain, and
//! every chain a window sees starts inside it: depth stays below the
//! window's length, and no depth level is empty below a populated one.
//!
//! This suite pins both over randomized scenarios that keep every
//! engine path live — churn (bounce + drop routing), fault drop windows,
//! and delayed delivery — plus the bookkeeping identities the report
//! rendering relies on (deliveries summed per kind and per level equal
//! the window's deliveries).

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
    fn cascade_depth_grows_one_level_per_round_from_roots_in_the_window(
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

        // Every chain starts at or after the first round of the window
        // (what was in flight before is a root) and gains one level per
        // round at most.
        if rep.delivered() > 0 {
            prop_assert!(
                rep.depth_max() < rep.end - rep.start,
                "depth {} in a window of rounds {}..{}",
                rep.depth_max(),
                rep.start,
                rep.end
            );
        }
        // A delivery at depth d > 0 had its parent, at depth d - 1,
        // delivered earlier in the same window.
        for d in 1..rep.stats.width.len() {
            if rep.stats.width[d] > 0 {
                prop_assert!(rep.stats.width[d - 1] > 0, "level {} empty below {}", d - 1, d);
            }
        }

        // Accounting identities the report rendering relies on: it
        // prints `width[0]` roots and the rest as caused deliveries.
        let handled: u64 = rep.stats.handled_by_kind.iter().sum();
        prop_assert_eq!(handled, rep.delivered());
        let width: u64 = rep.stats.width.iter().sum();
        prop_assert_eq!(width, rep.delivered());
        if rep.delivered() > rep.stats.width[0] {
            prop_assert!(rep.depth_max() >= 1);
        }
    }
}
