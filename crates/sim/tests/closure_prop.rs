//! Property test: the sorted ring is *closed* under fault-free execution.
//!
//! Theorem 4.3's closure half: once the network forms the sorted ring,
//! every subsequent regular/receive action preserves it — linearization
//! has nothing left to move, probing never crosses a gap, and the only
//! state that keeps evolving is the long-range token's random walk. The
//! fault engine (`swn_sim::faults`) leans on this: its recovery watchdog
//! treats "sorted ring holds" as an absorbing predicate between injected
//! faults, which is only sound if no fault-free round can break it.
//!
//! Randomized here over ring sizes, seeds and run lengths:
//!
//! 1. `is_sorted_ring_view` holds after **every** round, not just at the
//!    end — a transient wobble (a round that breaks and then repairs the
//!    ring) would invalidate the watchdog's `links_changed`-gated
//!    re-checks even if the final state looks fine.
//! 2. No round drops or bounces a message: with neither faults nor churn
//!    every id a closed ring stores is live, so nothing is ever sent to a
//!    departed destination.
//!
//! The forget rule (φ(α) = 0 for α < 3) is checked where the one
//! `LrlForgotten` event is emitted, in `swn_core`'s `lrl` tests.

use proptest::prelude::*;
use swn_core::config::ProtocolConfig;
use swn_core::invariants::is_sorted_ring_view;
use swn_sim::churn::stable_network;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stabilized_rings_stay_sorted_and_lose_no_message(
        n in 4usize..40,
        seed in 0u64..1_000_000,
        rounds in 20u64..120,
    ) {
        let mut net = stable_network(n, ProtocolConfig::default(), seed, 0);
        prop_assert!(
            is_sorted_ring_view(&net.view()),
            "seed ring must start sorted (n={n}, seed={seed})"
        );
        let start = net.trace().len();
        for k in 0..rounds {
            net.step();
            prop_assert!(
                is_sorted_ring_view(&net.view()),
                "sorted ring broke at round {k} of {rounds} (n={n}, seed={seed})"
            );
        }
        for r in &net.trace().rounds()[start..] {
            // Fault-free runs must never count fault drops, and without
            // churn a closed ring never sends to a departed id.
            prop_assert_eq!(r.dropped_fault, 0);
            prop_assert_eq!(r.duplicated_fault, 0);
            prop_assert_eq!(r.dropped_churn, 0);
            prop_assert_eq!(r.bounced, 0);
        }
    }
}
