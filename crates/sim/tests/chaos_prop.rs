//! Property: the chaos engine classifies *every* finite-window campaign
//! scenario it can sample.
//!
//! The campaign's contract (DESIGN.md §14) is that a bounded fault
//! schedule always ends in one of two explained states: the network
//! recovers the sorted ring, or it is permanently disconnected with the
//! culprit state/message destruction named from the injector's log.
//! Panics, watch-budget exhaustion and unattributed disconnections are
//! all bugs — in the protocol, the injector or the watchdog itself.
//! This property drives randomly sampled scenarios (every fault
//! category) at n ≤ 64 and accepts
//! nothing but the two classified verdicts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use swn_sim::chaos::{run_scenario, sample_scenario, CampaignConfig, Outcome};

fn cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        scenarios: 1,
        min_n: 8,
        max_n: 64,
        budget: 50_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_finite_window_scenario_is_classified(seed in 0u64..1_000_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_scenario(&mut rng, &cfg(seed));
        let r = run_scenario(&s);
        prop_assert!(
            !matches!(r.outcome, Outcome::Panicked { .. }),
            "scenario panicked: {:?} — reproducer: {}",
            r.outcome,
            s.to_json()
        );
        prop_assert!(
            r.outcome.classified(),
            "unclassified outcome {:?} — reproducer: {}",
            r.outcome,
            s.to_json()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn json_replay_reproduces_the_run_bit_for_bit(seed in 0u64..1_000_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_scenario(&mut rng, &cfg(seed));
        let replayed = swn_sim::chaos::Scenario::from_json(&s.to_json())
            .expect("sampled scenarios serialize round-trip");
        prop_assert_eq!(&replayed, &s);
        prop_assert_eq!(run_scenario(&replayed), run_scenario(&s));
    }
}
