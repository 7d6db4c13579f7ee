//! Pin: the full chaos campaign, run for run.
//!
//! `experiments chaos` prints a ten-line tally — five counters over 200
//! scenarios — which two different injectors can agree on while
//! disagreeing about every single run. This test replays the campaign's
//! exact scenario stream (`CampaignConfig::new(0xe12a, 200)`, the
//! harness's full-scale E12b preset) and fingerprints every serialized
//! [`RunResult`]: verdict with its culprit record, horizon, messages
//! sent and messages destroyed. Any change to when a
//! fault lands, which coin the injector draws or what the watchdog
//! concludes moves the fingerprint.

use rand::rngs::StdRng;
use rand::SeedableRng;
use swn_sim::chaos::{run_scenario, sample_scenario, CampaignConfig};

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn campaign_run_results_match_the_pinned_fingerprint() {
    let cfg = CampaignConfig::new(0xe12a, 200);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for _ in 0..cfg.scenarios {
        let scenario = sample_scenario(&mut rng, &cfg);
        let result = run_scenario(&scenario);
        let json = serde_json::to_string(&result).expect("run results serialize");
        h = fnv1a(json.as_bytes(), h);
        h = fnv1a(b"\n", h);
    }
    assert_eq!(
        h, 0xd94a_feeb_0b98_4446,
        "campaign fingerprint moved: {h:#018x} (the simulated faulted executions changed)"
    );
}
