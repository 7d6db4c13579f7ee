//! Properties of the persistence layer (DESIGN.md §14.2): the JSON
//! forms are lossless fixpoints of the live state, and a network
//! restored from a checkpoint is a deterministic continuation.
//!
//! * `snapshot → json → network → snapshot` is the identity on churned
//!   (mid-linearization, messages in flight) states;
//! * the same holds for v2 checkpoints carrying a live fault injector
//!   mid-window: round cursor, downed nodes, durable saves and the
//!   injector RNG cursor all survive the round trip;
//! * two networks restored from the same checkpoint document with the
//!   same seed replay the same computation as *each other* bit for bit
//!   — state, channels and fault fates.
//!
//! Nothing here compares a restored run with the uninterrupted one, and
//! they may differ: the scheduler RNG cursor, message enqueue rounds,
//! the schedule mode and the settled flags are not in the document.
//! ROADMAP 7(b) tracks that stronger property.

use proptest::prelude::*;
use swn_core::config::ProtocolConfig;
use swn_core::id::evenly_spaced_ids;
use swn_sim::faults::{FaultInjector, FaultPlan};
use swn_sim::init::{generate, InitialTopology};
use swn_sim::persist::{
    checkpoint, checkpoint_from_json, checkpoint_to_json, network_from_checkpoint,
    network_from_snapshot, snapshot_from_json, snapshot_to_json,
};
use swn_sim::Network;

/// A mid-linearization network: sparse random start, `rounds` of
/// protocol churn, messages still in flight.
fn churned_network(n: usize, seed: u64, rounds: u64) -> Network {
    let ids = evenly_spaced_ids(n);
    let cfg = ProtocolConfig::default();
    let mut net =
        generate(InitialTopology::RandomSparse { extra: 2 }, &ids, cfg, seed).into_network(seed);
    net.run(rounds);
    net
}

/// The same fixture with a fault plan attached and driven mid-window:
/// a loss window is open, one node is down with a durable save pending,
/// and the injector RNG cursor is somewhere nonzero.
fn faulted_network(n: usize, seed: u64, rounds: u64) -> Network {
    let mut net = churned_network(n, seed, rounds);
    let ids = net.ids();
    let r = net.round();
    let plan = FaultPlan::new(seed ^ 0x9e15)
        .with_drop(r + 1, r + 12, 0.35)
        .with_durable_crash(r + 2, ids[ids.len() / 2], 8, r + 1);
    net.attach_faults(plan);
    net.run(4);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_json_network_snapshot_is_a_fixpoint(
        n in 4usize..40,
        seed in 0u64..1_000_000,
        rounds in 0u64..40,
    ) {
        let net = churned_network(n, seed, rounds);
        let j1 = snapshot_to_json(&net.snapshot());
        let parsed = snapshot_from_json(&j1).expect("own output parses");
        let restored = network_from_snapshot(&parsed, seed);
        let j2 = snapshot_to_json(&restored.snapshot());
        prop_assert_eq!(j1, j2, "snapshot round trip must be the identity");
    }

    #[test]
    fn checkpoint_json_restore_checkpoint_is_a_fixpoint(
        n in 6usize..32,
        seed in 0u64..1_000_000,
        rounds in 0u64..24,
    ) {
        let net = faulted_network(n, seed, rounds);
        let j1 = checkpoint_to_json(&checkpoint(&net));
        let parsed = checkpoint_from_json(&j1).expect("own output parses");
        let restored = network_from_checkpoint(&parsed, seed).expect("restorable");
        prop_assert_eq!(restored.round(), net.round());
        let j2 = checkpoint_to_json(&checkpoint(&restored));
        prop_assert_eq!(j1, j2, "checkpoint round trip must be the identity");
    }

    #[test]
    fn two_restores_from_one_checkpoint_replay_identically(
        n in 6usize..32,
        seed in 0u64..1_000_000,
        rounds in 0u64..24,
    ) {
        let net = faulted_network(n, seed, rounds);
        let json = checkpoint_to_json(&checkpoint(&net));
        let mut a =
            network_from_checkpoint(&checkpoint_from_json(&json).expect("parse"), seed)
                .expect("restorable");
        let mut b =
            network_from_checkpoint(&checkpoint_from_json(&json).expect("parse"), seed)
                .expect("restorable");
        // Run both continuations through the rest of the fault window
        // (loss fates drawn from the restored injector cursor, the
        // durable victim restarting from its save) and beyond.
        for _ in 0..25 {
            a.step();
            b.step();
        }
        prop_assert_eq!(
            snapshot_to_json(&a.snapshot()),
            snapshot_to_json(&b.snapshot()),
            "restored continuations must be bit-identical"
        );
        let drops_a = format!("{:?}", a.fault_injector().map(FaultInjector::drops));
        let drops_b = format!("{:?}", b.fault_injector().map(FaultInjector::drops));
        prop_assert_eq!(drops_a, drops_b, "fault fates must replay identically");
    }
}
