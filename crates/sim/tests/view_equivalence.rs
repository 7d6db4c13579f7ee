//! Property tests for the one read path.
//!
//! Every predicate takes the borrowing view ([`Network::view`]); the
//! owned snapshot ([`Network::snapshot`]) is storage whose only way out
//! is its own view. What is left to check between the two is that they
//! are the *same* observation — node for node and channel for channel —
//! across every initial-topology family, several sizes and seeds, and at
//! many points along a run. The dirty-tracking flag
//! ([`RoundStats::links_changed`]) is additionally checked for
//! soundness: a round reported clean must leave the classification
//! unchanged. [`Network`]'s misplaced-node counter must agree with a
//! recomputation after every kind of operation that can touch the
//! state, under either schedule.
//!
//! [`Network::view`]: swn_sim::Network::view
//! [`Network::snapshot`]: swn_sim::Network::snapshot
//! [`RoundStats::links_changed`]: swn_sim::trace::RoundStats::links_changed

use proptest::collection::vec;
use proptest::prelude::*;
use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, Extended, NodeId};
use swn_core::invariants::{classify_view, is_sorted_list_view, is_sorted_ring_view};
use swn_core::message::Message;
use swn_core::node::Node;
use swn_sim::channel::DeliveryPolicy;
use swn_sim::churn::{self, stable_network};
use swn_sim::faults::FaultPlan;
use swn_sim::init::{generate, InitialTopology};
use swn_sim::persist::{
    checkpoint, checkpoint_from_json, checkpoint_to_json, network_from_checkpoint,
};
use swn_sim::{Network, ScheduleMode};

fn assert_view_matches_snapshot(net: &Network, ctx: &str) {
    let s = net.snapshot();
    let (v, sv) = (net.view(), s.as_view());
    assert_eq!(v.len(), sv.len(), "size: {ctx}");
    for rank in 0..v.len() {
        assert_eq!(v.node(rank), sv.node(rank), "node {rank}: {ctx}");
        assert_eq!(v.channel(rank), sv.channel(rank), "channel {rank}: {ctx}");
    }
    assert_eq!(
        net.is_sorted_list(),
        is_sorted_list_view(&v),
        "cache: {ctx}"
    );
    assert_eq!(
        net.is_sorted_ring(),
        is_sorted_ring_view(&v),
        "cache: {ctx}"
    );
}

#[test]
fn classify_view_equals_classify_snapshot_across_topologies_and_rounds() {
    for family in InitialTopology::ALL {
        for &n in &[5usize, 16] {
            for seed in 0..3u64 {
                let ids = evenly_spaced_ids(n);
                let mut net =
                    generate(family, &ids, ProtocolConfig::default(), seed).into_network(seed);
                for round in 0..30u64 {
                    let ctx = format!("{}/n{n}/s{seed}/r{round}", family.label());
                    assert_view_matches_snapshot(&net, &ctx);
                    net.step();
                }
            }
        }
    }
}

#[test]
fn equivalence_holds_under_churn() {
    let ids = evenly_spaced_ids(12);
    let mut net = Network::new(
        swn_core::invariants::make_sorted_ring(&ids, ProtocolConfig::default()),
        3,
    );
    net.run(5);
    let victims = net.ids();
    net.remove_node(victims[4]);
    net.remove_node(victims[9]);
    for round in 0..25u64 {
        assert_view_matches_snapshot(&net, &format!("churn/r{round}"));
        net.step();
    }
}

/// Soundness of the reclassification skip: whenever a round reports
/// `links_changed == false`, the phase classification is provably — and
/// here, empirically — identical before and after the round. RandomDelay
/// with a low delivery probability produces plenty of genuinely clean
/// rounds (nothing delivered, nothing rewired).
#[test]
fn clean_rounds_never_change_the_classification() {
    let policy = DeliveryPolicy::RandomDelay {
        p_deliver: 0.05,
        max_delay: 40,
    };
    let mut clean_rounds = 0u64;
    for seed in 0..4u64 {
        let ids = evenly_spaced_ids(10);
        let gen = generate(
            InitialTopology::RandomSparse { extra: 2 },
            &ids,
            ProtocolConfig::default(),
            seed,
        );
        let mut net = gen.into_network_with_policy(seed, policy);
        let mut phase = classify_view(&net.view());
        for _ in 0..120 {
            let stats = net.step();
            let now = classify_view(&net.view());
            if !stats.links_changed {
                clean_rounds += 1;
                assert_eq!(
                    now, phase,
                    "clean round changed the phase: dirty-tracking is unsound (seed {seed})"
                );
            }
            phase = now;
        }
    }
    assert!(
        clean_rounds > 0,
        "no clean rounds observed — the skip never exercises"
    );
}

/// Applies one coded operation, asking the counted and the recomputed
/// answers after every state change inside it. Asking is what builds
/// the counter, so a seam that forgot to update it would answer from
/// before the change.
fn apply_and_check(net: &mut Network, active: &mut bool, (kind, x): (u8, u64), ctx: &str) {
    let check = |net: &Network| assert_view_matches_snapshot(net, ctx);
    let ids = net.ids();
    let pick = |salt: u64| ids[usize::try_from((x ^ salt) % ids.len() as u64).expect("small")];
    // Odd bits never collide with `evenly_spaced_ids`.
    let fresh = NodeId::from_bits(x | 1);
    let other = NodeId::from_bits((x | 1) ^ 2);
    match kind % 11 {
        0 => {
            for _ in 0..1 + x % 4 {
                net.step();
                check(net);
            }
        }
        1 => {
            let joined = net.insert_node(Node::new(fresh, ProtocolConfig::default()));
            check(net);
            if joined {
                net.send_external(pick(1), Message::Lin(fresh));
            }
        }
        2 if ids.len() > 3 => {
            net.remove_node(pick(2));
        }
        3 if net.node(fresh).is_none() => {
            churn::join(net, fresh, pick(3), 200);
        }
        4 if ids.len() > 3 => {
            churn::leave(net, pick(4), 200);
        }
        5 => net.preload(pick(5), Message::Lin(pick(6))),
        6 => {
            *active = !*active;
            net.set_schedule_mode(if *active {
                ScheduleMode::ActiveSet
            } else {
                ScheduleMode::FullScan
            });
        }
        7 => {
            // A crash under each restart discipline plus a perturbation,
            // stepped through every landing and both restarts.
            let r = net.round();
            let (a, b) = (pick(7), pick(8));
            let mut plan = FaultPlan::new(x)
                .with_crash(r + 1, a, 2)
                .with_perturbation(r + 2, 2);
            if b != a {
                plan = plan.with_durable_crash(r + 2, b, 2, r + 1);
            }
            net.attach_faults(plan);
            for _ in 0..6 {
                net.step();
                check(net);
            }
            net.detach_faults();
        }
        // The ring-closure read names the global extremes: a join that
        // becomes one (below the minimum once id 0 has left, else above
        // the maximum) and a leave of one.
        8 => {
            let (min, max) = (ids[0].bits(), ids[ids.len() - 1].bits());
            let extreme = if x % 2 == 0 && min > 0 {
                Some(x % min)
            } else {
                max.checked_add(1 + x % 1000)
            };
            if let Some(bits) = extreme {
                churn::join(net, NodeId::from_bits(bits), pick(9), 200);
            }
        }
        9 if ids.len() > 3 => {
            let at = if x % 2 == 0 { 0 } else { ids.len() - 1 };
            churn::leave(net, ids[at], 200);
        }
        // A slot's flags follow its occupant: a blank (hence misplaced)
        // newcomer leaves again, and the slot it frees goes to a
        // different id that arrives already holding its sorted neighbours.
        10 if net.node(fresh).is_none() && net.node(other).is_none() => {
            let cfg = ProtocolConfig::default();
            net.insert_node(Node::new(fresh, cfg));
            check(net);
            net.remove_node(fresh);
            check(net);
            let at = ids.partition_point(|&id| id < other);
            let l = at
                .checked_sub(1)
                .map_or(Extended::NegInf, |k| Extended::Fin(ids[k]));
            let r = ids
                .get(at)
                .map_or(Extended::PosInf, |&id| Extended::Fin(id));
            net.insert_node(Node::with_state(other, l, r, other, None, cfg));
        }
        _ => {}
    }
    check(net);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sorted_ring_counter_matches_recomputation_after_every_operation(
        n in 5usize..10,
        seed in 0u64..1000,
        start_active in 0u8..2,
        ops in vec((0u8..11, 0u64..u64::MAX), 1..14),
    ) {
        let mut net = stable_network(n, ProtocolConfig::default(), seed, 3);
        let mut active = start_active == 1;
        if active {
            net.set_schedule_mode(ScheduleMode::ActiveSet);
        }
        assert_view_matches_snapshot(&net, "start");
        for (k, &op) in ops.iter().enumerate() {
            apply_and_check(&mut net, &mut active, op, &format!("op {k} = {op:?}"));
            // A checkpoint restore builds a new network: its counter
            // must be built afresh, not copy an answer.
            if k % 4 == 3 {
                let doc = checkpoint_to_json(&checkpoint(&net));
                let cp = checkpoint_from_json(&doc).expect("own document parses");
                net = network_from_checkpoint(&cp, seed).expect("own document restores");
                active = false;
                assert_view_matches_snapshot(&net, &format!("restored after op {k}"));
            }
        }
    }
}
