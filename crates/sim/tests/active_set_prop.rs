//! Property test: the active-set scheduler agrees with the full-scan
//! oracle — random churn/fault schedules stepped under
//! [`ScheduleMode::ActiveSet`] and under the every-node loop converge to
//! identical structure fingerprints.
//!
//! The two engines are *semantically*, not bit-for-bit, equivalent: the
//! active set changes which nodes act each round (hence the RNG
//! schedule), and settled nodes pause their lrl walk, ages and probe
//! ticks — the documented schedule deviation of `crate::sched`. What
//! must agree is everything the protocol's self-stabilization theorem
//! pins down: both engines reach the sorted ring over the surviving id
//! set, whose list pointers are unique and whose extreme ring edges are
//! mutually paired. The comparison digest covers exactly that (the
//! `flush_equivalence_semantic_under_churn` precedent in `network.rs`).
//!
//! A churn schedule can partition one engine's knowledge graph and not
//! the other's: the engines send different messages, so a leave may cut
//! a node off in one history only. The oracle therefore judges each
//! engine on its own state when the lockstep ends, after the last fault
//! and churn event: an engine whose CC view is weakly connected must
//! reach the sorted ring (the paper's theorem), one whose view is cut is
//! excused, and the digests are compared when both were connected.
//!
//! Fault plans are restricted to crashes and perturbations: those are
//! round-start faults whose injector RNG draws depend only on the live
//! id set, identical in both engines. Drop/duplication windows draw per
//! *send*, and the engines send different message sequences, so their
//! injector streams would diverge by construction — they are exercised
//! by the fault-matrix suite instead.

use proptest::collection::vec;
use proptest::prelude::*;
use swn_core::config::ProtocolConfig;
use swn_core::id::{evenly_spaced_ids, NodeId};
use swn_core::invariants::weakly_connected_view;
use swn_core::message::Message;
use swn_core::node::Node;
use swn_core::views::View;
use swn_sim::convergence::run_to_ring;
use swn_sim::faults::FaultPlan;
use swn_sim::init::{generate, InitialTopology};
use swn_sim::{Network, ScheduleMode};

/// FNV-1a digest of the converged structure: every node's `(id, l, r)`
/// in ascending order plus the extremes' ring edges.
fn structure_digest(net: &Network) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let enc = |e: swn_core::id::Extended| -> u64 {
        match e {
            swn_core::id::Extended::NegInf => u64::MAX - 1,
            swn_core::id::Extended::PosInf => u64::MAX,
            swn_core::id::Extended::Fin(x) => x.bits(),
        }
    };
    let v = net.view();
    let nodes = v.nodes();
    for n in nodes {
        mix(n.id().bits());
        mix(enc(n.left()));
        mix(enc(n.right()));
    }
    for seam in [nodes.first(), nodes.last()].into_iter().flatten() {
        mix(seam.ring().map_or(0, NodeId::bits));
    }
    h
}

/// One scripted churn event, applied at a fixed round of the lockstep
/// window so both engines see the same membership history.
#[derive(Clone, Copy, Debug)]
enum ChurnOp {
    /// Insert `from_bits(id_bits)` with the current maximum as contact.
    Join { round: u64, id_bits: u64 },
    /// Remove the live node of the given rank (mod live count).
    Leave { round: u64, rank: usize },
}

fn decode(round_mod: u64, code: (u8, u64)) -> ChurnOp {
    let round = 1 + code.1 % round_mod;
    match code.0 {
        0 => ChurnOp::Join {
            round,
            // Odd bits never collide with `evenly_spaced_ids` (whose
            // step is even for every n < 2^63) nor with each other when
            // derived from distinct codes.
            id_bits: code.1 | 1,
        },
        _ => ChurnOp::Leave {
            round,
            rank: usize::try_from(code.1 % 97).expect("small"),
        },
    }
}

fn apply_ops(net: &mut Network, ops: &[ChurnOp], round: u64) {
    for op in ops {
        match *op {
            ChurnOp::Join { round: r, id_bits } if r == round => {
                let joiner = NodeId::from_bits(id_bits);
                if net.insert_node(Node::new(joiner, ProtocolConfig::default())) {
                    let contact = net
                        .ids()
                        .into_iter()
                        .rfind(|&c| c != joiner)
                        .expect("another node is live");
                    net.send_external(contact, Message::Lin(joiner));
                }
            }
            ChurnOp::Leave { round: r, rank } if r == round => {
                let ids = net.ids();
                if ids.len() > 2 {
                    net.remove_node(ids[rank % ids.len()]);
                }
            }
            _ => {}
        }
    }
}

const LOCKSTEP: u64 = 16;

/// A crash `(round, rank, down_for)`.
type Crash = (u64, usize, u64);
/// A perturbation `(round, k)`.
type Perturb = (u64, usize);

/// Steps both engines through the lockstep window and then to the
/// sorted ring. Returns whether each engine's CC view, `(full, active)`,
/// was weakly connected when the lockstep ended; fails when a connected
/// engine does not stabilize or two connected engines disagree.
fn run_case(
    n: usize,
    seed: u64,
    codes: &[(u8, u64)],
    crash: Option<Crash>,
    perturb: Option<Perturb>,
) -> Result<(bool, bool), TestCaseError> {
    let ids = evenly_spaced_ids(n);
    let ops: Vec<ChurnOp> = codes.iter().map(|&c| decode(LOCKSTEP - 4, c)).collect();
    // Crash downtime ends inside the lockstep window so the engines
    // share the whole down/restart history before they part ways.
    let plan = |seed: u64| {
        let mut plan = FaultPlan::new(seed ^ 0x5eed);
        if let Some((round, rank, down_for)) = crash {
            plan = plan.with_crash(round, ids[rank % ids.len()], down_for);
        }
        if let Some((round, k)) = perturb {
            plan = plan.with_perturbation(round, k);
        }
        plan
    };
    // Start from the sorted ring: on it a leave keeps the knowledge
    // graph weakly connected far more often than on a random sparse
    // graph, so few cases are excused as partitions.
    let fresh = || {
        Network::new(
            swn_core::invariants::make_sorted_ring(&ids, ProtocolConfig::default()),
            seed,
        )
    };
    let mut full = fresh();
    let mut active = fresh();
    active.set_schedule_mode(ScheduleMode::ActiveSet);
    full.attach_faults(plan(seed));
    active.attach_faults(plan(seed));
    // Lockstep window: both engines live through the same churn and
    // fault schedule round for round.
    for round in 1..=LOCKSTEP {
        apply_ops(&mut full, &ops, round - 1);
        apply_ops(&mut active, &ops, round - 1);
        full.step();
        active.step();
        prop_assert_eq!(full.ids(), active.ids(), "membership diverged");
    }
    // Free run: each engine converges at its own pace. No fault or churn
    // event is left, so a connected CC view must reach the sorted ring;
    // a cut one cannot, in either engine.
    let connected = |net: &Network| weakly_connected_view(&net.view(), View::Cc);
    let verdict = (connected(&full), connected(&active));
    for (name, net, ok) in [
        ("full-scan", &mut full, verdict.0),
        ("active-set", &mut active, verdict.1),
    ] {
        if ok {
            let rep = run_to_ring(net, 20_000);
            prop_assert!(rep.stabilized(), "{name} engine failed: {rep:?}");
        }
    }
    if verdict == (true, true) {
        prop_assert_eq!(full.ids(), active.ids());
        prop_assert_eq!(
            structure_digest(&full),
            structure_digest(&active),
            "converged structures diverged"
        );
    }
    Ok(verdict)
}

/// A case the rule must excuse: the leave at round 11 (rank 6 of 10)
/// cuts the joiner of round 9 off in the active-set engine's history
/// only. The joiner ends the lockstep with `l = −∞, r = +∞, lrl =
/// itself`, so that engine's CC view is disconnected while the full-scan
/// engine's is connected — a partition, not a livelock.
#[test]
fn a_leave_that_cuts_one_engine_only_is_a_partition() {
    let verdict = run_case(
        9,
        447,
        &[(1, 8746), (0, 8756)],
        Some((2, 0, 2)),
        Some((1, 1)),
    )
    .expect("every connected engine stabilizes");
    assert_eq!(verdict, (true, false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn active_set_agrees_with_full_scan_oracle(
        n in 6usize..14,
        seed in 0u64..500,
        codes in vec((0u8..2, 0u64..10_000), 0..5),
        crash in proptest::option::of((1u64..8, 0usize..6, 1u64..6)),
        perturb in proptest::option::of((1u64..8, 1usize..3)),
    ) {
        run_case(n, seed, &codes, crash, perturb)?;
    }

    /// Fault-free half of the oracle: from adversarial initial
    /// topologies (no churn, so no partition risk) both engines must
    /// stabilize to the same structure.
    #[test]
    fn active_set_converges_like_full_scan_from_adversarial_states(
        n in 6usize..16,
        seed in 0u64..500,
        pick in 0u8..3,
    ) {
        let ids = evenly_spaced_ids(n);
        let topo = match pick {
            0 => InitialTopology::RandomSparse { extra: 2 },
            1 => InitialTopology::Star,
            _ => InitialTopology::Clique,
        };
        let fresh = || generate(topo, &ids, ProtocolConfig::default(), seed).into_network(seed);
        let mut full = fresh();
        let mut active = fresh();
        active.set_schedule_mode(ScheduleMode::ActiveSet);
        let rep_full = run_to_ring(&mut full, 20_000);
        let rep_active = run_to_ring(&mut active, 20_000);
        prop_assert!(rep_full.stabilized(), "full-scan engine failed: {rep_full:?}");
        prop_assert!(rep_active.stabilized(), "active-set engine failed: {rep_active:?}");
        prop_assert_eq!(structure_digest(&full), structure_digest(&active));
    }
}
