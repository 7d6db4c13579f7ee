//! Topology updates: joining and leaving nodes (Section IV.G).
//!
//! **Join**: a new node enters knowing one arbitrary contact; the
//! linearization process carries it to its sorted position in
//! O(ln^(2+ε) n) steps (Theorem 4.24, first part).
//!
//! **Leave**: a node vanishes together with its links. Its former
//! neighbours detect the dangling pointers (modelled here as bounce
//! detection when a message's destination no longer exists) and reset
//! them; the first probe whose long-range link crosses the gap fails and
//! repairs it, after which linearization closes the ring again in
//! O(ln^(2+ε) n) steps (Theorem 4.24, second part).
//!
//! Every recovery is watched by the fault watchdog's loop, and its
//! [`RecoveryReport`] keeps that loop's [`Verdict`]: departures that cut
//! the knowledge graph read [`Verdict::PermanentlyDisconnected`], not a
//! slow run.

use crate::faults::{watch, Verdict};
use crate::network::Network;
use crate::obs::Event;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};
use swn_core::config::ProtocolConfig;
use swn_core::id::{Extended, NodeId};
use swn_core::message::Message;
use swn_core::node::Node;

/// Outcome of a churn-recovery measurement.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Rounds until the sorted ring held again.
    pub rounds: Option<u64>,
    /// Messages sent during recovery.
    pub messages: u64,
    /// Messages that carried the tracked identifier (joins only),
    /// including the newcomer's own steady advertisements.
    pub tracked_messages: u64,
    /// Distinct nodes that forwarded the tracked identifier in `lin`
    /// messages (joins only): the newcomer's integration path — the
    /// paper's "steps" of Theorem 4.24.
    pub path_nodes: usize,
    /// How the watch ended: [`Verdict::Recovered`] at `rounds`,
    /// [`Verdict::PermanentlyDisconnected`] when the departures severed
    /// the CC view, or [`Verdict::BudgetExhausted`] with the budget,
    /// which counts from the fault instant (the `measure_recovery`
    /// call), *not* from the start of the run. `None` only in a report
    /// that no run filled in.
    pub verdict: Option<Verdict>,
}

impl RecoveryReport {
    /// Did the network recover within the round budget?
    pub fn recovered(&self) -> bool {
        self.rounds.is_some()
    }
}

/// Injects a new node that knows only `contact`, then runs until the
/// sorted ring holds again (counting the new node). The newcomer stores
/// the contact in the appropriate neighbour slot and announces itself,
/// exactly "initially connected with an arbitrary node".
pub fn join(net: &mut Network, new_id: NodeId, contact: NodeId, max_rounds: u64) -> RecoveryReport {
    let cfg = *net
        .node(contact)
        .expect("join contact must be a live node")
        .config();
    let (l, r) = if contact < new_id {
        (Extended::Fin(contact), Extended::PosInf)
    } else {
        (Extended::NegInf, Extended::Fin(contact))
    };
    assert!(
        net.insert_node(Node::with_state(new_id, l, r, new_id, None, cfg)),
        "id {new_id:?} already present"
    );
    net.send_external(contact, Message::Lin(new_id));
    net.track_id(Some(new_id));
    let start = net.round();
    let mut report = measure_recovery(net, max_rounds);
    report.path_nodes = net.tracked_forwarder_count();
    net.track_id(None);
    net.emit(Event::Span {
        label: "join".to_string(),
        start,
        end: net.round(),
    });
    report
}

/// Removes `victim` and models departure detection: every node holding the
/// victim's id has that variable reset (dangling `l`/`r` become `±∞`,
/// dangling `lrl` returns to origin, dangling `ring` is cleared), then
/// runs until the sorted ring holds again.
///
/// A holder is reset by removing it and inserting a fresh node with the
/// corrected links under the same id, so the reset also **discards the
/// holder's queued mail and zeroes its `age` and probe `tick`** — the
/// detector restarts the holder's protocol instance rather than patching
/// three variables (DESIGN.md deviation #7). `benchmark/`'s traced pass
/// replays exactly this through `remove_node`/`insert_node` and pins it.
pub fn leave(net: &mut Network, victim: NodeId, max_rounds: u64) -> RecoveryReport {
    let removed = net.remove_node(victim);
    assert!(removed.is_some(), "victim {victim:?} not in network");
    let gone = Extended::Fin(victim);
    // One walk of the sorted lanes, by rank: re-inserting a holder under
    // its own id pops the slot its removal just freed and splices it back
    // at the same rank, so the lanes read the same after every rewrite.
    for rank in 0..net.index.len() {
        let Some(node) = net.nodes[net.index.sorted_slots()[rank]].as_ref() else {
            continue;
        };
        let (l, r, lrl, ring) = (node.left(), node.right(), node.lrl(), node.ring());
        if l != gone && r != gone && lrl != victim && ring != Some(victim) {
            continue;
        }
        let (id, cfg) = (node.id(), *node.config());
        net.remove_node(id);
        net.insert_node(Node::with_state(
            id,
            if l == gone { Extended::NegInf } else { l },
            if r == gone { Extended::PosInf } else { r },
            if lrl == victim { id } else { lrl },
            ring.filter(|&t| t != victim),
            cfg,
        ));
    }
    let start = net.round();
    let report = measure_recovery(net, max_rounds);
    net.emit(Event::Span {
        label: "leave".to_string(),
        start,
        end: net.round(),
    });
    report
}

/// Picks a uniformly random non-extremal victim (the paper's leave
/// analysis closes an interior gap; removing an extremum is the easier
/// case) and removes it.
pub fn leave_random(net: &mut Network, seed: u64, max_rounds: u64) -> (NodeId, RecoveryReport) {
    let ids = net.index.sorted_ids();
    assert!(
        ids.len() >= 4,
        "need at least 4 nodes to remove an interior one"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let victim = ids[rng.random_range(1..ids.len() - 1)];
    let report = leave(net, victim, max_rounds);
    (victim, report)
}

/// Steps the network until the sorted ring holds again, for at most
/// `max_rounds` rounds **counted from this call** (the fault instant) —
/// a caller that warmed the network first does not eat into the budget.
/// Returns the watch's verdict, the rounds-to-recovery (`None` unless
/// recovered) and message accounting.
pub fn measure_recovery(net: &mut Network, max_rounds: u64) -> RecoveryReport {
    let watched = watch(net, 0, max_rounds, |_, _| {});
    RecoveryReport {
        rounds: watched.verdict.recovered_rounds(),
        messages: watched.totals.total_sent(),
        tracked_messages: watched.totals.tracked_sent,
        path_nodes: 0,
        verdict: Some(watched.verdict),
    }
}

/// A fresh stable network of `n` evenly spaced nodes that has additionally
/// run `warmup` rounds so the move-and-forget tokens have spread towards
/// their stationary distribution — the "stable state" fixture of the
/// experiments that earn it from the protocol (E2, E3, E9, the ablations).
pub fn stable_network(n: usize, cfg: ProtocolConfig, seed: u64, warmup: u64) -> Network {
    let ids = swn_core::id::evenly_spaced_ids(n);
    let mut net = Network::new(swn_core::invariants::make_sorted_ring(&ids, cfg), seed);
    net.run(warmup);
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(f: f64) -> NodeId {
        NodeId::from_fraction(f)
    }

    #[test]
    fn stable_network_is_a_sorted_ring_with_spread_tokens() {
        let net = stable_network(64, ProtocolConfig::default(), 1, 500);
        assert!(net.is_sorted_ring());
        // After 500 rounds a fair share of tokens are away from origin.
        let v = net.view();
        let away = v.nodes().iter().filter(|n| n.lrl() != n.id()).count();
        assert!(away > 16, "only {away}/64 tokens moved");
    }

    #[test]
    fn join_integrates_newcomer() {
        let mut net = stable_network(16, ProtocolConfig::default(), 1, 20);
        let ids = net.ids();
        let contact = ids[10];
        // A fresh id strictly inside an existing gap.
        let new_id = NodeId::from_bits(ids[3].bits() / 2 + ids[4].bits() / 2);
        let report = join(&mut net, new_id, contact, 2000);
        assert!(report.recovered(), "join did not re-stabilize: {report:?}");
        assert_eq!(net.len(), 17);
        let node = net.node(new_id).expect("newcomer present");
        assert_eq!(node.left().fin(), Some(ids[3]));
        assert_eq!(node.right().fin(), Some(ids[4]));
    }

    #[test]
    fn join_at_the_far_end_works() {
        let mut net = stable_network(8, ProtocolConfig::default(), 2, 10);
        let ids = net.ids();
        // New global maximum, contacting the global minimum.
        let new_id = NodeId::from_bits(ids.last().unwrap().bits() + 1000);
        let report = join(&mut net, new_id, ids[0], 2000);
        assert!(report.recovered(), "{report:?}");
        let node = net.node(new_id).unwrap();
        assert!(node.right().is_pos_inf());
        assert_eq!(node.ring(), Some(ids[0]), "new max must ring back to min");
    }

    #[test]
    fn leave_interior_heals_gap() {
        let mut net = stable_network(16, ProtocolConfig::default(), 3, 50);
        let ids = net.ids();
        let victim = ids[7];
        let report = leave(&mut net, victim, 4000);
        assert!(report.recovered(), "leave did not heal: {report:?}");
        assert_eq!(net.len(), 15);
        let left = net.node(ids[6]).unwrap();
        assert_eq!(left.right().fin(), Some(ids[8]), "gap not closed");
    }

    #[test]
    fn leave_extremum_recovers_ring_edges() {
        let mut net = stable_network(10, ProtocolConfig::default(), 4, 30);
        let ids = net.ids();
        let report = leave(&mut net, ids[0], 4000);
        assert!(report.recovered(), "{report:?}");
        let new_min = net.node(ids[1]).unwrap();
        let max = net.node(*ids.last().unwrap()).unwrap();
        assert_eq!(new_min.ring(), Some(max.id()));
        assert_eq!(max.ring(), Some(new_min.id()));
    }

    #[test]
    fn leave_random_removes_interior() {
        let mut net = stable_network(12, ProtocolConfig::default(), 5, 30);
        let ids = net.ids();
        let (victim, report) = leave_random(&mut net, 99, 4000);
        assert_ne!(victim, ids[0]);
        assert_ne!(victim, *ids.last().unwrap());
        assert!(report.recovered());
    }

    #[test]
    fn sequential_churn_storm() {
        // Several joins and leaves in sequence; the network must recover
        // each time.
        let mut net = stable_network(12, ProtocolConfig::default(), 6, 20);
        let mut next_bits: u64 = 1 << 40;
        for step in 0..4 {
            let ids = net.ids();
            if step % 2 == 0 {
                let new_id = NodeId::from_bits(next_bits);
                next_bits = next_bits.wrapping_mul(3).wrapping_add(12345) | 1;
                if net.node(new_id).is_some() {
                    continue;
                }
                let contact = ids[step % ids.len()];
                let rep = join(&mut net, new_id, contact, 3000);
                assert!(rep.recovered(), "join {step} failed");
            } else {
                let (_, rep) = leave_random(&mut net, step as u64, 3000);
                assert!(rep.recovered(), "leave {step} failed");
            }
        }
    }

    #[test]
    fn recovery_budget_counts_from_the_fault_instant() {
        // A long pre-run must not eat into the recovery budget, and the
        // verdict names the budget it exhausted, so callers can tell "did
        // not recover in k rounds" from "k was spent before the fault".
        let mut net = stable_network(8, ProtocolConfig::default(), 11, 0);
        net.run(500);
        let ids = net.ids();
        let rep = leave(&mut net, ids[3], 4000);
        assert!(rep.recovered(), "{rep:?}");
        assert_eq!(
            rep.verdict,
            rep.rounds.map(|rounds| Verdict::Recovered { rounds })
        );
        // An impossible budget exhausts honestly: rounds = None, and the
        // verdict reports the budget.
        let mut net2 = stable_network(8, ProtocolConfig::default(), 12, 0);
        net2.run(500);
        let ids2 = net2.ids();
        let rep2 = leave(&mut net2, ids2[3], 1);
        assert!(!rep2.recovered(), "{rep2:?}");
        assert_eq!(rep2.verdict, Some(Verdict::BudgetExhausted { budget: 1 }));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn joining_duplicate_id_panics() {
        let mut net = stable_network(4, ProtocolConfig::default(), 7, 0);
        let ids = net.ids();
        let _ = join(&mut net, ids[2], ids[0], 10);
    }

    #[test]
    #[should_panic(expected = "not in network")]
    fn leaving_unknown_id_panics() {
        let mut net = stable_network(4, ProtocolConfig::default(), 8, 0);
        let _ = leave(&mut net, fid(0.12345), 10);
    }
}
