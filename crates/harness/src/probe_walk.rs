//! Deterministic probe-path replay.
//!
//! In a frozen state the forwarding decisions of Algorithms 5/6/10 are a
//! pure function of node states, so a probe's path can be replayed hop by
//! hop without running the simulator — exactly what Lemma 4.23's
//! hop-count experiment (E4) needs. The replay *runs the shipped
//! handlers*, not a model of them: the prober's own regular action
//! launches the probe, [`Node::on_message`] forwards it, each on a clone
//! of the node the view holds, and the walk follows the probe send out of
//! the [`Outbox`]. A hop count read here is therefore a count of
//! forwarding steps real nodes would take.
//!
//! [`Node::on_message`]: swn_core::node::Node::on_message

use rand::rngs::StdRng;
use rand::SeedableRng;
use swn_core::id::NodeId;
use swn_core::message::Message;
use swn_core::outbox::{Outbox, ProtocolEvent};
use swn_core::views::NetView;

/// Outcome of replaying one probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The probe reached the long-range link's endpoint.
    Arrived {
        /// Forwarding hops taken.
        hops: u32,
    },
    /// The probe got stuck and created a repair edge at the given hop
    /// count (never happens in the stable state — Theorem 4.3).
    Repaired {
        /// Hops taken before the walk got stuck.
        hops: u32,
    },
    /// The walk exceeded `2n` hops, was handed to an identifier absent
    /// from the view, or was dropped as stale (a corrupt state).
    Diverged,
}

/// Replays the probe the node at rank `origin` launches toward its
/// long-range link. Returns `None` when the token is at its origin (no
/// probe) or the endpoint id is absent from the view.
pub fn replay_lrl_probe(v: &NetView<'_>, origin: usize) -> Option<ProbeOutcome> {
    let prober = v.node(origin);
    let dest = prober.lrl();
    if dest == prober.id() || v.index_of(dest).is_none() {
        return None;
    }
    let max_hops = u32::try_from(2 * v.len() + 4).expect("hop budget fits u32");
    // Probe handlers draw nothing; `on_message` wants a generator anyway.
    let mut rng = StdRng::seed_from_u64(0);
    let mut out = Outbox::new();
    // Origination (Algorithm 10): the prober's regular action on a probing
    // turn of its cadence.
    prober.clone().with_probe_phase(0).on_regular(&mut out);
    let mut hops = 0u32;
    loop {
        let Some((holder, probe)) = probe_send(&out, dest) else {
            let repaired = out
                .events()
                .iter()
                .any(|e| matches!(*e, ProtocolEvent::ProbeRepair { dest: d } if d == dest));
            return Some(if repaired {
                ProbeOutcome::Repaired { hops }
            } else {
                ProbeOutcome::Diverged
            });
        };
        hops += 1;
        if holder == dest {
            return Some(ProbeOutcome::Arrived { hops });
        }
        if hops >= max_hops {
            return Some(ProbeOutcome::Diverged);
        }
        let Some(rank) = v.index_of(holder) else {
            return Some(ProbeOutcome::Diverged); // dangling pointer mid-path
        };
        // Forwarding (Algorithms 5/6): the holder's receive action.
        out.clear();
        v.node(rank).clone().on_message(probe, &mut rng, &mut out);
    }
}

/// The probe for `dest` among an action's sends, with its recipient. A
/// receive action forwards at most one; an extremal prober's regular
/// action may launch a ring probe first, so the last one is the probe
/// along the long-range link.
fn probe_send(out: &Outbox, dest: NodeId) -> Option<(NodeId, Message)> {
    out.sends()
        .iter()
        .rev()
        .copied()
        .find(|&(_, m)| matches!(m, Message::ProbR(d) | Message::ProbL(d) if d == dest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::evenly_spaced_ids;
    use swn_core::invariants::make_sorted_ring;
    use swn_core::node::Node;
    use swn_core::views::Snapshot;

    fn ring_snapshot_with_lrl(n: usize, lrls: &[(usize, usize)]) -> Snapshot {
        let ids = evenly_spaced_ids(n);
        let cfg = ProtocolConfig::default();
        let mut nodes = make_sorted_ring(&ids, cfg);
        for &(i, t) in lrls {
            nodes[i] = Node::with_state(
                nodes[i].id(),
                nodes[i].left(),
                nodes[i].right(),
                ids[t],
                nodes[i].ring(),
                cfg,
            );
        }
        Snapshot::from_nodes(nodes)
    }

    #[test]
    fn origin_token_has_no_probe() {
        let s = ring_snapshot_with_lrl(8, &[]);
        for i in 0..8 {
            assert_eq!(replay_lrl_probe(&s.as_view(), i), None);
        }
    }

    #[test]
    fn probe_walks_short_links_to_destination() {
        let s = ring_snapshot_with_lrl(16, &[(2, 7)]);
        // Rank distance 5 via r-links only.
        assert_eq!(
            replay_lrl_probe(&s.as_view(), 2),
            Some(ProbeOutcome::Arrived { hops: 5 })
        );
    }

    #[test]
    fn probe_walks_leftward_too() {
        let s = ring_snapshot_with_lrl(16, &[(9, 3)]);
        assert_eq!(
            replay_lrl_probe(&s.as_view(), 9),
            Some(ProbeOutcome::Arrived { hops: 6 })
        );
    }

    #[test]
    fn probe_uses_intermediate_shortcuts() {
        // Node 2 probes to 12; node 4 has a shortcut to 10.
        let s = ring_snapshot_with_lrl(16, &[(2, 12), (4, 10)]);
        // Path: 2→3→4 —lrl→ 10→11→12 = 5 hops instead of 10.
        assert_eq!(
            replay_lrl_probe(&s.as_view(), 2),
            Some(ProbeOutcome::Arrived { hops: 5 })
        );
    }

    #[test]
    fn overshooting_shortcut_is_skipped() {
        // Node 4's shortcut goes past the destination: must not be taken.
        let s = ring_snapshot_with_lrl(16, &[(2, 8), (4, 13)]);
        assert_eq!(
            replay_lrl_probe(&s.as_view(), 2),
            Some(ProbeOutcome::Arrived { hops: 6 })
        );
    }

    #[test]
    fn broken_chain_reports_repair() {
        let ids = evenly_spaced_ids(8);
        let cfg = ProtocolConfig::default();
        let mut nodes = make_sorted_ring(&ids, cfg);
        // Cut the list between ranks 4 and 5: node 4's r skips to 6.
        nodes[4] = Node::with_state(
            ids[4],
            swn_core::id::Extended::Fin(ids[3]),
            swn_core::id::Extended::Fin(ids[6]),
            ids[4],
            None,
            cfg,
        );
        // Probe from 2 to 5 must fall into the gap at node 4.
        nodes[2] = Node::with_state(ids[2], nodes[2].left(), nodes[2].right(), ids[5], None, cfg);
        let s = Snapshot::from_nodes(nodes);
        assert_eq!(
            replay_lrl_probe(&s.as_view(), 2),
            Some(ProbeOutcome::Repaired { hops: 2 })
        );
    }

    #[test]
    fn probe_handed_to_an_absent_node_diverges() {
        // Rank 3 left without anyone noticing: the probe from 2 to 6 is
        // handed to an identifier the view does not hold.
        let full = ring_snapshot_with_lrl(8, &[(2, 6)]);
        let mut nodes = full.nodes().to_vec();
        nodes.remove(3);
        let s = Snapshot::from_nodes(nodes);
        assert_eq!(
            replay_lrl_probe(&s.as_view(), 2),
            Some(ProbeOutcome::Diverged)
        );
    }

    #[test]
    fn stable_state_probes_never_repair() {
        let s = ring_snapshot_with_lrl(32, &[(0, 20), (5, 31), (17, 2), (30, 1)]);
        for i in 0..32 {
            if let Some(outcome) = replay_lrl_probe(&s.as_view(), i) {
                assert!(
                    matches!(outcome, ProbeOutcome::Arrived { .. }),
                    "node {i}: {outcome:?}"
                );
            }
        }
    }
}
