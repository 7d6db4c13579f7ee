//! The ranking certificate's potential function.
//!
//! The paper's convergence argument is a staged potential: knowledge is
//! never lost (phase 1), the `l`/`r` pointers only refine toward the
//! sorted list (phase 2), the ring edges only walk toward the true
//! extrema (phase 3). [`rank_of`] packs those three stages into one
//! lexicographic vector that the ranking certificate checks
//! **non-increasing on every reachable fair-model transition** and **at
//! its minimum on every goal state**:
//!
//! 1. `components` — number of weak components of the CC view (stored
//!    links plus in-flight payloads). The connectivity lemma (Theorem
//!    4.3) says no handler drops the last link between two components;
//!    counting components instead of testing overall connectivity makes
//!    the same argument component-local.
//! 2. `list_deficit` — number of `l`/`r` pointers that differ from their
//!    sorted-list target. `linearize` adopts only identifiers strictly
//!    between a node and its current neighbour, and no identifier fits
//!    strictly between list-adjacent nodes, so a correct pointer can
//!    never regress; sanitation only rewrites ill-typed pointers, which
//!    are already counted as deficits.
//! 3. `ring_deficit` — for each extremal node, whether it has both its
//!    sentinel side (`min.l = −∞` / `max.r = +∞`) and its closing ring
//!    edge (`min.ring = max` / `max.ring = min`). The sentinel guard is
//!    load-bearing: sanitation may clear the ring edge of a node whose
//!    `l` is still ill-typed, and without the guard that transition
//!    would look like a rank increase — with it, the ill-typed `l`
//!    already counts the node as deficient before the clear.
//!    `update_ring` itself only improves candidates monotonically
//!    (min's ring edge walks right, max's walks left).
//!
//! The long-range token (`lrl`, the move-and-forget walk) is
//! deliberately **absent** from the rank: in the fair model the token
//! keeps moving forever — that is the protocol's phase-4 behaviour, a
//! distributional property, not a convergence one — so any
//! token-sensitive component would oscillate on the goal region's fair
//! cycles and break the certificate. See DESIGN.md §11.

use swn_core::id::Extended;
use swn_core::invariants::{component_labels_view, sorted_list_links};
use swn_core::views::{NetView, View};

/// Lexicographic potential ⟨components, list deficit, ring deficit⟩;
/// arrays of `u64` compare lexicographically, so `next <= cur` is the
/// non-increase check.
pub type Rank = [u64; 3];

/// The rank every goal (sorted-ring) state must sit at for `n ≥ 2`: one
/// component, no pointer deficits.
pub const GOAL_RANK: Rank = [1, 0, 0];

/// Evaluates the potential on one configuration.
pub fn rank_of(v: &NetView<'_>) -> Rank {
    let mut labels = component_labels_view(v, View::Cc);
    labels.sort_unstable();
    labels.dedup();
    let components = labels.len() as u64;

    let nodes = v.nodes();
    let n = nodes.len();
    let mut list_deficit = 0u64;
    for (pos, node) in nodes.iter().enumerate() {
        let (want_l, want_r) = sorted_list_links(pos, n, |i| nodes[i].id());
        list_deficit += u64::from(node.left() != want_l);
        list_deficit += u64::from(node.right() != want_r);
    }

    let mut ring_deficit = 0u64;
    if n >= 2 {
        let min = nodes[0];
        let max = nodes[n - 1];
        let min_ok = min.left() == Extended::NegInf && min.ring() == Some(max.id());
        let max_ok = max.right() == Extended::PosInf && max.ring() == Some(min.id());
        ring_deficit += u64::from(!min_ok);
        ring_deficit += u64::from(!max_ok);
    }

    [components, list_deficit, ring_deficit]
}

#[cfg(test)]
mod tests {
    use super::*;
    use swn_core::config::ProtocolConfig;
    use swn_core::id::evenly_spaced_ids;
    use swn_core::invariants::make_sorted_ring;
    use swn_core::node::Node;

    #[test]
    fn sorted_ring_sits_at_goal_rank() {
        let ids = evenly_spaced_ids(4);
        let nodes = make_sorted_ring(&ids, ProtocolConfig::default());
        let channels = vec![Vec::new(); 4];
        assert_eq!(rank_of(&NetView::from_slices(&nodes, &channels)), GOAL_RANK);
    }

    #[test]
    fn fresh_nodes_rank_strictly_above_goal() {
        let ids = evenly_spaced_ids(3);
        let nodes: Vec<Node> = ids
            .iter()
            .map(|&id| Node::new(id, ProtocolConfig::default()))
            .collect();
        let channels = vec![Vec::new(); 3];
        let r = rank_of(&NetView::from_slices(&nodes, &channels));
        assert!(r > GOAL_RANK, "{r:?}");
        assert_eq!(r[0], 3, "three isolated components");
    }
}
