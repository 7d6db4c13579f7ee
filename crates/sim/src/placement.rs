//! The misplaced-node counter behind `Network::is_sorted_list` and
//! `Network::is_sorted_ring`, under either schedule.
//!
//! The sorted list (Definition 4.8) is a sum of per-node terms — the node
//! at rank `k` stores exactly the ids at ranks `k - 1` and `k + 1`
//! ([`misplaced`]) — and a term can only move when the node's own
//! `(l, r)` moved (its turn, whose diff spans the deliveries, the regular
//! action and a bounce's pointer clear; or a fault rewrite) or the id
//! next to it in the sorted order changed (a join or leave, which
//! refreshes the ranks around the splice). One flag per slot and their
//! running count therefore answer the predicate exactly in O(1): a
//! legitimacy measure summed from local terms and kept current where
//! those terms change (Feldmann & Scheideler's potential discipline).
//! "Every node settled" would not do: under the active set it is only
//! *sufficient* — a sorted ring still digesting a dangling lrl token or a
//! leftover ring edge has unsettled nodes — so watching it instead would
//! report recovery rounds late.

use crate::slots::SlotIndex;
use swn_core::id::{Extended, NodeId};
use swn_core::invariants::sorted_list_links;
use swn_core::node::Node;

/// One misplaced flag per slot and the number set.
#[derive(Debug)]
pub(crate) struct Placement {
    /// `misplaced[slot]`: the live node in `slot` fails its term of the
    /// sorted list; false for free slots.
    misplaced: Vec<bool>,
    /// Number of set flags: zero exactly on the sorted list.
    count: usize,
}

impl Placement {
    /// Every term of the current node table, in one pass over the sorted
    /// lanes.
    pub(crate) fn new(nodes: &[Option<Node>], index: &SlotIndex) -> Self {
        let mut p = Placement {
            misplaced: vec![false; nodes.len()],
            count: 0,
        };
        for rank in 0..index.len() {
            p.refresh_rank(nodes, index, rank);
        }
        p
    }

    /// True exactly when the stored `(l, r)` pairs are the sorted list:
    /// no live node is misplaced.
    pub(crate) fn is_sorted_list(&self) -> bool {
        self.count == 0
    }

    /// Re-evaluates the flag of the node at `rank` of the sorted lanes
    /// (no-op past their end).
    fn refresh_rank(&mut self, nodes: &[Option<Node>], index: &SlotIndex, rank: usize) {
        if let Some(&slot) = index.sorted_slots().get(rank) {
            self.set(slot, misplaced(nodes, index, rank));
        }
    }

    fn set(&mut self, slot: usize, now: bool) {
        if slot >= self.misplaced.len() {
            self.misplaced.resize(slot + 1, false);
        }
        let was = std::mem::replace(&mut self.misplaced[slot], now);
        self.count = self.count + usize::from(now) - usize::from(was);
    }

    /// Re-evaluates the flag of the node in `slot` after its turn or a
    /// fault moved its `(l, r)`.
    pub(crate) fn refresh_slot(&mut self, nodes: &[Option<Node>], index: &SlotIndex, slot: usize) {
        if let Some(rank) = nodes[slot].as_ref().and_then(|n| index.rank_of(n.id())) {
            self.refresh_rank(nodes, index, rank);
        }
    }

    /// The end of the turn of the node in `slot`: its flag is
    /// re-evaluated when the turn moved its `(l, r)` off `before`.
    pub(crate) fn finish_turn(
        &mut self,
        nodes: &[Option<Node>],
        index: &SlotIndex,
        slot: usize,
        before: (Extended, Extended),
    ) {
        if nodes[slot]
            .as_ref()
            .is_some_and(|n| (n.left(), n.right()) != before)
        {
            self.refresh_slot(nodes, index, slot);
        }
    }

    /// A join or a leave of `id`, in `slot`: the slot stops counting
    /// (a leave frees it), and the ranks around where `id` sorts are
    /// re-evaluated — a newcomer and its two sorted neighbours, whose
    /// wanted `(l, r)` now name it, or the two nodes a departure made
    /// adjacent.
    pub(crate) fn on_splice(
        &mut self,
        nodes: &[Option<Node>],
        index: &SlotIndex,
        id: NodeId,
        slot: usize,
    ) {
        self.set(slot, false);
        let rank = index.sorted_ids().partition_point(|&x| x < id);
        for k in rank.saturating_sub(1)..=rank + 1 {
            self.refresh_rank(nodes, index, k);
        }
    }
}

/// One node's term of the sorted list (Definition 4.8): true when the
/// node at `rank` of the sorted lanes does *not* store the `(l, r)` that
/// `sorted_list_links` wants there.
fn misplaced(nodes: &[Option<Node>], index: &SlotIndex, rank: usize) -> bool {
    let ids = index.sorted_ids();
    let n = nodes[index.sorted_slots()[rank]]
        .as_ref()
        .expect("indexed slots hold live nodes");
    (n.left(), n.right()) != sorted_list_links(rank, ids.len(), |k| ids[k])
}
