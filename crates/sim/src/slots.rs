//! Dense id→slot index: O(1) message routing plus an incrementally
//! maintained sorted order for the step engine.
//!
//! The simulator stores nodes in a slot vector and their mail in one
//! flat mailbox keyed by slot; every send must map a destination
//! [`NodeId`] to its slot. A `BTreeMap` lookup
//! costs O(log n) pointer chases per message, which PR 3's profiling put
//! squarely on the hot path (several lookups per node per round). This
//! index keeps **two** synchronized structures:
//!
//! * an open-addressing hash table (fibonacci hashing, linear probing,
//!   backward-shift deletion) answering [`SlotIndex::get`] in O(1) with
//!   no per-entry allocation — the routing path;
//! * two parallel sorted lanes (`sorted_ids`, `sorted_slots`) holding the
//!   entries in ascending id order — `ids()`, snapshots, views and the
//!   round-order materialization read these flat slices directly. The
//!   lanes are maintained *incrementally*: insert and remove locate the
//!   rank by binary search and splice in place, so the ordered view is
//!   always current and the round loop's order build is a memcpy of
//!   [`SlotIndex::sorted_slots`] instead of a tree walk (let alone a
//!   rebuild).
//!
//! The hash table is **never iterated**, so its (hash-dependent, hence
//! insertion-order-dependent) internal layout can never leak into the
//! simulation: determinism rests on the sorted lanes, whose content is a
//! pure function of the live id set. Splicing a `Vec` is O(n) per
//! mutation in the worst case, but churn is rare relative to routing and
//! the memmove is a flat `u64`/`usize` shift (`sim.churn.insert_node_ns`
//! / `remove_node_ns` in `benchmark/` time it at each workload's n). Bulk
//! construction ([`SlotIndex::from_pairs`]) sorts once instead of
//! splicing n times, keeping million-node network builds O(n log n) and,
//! for pre-sorted input, effectively linear. Slot churn is the dangerous
//! case — `remove_node` pushes a slot onto a free list and a later
//! insert reuses it for a *different* id — and is covered by a proptest
//! pitting this index against a `BTreeMap` oracle over random
//! insert/remove/lookup sequences (`tests/slot_index_prop.rs`).

use swn_core::id::NodeId;

/// Initial hash-table capacity (power of two).
const INITIAL_CAPACITY: usize = 16;

/// An id→slot map with O(1) lookup and ordered iteration.
#[derive(Clone, Debug)]
pub struct SlotIndex {
    /// Ids in ascending order — authoritative for iteration and length.
    sorted_ids: Vec<NodeId>,
    /// Slot of `sorted_ids[rank]`, same order: the round loop's
    /// activation order is a copy of this lane.
    sorted_slots: Vec<usize>,
    /// Open-addressing table, power-of-two length, load factor ≤ 1/2.
    table: Vec<Option<(NodeId, usize)>>,
}

impl Default for SlotIndex {
    fn default() -> Self {
        SlotIndex::new()
    }
}

impl SlotIndex {
    /// An empty index.
    pub fn new() -> Self {
        SlotIndex {
            sorted_ids: Vec::new(),
            sorted_slots: Vec::new(),
            table: vec![None; INITIAL_CAPACITY],
        }
    }

    /// Bulk construction from arbitrary-order pairs: sorts once and
    /// builds the hash table at final size, instead of splicing the
    /// sorted lanes entry by entry. Returns the first duplicate id as
    /// `Err`. Already-ascending input (the common generator output)
    /// costs one verification pass plus table fills.
    pub fn from_pairs(mut pairs: Vec<(NodeId, usize)>) -> Result<Self, NodeId> {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(w[0].0);
        }
        let mut cap = INITIAL_CAPACITY;
        while (pairs.len() + 1) * 2 > cap {
            cap *= 2;
        }
        let mut table = vec![None; cap];
        for &(id, slot) in &pairs {
            Self::raw_insert(&mut table, id, slot);
        }
        let (sorted_ids, sorted_slots) = pairs.into_iter().unzip();
        Ok(SlotIndex {
            sorted_ids,
            sorted_slots,
            table,
        })
    }

    /// Fibonacci hashing: the high bits of `bits · φ⁻¹·2⁶⁴` mapped onto
    /// the power-of-two table. High bits, because the low bits of a
    /// multiplicative hash depend only on the low bits of the key.
    #[inline]
    fn home(bits: u64, table_len: usize) -> usize {
        let h = bits.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // The shift leaves log2(table_len) bits, which fit usize.
        #[allow(clippy::cast_possible_truncation)]
        {
            (h >> (64 - table_len.trailing_zeros())) as usize
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.sorted_ids.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted_ids.is_empty()
    }

    /// O(1) slot lookup — the message-routing hot path.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut i = Self::home(id.bits(), self.table.len());
        loop {
            match self.table[i] {
                None => return None,
                Some((k, slot)) if k == id => return Some(slot),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// True when `id` is present.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Inserts `id → slot`. Returns false (and changes nothing) when the
    /// id is already present. The sorted lanes are spliced at the
    /// binary-searched rank, so ascending insertion is an amortized O(1)
    /// append.
    pub fn insert(&mut self, id: NodeId, slot: usize) -> bool {
        let Err(rank) = self.sorted_ids.binary_search(&id) else {
            return false;
        };
        self.sorted_ids.insert(rank, id);
        self.sorted_slots.insert(rank, slot);
        if (self.sorted_ids.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        Self::raw_insert(&mut self.table, id, slot);
        true
    }

    /// Removes `id`, returning its slot.
    pub fn remove(&mut self, id: NodeId) -> Option<usize> {
        let rank = self.sorted_ids.binary_search(&id).ok()?;
        self.sorted_ids.remove(rank);
        let slot = self.sorted_slots.remove(rank);
        let mask = self.table.len() - 1;
        let mut i = Self::home(id.bits(), self.table.len());
        // The entry exists (the sorted lane had it), so this terminates.
        while self.table[i].is_none_or(|(k, _)| k != id) {
            i = (i + 1) & mask;
        }
        self.table[i] = None;
        // Backward-shift deletion: close the hole so later probes never
        // stop early at it. An occupied entry at j moves into the hole at
        // i exactly when i lies cyclically within [home(j-entry), j].
        let mut j = (i + 1) & mask;
        while let Some((k, s)) = self.table[j] {
            let h = Self::home(k.bits(), self.table.len());
            if j.wrapping_sub(h) & mask >= j.wrapping_sub(i) & mask {
                self.table[i] = Some((k, s));
                self.table[j] = None;
                i = j;
            }
            j = (j + 1) & mask;
        }
        Some(slot)
    }

    /// The ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sorted_ids.iter().copied()
    }

    /// The slots in ascending *id* order — the deterministic traversal
    /// the round loop, snapshots and views are built from.
    pub fn slots_by_id(&self) -> impl Iterator<Item = usize> + '_ {
        self.sorted_slots.iter().copied()
    }

    /// The ids in ascending order, as a flat slice.
    pub fn sorted_ids(&self) -> &[NodeId] {
        &self.sorted_ids
    }

    /// The slots in ascending id order, as a flat slice — the round
    /// loop's activation order is `memcpy`'d from here.
    pub fn sorted_slots(&self) -> &[usize] {
        &self.sorted_slots
    }

    /// The rank of `id` in the ascending order, when present.
    pub fn rank_of(&self, id: NodeId) -> Option<usize> {
        self.sorted_ids.binary_search(&id).ok()
    }

    /// The smallest live id — O(1) off the sorted lane.
    pub fn min_id(&self) -> Option<NodeId> {
        self.sorted_ids.first().copied()
    }

    /// The largest live id — O(1) off the sorted lane.
    pub fn max_id(&self) -> Option<NodeId> {
        self.sorted_ids.last().copied()
    }

    fn grow(&mut self) {
        let mut table = vec![None; self.table.len() * 2];
        for entry in self.table.iter().flatten() {
            Self::raw_insert(&mut table, entry.0, entry.1);
        }
        self.table = table;
    }

    fn raw_insert(table: &mut [Option<(NodeId, usize)>], id: NodeId, slot: usize) {
        let mask = table.len() - 1;
        let mut i = Self::home(id.bits(), table.len());
        while table[i].is_some() {
            i = (i + 1) & mask;
        }
        table[i] = Some((id, slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(bits: u64) -> NodeId {
        NodeId::from_bits(bits)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut idx = SlotIndex::new();
        assert!(idx.is_empty());
        assert!(idx.insert(id(10), 0));
        assert!(idx.insert(id(5), 1));
        assert!(!idx.insert(id(10), 9), "duplicate insert must be refused");
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(id(10)), Some(0));
        assert_eq!(idx.get(id(5)), Some(1));
        assert_eq!(idx.get(id(7)), None);
        assert_eq!(idx.remove(id(10)), Some(0));
        assert_eq!(idx.remove(id(10)), None);
        assert_eq!(idx.get(id(10)), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn ordered_iteration_is_ascending_by_id() {
        let mut idx = SlotIndex::new();
        for (slot, bits) in [40u64, 7, 99, 23].into_iter().enumerate() {
            idx.insert(id(bits), slot);
        }
        let ids: Vec<u64> = idx.ids().map(NodeId::bits).collect();
        assert_eq!(ids, vec![7, 23, 40, 99]);
        // Slots follow the id order, not insertion order.
        let slots: Vec<usize> = idx.slots_by_id().collect();
        assert_eq!(slots, vec![1, 3, 0, 2]);
        assert_eq!(idx.sorted_slots(), &[1, 3, 0, 2]);
        assert_eq!(idx.min_id(), Some(id(7)));
        assert_eq!(idx.max_id(), Some(id(99)));
        assert_eq!(idx.rank_of(id(40)), Some(2));
        assert_eq!(idx.rank_of(id(41)), None);
    }

    #[test]
    fn survives_growth_past_many_rehashes() {
        let mut idx = SlotIndex::new();
        for k in 0..1000usize {
            assert!(idx.insert(id(k as u64 * 0x1_0001), k));
        }
        assert_eq!(idx.len(), 1000);
        for k in 0..1000usize {
            assert_eq!(idx.get(id(k as u64 * 0x1_0001)), Some(k));
        }
    }

    #[test]
    fn backward_shift_keeps_probe_chains_intact() {
        // Fill enough keys that probe chains form, then delete from the
        // middle of chains and verify every survivor is still found.
        let keys: Vec<u64> = (0..256u64).map(|k| k.wrapping_mul(0x9e3779b9)).collect();
        let mut idx = SlotIndex::new();
        for (slot, &k) in keys.iter().enumerate() {
            idx.insert(id(k), slot);
        }
        for (slot, &k) in keys.iter().enumerate() {
            if slot % 3 == 0 {
                assert_eq!(idx.remove(id(k)), Some(slot));
            }
        }
        for (slot, &k) in keys.iter().enumerate() {
            let expect = if slot % 3 == 0 { None } else { Some(slot) };
            assert_eq!(idx.get(id(k)), expect, "key {k} after deletions");
        }
    }

    #[test]
    fn slot_reuse_after_remove_reroutes_to_the_new_owner() {
        // The churn pattern the network uses: a removed node's slot is
        // recycled for a different id; lookups must route to the new id
        // only.
        let mut idx = SlotIndex::new();
        idx.insert(id(1), 0);
        idx.insert(id(2), 1);
        assert_eq!(idx.remove(id(1)), Some(0));
        idx.insert(id(3), 0); // reuse slot 0
        assert_eq!(idx.get(id(1)), None);
        assert_eq!(idx.get(id(3)), Some(0));
        assert_eq!(idx.get(id(2)), Some(1));
    }

    #[test]
    fn bulk_build_matches_incremental_build() {
        let pairs: Vec<(NodeId, usize)> = [40u64, 7, 99, 23]
            .into_iter()
            .enumerate()
            .map(|(slot, bits)| (id(bits), slot))
            .collect();
        let bulk = SlotIndex::from_pairs(pairs.clone()).expect("no duplicates");
        let mut inc = SlotIndex::new();
        for &(nid, slot) in &pairs {
            assert!(inc.insert(nid, slot));
        }
        assert_eq!(bulk.sorted_ids(), inc.sorted_ids());
        assert_eq!(bulk.sorted_slots(), inc.sorted_slots());
        for &(nid, slot) in &pairs {
            assert_eq!(bulk.get(nid), Some(slot));
        }
        assert_eq!(bulk.get(id(8)), None);
    }

    #[test]
    fn bulk_build_reports_duplicates() {
        let pairs = vec![(id(3), 0), (id(9), 1), (id(3), 2)];
        assert_eq!(SlotIndex::from_pairs(pairs).map(|_| ()), Err(id(3)));
    }

    #[test]
    fn bulk_build_sizes_table_for_load_factor() {
        // 1000 entries must land in a table big enough that inserting a
        // few more keeps the load factor ≤ 1/2 without an early grow.
        let pairs: Vec<(NodeId, usize)> = (0..1000usize)
            .map(|k| (id(k as u64 * 0x1_0001), k))
            .collect();
        let mut idx = SlotIndex::from_pairs(pairs).expect("no duplicates");
        for k in 0..1000usize {
            assert_eq!(idx.get(id(k as u64 * 0x1_0001)), Some(k));
        }
        assert!(idx.insert(id(7), 1000));
        assert_eq!(idx.get(id(7)), Some(1000));
    }
}
