//! Property test: the dense id→slot index agrees with a `BTreeMap`
//! routing oracle under churn.
//!
//! The round loop routes every message through [`SlotIndex::get`], so a
//! single stale entry silently delivers messages to the wrong node. The
//! dangerous pattern is the network's slot recycling: `remove_node`
//! pushes a slot onto a free list and a later insert reuses it for a
//! *different* id — a buggy backward-shift deletion would leave the old
//! id reachable (routing to a slot now owned by someone else) or make a
//! surviving id unreachable (its probe chain broken by the hole).
//!
//! This test replays randomized insert/remove/lookup sequences over a
//! deliberately small id universe (maximizing reuse and hash collisions)
//! against a `BTreeMap<NodeId, usize>` oracle, with the same free-list
//! slot allocation the network uses, checking full agreement — every
//! lookup, the ordered traversal, and the length — after every step.
//!
//! [`SlotIndex::get`]: swn_sim::slots::SlotIndex::get

#![expect(
    clippy::disallowed_types,
    reason = "the BTreeMap is the ordered oracle the index is checked against"
)]

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use swn_core::id::NodeId;
use swn_sim::slots::SlotIndex;

/// One scripted operation over an id drawn from the small universe.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Insert(u64),
    Remove(u64),
    Lookup(u64),
}

fn decode(code: (u8, u64)) -> Op {
    match code.0 {
        0 => Op::Insert(code.1),
        1 => Op::Remove(code.1),
        _ => Op::Lookup(code.1),
    }
}

fn assert_full_agreement(
    idx: &SlotIndex,
    oracle: &BTreeMap<NodeId, usize>,
    universe: u64,
    step: usize,
) {
    assert_eq!(idx.len(), oracle.len(), "len diverged at step {step}");
    for bits in 0..universe {
        let id = NodeId::from_bits(bits);
        assert_eq!(
            idx.get(id),
            oracle.get(&id).copied(),
            "lookup of {bits} diverged at step {step}"
        );
    }
    let ordered: Vec<(NodeId, usize)> = idx.ids().zip(idx.slots_by_id()).collect();
    let expected: Vec<(NodeId, usize)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(ordered, expected, "ordered view diverged at step {step}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_index_agrees_with_btreemap_oracle_under_churn(
        codes in vec((0u8..3, 0u64..24), 1..200),
    ) {
        const UNIVERSE: u64 = 24;
        let mut idx = SlotIndex::new();
        let mut oracle: BTreeMap<NodeId, usize> = BTreeMap::new();
        // The network's slot allocation: recycle freed slots LIFO, grow
        // otherwise. Shared by both sides so slots stay comparable.
        let mut free: Vec<usize> = Vec::new();
        let mut next_slot = 0usize;
        for (step, &code) in codes.iter().enumerate() {
            match decode(code) {
                Op::Insert(bits) => {
                    let id = NodeId::from_bits(bits);
                    match oracle.entry(id) {
                        Entry::Occupied(_) => {
                            prop_assert!(!idx.insert(id, usize::MAX), "duplicate accepted");
                        }
                        Entry::Vacant(e) => {
                            let slot = free.pop().unwrap_or_else(|| {
                                next_slot += 1;
                                next_slot - 1
                            });
                            prop_assert!(idx.insert(id, slot));
                            e.insert(slot);
                        }
                    }
                }
                Op::Remove(bits) => {
                    let id = NodeId::from_bits(bits);
                    let expect = oracle.remove(&id);
                    let got = idx.remove(id);
                    prop_assert_eq!(got, expect, "remove diverged at step {}", step);
                    if let Some(slot) = got {
                        free.push(slot);
                    }
                }
                Op::Lookup(bits) => {
                    let id = NodeId::from_bits(bits);
                    prop_assert_eq!(
                        idx.get(id),
                        oracle.get(&id).copied(),
                        "lookup diverged at step {}",
                        step
                    );
                }
            }
            assert_full_agreement(&idx, &oracle, UNIVERSE, step);
        }
    }
}

/// Deterministic stress along the same axis: many rounds of "remove a
/// batch, reinsert different ids into the recycled slots", which is the
/// exact traffic pattern `Network` churn produces at scale.
#[test]
fn slot_recycling_stress_stays_consistent() {
    let mut idx = SlotIndex::new();
    let mut oracle: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_slot = 0usize;
    let mut alloc = |free: &mut Vec<usize>| {
        free.pop().unwrap_or_else(|| {
            next_slot += 1;
            next_slot - 1
        })
    };
    // Seed 64 nodes.
    for bits in 0..64u64 {
        let slot = alloc(&mut free);
        assert!(idx.insert(NodeId::from_bits(bits), slot));
        oracle.insert(NodeId::from_bits(bits), slot);
    }
    // 40 churn waves: drop every third live id, insert fresh ids.
    let mut fresh = 64u64;
    for wave in 0..40 {
        let victims: Vec<NodeId> = oracle.keys().copied().step_by(3).collect();
        for v in victims {
            let slot = oracle.remove(&v).expect("oracle has victim");
            assert_eq!(idx.remove(v), Some(slot), "wave {wave}");
            free.push(slot);
        }
        for _ in 0..20 {
            let id = NodeId::from_bits(fresh);
            fresh += 1;
            let slot = alloc(&mut free);
            assert!(idx.insert(id, slot), "wave {wave}");
            oracle.insert(id, slot);
        }
        assert_eq!(idx.len(), oracle.len(), "wave {wave}");
        for (&id, &slot) in &oracle {
            assert_eq!(idx.get(id), Some(slot), "wave {wave}: {id:?}");
        }
        let ordered: Vec<NodeId> = idx.ids().collect();
        let expected: Vec<NodeId> = oracle.keys().copied().collect();
        assert_eq!(ordered, expected, "wave {wave}");
    }
}
