//! Canonical state keys: id-rank renaming plus age saturation.
//!
//! Two abstractions compose into one canonical [`Key`]:
//!
//! * **Rank renaming.** The protocol is order-based: every handler
//!   decision compares identifiers, never inspects their magnitude. The
//!   canonical key therefore encodes each identifier as its *rank* in
//!   the sorted id set and walks nodes (and channels) in rank order. Two
//!   configurations that differ only in the storage order of the node
//!   vector, or in the concrete id values assigned to the same order
//!   type, get the same key — this is the symmetry reduction, and it is
//!   what lets one search certify every network that is order-isomorphic
//!   to the seeded one, however the initializer arranged the node vector.
//!
//! * **Age saturation.** `age` enters behaviour only through the forget
//!   coin inside `move-forget`, drawn only when `φ(age) > 0`. For
//!   `age ≤ 2`, `φ = 0`: no coin is drawn and the token is kept. For
//!   every `age ≥ 3`, `0 < φ(age) < 1 − 2⁻⁵³`, so of the two outcomes
//!   the graph branches on ([`Coins`](crate::stepper::Coins)), the `0`
//!   draw forgets and the `u64::MAX` draw (the float `1 − 2⁻⁵³`) keeps:
//!   both outcome classes exist at every such age, and the successors do
//!   not depend on which age it was. Ages `0`, `1` and `2` must stay
//!   distinct (they count down to the threshold: a successor of
//!   `age = 2` is forgettable, a successor of `age = 1` is not), but all
//!   ages `≥ 3` are bisimilar, so the key stores `min(age, 3)`. Within
//!   the budgeted scope this is a plain reduction — states whose ages
//!   differ only past the threshold collapse into one — and it is what
//!   would keep `age` from blowing up the key space in deeper scopes.
//!   The `both_forget_outcomes_exist_from_age_three` test pins the
//!   argument to the implemented `φ`.

use crate::state::{Key, State};

/// Ages at or above this value are bisimilar: each draws the forget coin,
/// and both of its outcomes exist (see the module docs). The canonical
/// key stores `min(age, AGE_SATURATION)`.
pub const AGE_SATURATION: u64 = 3;

/// Node indices in ascending id order: `order[rank] = index`.
fn rank_order(s: &State) -> Vec<usize> {
    let mut order: Vec<usize> = (0..s.nodes.len()).collect();
    order.sort_by(|&a, &b| {
        s.nodes[a]
            .id()
            .partial_cmp(&s.nodes[b].id())
            .expect("node ids are totally ordered")
    });
    order
}

/// Canonical key of `s`, the only state key: per node in id-rank order
/// `(l, r, lrl, ring, age, tick)` with identifiers encoded as ranks, ages
/// saturated at [`AGE_SATURATION`] and probing ticks reduced to their
/// `probe_period` residue; then the budgets and the sorted channel
/// sets, in rank order. Node ids and the protocol config are
/// immutable and omitted.
///
/// Equal canonical keys are bisimilar modulo an order-isomorphism of the
/// identifier space, which every handler decision factors through.
pub fn canonical_key(s: &State) -> Key {
    use swn_core::id::Extended;
    use swn_core::message::Message;

    let order = rank_order(s);
    let mut rank_of_index = vec![0u64; order.len()];
    for (rank, &idx) in order.iter().enumerate() {
        rank_of_index[idx] = rank as u64;
    }
    let code_id = |id: swn_core::id::NodeId| -> u64 {
        let idx = s.index_of(id).expect("identifier in the closed world");
        rank_of_index[idx] + 2
    };
    let code_ext = |e: Extended| -> u64 {
        match e {
            Extended::NegInf => 0,
            Extended::PosInf => 1,
            Extended::Fin(id) => code_id(id),
        }
    };
    let code_msg = |m: &Message| -> [u64; 3] {
        match *m {
            Message::Lin(x) => [0, code_id(x), 0],
            Message::IncLrl(x) => [1, code_id(x), 0],
            Message::ResLrl(a, b) => [2, code_ext(a), code_ext(b)],
            Message::Ring(x) => [3, code_id(x), 0],
            Message::ResRing(x) => [4, code_id(x), 0],
            Message::ProbR(x) => [5, code_id(x), 0],
            Message::ProbL(x) => [6, code_id(x), 0],
        }
    };

    let mut k = Vec::with_capacity(6 * s.nodes.len() + 4 * s.channels.len());
    for &idx in &order {
        let node = &s.nodes[idx];
        k.push(code_ext(node.left()));
        k.push(code_ext(node.right()));
        k.push(code_id(node.lrl()));
        k.push(node.ring().map_or(0, code_id));
        k.push(node.age().min(AGE_SATURATION));
        k.push(node.probe_tick() % node.config().probe_period);
    }
    for &idx in &order {
        k.push(u64::from(s.budgets[idx]));
    }
    for &idx in &order {
        let mut codes: Vec<[u64; 3]> = s.channels[idx].iter().map(code_msg).collect();
        codes.sort_unstable();
        k.push(codes.len() as u64);
        for c in codes {
            k.extend(c);
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use swn_core::config::ProtocolConfig;
    use swn_core::forget::phi;
    use swn_core::id::evenly_spaced_ids;
    use swn_core::message::Message;
    use swn_core::node::Node;

    #[test]
    fn both_forget_outcomes_exist_from_age_three() {
        // The age-saturation argument needs, for every age ≥ 3, the `0`
        // draw (0.0) to forget and the `u64::MAX` draw (the largest f64
        // below 1) to keep: 0 < φ(age) < max draw.
        let max_draw = (u64::MAX >> 11) as f64 / (1u64 << 53) as f64;
        assert!(max_draw < 1.0);
        for age in 3..2000u64 {
            let p = phi(age, 0.1);
            assert!(p > 0.0, "φ({age}) = 0: the 0 draw would keep");
            assert!(p < max_draw, "φ({age}) = {p} reaches the max draw");
        }
        for age in 0..3u64 {
            assert_eq!(phi(age, 0.1), 0.0, "φ must vanish below age 3");
        }
    }

    #[test]
    fn canonical_key_is_storage_order_invariant() {
        let ids = evenly_spaced_ids(3);
        let cfg = ProtocolConfig::default();
        let nodes: Vec<Node> = ids.iter().map(|&id| Node::new(id, cfg)).collect();
        let mut shuffled = nodes.clone();
        shuffled.rotate_left(1);
        let a = State::initial(nodes, &[(ids[0], Message::Lin(ids[1]))], 1);
        let b = State::initial(shuffled, &[(ids[0], Message::Lin(ids[1]))], 1);
        assert_eq!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn canonical_key_saturates_age() {
        let ids = evenly_spaced_ids(2);
        let cfg = ProtocolConfig::default();
        let at_age = |age: u64| -> State {
            let nodes = ids
                .iter()
                .map(|&id| {
                    let mut n = Node::new(id, cfg);
                    for _ in 0..age {
                        let mut out = swn_core::outbox::Outbox::new();
                        n.on_regular(&mut out);
                    }
                    n
                })
                .collect();
            State::initial(nodes, &[], 0)
        };
        assert_ne!(
            canonical_key(&at_age(1)),
            canonical_key(&at_age(2)),
            "ages below the threshold stay distinct"
        );
        assert_eq!(
            canonical_key(&at_age(3)),
            canonical_key(&at_age(4)),
            "ages at and past the threshold merge"
        );
    }
}
