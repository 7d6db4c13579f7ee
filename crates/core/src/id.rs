//! Node identifiers.
//!
//! The paper assigns every node an identifier `id ∈ [0, 1)` and the protocol
//! is a *compare-store-send* program: identifiers are only ever compared,
//! stored and forwarded, never inspected or manipulated arithmetically.
//!
//! We represent an identifier as a fixed-point fraction over `u64`
//! (`value = bits / 2^64`), which gives an exact total order, cheap hashing
//! and `Copy` semantics — none of the `NaN`/rounding hazards of `f64`. The
//! wrapper deliberately exposes no arithmetic, which enforces the
//! compare-store-send discipline at the type level. (The *simulator* and
//! *analysis* crates may look at ranks and distances, but the protocol
//! itself never does.)
//!
//! The sentinels `−∞` / `+∞` used by the paper for "no left neighbour" /
//! "no right neighbour" are modelled by [`Extended`].
//!
//! **Layout.** `NodeId` is aligned to 4 bytes, not 8, so a tag beside it
//! costs 4 bytes of padding instead of 8: [`Extended`] and
//! `Option<NodeId>` are 12 bytes, a `Message` 24 and a `Node` 96 (the
//! `const` assertions at the end of this module hold the sizes). What
//! the simulator stores per message and per node is mostly ids and
//! tags, so this is where its memory per node goes down. Nothing else
//! moves: the derived `Eq`, `Ord` and `Hash` read the same `u64` by
//! value, so orders and hash-map iteration are unchanged, and serde
//! still writes the id as a bare `u64`, so checkpoints are unchanged.
//! The compiler refuses a reference to the packed field (E0793), which
//! is why `Serialize`/`Deserialize` are written out below; x86-64 loads
//! a 4-aligned `u64` in one instruction.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// A node identifier in `[0, 1)`, represented as a `u64` fixed-point
/// fraction: the identifier's value is `bits / 2^64`. Aligned to 4
/// bytes (see the module docs); `repr(C)` keeps the layout defined.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C, packed(4))]
pub struct NodeId(u64);

impl NodeId {
    /// The smallest representable identifier (0.0).
    pub const MIN: NodeId = NodeId(0);
    /// The largest representable identifier (1 − 2⁻⁶⁴).
    pub const MAX: NodeId = NodeId(u64::MAX);

    /// Builds an identifier from its raw fixed-point bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        NodeId(bits)
    }

    /// The raw fixed-point bits.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Builds an identifier from a float in `[0, 1)`.
    ///
    /// # Panics
    /// Panics if `f` is not in `[0, 1)` (including `NaN`).
    pub fn from_fraction(f: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&f),
            "node identifier must lie in [0,1), got {f}"
        );
        // 2^64 as f64; the product is < 2^64 so the cast saturates correctly
        // only at the (unreachable) top end.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        NodeId((f * 1.844_674_407_370_955_2e19) as u64)
    }

    /// The identifier's value as a float in `[0, 1)`. Lossy for display and
    /// analysis only — the protocol never calls this.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 1.844_674_407_370_955_2e19
    }
}

impl Serialize for NodeId {
    fn to_value(&self) -> Value {
        self.bits().to_value()
    }
}

impl Deserialize for NodeId {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u64::from_value(v).map(NodeId)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({:.6})", self.as_f64())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_f64())
    }
}

/// An identifier extended with the sentinels `−∞` and `+∞`.
///
/// The paper sets `p.l = −∞` when `p` knows no smaller node and `p.r = ∞`
/// when it knows no larger one. `Extended` keeps those comparisons total:
/// `NegInf < Fin(x) < PosInf` for every `x`, which is exactly the derived
/// `Ord` on this enum given the variant order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Extended {
    /// `−∞`: no node on this side is known.
    NegInf,
    /// A concrete identifier.
    Fin(NodeId),
    /// `+∞`: no node on this side is known.
    PosInf,
}

impl Extended {
    /// The finite identifier, if any.
    #[inline]
    pub fn fin(self) -> Option<NodeId> {
        match self {
            Extended::Fin(id) => Some(id),
            Extended::NegInf | Extended::PosInf => None,
        }
    }

    /// True iff this is a finite identifier.
    #[inline]
    pub fn is_fin(self) -> bool {
        matches!(self, Extended::Fin(_))
    }

    /// True iff this is `−∞`.
    #[inline]
    pub fn is_neg_inf(self) -> bool {
        matches!(self, Extended::NegInf)
    }

    /// True iff this is `+∞`.
    #[inline]
    pub fn is_pos_inf(self) -> bool {
        matches!(self, Extended::PosInf)
    }
}

impl From<NodeId> for Extended {
    #[inline]
    fn from(id: NodeId) -> Self {
        Extended::Fin(id)
    }
}

impl PartialEq<NodeId> for Extended {
    #[inline]
    fn eq(&self, other: &NodeId) -> bool {
        matches!(self, Extended::Fin(id) if id == other)
    }
}

impl PartialOrd<NodeId> for Extended {
    #[inline]
    fn partial_cmp(&self, other: &NodeId) -> Option<std::cmp::Ordering> {
        Some(match self {
            Extended::NegInf => std::cmp::Ordering::Less,
            Extended::Fin(id) => id.cmp(other),
            Extended::PosInf => std::cmp::Ordering::Greater,
        })
    }
}

impl PartialEq<Extended> for NodeId {
    #[inline]
    fn eq(&self, other: &Extended) -> bool {
        other == self
    }
}

impl PartialOrd<Extended> for NodeId {
    #[inline]
    fn partial_cmp(&self, other: &Extended) -> Option<std::cmp::Ordering> {
        other.partial_cmp(self).map(std::cmp::Ordering::reverse)
    }
}

impl fmt::Display for Extended {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Extended::NegInf => write!(f, "-inf"),
            Extended::Fin(id) => write!(f, "{id}"),
            Extended::PosInf => write!(f, "+inf"),
        }
    }
}

/// Spreads `n` identifiers evenly over `[0,1)`. Handy for building stable
/// reference networks in tests and benchmarks; real deployments draw ids
/// uniformly at random (see [`random_ids`]).
pub fn evenly_spaced_ids(n: usize) -> Vec<NodeId> {
    assert!(n > 0, "need at least one node");
    let step = (u64::MAX / n as u64).max(1);
    (0..n).map(|i| NodeId::from_bits(i as u64 * step)).collect()
}

/// Draws `n` distinct identifiers uniformly at random.
pub fn random_ids<R: rand::Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<NodeId> {
    use rand::RngExt as _;
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < n {
        ids.insert(NodeId::from_bits(rng.random::<u64>()));
    }
    ids.into_iter().collect()
}

// The sizes the module docs name. A change to one of them changes what
// the simulator stores per message or per node, so it should be on purpose.
const _: () = {
    use crate::message::Message;
    use crate::node::Node;
    use std::mem::size_of;
    assert!(size_of::<Extended>() == 12);
    assert!(size_of::<Option<NodeId>>() == 12);
    assert!(size_of::<Message>() == 24);
    assert!(size_of::<(NodeId, Message)>() == 32);
    assert!(size_of::<Node>() == 96);
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_point_round_trip() {
        for f in [0.0, 0.25, 0.5, 0.75, 0.999_999] {
            let id = NodeId::from_fraction(f);
            assert!((id.as_f64() - f).abs() < 1e-12, "round-trip drift at {f}");
        }
    }

    #[test]
    #[should_panic(expected = "must lie in [0,1)")]
    fn rejects_one() {
        let _ = NodeId::from_fraction(1.0);
    }

    #[test]
    #[should_panic(expected = "must lie in [0,1)")]
    fn rejects_nan() {
        let _ = NodeId::from_fraction(f64::NAN);
    }

    #[test]
    fn extended_total_order() {
        let a = NodeId::from_fraction(0.2);
        let b = NodeId::from_fraction(0.7);
        assert!(Extended::NegInf < Extended::Fin(a));
        assert!(Extended::Fin(a) < Extended::Fin(b));
        assert!(Extended::Fin(b) < Extended::PosInf);
        assert!(Extended::NegInf < Extended::PosInf);
    }

    #[test]
    fn mixed_comparisons_match_pure_ones() {
        let a = NodeId::from_fraction(0.2);
        let b = NodeId::from_fraction(0.7);
        assert!(Extended::NegInf < a);
        assert!(a < Extended::Fin(b));
        assert!(Extended::Fin(a) < b);
        assert!(b < Extended::PosInf);
        assert!(Extended::Fin(a) == a);
        assert!(a == Extended::Fin(a));
        assert!(a != Extended::NegInf);
    }

    #[test]
    fn evenly_spaced_are_sorted_and_distinct() {
        let ids = evenly_spaced_ids(100);
        assert_eq!(ids.len(), 100);
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn random_ids_are_distinct_and_sorted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let ids = random_ids(500, &mut rng);
        assert_eq!(ids.len(), 500);
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn json_is_a_bare_u64_both_ways() {
        for bits in [0, 1, 0x1234_5678_9abc_def0, u64::MAX] {
            let id = NodeId::from_bits(bits);
            let json = serde_json::to_string(&id).expect("an id serializes");
            assert_eq!(json, bits.to_string());
            let back: NodeId = serde_json::from_str(&json).expect("a bare u64 parses");
            assert_eq!(back, id);
            let fin = serde_json::to_string(&Extended::Fin(id)).expect("serializes");
            assert_eq!(fin, format!("{{\"Fin\":{bits}}}"));
        }
        assert!(serde_json::from_str::<NodeId>("\"0.5\"").is_err());
    }

    #[test]
    fn hashing_an_id_is_hashing_its_bits() {
        use std::hash::{BuildHasher, RandomState};
        let state = RandomState::new();
        for bits in [0, 7, 0x8000_0000_0000_0001, u64::MAX] {
            let id = NodeId::from_bits(bits);
            assert_eq!(state.hash_one(id), state.hash_one(bits), "bits {bits:#x}");
        }
    }

    proptest! {
        /// `near` makes equal and adjacent pairs as likely as far ones.
        #[test]
        fn ord_on_ids_is_ord_on_bits(a in any::<u64>(), b in any::<u64>(), near in 0u64..6) {
            let b = if near < 3 { a.wrapping_add(near) } else { b };
            let (x, y) = (NodeId::from_bits(a), NodeId::from_bits(b));
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
            prop_assert_eq!(y.cmp(&x), b.cmp(&a));
            prop_assert_eq!(x.partial_cmp(&y), a.partial_cmp(&b));
            prop_assert_eq!(x == y, a == b);
        }
    }

    #[test]
    fn min_max_bounds() {
        assert!(NodeId::MIN <= NodeId::from_bits(12345));
        assert!(NodeId::MAX >= NodeId::from_bits(12345));
        assert_eq!(NodeId::MIN.as_f64(), 0.0);
        assert!(NodeId::MAX.as_f64() < 1.0 + 1e-9);
    }
}
