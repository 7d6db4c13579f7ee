//! The per-node message channel of the computational model (Section II.B).
//!
//! Channels have unbounded capacity, lose no messages, and do **not**
//! preserve order. The only liveness guarantee is *fair receipt*: a
//! message that is in the channel is eventually received. The simulator
//! enforces fairness with an age cap — a delivery policy may delay a
//! message for at most `max_delay` rounds
//! ([`DeliveryPolicy::RandomDelay`]; none under
//! [`DeliveryPolicy::Immediate`]), after which delivery is forced.
//!
//! Losslessness is a property of *this* layer, not of every run: when a
//! [`crate::faults`] plan is attached to the network, the fault engine
//! may intercept a send before it is enqueued here (drop, duplicate,
//! partition) or clear a crashed node's queue wholesale. The channel
//! itself never loses an enqueued message; all loss is injected above it
//! and accounted separately (`dropped_fault` in the round stats).
//!
//! Channels also feed the active-set scheduler (DESIGN.md §12): enqueueing
//! into a node's channel is what puts that node back on the round agenda,
//! so the fair-receipt bound doubles as the scheduler's no-starvation
//! argument — a non-empty channel keeps its owner scheduled until drained.

use rand::seq::SliceRandom;
use rand::{Rng, RngExt as _};
use serde::{Deserialize, Serialize};
use swn_core::message::Message;

use crate::obs::causal::CauseTag;

/// How the scheduler decides which queued messages to deliver each round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum DeliveryPolicy {
    /// Deliver every queued message each round, in random order. This is
    /// the synchronous-round abstraction used for *measuring* convergence
    /// (DESIGN.md deviation #7).
    #[default]
    Immediate,
    /// Adversarial asynchrony: each round each message is delivered with
    /// probability `p_deliver`, but never delayed more than `max_delay`
    /// rounds (fair receipt): a message enqueued in round `e` is
    /// force-delivered no later than round `e + max_delay`. Order is
    /// randomized.
    RandomDelay {
        /// Per-round delivery probability for each queued message.
        p_deliver: f64,
        /// Fairness bound: maximal rounds a message may be delayed.
        max_delay: u64,
    },
}

impl DeliveryPolicy {
    /// Validates policy parameters.
    pub fn validate(&self) -> Result<(), String> {
        if let DeliveryPolicy::RandomDelay { p_deliver, .. } = *self {
            if !(0.0..=1.0).contains(&p_deliver) || p_deliver == 0.0 {
                return Err(format!("p_deliver must be in (0, 1], got {p_deliver}"));
            }
        }
        Ok(())
    }
}

/// An unbounded, unordered, lossless message channel.
///
/// Stored struct-of-arrays: the messages and their enqueue rounds live in
/// two parallel vecs, so the message payloads are contiguous and can be
/// borrowed as a plain `&[Message]` slice by the measurement views
/// without cloning the channel.
///
/// A third, *lazy* lane carries causal provenance for the observability
/// layer: `causes[i]` tags `msgs[i]`, with the invariant
/// `causes.len() <= msgs.len()` — any missing tail is implicitly
/// [`CauseTag::ROOT`]. Root pushes never touch the lane and an untraced
/// take clears it, so on a network that never traces `causes` stays an
/// empty vec.
#[derive(Clone, Debug, Default)]
pub struct Channel {
    msgs: Vec<Message>,
    enqueued: Vec<u64>,
    causes: Vec<CauseTag>,
}

/// What [`Channel::take_deliverable_into`] hands out per message: the
/// bare [`Message`] (the round loop's plain arm) or the message with its
/// enqueue round and provenance tag (the hooked arm).
pub trait Delivery: Copy {
    /// Whether the form carries the provenance tag at all; when not, the
    /// take never reads or compacts the `causes` lane.
    const TAGGED: bool;

    /// The delivered form of one queued message.
    fn of(msg: Message, enqueued: u64, tag: CauseTag) -> Self;

    /// Moves every message of `ch` to `out` in enqueue order — the
    /// `Immediate` case with nothing to keep back.
    fn take_all(ch: &mut Channel, out: &mut Vec<Self>) {
        let tags = ch.causes.drain(..).chain(std::iter::repeat(CauseTag::ROOT));
        let lanes = ch.msgs.drain(..).zip(ch.enqueued.drain(..)).zip(tags);
        out.extend(lanes.map(|((m, e), c)| Self::of(m, e, c)));
    }
}

impl Delivery for Message {
    const TAGGED: bool = false;

    fn of(msg: Message, _enqueued: u64, _tag: CauseTag) -> Self {
        msg
    }

    /// Hands the storage over by pointer swap instead of a
    /// message-by-message copy.
    fn take_all(ch: &mut Channel, out: &mut Vec<Self>) {
        std::mem::swap(&mut ch.msgs, out);
        ch.clear();
    }
}

impl Delivery for (Message, u64, CauseTag) {
    const TAGGED: bool = true;

    fn of(msg: Message, enqueued: u64, tag: CauseTag) -> Self {
        (msg, enqueued, tag)
    }
}

impl Channel {
    /// An empty channel.
    pub fn new() -> Self {
        Channel::default()
    }

    /// Enqueues a message at round `round` with its causal provenance
    /// ([`CauseTag::ROOT`] for anything that is not a traced handler
    /// emission). Only a non-root tag touches the `causes` lane, padding
    /// it first so the tag lines up with its message. Inlined so the
    /// round loop's plain arm, which only ever pushes roots, folds the
    /// tag away (−4 % `mix-harmonic` node-rounds/s without it).
    #[inline]
    pub fn push(&mut self, msg: Message, round: u64, tag: CauseTag) {
        if !tag.is_root() {
            self.causes.resize(self.msgs.len(), CauseTag::ROOT);
            self.causes.push(tag);
        }
        self.msgs.push(msg);
        self.enqueued.push(round);
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// The queued messages as a contiguous slice, in enqueue order. This
    /// is what [`NetView`](swn_core::views::NetView) borrows.
    pub fn as_slice(&self) -> &[Message] {
        &self.msgs
    }

    /// Empties the channel but keeps its allocation, so churn can recycle
    /// a departed node's channel storage for the slot's next occupant.
    pub fn clear(&mut self) {
        self.msgs.clear();
        self.enqueued.clear();
        self.causes.clear();
    }

    /// Clears `out` and fills it with the messages to deliver in round
    /// `now` under `policy`, shuffled (channels are unordered),
    /// compacting the channel in place. Only messages enqueued *before*
    /// `now` are eligible, so a message is never received in the same
    /// round it was sent — receipt strictly follows transmission.
    ///
    /// Provenance tags survive the take only when `D` carries them and
    /// `traced` is set (the round loop sets it while a cascade window is
    /// open); otherwise the lane is voided first, so everything
    /// delivered *or kept* is an implicit root from here on.
    ///
    /// **RNG-stream equality.** The draws depend on neither `D` nor
    /// `traced`: the per-element `random_bool` draws depend only on
    /// `enqueued`/`now`/`policy`, and `shuffle` consumes draws as a
    /// function of slice *length* alone. So delivery order and every
    /// downstream draw are bit-for-bit the same whatever rides along —
    /// pinned by `every_delivery_form_takes_the_same_messages` below and
    /// the golden event-stream fingerprint.
    pub fn take_deliverable_into<D: Delivery, R: Rng + ?Sized>(
        &mut self,
        now: u64,
        policy: DeliveryPolicy,
        rng: &mut R,
        traced: bool,
        out: &mut Vec<D>,
    ) {
        out.clear();
        if !(D::TAGGED && traced) {
            self.causes.clear();
        }
        // Fast path for the hot case: `Immediate` policy with every
        // queued message eligible (nobody sent to this node yet in the
        // current round). Element order (enqueue order, like the general
        // path's push order) and RNG consumption (one shuffle of the
        // same length) are identical to the general path. The
        // eligibility scan must check *every* element: `preload` and
        // same-round sends make `enqueued` non-monotone.
        if matches!(policy, DeliveryPolicy::Immediate) && self.enqueued.iter().all(|&e| e < now) {
            D::take_all(self, out);
            out.shuffle(rng);
            return;
        }
        let mut kept = 0;
        for i in 0..self.msgs.len() {
            let enqueued_at = self.enqueued[i];
            let tag = self.causes.get(i).copied().unwrap_or(CauseTag::ROOT);
            let deliver = enqueued_at < now
                && match policy {
                    DeliveryPolicy::Immediate => true,
                    DeliveryPolicy::RandomDelay {
                        p_deliver,
                        max_delay,
                    } => now - enqueued_at >= max_delay || rng.random_bool(p_deliver),
                };
            if deliver {
                out.push(D::of(self.msgs[i], enqueued_at, tag));
            } else {
                self.msgs[kept] = self.msgs[i];
                self.enqueued[kept] = enqueued_at;
                if let Some(c) = self.causes.get_mut(kept).filter(|_| D::TAGGED) {
                    *c = tag;
                }
                kept += 1;
            }
        }
        self.msgs.truncate(kept);
        self.enqueued.truncate(kept);
        self.causes.truncate(kept);
        out.shuffle(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::causal::CauseId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swn_core::id::NodeId;

    fn lin(f: f64) -> Message {
        Message::Lin(NodeId::from_fraction(f))
    }

    fn take(ch: &mut Channel, now: u64, policy: DeliveryPolicy, rng: &mut StdRng) -> Vec<Message> {
        let mut out = Vec::new();
        ch.take_deliverable_into(now, policy, rng, false, &mut out);
        out
    }

    #[test]
    fn immediate_policy_delivers_everything_older_than_now() {
        let mut ch = Channel::new();
        ch.push(lin(0.1), 0, CauseTag::ROOT);
        ch.push(lin(0.2), 0, CauseTag::ROOT);
        ch.push(lin(0.3), 1, CauseTag::ROOT); // sent in the current round: not yet eligible
        let mut rng = StdRng::seed_from_u64(1);
        let got = take(&mut ch, 1, DeliveryPolicy::Immediate, &mut rng);
        assert_eq!(got.len(), 2);
        assert_eq!(ch.len(), 1);
    }

    #[test]
    fn same_round_send_not_delivered() {
        let mut ch = Channel::new();
        ch.push(lin(0.1), 5, CauseTag::ROOT);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(take(&mut ch, 5, DeliveryPolicy::Immediate, &mut rng).is_empty());
        assert_eq!(
            take(&mut ch, 6, DeliveryPolicy::Immediate, &mut rng).len(),
            1
        );
    }

    #[test]
    fn random_delay_respects_fairness_bound() {
        let policy = DeliveryPolicy::RandomDelay {
            p_deliver: 0.0001, // essentially never deliver voluntarily
            max_delay: 3,
        };
        let mut ch = Channel::new();
        ch.push(lin(0.1), 0, CauseTag::ROOT);
        let mut rng = StdRng::seed_from_u64(99);
        let mut delivered_at = None;
        for now in 1..=10 {
            if !take(&mut ch, now, policy, &mut rng).is_empty() {
                delivered_at = Some(now);
                break;
            }
        }
        // "Delayed at most `max_delay` rounds": enqueued at round 0 means
        // forced delivery no later than round 3 (now − 0 ≥ 3).
        assert_eq!(delivered_at, Some(3));
    }

    #[test]
    fn immediate_fast_path_matches_general_compaction_path() {
        // Same eligible set, same seed: the swap fast path (all messages
        // eligible) and the general compaction path (one ineligible
        // straggler forces it) must produce the same delivery order.
        let mut fast = Channel::new();
        let mut slow = Channel::new();
        for i in 1..=12 {
            fast.push(lin(i as f64 / 100.0), 0, CauseTag::ROOT);
            slow.push(lin(i as f64 / 100.0), 0, CauseTag::ROOT);
        }
        slow.push(lin(0.99), 5, CauseTag::ROOT); // enqueued "now": ineligible, general path
        let mut rng_f = StdRng::seed_from_u64(3);
        let mut rng_s = StdRng::seed_from_u64(3);
        let mut out_f = vec![lin(0.5)]; // stale content must be cleared
        let mut out_s = Vec::new();
        fast.take_deliverable_into(5, DeliveryPolicy::Immediate, &mut rng_f, false, &mut out_f);
        slow.take_deliverable_into(5, DeliveryPolicy::Immediate, &mut rng_s, false, &mut out_s);
        assert_eq!(out_f, out_s);
        assert!(fast.is_empty());
        assert_eq!(slow.len(), 1, "the straggler stays queued");
    }

    #[test]
    fn every_delivery_form_takes_the_same_messages() {
        // Same seed, same channel content: the bare untraced take and
        // the full traced one must deliver the same messages in the same
        // order, keep the same channel content and consume the same RNG
        // stream (checked via a post-take draw) — on the Immediate fast
        // path, the Immediate general path (straggler) and under
        // RandomDelay.
        let scenarios: [(DeliveryPolicy, Option<u64>); 3] = [
            (DeliveryPolicy::Immediate, None),
            (DeliveryPolicy::Immediate, Some(5)), // straggler: general path
            (
                DeliveryPolicy::RandomDelay {
                    p_deliver: 0.5,
                    max_delay: 10,
                },
                None,
            ),
        ];
        for (policy, straggler) in scenarios {
            let mut ch = Channel::new();
            for i in 1..=25u64 {
                // Mixed provenance: odd pushes tagged, even ones roots.
                let tag = if i % 2 == 1 {
                    CauseTag {
                        parent: CauseId {
                            round: i % 4,
                            slot: 0,
                            seq: i,
                        },
                        depth: 1,
                    }
                } else {
                    CauseTag::ROOT
                };
                ch.push(lin(i as f64 / 100.0), i % 4, tag);
            }
            if let Some(r) = straggler {
                ch.push(lin(0.99), r, CauseTag::ROOT);
            }
            let (mut bare, mut full) = (ch.clone(), ch);
            let mut rng_b = StdRng::seed_from_u64(7);
            let mut rng_f = StdRng::seed_from_u64(7);
            let mut out_b = vec![lin(0.5)]; // stale content must clear
            let mut out_f = vec![(lin(0.5), 9, CauseTag::ROOT)];
            bare.take_deliverable_into(5, policy, &mut rng_b, false, &mut out_b);
            full.take_deliverable_into(5, policy, &mut rng_f, true, &mut out_f);
            let untag: Vec<Message> = out_f.iter().map(|&(m, _, _)| m).collect();
            assert_eq!(untag, out_b, "{policy:?} delivery order diverged");
            assert_eq!(bare.as_slice(), full.as_slice(), "same compaction");
            assert_eq!(bare.enqueued, full.enqueued, "same kept enqueue rounds");
            assert_eq!(
                rng_b.random_range(0u64..1_000_000),
                rng_f.random_range(0u64..1_000_000),
                "{policy:?} RNG streams diverged after take"
            );
            // Enqueue rounds and tags followed their messages through
            // the shuffle: push i was enqueued at i % 4 and tagged with
            // parent seq = i iff i is odd.
            for &(m, enqueued, tag) in &out_f {
                let Some(i) = (1..=25u64).find(|&i| m == lin(i as f64 / 100.0)) else {
                    panic!("the ineligible straggler was delivered");
                };
                assert_eq!(enqueued, i % 4, "enqueue round stuck to its message");
                if i % 2 == 1 {
                    assert_eq!(tag.parent.seq, i, "tag stuck to its message");
                } else {
                    assert!(tag.is_root(), "root push stays a root");
                }
            }
        }
    }

    #[test]
    fn untraced_take_invalidates_stale_causes() {
        let tag = CauseTag {
            parent: CauseId {
                round: 0,
                slot: 3,
                seq: 9,
            },
            depth: 2,
        };
        let mut ch = Channel::new();
        ch.push(lin(0.1), 0, CauseTag::ROOT);
        ch.push(lin(0.2), 5, tag); // straggler keeps the channel non-empty
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            take(&mut ch, 5, DeliveryPolicy::Immediate, &mut rng).len(),
            1
        );
        // The straggler's tag was invalidated: a later traced take sees
        // it as a root.
        let mut out: Vec<(Message, u64, CauseTag)> = Vec::new();
        ch.take_deliverable_into(6, DeliveryPolicy::Immediate, &mut rng, true, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].2.is_root());
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut ch = Channel::new();
        for i in 1..=8 {
            ch.push(lin(i as f64 / 100.0), 0, CauseTag::ROOT);
        }
        ch.clear();
        assert!(ch.is_empty());
        ch.push(lin(0.42), 3, CauseTag::ROOT);
        assert_eq!(ch.as_slice(), &[lin(0.42)]);
    }

    #[test]
    fn random_delay_delivers_probabilistically() {
        let policy = DeliveryPolicy::RandomDelay {
            p_deliver: 0.5,
            max_delay: 100,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut delivered_round_1 = 0;
        const TRIALS: usize = 2000;
        for _ in 0..TRIALS {
            let mut ch = Channel::new();
            ch.push(lin(0.1), 0, CauseTag::ROOT);
            if !take(&mut ch, 1, policy, &mut rng).is_empty() {
                delivered_round_1 += 1;
            }
        }
        let frac = delivered_round_1 as f64 / TRIALS as f64;
        assert!((0.45..0.55).contains(&frac), "p=0.5 delivery frac {frac}");
    }

    #[test]
    fn shuffle_changes_order_but_not_content() {
        let mut ch = Channel::new();
        for i in 1..=20 {
            ch.push(lin(i as f64 / 100.0), 0, CauseTag::ROOT);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let got = take(&mut ch, 1, DeliveryPolicy::Immediate, &mut rng);
        assert_eq!(got.len(), 20);
        let sorted_in: Vec<_> = (1..=20).map(|i| lin(i as f64 / 100.0)).collect();
        assert_ne!(got, sorted_in, "delivery order should be shuffled");
        let mut got_sorted = got.clone();
        got_sorted.sort_by_key(|m| match m {
            Message::Lin(id) => id.bits(),
            _ => 0,
        });
        assert_eq!(got_sorted, sorted_in);
    }

    #[test]
    fn policy_validation() {
        assert!(DeliveryPolicy::Immediate.validate().is_ok());
        assert!(DeliveryPolicy::RandomDelay {
            p_deliver: 0.5,
            max_delay: 10
        }
        .validate()
        .is_ok());
        assert!(DeliveryPolicy::RandomDelay {
            p_deliver: 0.0,
            max_delay: 10
        }
        .validate()
        .is_err());
        assert!(DeliveryPolicy::RandomDelay {
            p_deliver: 1.5,
            max_delay: 10
        }
        .validate()
        .is_err());
    }
}
