//! The message channel of the computational model (Section II.B): the
//! delivery policies and the two forms a delivered message takes. The
//! storage — every node's channel as one range of a flat buffer — is the
//! crate-private `mailbox` module.
//!
//! Channels have unbounded capacity, lose no messages, and do **not**
//! preserve order. The only liveness guarantee is *fair receipt*: a
//! message that is in the channel is eventually received. The simulator
//! enforces fairness with an age cap — a delivery policy may delay a
//! message for at most `max_delay` rounds
//! ([`DeliveryPolicy::RandomDelay`]; none under
//! [`DeliveryPolicy::Immediate`]), after which delivery is forced.
//!
//! Receipt strictly follows transmission, and structurally so: a round's
//! sends sit in the mailbox's send log, which no receive action reads,
//! until the round boundary commits them behind the mail each node kept
//! back. Per-node order is therefore enqueue order, every take shuffles
//! it, and a message is never received in the round it was sent.
//!
//! Losslessness is a property of *this* layer, not of every run: when a
//! [`crate::faults`] plan is attached to the network, the fault engine
//! may intercept a send before it is enqueued here (drop, duplicate,
//! partition) or clear a crashed node's queue wholesale. The mailbox
//! itself never loses an enqueued message; all loss is injected above it
//! and accounted separately (`dropped_fault` in the round stats).
//!
//! Channels also feed the active-set scheduler (DESIGN.md §12): a send
//! into a node's channel is what puts that node back on the round
//! agenda, so the fair-receipt bound doubles as the scheduler's
//! no-starvation argument — a non-empty channel keeps its owner
//! scheduled until drained.

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

/// What a receive action is handed per message: the bare [`Message`]
/// (the round loop's plain arm) or the message with its enqueue round
/// and provenance tag (the hooked arm).
pub trait Delivery: Copy {
    /// Whether the form carries the provenance tag at all; when not, the
    /// take voids the tags instead of handing them out.
    const TAGGED: bool;

    /// The delivered form of one queued message.
    fn of(msg: Message, enqueued: u64, tag: CauseTag) -> Self;
}

impl Delivery for Message {
    const TAGGED: bool = false;

    fn of(msg: Message, _enqueued: u64, _tag: CauseTag) -> Self {
        msg
    }
}

impl Delivery for (Message, u64, CauseTag) {
    const TAGGED: bool = true;

    fn of(msg: Message, enqueued: u64, tag: CauseTag) -> Self {
        (msg, enqueued, tag)
    }
}

#[cfg(test)]
mod tests {
    //! The channel semantics, exercised on one slot of the mailbox that
    //! stores them.

    use super::*;
    use crate::mailbox::Mailbox;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};
    use swn_core::id::NodeId;

    fn lin(f: f64) -> Message {
        Message::Lin(NodeId::from_fraction(f))
    }

    /// One channel holding `mail` (`(message, enqueue round, tag)`),
    /// committed one entry at a time, each at its own round. A commit
    /// appends behind what the slot holds, so the content and its order
    /// are `mail`'s.
    fn channel(mail: &[(Message, u64, CauseTag)]) -> Mailbox {
        let mut ch = Mailbox::with_slots(1);
        for &(m, round, tag) in mail {
            ch.push(0, m, tag);
            ch.commit(round);
        }
        ch
    }

    fn roots(mail: &[(f64, u64)]) -> Mailbox {
        let mail = mail.iter().map(|&(f, r)| (lin(f), r, CauseTag::ROOT));
        channel(&mail.collect::<Vec<_>>())
    }

    fn take(ch: &mut Mailbox, now: u64, policy: DeliveryPolicy, rng: &mut StdRng) -> Vec<Message> {
        let mut out = vec![lin(0.5)]; // stale content must be cleared
        ch.take_deliverable_into(0, now, policy, rng, false, &mut out);
        out
    }

    #[test]
    fn immediate_policy_delivers_everything_older_than_now() {
        // The third was enqueued in the current round: not yet eligible.
        let mut ch = roots(&[(0.1, 0), (0.2, 0), (0.3, 1)]);
        let mut rng = StdRng::seed_from_u64(1);
        let got = take(&mut ch, 1, DeliveryPolicy::Immediate, &mut rng);
        assert_eq!(got.len(), 2);
        assert_eq!(ch.as_slice(0), &[lin(0.3)]);
    }

    #[test]
    fn same_round_send_not_delivered() {
        let mut ch = roots(&[(0.1, 5)]);
        let mut rng = StdRng::seed_from_u64(1);
        // A send of this round sits in the log, where no take looks —
        // whatever round the take claims to run in.
        ch.push(0, lin(0.2), CauseTag::ROOT);
        assert!(take(&mut ch, 5, DeliveryPolicy::Immediate, &mut rng).is_empty());
        assert_eq!(
            take(&mut ch, 6, DeliveryPolicy::Immediate, &mut rng),
            [lin(0.1)]
        );
        assert_eq!(ch.len(0), 1, "the logged send is queued");
        assert!(ch.as_slice(0).is_empty(), "but not yet in the channel");
        ch.commit(5);
        assert_eq!(
            take(&mut ch, 6, DeliveryPolicy::Immediate, &mut rng),
            [lin(0.2)]
        );
        assert!(ch.is_empty(0));
    }

    #[test]
    fn random_delay_respects_fairness_bound() {
        let policy = DeliveryPolicy::RandomDelay {
            p_deliver: 0.0001, // essentially never deliver voluntarily
            max_delay: 3,
        };
        let mut ch = roots(&[(0.1, 0)]);
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
    fn every_delivery_form_takes_the_same_messages() {
        // Same seed, same channel content: the bare untraced take and
        // the full traced one must deliver the same messages in the same
        // order, keep the same channel content and consume the same RNG
        // stream (checked via a post-take draw) — under Immediate with
        // everything eligible, with an ineligible straggler to keep
        // back, and under RandomDelay.
        let scenarios: [(DeliveryPolicy, Option<u64>); 3] = [
            (DeliveryPolicy::Immediate, None),
            (DeliveryPolicy::Immediate, Some(5)),
            (
                DeliveryPolicy::RandomDelay {
                    p_deliver: 0.5,
                    max_delay: 10,
                },
                None,
            ),
        ];
        for (policy, straggler) in scenarios {
            let mut mail = Vec::new();
            for i in 1..=25u64 {
                // Mixed provenance: odd pushes tagged, even ones roots.
                let tag = if i % 2 == 1 {
                    let depth = u32::try_from(i).expect("small");
                    CauseTag { depth }
                } else {
                    CauseTag::ROOT
                };
                mail.push((lin(i as f64 / 100.0), i % 4, tag));
            }
            if let Some(r) = straggler {
                mail.push((lin(0.99), r, CauseTag::ROOT));
            }
            let (mut bare, mut full) = (channel(&mail), channel(&mail));
            let mut rng_b = StdRng::seed_from_u64(7);
            let mut rng_f = StdRng::seed_from_u64(7);
            let mut out_b = vec![lin(0.5)]; // stale content must clear
            let mut out_f = vec![(lin(0.5), 9, CauseTag::ROOT)];
            bare.take_deliverable_into(0, 5, policy, &mut rng_b, false, &mut out_b);
            full.take_deliverable_into(0, 5, policy, &mut rng_f, true, &mut out_f);
            let untag: Vec<Message> = out_f.iter().map(|&(m, _, _)| m).collect();
            assert_eq!(untag, out_b, "{policy:?} delivery order diverged");
            assert_eq!(bare.as_slice(0), full.as_slice(0), "same compaction");
            assert_eq!(
                rng_b.random_range(0u64..1_000_000),
                rng_f.random_range(0u64..1_000_000),
                "{policy:?} RNG streams diverged after take"
            );
            // Enqueue rounds and tags followed their messages through
            // the shuffle: push i was enqueued at i % 4 and tagged with
            // depth i iff i is odd.
            let tagged_right = |out: &[(Message, u64, CauseTag)]| {
                for &(m, enqueued, tag) in out {
                    let Some(i) = (1..=25u64).find(|&i| m == lin(i as f64 / 100.0)) else {
                        panic!("the ineligible straggler was delivered");
                    };
                    assert_eq!(enqueued, i % 4, "enqueue round stuck to its message");
                    if i % 2 == 1 {
                        assert_eq!(u64::from(tag.depth), i, "tag stuck to its message");
                    } else {
                        assert!(tag.is_root(), "root push stays a root");
                    }
                }
            };
            tagged_right(&out_f);
            // ... and through the compaction: whatever the traced take
            // kept back comes out of a forced later one intact.
            full.take_deliverable_into(
                0,
                99,
                DeliveryPolicy::Immediate,
                &mut rng_f,
                true,
                &mut out_f,
            );
            out_f.retain(|&(m, _, _)| m != lin(0.99));
            assert_eq!(out_f.len() + out_b.len(), 25);
            tagged_right(&out_f);
        }
    }

    #[test]
    fn untraced_take_invalidates_stale_causes() {
        let tag = CauseTag { depth: 2 };
        // The straggler keeps the channel non-empty.
        let mut ch = channel(&[(lin(0.1), 0, CauseTag::ROOT), (lin(0.2), 5, tag)]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            take(&mut ch, 5, DeliveryPolicy::Immediate, &mut rng).len(),
            1
        );
        // The straggler's tag was invalidated: a later traced take sees
        // it as a root.
        let mut out: Vec<(Message, u64, CauseTag)> = Vec::new();
        ch.take_deliverable_into(0, 6, DeliveryPolicy::Immediate, &mut rng, true, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].2.is_root());
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mail: Vec<_> = (1..=8).map(|i| (i as f64 / 100.0, 0)).collect();
        let mut ch = roots(&mail);
        ch.push(0, lin(0.09), CauseTag::ROOT); // logged mail goes too
        ch.clear(0);
        assert!(ch.is_empty(0));
        ch.push(0, lin(0.42), CauseTag::ROOT);
        ch.commit(3);
        assert_eq!(ch.as_slice(0), &[lin(0.42)]);
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
            let mut ch = roots(&[(0.1, 0)]);
            if !take(&mut ch, 1, policy, &mut rng).is_empty() {
                delivered_round_1 += 1;
            }
        }
        let frac = delivered_round_1 as f64 / TRIALS as f64;
        assert!((0.45..0.55).contains(&frac), "p=0.5 delivery frac {frac}");
    }

    #[test]
    fn shuffle_changes_order_but_not_content() {
        let mail: Vec<_> = (1..=20).map(|i| (i as f64 / 100.0, 0)).collect();
        let mut ch = roots(&mail);
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
