//! The flat mailbox: every node's channel in one pair of buffers.
//!
//! A **send log** takes the round's sends in send order — destination
//! slot and message (`dest ∥ msgs`, 28 bytes a send) and, lazily (see
//! [`Lanes`]), the 4-byte cascade depth tag. It holds no enqueue round:
//! every send between two commits has the same one, so
//! [`Mailbox::commit`]`(round)` stamps the whole batch. A **committed
//! buffer** holds what nodes receive from: message and enqueue round
//! (32 bytes) plus the lazy tag, one contiguous range per slot, so a
//! take, a view and the crash applier each read one slice. The commit
//! at the round boundary moves the log behind whatever each slot still
//! holds with a *stable* scatter: per-slot order is enqueue order —
//! kept-back mail first, then the round's sends as sent — exactly what
//! one `Vec` per node would hold (pinned against that reference by
//! `matches_a_vec_per_slot_under_random_scripts` below).
//!
//! The semantics are those of [`crate::channel`]; this module is only
//! the storage. Two things make it cheap at large n: a send touches one
//! 12-byte slot record and the log's tail instead of a node's own heap
//! blocks, and commit costs O(slots touched + messages moved), never
//! O(n) — groups sit in the buffer in first-touch order, so no prefix
//! sum over the slots is needed and a round that sent nothing returns at
//! once.
//!
//! A take has two kernels. Under `Immediate` the deliver-or-keep branch
//! follows the enqueue round alone, which the predictor gets right, so
//! it stays a compaction loop. Under `RandomDelay` it follows a coin, so
//! the take is a branch-free partition instead: each message is written
//! both to the next delivered place and to the next kept place, and the
//! verdict only moves the two cursors. The coin is `random_bool`'s
//! compare done on integers ([`Coin`]), off the same words, drawn for
//! the same messages in the same order.

use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::Range;
use swn_core::id::NodeId;
use swn_core::message::Message;

use crate::channel::{Delivery, DeliveryPolicy};
use crate::obs::causal::CauseTag;

/// Marks a logged send whose destination was cleared before the commit.
const DEAD: u32 = u32::MAX;

/// Buffer offsets and slot numbers are stored as `u32`: 4 G messages in
/// flight is far beyond what fits in memory.
fn idx(i: usize) -> u32 {
    u32::try_from(i).expect("mailbox offsets fit in u32")
}

/// [`random_bool`](rand::RngExt::random_bool)`(p)` as an integer
/// compare, for a take's per-message draw. `random_bool` reads one word
/// and answers `(word >> 11) · 2⁻⁵³ < p`. Scaling both sides by 2⁵³ is
/// exact, and an integer is below a real exactly when it is below the
/// real's ceiling, so `(word >> 11) < ⌈p · 2⁵³⌉` answers the same off
/// the same word — for every `p`, NaN and the ends of [0, 1] included
/// (the float-to-int cast saturates).
#[derive(Clone, Copy, Debug)]
struct Coin {
    below: u64,
}

impl Coin {
    fn new(p: f64) -> Self {
        // Saturating on purpose: NaN and p ≤ 0 give 0, "never".
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let below = (p * (1u64 << 53) as f64).ceil() as u64;
        Coin { below }
    }

    /// Draws the word `random_bool` would and gives its answer.
    #[inline]
    fn flip<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        rng.next_u64() >> 11 < self.below
    }
}

/// The committed buffer's parallel lanes. `tags` is *lazy*:
/// `tags.len() <= msgs.len()` and a missing tag is [`CauseTag::ROOT`],
/// so a network that never traces a cascade never allocates or touches
/// the lane.
#[derive(Debug, Default)]
struct Lanes {
    msgs: Vec<Message>,
    enq: Vec<u64>,
    tags: Vec<CauseTag>,
}

impl Lanes {
    /// Makes room for `n` messages without ever shrinking — the buffers
    /// keep their high-water length, so a steady state writes into
    /// memory it already owns — and sets the tag lane to cover all of it
    /// (`tagged`) or nothing.
    fn fit(&mut self, n: usize, tagged: bool) {
        if self.msgs.len() < n {
            self.msgs.resize(n, Message::Lin(NodeId::from_bits(0)));
            self.enq.resize(n, 0);
        }
        if tagged {
            self.tags.resize(self.msgs.len(), CauseTag::ROOT);
        } else {
            self.tags.clear();
        }
    }
}

/// Where a slot's mail is: `len` committed messages from `start` in the
/// buffer, plus `pend` sends still in the log. `start` is stale while
/// `len == 0`.
#[derive(Clone, Copy, Debug, Default)]
struct SlotRec {
    start: u32,
    len: u32,
    pend: u32,
}

/// All channels of a [`Network`](crate::network::Network), indexed by
/// node slot.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    slots: Vec<SlotRec>,
    /// The committed buffer: what `take_deliverable_into` and `as_slice`
    /// read.
    buf: Lanes,
    /// The slots with a range in `buf`, each once, in buffer order.
    groups: Vec<u32>,
    /// Messages in `buf` not taken yet (the sum of every `len`).
    live: usize,
    /// Second buffer, used only by a commit that finds leftovers.
    spare: Lanes,
    /// The send log: `dest[k]` is the slot of `sent[k]`, whose tag is
    /// `sent_tags[k]` (lazy, as in [`Lanes`]).
    dest: Vec<u32>,
    sent: Vec<Message>,
    sent_tags: Vec<CauseTag>,
    /// Slots with sends in the log, in first-touch order. A slot cleared
    /// and sent to again is listed twice; `commit` skips on `pend == 0`.
    touched: Vec<u32>,
}

impl Mailbox {
    /// A mailbox of `n` empty channels.
    pub(crate) fn with_slots(n: usize) -> Self {
        Mailbox {
            slots: vec![SlotRec::default(); n],
            ..Mailbox::default()
        }
    }

    /// Appends one empty channel; its slot is the old slot count.
    pub(crate) fn add_slot(&mut self) {
        self.slots.push(SlotRec::default());
    }

    /// Logs a send to `slot` with its causal provenance
    /// ([`CauseTag::ROOT`] for anything that is not a traced handler
    /// emission). The message is not received from, viewed or counted by
    /// `as_slice` until the next [`commit`](Self::commit), which also
    /// gives it its enqueue round. Only a non-root tag touches the log's
    /// tag lane, padding it first so the tag lines up with its message.
    /// Inlined so the round loop's plain arm, which only ever pushes
    /// roots, folds the tag away.
    #[inline]
    pub(crate) fn push(&mut self, slot: usize, msg: Message, tag: CauseTag) {
        let rec = &mut self.slots[slot];
        let slot = idx(slot);
        if rec.pend == 0 {
            self.touched.push(slot);
        }
        rec.pend += 1;
        if !tag.is_root() {
            self.sent_tags.resize(self.sent.len(), CauseTag::ROOT);
            self.sent_tags.push(tag);
        }
        self.dest.push(slot);
        self.sent.push(msg);
    }

    /// Messages queued for `slot`, logged sends included.
    pub(crate) fn len(&self, slot: usize) -> usize {
        let rec = self.slots[slot];
        rec.len as usize + rec.pend as usize
    }

    /// True when nothing is queued for `slot`, in the buffer or the log.
    pub(crate) fn is_empty(&self, slot: usize) -> bool {
        self.len(slot) == 0
    }

    /// Where `slot`'s committed messages lie in the buffer.
    fn range(&self, slot: usize) -> Range<usize> {
        let rec = self.slots[slot];
        if rec.len == 0 {
            return 0..0; // `start` may point past a buffer swapped in since
        }
        rec.start as usize..rec.start as usize + rec.len as usize
    }

    /// The committed messages of `slot` as one contiguous slice, in
    /// enqueue order. This is what
    /// [`NetView`](swn_core::views::NetView) borrows.
    pub(crate) fn as_slice(&self, slot: usize) -> &[Message] {
        &self.buf.msgs[self.range(slot)]
    }

    /// Empties `slot`'s channel, logged sends included — a departed or
    /// crashed node's mail dies with it, and the slot's next occupant
    /// starts clean.
    pub(crate) fn clear(&mut self, slot: usize) {
        let rec = &mut self.slots[slot];
        self.live -= rec.len as usize;
        rec.len = 0;
        if rec.pend > 0 {
            rec.pend = 0;
            let slot = idx(slot);
            for d in self.dest.iter_mut().filter(|d| **d == slot) {
                *d = DEAD;
            }
        }
    }

    /// Moves the log into the committed buffer, behind what each slot
    /// still holds and in send order, every message enqueued at `round`.
    /// Costs O(slots touched + messages moved); an empty log returns at
    /// once.
    ///
    /// When every committed message was taken (each `Immediate` round)
    /// the log is regrouped into the buffer it was taken from. Leftovers
    /// — kept-back `RandomDelay` mail, a node that sat the round out —
    /// are carried, one `copy_from_slice` per slot, into the second
    /// buffer, and the log regrouped around them there.
    pub(crate) fn commit(&mut self, round: u64) {
        if self.dest.is_empty() {
            return;
        }
        let Mailbox {
            slots,
            buf,
            groups,
            live,
            spare,
            dest,
            sent,
            sent_tags,
            touched,
        } = self;
        let tagged = !buf.tags.is_empty() || !sent_tags.is_empty();
        let room = *live + dest.len();
        let mut end = 0;
        if *live == 0 {
            groups.clear();
            buf.fit(room, tagged);
        } else {
            spare.fit(room, tagged);
            groups.retain(|&s| {
                let rec = &mut slots[s as usize];
                if rec.len == 0 {
                    return false;
                }
                let (start, len) = (rec.start as usize, rec.len as usize);
                let (from, to) = (start..start + len, end..end + len);
                spare.msgs[to.clone()].copy_from_slice(&buf.msgs[from.clone()]);
                spare.enq[to.clone()].copy_from_slice(&buf.enq[from.clone()]);
                if tagged {
                    match buf.tags.get(from) {
                        Some(tags) => spare.tags[to].copy_from_slice(tags),
                        None => spare.tags[to].fill(CauseTag::ROOT),
                    }
                }
                rec.start = idx(end);
                end += len + rec.pend as usize;
                rec.pend = 0;
                true
            });
            std::mem::swap(buf, spare);
        }
        for &s in touched.iter() {
            let rec = &mut slots[s as usize];
            if rec.pend > 0 {
                rec.start = idx(end);
                end += rec.pend as usize;
                rec.pend = 0;
                groups.push(s);
            }
        }
        for (k, (&s, &msg)) in dest.iter().zip(sent.iter()).enumerate() {
            if s == DEAD {
                continue;
            }
            let rec = &mut slots[s as usize];
            let at = rec.start as usize + rec.len as usize;
            rec.len += 1;
            buf.msgs[at] = msg;
            buf.enq[at] = round;
            if tagged {
                buf.tags[at] = sent_tags.get(k).copied().unwrap_or(CauseTag::ROOT);
            }
        }
        *live = end;
        dest.clear();
        sent.clear();
        sent_tags.clear();
        touched.clear();
    }

    /// Clears `out` and fills it with the messages `slot` receives in
    /// round `now` under `policy`, shuffled (channels are unordered);
    /// what is kept back is compacted to the front of the slot's range.
    /// Only committed messages enqueued *before* `now` are eligible, so
    /// a message is never received in the round it was sent.
    ///
    /// Provenance tags survive the take only when `D` carries them and
    /// `traced` is set (the round loop sets it while a cascade window is
    /// open); otherwise the range's tags are voided first, so everything
    /// delivered *or kept* is a root from here on.
    ///
    /// **RNG-stream equality.** The draws depend on neither `D` nor
    /// `traced`: under `RandomDelay` one word is drawn per message that
    /// is eligible (`enq < now`) and not yet forced, in range order, and
    /// read as `random_bool(p_deliver)` would read it ([`Coin`]) — so
    /// the draws depend only on the enqueue rounds, `now` and `policy` —
    /// and `shuffle` consumes draws as a function of slice *length*
    /// alone. So delivery order and every downstream draw are
    /// bit-for-bit the same whatever rides along — pinned by
    /// `every_delivery_form_takes_the_same_messages` in `channel.rs`,
    /// the reference take below and the golden event-stream fingerprint.
    pub(crate) fn take_deliverable_into<D: Delivery, R: Rng + ?Sized>(
        &mut self,
        slot: usize,
        now: u64,
        policy: DeliveryPolicy,
        rng: &mut R,
        traced: bool,
        out: &mut Vec<D>,
    ) {
        out.clear();
        let rec = &mut self.slots[slot];
        let len = rec.len as usize;
        if len == 0 {
            return; // nothing to draw for; `start` may be stale
        }
        let range = rec.start as usize..rec.start as usize + len;
        let msgs = &mut self.buf.msgs[range.clone()];
        let enq = &mut self.buf.enq[range.clone()];
        let tags = self.buf.tags.get_mut(range).unwrap_or_default();
        let tagged = D::TAGGED && traced;
        // The lane is empty unless a window has tagged mail: test for it
        // so the untraced take skips the `memset` call a 4-byte fill
        // compiles to.
        if !tagged && !tags.is_empty() {
            tags.fill(CauseTag::ROOT);
        }
        let kept = match policy {
            DeliveryPolicy::Immediate => {
                let mut kept = 0;
                for i in 0..len {
                    let enqueued_at = enq[i];
                    let tag = tags.get(i).copied().unwrap_or(CauseTag::ROOT);
                    if enqueued_at < now {
                        out.push(D::of(msgs[i], enqueued_at, tag));
                    } else {
                        msgs[kept] = msgs[i];
                        enq[kept] = enqueued_at;
                        if let Some(t) = tags.get_mut(kept).filter(|_| tagged) {
                            *t = tag;
                        }
                        kept += 1;
                    }
                }
                kept
            }
            DeliveryPolicy::RandomDelay {
                p_deliver,
                max_delay,
            } => {
                // A coin decides each message, so a branch on it would
                // mispredict as often as the coin surprises (half the
                // time at p = 0.5): every message is written both to
                // `out`'s next free place and to the range's next kept
                // place, and the verdict only moves one of the two
                // cursors.
                let coin = Coin::new(p_deliver);
                let first = D::of(msgs[0], enq[0], CauseTag::ROOT);
                out.resize(len, first);
                let (mut sent, mut kept) = (0, 0);
                for i in 0..len {
                    let (msg, enqueued_at) = (msgs[i], enq[i]);
                    let tag = tags.get(i).copied().unwrap_or(CauseTag::ROOT);
                    out[sent] = D::of(msg, enqueued_at, tag);
                    msgs[kept] = msg;
                    enq[kept] = enqueued_at;
                    if let Some(t) = tags.get_mut(kept).filter(|_| tagged) {
                        *t = tag;
                    }
                    // A word is drawn only for an eligible message not
                    // yet forced, as before; that test rarely flips.
                    let deliver = if enqueued_at < now && now - enqueued_at < max_delay {
                        coin.flip(rng)
                    } else {
                        enqueued_at < now
                    };
                    sent += usize::from(deliver);
                    kept += usize::from(!deliver);
                }
                out.truncate(sent);
                kept
            }
        };
        rec.len = idx(kept);
        self.live -= len - kept;
        out.shuffle(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    type Entry = (Message, u64, CauseTag);

    /// The reference: one `Vec` per slot plus the sends the next commit
    /// appends, with the take written as the plain compaction loop.
    #[derive(Default)]
    struct PerSlotVecs {
        queues: Vec<Vec<Entry>>,
        log: Vec<(usize, Entry)>,
    }

    impl PerSlotVecs {
        fn len(&self, slot: usize) -> usize {
            self.queues[slot].len() + self.log.iter().filter(|(s, _)| *s == slot).count()
        }

        fn clear(&mut self, slot: usize) {
            self.queues[slot].clear();
            self.log.retain(|(s, _)| *s != slot);
        }

        fn commit(&mut self) {
            for (slot, entry) in self.log.drain(..) {
                self.queues[slot].push(entry);
            }
        }

        fn take(
            &mut self,
            slot: usize,
            now: u64,
            policy: DeliveryPolicy,
            rng: &mut StdRng,
            tagged: bool,
        ) -> Vec<Entry> {
            let mut out = Vec::new();
            self.queues[slot].retain_mut(|entry| {
                if !tagged {
                    entry.2 = CauseTag::ROOT;
                }
                let deliver = entry.1 < now
                    && match policy {
                        DeliveryPolicy::Immediate => true,
                        DeliveryPolicy::RandomDelay {
                            p_deliver,
                            max_delay,
                        } => now - entry.1 >= max_delay || rng.random_bool(p_deliver),
                    };
                if deliver {
                    out.push(*entry);
                }
                !deliver
            });
            out.shuffle(rng);
            out
        }
    }

    /// The `RandomDelay` policies a take under bit 8 draws from, picked
    /// by bits 12-13: a fair coin; every eligible message delivered;
    /// nearly everything kept until forced; everything forced at once.
    const DELAYS: [DeliveryPolicy; 4] = [
        DeliveryPolicy::RandomDelay {
            p_deliver: 0.5,
            max_delay: 3,
        },
        DeliveryPolicy::RandomDelay {
            p_deliver: 1.0,
            max_delay: 3,
        },
        DeliveryPolicy::RandomDelay {
            p_deliver: 1e-3,
            max_delay: 8,
        },
        DeliveryPolicy::RandomDelay {
            p_deliver: 0.5,
            max_delay: 1,
        },
    ];

    // The coded operations of a script; the `u64` beside the code picks
    // the slot (low byte) and the variant (bits 8 and up). The round a
    // commit stamps is `now` less bits 9-10.
    const PUSH: u8 = 0;
    const TAKE: u8 = 1;
    const TAKE_ALL: u8 = 2;
    const CLEAR: u8 = 3;
    const ADD_SLOT: u8 = 4;
    const COMMIT: u8 = 5;
    const END_ROUND: u8 = 6;
    const OPS: u8 = 7;

    /// Runs one script on a mailbox and on the reference in lockstep:
    /// the same deliveries in the same order off the same RNG draws from
    /// every take, the same queue lengths after every operation, the
    /// same `as_slice` per slot after every commit, the same committed
    /// messages, enqueue rounds and tags per slot after every operation
    /// (what a take keeps back included), and — drained by a forced
    /// traced take at the end — the same enqueue rounds and tags handed
    /// out.
    fn run_script(script: &[(u8, u64)]) {
        let mut mail = Mailbox::with_slots(2);
        let mut model = PerSlotVecs::default();
        model.queues.resize(2, Vec::new());
        let mut rng = StdRng::seed_from_u64(11);
        let mut model_rng = StdRng::seed_from_u64(11);
        let mut now = 1u64;
        let (mut bare, mut full) = (Vec::<Message>::new(), Vec::<Entry>::new());
        let end = [(END_ROUND, 0), (TAKE_ALL, 0b0110 << 8)];
        for (step, &(op, x)) in script.iter().chain(&end).enumerate() {
            let slots = model.queues.len();
            let slot = usize::from(x.to_le_bytes()[0]) % slots;
            let bit = |b: u32| x >> b & 1 == 1;
            let ctx = format!("step {step}: op {op} on slot {slot} of {slots} at round {now}");
            let mut take = |slot: usize, now: u64| {
                let policy = if bit(8) {
                    DELAYS[usize::from(x.to_le_bytes()[1] >> 4 & 3)]
                } else {
                    DeliveryPolicy::Immediate
                };
                let (traced, tagged_form) = (bit(9), bit(10));
                let want = model.take(slot, now, policy, &mut model_rng, traced && tagged_form);
                if tagged_form {
                    mail.take_deliverable_into(slot, now, policy, &mut rng, traced, &mut full);
                    assert_eq!(full, want, "{ctx}: deliveries");
                } else {
                    mail.take_deliverable_into(slot, now, policy, &mut rng, traced, &mut bare);
                    let want: Vec<Message> = want.iter().map(|e| e.0).collect();
                    assert_eq!(bare, want, "{ctx}: deliveries");
                }
                let draw = rng.random_range(0..u64::MAX);
                assert_eq!(draw, model_rng.random_range(0..u64::MAX), "{ctx}: RNG");
            };
            match op % OPS {
                PUSH => {
                    let seq = u64::try_from(step).expect("short script");
                    let tag = if bit(8) {
                        let depth = u32::try_from(step + 1).expect("short script");
                        CauseTag { depth }
                    } else {
                        CauseTag::ROOT
                    };
                    let msg = Message::Lin(NodeId::from_bits(seq));
                    mail.push(slot, msg, tag);
                    // The model's entry gets its round at the commit.
                    model.log.push((slot, (msg, u64::MAX, tag)));
                }
                TAKE => take(slot, now),
                // A whole round's receive actions; with bit 11, of a
                // later round, so that every message is eligible.
                TAKE_ALL => (0..slots).for_each(|s| take(s, now + u64::from(bit(11)) * 9)),
                CLEAR => {
                    mail.clear(slot);
                    model.clear(slot);
                }
                ADD_SLOT if slots < 8 => {
                    mail.add_slot();
                    model.queues.push(Vec::new());
                }
                ADD_SLOT => {}
                // Mid-round, as `send_external` does, or the boundary;
                // the batch was sent this round (`enq == now`), last
                // round, or — the preload of a late join — longer ago.
                COMMIT | END_ROUND => {
                    let round = now.saturating_sub(x >> 9 & 3);
                    for (_, entry) in &mut model.log {
                        entry.1 = round;
                    }
                    mail.commit(round);
                    model.commit();
                    now += u64::from(op % OPS == END_ROUND);
                    for (s, queue) in model.queues.iter().enumerate() {
                        let want: Vec<Message> = queue.iter().map(|e| e.0).collect();
                        assert_eq!(mail.as_slice(s), want, "{ctx}: slot {s}");
                    }
                }
                _ => unreachable!(),
            }
            let live: usize = model.queues.iter().map(Vec::len).sum();
            assert_eq!(mail.live, live, "{ctx}: live count");
            for s in 0..model.queues.len() {
                assert_eq!(mail.len(s), model.len(s), "{ctx}: slot {s} length");
            }
            for (s, queue) in model.queues.iter().enumerate() {
                let lanes = &mail.buf;
                let held: Vec<Entry> = mail
                    .range(s)
                    .map(|k| {
                        let tag = lanes.tags.get(k).copied().unwrap_or(CauseTag::ROOT);
                        (lanes.msgs[k], lanes.enq[k], tag)
                    })
                    .collect();
                assert_eq!(&held, queue, "{ctx}: slot {s} lanes");
            }
        }
        assert_eq!(mail.live, 0, "the forced take drains everything");
    }

    #[test]
    fn the_seams_of_commit_and_clear_match_the_reference() {
        let delay = 1 << 8;
        let traced_full = 0b110 << 8;
        run_script(&[
            // A send of this round committed at round start (a joiner's
            // announcement) is kept back by the round's own take.
            (PUSH, 0),
            (COMMIT, 0),
            (TAKE, 0),
            (END_ROUND, 0),
            // An all-taken round regroups into the buffer it emptied ...
            (PUSH, 1),
            (PUSH, 0),
            (PUSH, 1),
            (TAKE_ALL, 0),
            (END_ROUND, 0),
            // ... and leftovers plus new mail for one slot go through
            // the second buffer, tags along.
            (PUSH, 1 | delay),
            (PUSH, 1),
            (END_ROUND, 0),
            (TAKE, 1 | delay | traced_full),
            (PUSH, 1 | delay),
            (PUSH, 0),
            (END_ROUND, 0),
            // Clear, then push again in the same round: the slot is
            // listed twice, the dead send is skipped.
            (PUSH, 0),
            (CLEAR, 0),
            (PUSH, 0),
            (PUSH, 1),
            (END_ROUND, 0),
            // A cleared slot is reused, a new one added, and a slot that
            // sits a round out keeps its mail in place.
            (CLEAR, 1),
            (ADD_SLOT, 0),
            (PUSH, 2),
            (PUSH, 1),
            (END_ROUND, 0),
            (TAKE, 2),
            (PUSH, 2),
            (END_ROUND, 0),
        ]);
    }

    #[test]
    fn sends_committed_at_two_rounds_keep_order_and_their_rounds() {
        let lin = |b| Message::Lin(NodeId::from_bits(b));
        let mut mail = Mailbox::with_slots(2);
        mail.push(0, lin(1), CauseTag::ROOT);
        mail.push(1, lin(2), CauseTag::ROOT);
        mail.push(0, lin(3), CauseTag::ROOT);
        mail.commit(3);
        // Mail still held goes through the second buffer.
        mail.push(0, lin(4), CauseTag::ROOT);
        mail.commit(4);
        assert_eq!(mail.as_slice(0), [lin(1), lin(3), lin(4)]);
        // A traced take hands out each message with its enqueue round,
        // in shuffled order.
        let mut rng = StdRng::seed_from_u64(1);
        let mut take = |mail: &mut Mailbox, slot: usize, now: u64| {
            let mut out = Vec::<Entry>::new();
            mail.take_deliverable_into(
                slot,
                now,
                DeliveryPolicy::Immediate,
                &mut rng,
                true,
                &mut out,
            );
            out.sort_by_key(|e| e.0.carried_ids().next().map(NodeId::bits));
            out.iter().map(|e| (e.0, e.1)).collect::<Vec<_>>()
        };
        // A take at round 4 keeps the round-4 send, and its round, at
        // the front; a later commit appends behind it.
        let now = 4;
        assert_eq!(take(&mut mail, 0, now), [(lin(1), 3), (lin(3), 3)]);
        mail.push(1, lin(5), CauseTag::ROOT);
        mail.push(0, lin(6), CauseTag::ROOT);
        mail.commit(now);
        assert_eq!(mail.as_slice(0), [lin(4), lin(6)]);
        assert_eq!(mail.as_slice(1), [lin(2), lin(5)]);
        assert_eq!(take(&mut mail, 0, now + 1), [(lin(4), 4), (lin(6), 4)]);
        assert_eq!(take(&mut mail, 1, now + 1), [(lin(2), 3), (lin(5), 4)]);
    }

    #[test]
    fn the_integer_coin_answers_as_random_bool_does() {
        /// A stream of one repeated word.
        struct Word(u64);
        impl Rng for Word {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        let tiny = 0.5f64.powi(53);
        for p in [1.0, 0.5, 1e-3, tiny, 1.0 - tiny, 1e-300] {
            let coin = Coin::new(p);
            let mut rng = StdRng::seed_from_u64(p.to_bits());
            let mut reference = rng.clone();
            for _ in 0..100_000 {
                assert_eq!(coin.flip(&mut rng), reference.random_bool(p), "p = {p}");
            }
            // The answer turns from yes to no between the 53-bit draws
            // `below - 1` and `below`, whatever the 11 discarded bits.
            let draws = coin.below.saturating_sub(2)..(coin.below + 2).min(1 << 53);
            for draw in draws {
                for low in [0, 0x7ff] {
                    let word = draw << 11 | low;
                    let yes = coin.flip(&mut Word(word));
                    assert_eq!(yes, Word(word).random_bool(p), "p = {p}, word {word:#x}");
                    assert_eq!(yes, draw < coin.below, "p = {p}, word {word:#x}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn matches_a_vec_per_slot_under_random_scripts(
            script in vec((0u8..OPS, any::<u64>()), 1..120),
        ) {
            run_script(&script);
        }
    }
}
