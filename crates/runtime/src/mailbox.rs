//! Bounded per-rank mailboxes.
//!
//! Every rank owns one [`Mailbox`]: a fixed-capacity ring buffer of
//! in-flight [`Msg`]s with a heap-allocated overflow queue behind it.
//! The ring is allocated once when the cluster is built, so in the
//! steady state a message travels sender → ring slot → receiver without
//! any per-message heap allocation. The spill queue exists purely for
//! safety: a rank that is scheduled behind a burst larger than the ring
//! (or a deliberately tiny `CT_MAILBOX_CAP` override) must neither
//! deadlock the sending worker nor drop an in-iteration message, so
//! excess messages degrade to heap queueing instead.
//!
//! FIFO order is global across the ring/spill boundary: once a message
//! has spilled, later pushes keep spilling until the spill queue has
//! drained back to empty, so a receiver always observes sender order —
//! the per-channel FIFO invariant `MonitorSink` checks.

use std::collections::VecDeque;

use ct_core::protocol::Payload;
use ct_logp::Rank;

/// One rank-to-rank message of a broadcast iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Msg {
    /// Broadcast iteration id (stale messages are discarded by id).
    pub id: u64,
    /// Sending rank.
    pub from: Rank,
    /// Message kind.
    pub payload: Payload,
    /// The low 32 bits of the sender's stamp at the send (µs on the
    /// cluster timeline): it fills what would be padding, so a `Msg`
    /// stays 24 bytes. See [`Msg::sent_us`].
    pub stamp: u32,
}

impl Msg {
    /// Filler for unoccupied ring slots; never read as a message.
    const VACANT: Msg = Msg {
        id: 0,
        from: 0,
        payload: Payload::Tree,
        stamp: 0,
    };

    /// The sender's whole stamp, widened against `reference`, a stamp
    /// of the receiver's. The two lie µs apart, far fewer than 2³¹, so
    /// the 32-bit difference says which way and how far.
    pub fn sent_us(&self, reference: u64) -> u64 {
        let ahead = self.stamp.wrapping_sub(reference as u32) as i32;
        reference.saturating_add_signed(i64::from(ahead))
    }
}

/// Fixed-capacity ring with an overflow spill queue (see module docs).
pub(crate) struct Mailbox {
    /// Plain `Msg` slots: `head`/`len` alone say which ones are live.
    ring: Box<[Msg]>,
    /// Index of the oldest ring entry (`< ring.len()`).
    head: usize,
    /// Occupied ring entries.
    len: usize,
    /// Overflow beyond the ring capacity; empty in the steady state.
    spill: VecDeque<Msg>,
    /// Lifetime count of messages that had to spill.
    spilled: u64,
}

impl Mailbox {
    /// A mailbox whose ring holds `capacity` messages (≥ 1).
    pub fn new(capacity: usize) -> Mailbox {
        assert!(capacity >= 1, "mailbox capacity must be at least 1");
        Mailbox {
            ring: vec![Msg::VACANT; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            spill: VecDeque::new(),
            spilled: 0,
        }
    }

    /// Number of queued messages (ring + spill).
    pub fn len(&self) -> usize {
        self.len + self.spill.len()
    }

    /// Is the mailbox empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.spill.is_empty()
    }

    /// Lifetime count of messages that overflowed into the spill queue.
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Append a message. Never blocks, never drops: a full ring spills
    /// to the heap. Pushes go to the spill queue whenever it is
    /// non-empty so FIFO order survives the overflow path. Returns
    /// whether this push spilled.
    pub fn push(&mut self, msg: Msg) -> bool {
        if self.spill.is_empty() && self.len < self.ring.len() {
            let mut tail = self.head + self.len;
            if tail >= self.ring.len() {
                tail -= self.ring.len();
            }
            self.ring[tail] = msg;
            self.len += 1;
            false
        } else {
            self.spill.push_back(msg);
            self.spilled += 1;
            true
        }
    }

    /// Remove the oldest message, if any.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<Msg> {
        if self.len > 0 {
            let msg = self.ring[self.head];
            self.head += 1;
            if self.head == self.ring.len() {
                self.head = 0;
            }
            self.len -= 1;
            Some(msg)
        } else {
            self.spill.pop_front()
        }
    }

    /// Move every message into `out`, oldest first; returns how many.
    /// The ring part is at most two slice copies (up to the wrap, then
    /// from slot 0); the spill queue, whose entries are all younger
    /// than the ring's, follows. The emptied ring restarts at slot 0,
    /// so a rank's next messages land in the cache lines its last ones
    /// did.
    pub fn drain_into(&mut self, out: &mut Vec<Msg>) -> usize {
        let drained = self.len();
        let first = self.len.min(self.ring.len() - self.head);
        out.extend_from_slice(&self.ring[self.head..self.head + first]);
        out.extend_from_slice(&self.ring[..self.len - first]);
        self.head = 0;
        self.len = 0;
        out.extend(self.spill.drain(..));
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64, from: Rank) -> Msg {
        Msg {
            id,
            from,
            payload: Payload::Tree,
            stamp: 0,
        }
    }

    #[test]
    fn the_stamp_fits_in_what_was_padding() {
        assert_eq!(std::mem::size_of::<Msg>(), 24);
    }

    #[test]
    fn a_stamp_widens_across_the_u32_wrap_either_way() {
        const WRAP: u64 = 1 << 32;
        let stamped = |sent_us: u64| Msg {
            stamp: sent_us as u32,
            ..msg(1, 0)
        };
        // The sender is past the wrap, the receiver not yet; and back.
        assert_eq!(stamped(WRAP + 7).sent_us(WRAP - 3), WRAP + 7);
        assert_eq!(stamped(WRAP - 5).sent_us(WRAP + 3), WRAP - 5);
        assert_eq!(stamped(40).sent_us(40), 40);
        assert_eq!(stamped(3).sent_us(10), 3);
    }

    #[test]
    fn fifo_within_ring() {
        let mut mb = Mailbox::new(4);
        for i in 0..4 {
            mb.push(msg(1, i));
        }
        assert_eq!(mb.len(), 4);
        for i in 0..4 {
            assert_eq!(mb.pop().unwrap().from, i);
        }
        assert!(mb.is_empty());
        assert_eq!(mb.spilled(), 0);
    }

    #[test]
    fn overflow_spills_and_preserves_global_fifo() {
        let mut mb = Mailbox::new(2);
        for i in 0..7 {
            mb.push(msg(1, i));
        }
        assert_eq!(mb.len(), 7);
        assert_eq!(mb.spilled(), 5);
        // Interleave pops and pushes: order must stay strict-FIFO even
        // while the spill queue drains.
        assert_eq!(mb.pop().unwrap().from, 0);
        mb.push(msg(1, 7));
        for i in 1..8 {
            assert_eq!(mb.pop().unwrap().from, i);
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn ring_wraps_around() {
        let mut mb = Mailbox::new(3);
        for round in 0..10u32 {
            mb.push(msg(1, round));
            assert_eq!(mb.pop().unwrap().from, round);
        }
        assert_eq!(mb.spilled(), 0);
    }

    #[test]
    fn a_drain_takes_the_ring_then_the_spill_queue() {
        let mut mb = Mailbox::new(2);
        for i in 0..5 {
            mb.push(msg(1, i));
        }
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 5);
        assert!(mb.is_empty());
        assert_eq!(mb.drain_into(&mut out), 0);
        let from: Vec<Rank> = out.iter().map(|m| m.from).collect();
        assert_eq!(from, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drain_across_the_wrap_is_fifo_and_leaves_the_ring_usable() {
        let mut mb = Mailbox::new(4);
        // Advance head to slot 3 so the next fill wraps.
        for i in 0..3 {
            mb.push(msg(1, i));
            mb.pop();
        }
        for i in 10..16 {
            mb.push(msg(1, i)); // 4 in the ring (slots 3, 0, 1, 2), 2 spilled
        }
        let mut out = Vec::new();
        // Both ring slices, then the spill queue.
        assert_eq!(mb.drain_into(&mut out), 6);
        let from: Vec<Rank> = out.iter().map(|m| m.from).collect();
        assert_eq!(from, vec![10, 11, 12, 13, 14, 15]);
        assert!(mb.is_empty());
        // The emptying drain restarted the ring at slot 0; pushes and
        // pops still line up.
        for i in 20..24 {
            mb.push(msg(1, i));
        }
        assert_eq!(mb.spilled(), 2);
        for i in 20..24 {
            assert_eq!(mb.pop().unwrap().from, i);
        }
    }

    #[test]
    fn a_drain_restarts_the_ring_at_slot_0() {
        let mut mb = Mailbox::new(4);
        for i in 0..3 {
            mb.push(msg(1, i));
        }
        mb.pop();
        mb.pop();
        assert_eq!(mb.head, 2, "pops leave the head past what they took");
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 1);
        assert_eq!(mb.head, 0);
        mb.push(msg(2, 9));
        assert_eq!(mb.ring[0], msg(2, 9));
        assert_eq!(mb.len(), 1);
    }
}
