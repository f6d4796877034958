//! Hashed timer wheel for protocol wake-ups.
//!
//! `SendPoll::WaitUntil` asks the driver to poll a rank again at a
//! logical time. The old cluster translated that into P blocked
//! `recv_timeout` calls — one OS timer per rank. The M:N scheduler
//! instead funnels every pending wake-up into one shared [`TimerWheel`]
//! serviced by the worker pool: a classic hashed wheel of
//! [`SLOTS`] buckets at [`GRANULARITY_US`] µs per slot, with a binary
//! heap catching deadlines beyond one wheel revolution.
//!
//! Deadlines are `u64` microseconds relative to the cluster's base
//! `Instant`, so the wheel never touches the clock itself — callers
//! pass `now` in. Firing a timer only makes a rank runnable; a stale
//! timer (the rank already progressed past its wait) is harmless
//! because polling a protocol state machine is idempotent.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ct_logp::Rank;

/// Number of buckets in the wheel (one revolution = `SLOTS × GRANULARITY_US` µs).
const SLOTS: usize = 512;
/// Microseconds per bucket.
const GRANULARITY_US: u64 = 16;

/// Horizon of one revolution in µs (8.192 ms with the defaults).
const HORIZON_US: u64 = SLOTS as u64 * GRANULARITY_US;

/// Hashed timer wheel mapping µs deadlines to runnable ranks.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<(u64, Rank)>>,
    /// Deadlines at or beyond one revolution from the cursor.
    overflow: BinaryHeap<Reverse<(u64, Rank)>>,
    /// µs timestamp the cursor has been advanced to.
    cursor_us: u64,
    /// Pending entry count (slots + overflow).
    pending: usize,
}

impl TimerWheel {
    pub fn new() -> TimerWheel {
        TimerWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            cursor_us: 0,
            pending: 0,
        }
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Schedule `rank` to become runnable at `deadline_us`. Deadlines
    /// already in the past are clamped to the cursor so they fire on
    /// the next `expire` call.
    pub fn insert(&mut self, deadline_us: u64, rank: Rank) {
        let deadline_us = deadline_us.max(self.cursor_us);
        if deadline_us >= self.cursor_us + HORIZON_US {
            self.overflow.push(Reverse((deadline_us, rank)));
        } else {
            let slot = (deadline_us / GRANULARITY_US) as usize % SLOTS;
            self.slots[slot].push((deadline_us, rank));
        }
        self.pending += 1;
    }

    /// Earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        let mut best: Option<u64> = self.overflow.peek().map(|Reverse((d, _))| *d);
        // The wheel only holds deadlines within one revolution of the
        // cursor, so a linear scan over occupied slots is exact.
        for slot in &self.slots {
            for &(d, _) in slot {
                if best.map(|b| d < b).unwrap_or(true) {
                    best = Some(d);
                }
            }
        }
        best
    }

    /// Advance the cursor to `now_us`, appending every expired rank to
    /// `due`. Entries whose deadline is still in the future stay put.
    /// Returns the number of overflow-heap entries cascaded down into
    /// wheel slots (telemetry; zero when nothing crossed the horizon).
    pub fn expire(&mut self, now_us: u64, due: &mut Vec<Rank>) -> u64 {
        if now_us < self.cursor_us {
            return 0;
        }
        if self.pending == 0 {
            self.cursor_us = now_us;
            return 0;
        }
        // Walk at most one full revolution of buckets; each bucket is
        // visited once per revolution regardless of how far the clock
        // jumped.
        let from_slot = self.cursor_us / GRANULARITY_US;
        let to_slot = now_us / GRANULARITY_US;
        let steps = (to_slot - from_slot).min(SLOTS as u64);
        for s in from_slot..=from_slot + steps {
            let idx = (s as usize) % SLOTS;
            if self.slots[idx].is_empty() {
                continue;
            }
            let mut keep = Vec::new();
            for (d, rank) in self.slots[idx].drain(..) {
                if d <= now_us {
                    due.push(rank);
                    self.pending -= 1;
                } else {
                    keep.push((d, rank));
                }
            }
            self.slots[idx] = keep;
        }
        self.cursor_us = now_us;
        // Pull overflow entries that are now due or have come within
        // the horizon.
        let mut cascaded = 0u64;
        while let Some(Reverse((d, rank))) = self.overflow.peek().copied() {
            if d <= now_us {
                self.overflow.pop();
                due.push(rank);
                self.pending -= 1;
            } else if d < self.cursor_us + HORIZON_US {
                self.overflow.pop();
                let slot = (d / GRANULARITY_US) as usize % SLOTS;
                self.slots[slot].push((d, rank));
                cascaded += 1;
            } else {
                break;
            }
        }
        cascaded
    }

    /// Drop every pending timer (the window emptied).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.overflow.clear();
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order_within_horizon() {
        let mut w = TimerWheel::new();
        w.insert(300, 3);
        w.insert(100, 1);
        w.insert(200, 2);
        assert_eq!(w.next_deadline(), Some(100));
        let mut due = Vec::new();
        w.expire(150, &mut due);
        assert_eq!(due, vec![1]);
        w.expire(400, &mut due);
        due.sort();
        assert_eq!(due, vec![1, 2, 3]);
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn past_deadlines_fire_on_next_expire() {
        let mut w = TimerWheel::new();
        let mut due = Vec::new();
        w.expire(10_000, &mut due);
        assert!(due.is_empty());
        w.insert(5, 7); // already past the cursor — clamped
        assert_eq!(w.next_deadline(), Some(10_000));
        w.expire(10_000, &mut due);
        assert_eq!(due, vec![7]);
    }

    #[test]
    fn overflow_beyond_horizon_still_fires() {
        let mut w = TimerWheel::new();
        let far = HORIZON_US * 3 + 42;
        w.insert(far, 9);
        w.insert(50, 1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_deadline(), Some(50));
        let mut due = Vec::new();
        // Advance in hops smaller than the horizon.
        let mut t = 0;
        while t < far {
            t += HORIZON_US / 2;
            w.expire(t.min(far), &mut due);
        }
        due.sort();
        assert_eq!(due, vec![1, 9]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn big_clock_jump_expires_everything_due() {
        let mut w = TimerWheel::new();
        for r in 0..20 {
            w.insert((r as u64) * 37, r);
        }
        w.insert(HORIZON_US * 10, 99);
        let mut due = Vec::new();
        w.expire(HORIZON_US * 20, &mut due);
        assert_eq!(due.len(), 21);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn clear_drops_pending() {
        let mut w = TimerWheel::new();
        w.insert(10, 0);
        w.insert(HORIZON_US * 2, 1);
        w.clear();
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_deadline(), None);
        let mut due = Vec::new();
        w.expire(HORIZON_US * 5, &mut due);
        assert!(due.is_empty());
    }
}
