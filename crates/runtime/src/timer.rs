//! Pending protocol wake-ups, in one heap.
//!
//! `SendPoll::WaitUntil` asks the driver to poll a rank again at a
//! logical time. The M:N scheduler funnels every such wake-up into one
//! shared [`Timers`] heap serviced by the worker pool. Only the
//! synchronized correction start and the paced Corollary 1 schedule arm
//! timers at all, and no benchmark workload runs either, so a binary
//! heap keyed by `(deadline, rank)` is all the structure they need.
//!
//! Deadlines are `u64` microseconds relative to the cluster's base
//! `Instant`, so the heap never touches the clock itself — callers
//! pass `now` in. Firing a timer only makes a rank runnable; a stale
//! timer (the rank already progressed past its wait) is harmless
//! because polling a protocol state machine is idempotent.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ct_logp::Rank;

/// Min-heap of `(deadline_us, rank)` wake-ups. Arms are not
/// deduplicated: a rank armed twice fires twice.
pub(crate) struct Timers {
    heap: BinaryHeap<Reverse<(u64, Rank)>>,
}

impl Timers {
    pub fn new() -> Timers {
        Timers {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `rank` to become runnable at `deadline_us`. A deadline
    /// already in the past fires on the next `expire` call.
    pub fn insert(&mut self, deadline_us: u64, rank: Rank) {
        self.heap.push(Reverse((deadline_us, rank)));
    }

    /// Earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((d, _))| *d)
    }

    /// Append every rank whose deadline is at or before `now_us` to
    /// `due`, in `(deadline, rank)` order.
    pub fn expire(&mut self, now_us: u64, due: &mut Vec<Rank>) {
        while let Some(&Reverse((d, rank))) = self.heap.peek() {
            if d > now_us {
                break;
            }
            self.heap.pop();
            due.push(rank);
        }
    }

    /// Drop every pending timer (the window emptied).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One revolution of the hashed wheel this heap replaced, µs: the
    /// horizon its overflow path started at.
    const OLD_HORIZON_US: u64 = 8_192;

    #[test]
    fn fires_in_deadline_order() {
        let mut t = Timers::new();
        t.insert(300, 3);
        t.insert(100, 1);
        t.insert(200, 2);
        assert_eq!(t.next_deadline(), Some(100));
        let mut due = Vec::new();
        t.expire(150, &mut due);
        assert_eq!(due, vec![1]);
        t.expire(400, &mut due);
        assert_eq!(due, vec![1, 2, 3]);
        assert_eq!(t.len(), 0);
        assert_eq!(t.next_deadline(), None);
    }

    #[test]
    fn past_deadlines_fire_on_next_expire() {
        let mut t = Timers::new();
        let mut due = Vec::new();
        t.expire(10_000, &mut due);
        assert!(due.is_empty());
        t.insert(5, 7); // already past
        assert_eq!(t.next_deadline(), Some(5));
        t.expire(10_000, &mut due);
        assert_eq!(due, vec![7]);
    }

    #[test]
    fn a_far_deadline_fires_in_one_expire() {
        let mut t = Timers::new();
        let far = OLD_HORIZON_US * 3 + 42;
        t.insert(far, 9);
        t.insert(50, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.next_deadline(), Some(50));
        let mut due = Vec::new();
        t.expire(far - 1, &mut due);
        assert_eq!(due, vec![1]);
        assert_eq!(t.next_deadline(), Some(far));
        // No intermediate hops: the one expire at the deadline fires it.
        t.expire(far, &mut due);
        assert_eq!(due, vec![1, 9]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn big_clock_jump_expires_everything_due() {
        let mut t = Timers::new();
        for r in 0..20 {
            t.insert((r as u64) * 37, r);
        }
        t.insert(OLD_HORIZON_US * 10, 99);
        let mut due = Vec::new();
        t.expire(OLD_HORIZON_US * 20, &mut due);
        assert_eq!(due.len(), 21);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn clear_drops_pending() {
        let mut t = Timers::new();
        t.insert(10, 0);
        t.insert(OLD_HORIZON_US * 2, 1);
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.next_deadline(), None);
        let mut due = Vec::new();
        t.expire(OLD_HORIZON_US * 5, &mut due);
        assert!(due.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Against a sorted-`Vec` model, over random insert / expire /
        /// clear sequences with past and far deadlines: `expire(now)`
        /// hands out exactly the ranks due by `now`, in
        /// `(deadline, rank)` order, and `next_deadline` is the model's
        /// minimum.
        #[test]
        fn matches_a_sorted_vec_model(
            ops in proptest::collection::vec((0u8..10, 0u64..100_000, 0u32..64), 1..200),
        ) {
            let mut timers = Timers::new();
            let mut model: Vec<(u64, Rank)> = Vec::new();
            let mut now = 0u64;
            let mut due = Vec::new();
            for (op, x, rank) in ops {
                match op {
                    // Up to 20 ms in the past, up to ten old horizons ahead.
                    0..=5 => {
                        let deadline = (now + x).saturating_sub(20_000);
                        timers.insert(deadline, rank);
                        let at = model.partition_point(|&e| e <= (deadline, rank));
                        model.insert(at, (deadline, rank));
                    }
                    // Short hops, and now and then a big clock jump.
                    6..=8 => {
                        now += if op == 8 { x * 10 } else { x / 8 };
                        due.clear();
                        timers.expire(now, &mut due);
                        let n = model.partition_point(|&(d, _)| d <= now);
                        let want: Vec<Rank> = model.drain(..n).map(|(_, r)| r).collect();
                        prop_assert_eq!(&due, &want);
                    }
                    _ => {
                        timers.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(timers.len(), model.len());
                prop_assert_eq!(timers.next_deadline(), model.first().map(|&(d, _)| d));
            }
        }
    }
}
