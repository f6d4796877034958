//! Opportunistic correction (§3.1) and its optimized variant (§3.3).
//!
//! Plain: process `r` unconditionally sends to
//! `{r+1, r-1, r+2, r-2, …, r+d, r-d}`. All processes are colored iff
//! the maximum gap does not exceed `2d`.
//!
//! Optimized (the Corrected Trees default): receiving a correction
//! message from `j` on the right proves `j` is dissemination-colored and
//! will cover `j-1, …, j-d` itself, so the remaining left targets shrink
//! to `i-d, …, j-d-1` (paper example: `i = 19`, `j = 23`, `d = 8` ⇒ 19
//! only sends to `14, …, 11`). Symmetrically for the left. This
//! preserves non-faulty liveness because only dissemination-colored
//! processes send correction messages — a received message is a proof of
//! full coverage, never a promise.

use ct_logp::{ring_add, ring_gap_ccw, ring_gap_cw, ring_sub, Rank, Time};

use super::{CorrPoll, Correction};

/// State machine for (optimized) opportunistic correction.
#[derive(Debug, Clone)]
pub struct OpportunisticCorrection {
    rank: Rank,
    p: u32,
    /// Correction distance `d`.
    distance: u32,
    /// Next offset to send rightwards (ascending), 1-based.
    next_right: u32,
    /// Next offset to send leftwards.
    next_left: u32,
    /// Upper bounds (inclusive) on offsets still worth sending; plain
    /// opportunistic keeps these at `d`, the optimization lowers them.
    limit_right: u32,
    limit_left: u32,
    /// Whether the §3.3 optimization is active.
    optimized: bool,
    /// Alternation state: next poll prefers right (`{r+1, r-1, r+2, …}`).
    prefer_right: bool,
}

impl OpportunisticCorrection {
    /// Create the machine for `rank` of `p`, correction distance
    /// `distance ≥ 1`.
    pub fn new(rank: Rank, p: u32, distance: u32, optimized: bool) -> Self {
        assert!(distance >= 1, "correction distance must be ≥ 1");
        assert!(p >= 1 && rank < p);
        // On a ring of p processes, offsets ≥ p wrap onto self/duplicates;
        // offsets i and p-i are the same target from both sides, which is
        // harmless (a duplicate delivery is masked) but pointless — cap
        // at p-1 so the machine never targets itself.
        let eff = distance.min(p.saturating_sub(1));
        OpportunisticCorrection {
            rank,
            p,
            distance: eff,
            next_right: 1,
            next_left: 1,
            limit_right: eff,
            limit_left: eff,
            optimized,
            prefer_right: true,
        }
    }

    fn right_exhausted(&self) -> bool {
        self.next_right > self.limit_right
    }

    fn left_exhausted(&self) -> bool {
        self.next_left > self.limit_left
    }
}

impl Correction for OpportunisticCorrection {
    fn on_correction(&mut self, from: Rank) {
        if !self.optimized || from == self.rank {
            return;
        }
        let d = self.distance;
        // Sender to the right at cw-gap g ≤ d covers my left offsets
        // 1 ..= d - g (ranks down to from - d), so skip those.
        let g_right = ring_gap_cw(self.rank, from, self.p);
        if g_right > 0 && g_right <= d {
            self.next_left = self.next_left.max(d - g_right + 1);
        }
        // Symmetrically for a sender on the left.
        let g_left = ring_gap_ccw(self.rank, from, self.p);
        if g_left > 0 && g_left <= d {
            self.next_right = self.next_right.max(d - g_left + 1);
        }
    }

    fn poll(&mut self, _now: Time) -> CorrPoll {
        if self.p <= 1 || (self.right_exhausted() && self.left_exhausted()) {
            return CorrPoll::Done;
        }
        // Alternate {+1, -1, +2, -2, …}, skipping exhausted directions.
        let go_right = if self.right_exhausted() {
            false
        } else if self.left_exhausted() {
            true
        } else {
            self.prefer_right
        };
        let target = if go_right {
            let t = ring_add(self.rank, self.next_right, self.p);
            self.next_right += 1;
            self.prefer_right = false;
            t
        } else {
            let t = ring_sub(self.rank, self.next_left, self.p);
            self.next_left += 1;
            self.prefer_right = true;
            t
        };
        CorrPoll::Send(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(m: &mut OpportunisticCorrection, now: Time) -> Vec<Rank> {
        let mut out = Vec::new();
        loop {
            match m.poll(now) {
                CorrPoll::Send(t) => out.push(t),
                CorrPoll::Done => break,
                other => panic!("unexpected poll result {other:?}"),
            }
        }
        out
    }

    #[test]
    fn plain_sends_paper_order() {
        // {r+1, r-1, r+2, r-2, …, r+d, r-d}
        let mut m = OpportunisticCorrection::new(10, 32, 3, false);
        assert_eq!(drain(&mut m, Time::ZERO), vec![11, 9, 12, 8, 13, 7]);
        // Once Done, stays Done.
        assert_eq!(m.poll(Time::ZERO), CorrPoll::Done);
    }

    #[test]
    fn wraps_around_ring_boundaries() {
        let mut m = OpportunisticCorrection::new(0, 8, 2, false);
        assert_eq!(drain(&mut m, Time::ZERO), vec![1, 7, 2, 6]);
    }

    #[test]
    fn distance_capped_by_ring_size() {
        // p=4, d=9 → effective d=3: sends to the 3 other processes with
        // both-side duplicates allowed by the paper's target set.
        let mut m = OpportunisticCorrection::new(0, 4, 9, false);
        let sent = drain(&mut m, Time::ZERO);
        assert_eq!(sent, vec![1, 3, 2, 2, 3, 1]);
        assert!(sent.iter().all(|&t| t != 0));
    }

    #[test]
    fn single_process_is_done_immediately() {
        let mut m = OpportunisticCorrection::new(0, 1, 4, false);
        assert_eq!(m.poll(Time::ZERO), CorrPoll::Done);
    }

    #[test]
    fn optimized_skips_targets_covered_from_right_paper_example() {
        // Paper example (§3.3): process 19 receives from 23, d = 8.
        // 23 covers 22…15, so 19 sends left only 14, 13, 12, 11 (plus
        // its own right messages 20…27 — we check the left side here).
        let mut m = OpportunisticCorrection::new(19, 64, 8, true);
        m.on_correction(23);
        let sent = drain(&mut m, Time::ZERO);
        let left_sent: Vec<Rank> = sent.iter().copied().filter(|&t| t < 19).collect();
        assert_eq!(left_sent, vec![14, 13, 12, 11]);
        // Right side unaffected.
        let right_sent: Vec<Rank> = sent.iter().copied().filter(|&t| t > 19).collect();
        assert_eq!(right_sent, vec![20, 21, 22, 23, 24, 25, 26, 27]);
    }

    #[test]
    fn optimized_skips_targets_covered_from_left() {
        let mut m = OpportunisticCorrection::new(19, 64, 8, true);
        m.on_correction(16); // covers 17..24 on its right
        let sent = drain(&mut m, Time::ZERO);
        let right_sent: Vec<Rank> = sent.iter().copied().filter(|&t| t > 19).collect();
        // Remaining right targets: 16 + 8 + 1 = 25, 26, 27.
        assert_eq!(right_sent, vec![25, 26, 27]);
    }

    #[test]
    fn optimized_adjacent_sender_suppresses_whole_side() {
        let d = 4;
        let mut m = OpportunisticCorrection::new(10, 32, d, true);
        m.on_correction(11); // right neighbor covers 10-d+1..10? it covers 7..10
        let sent = drain(&mut m, Time::ZERO);
        // 11 covers 10, 9, 8, 7 — all my left targets except 10-4=6.
        let left_sent: Vec<Rank> = sent.iter().copied().filter(|&t| t < 10).collect();
        assert_eq!(left_sent, vec![6]);
    }

    #[test]
    fn plain_ignores_received_messages() {
        let mut a = OpportunisticCorrection::new(19, 64, 8, false);
        let mut b = OpportunisticCorrection::new(19, 64, 8, false);
        a.on_correction(23);
        assert_eq!(drain(&mut a, Time::ZERO), drain(&mut b, Time::ZERO));
    }

    #[test]
    fn optimized_never_sends_more_than_plain() {
        for received in [vec![], vec![21u32], vec![17, 22], vec![18, 20, 23]] {
            let mut opt = OpportunisticCorrection::new(19, 64, 4, true);
            let mut plain = OpportunisticCorrection::new(19, 64, 4, false);
            for &f in &received {
                opt.on_correction(f);
                plain.on_correction(f);
            }
            assert!(drain(&mut opt, Time::ZERO).len() <= drain(&mut plain, Time::ZERO).len());
        }
    }

    #[test]
    fn far_senders_do_not_trigger_optimization() {
        let mut m = OpportunisticCorrection::new(19, 64, 4, true);
        m.on_correction(40); // gap 21 > d: proves nothing
        assert_eq!(drain(&mut m, Time::ZERO).len(), 8);
    }
}
