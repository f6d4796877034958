//! Checked correction (§3.1).
//!
//! Every dissemination-colored process alternates sends left and right
//! at increasing ring distance. It stops sending into a direction once
//! it has received a message *from* that direction from a process it has
//! already sent *to* — i.e. the two colored ring segments have shaken
//! hands. Paper example: process 23 received nearest correction
//! messages from 19 and 28; it keeps sending until it has sent to both,
//! producing `{22, 24, 21, 25, 20, 26, 19, 27, 28}`.
//!
//! This colors all live processes regardless of the maximum gap size, as
//! long as no process fails during the correction phase, and costs
//! `M_SCC = 3 + ⌊L/o⌋` messages per process in the fault-free case
//! (Corollary 1).

use ct_logp::{ring_add, ring_gap_ccw, ring_gap_cw, ring_sub, Rank, Time};

use super::{CorrPoll, Correction};

/// Smallest ring gaps `(g_right, g_left)` among the senders heard from
/// one direction; `u32::MAX` until somebody is.
type NearestHeard = (u32, u32);

const NOBODY: NearestHeard = (u32::MAX, u32::MAX);

/// State machine for checked correction.
#[derive(Debug, Clone)]
pub struct CheckedCorrection {
    rank: Rank,
    p: u32,
    /// Next 1-based offsets per direction.
    next_right: u32,
    next_left: u32,
    /// The stop rule's whole memory. A sender's nearer side is its
    /// message's direction (a tie counts as both), and a direction is
    /// done once some sender from it has been sent to — via either
    /// side, which matters on tiny rings where both directions reach
    /// the same process. "Some sender `s` with `next_right > g_right(s)`
    /// or `next_left > g_left(s)`" holds iff it holds for the two
    /// minima, so the minima per direction stand in for the senders.
    heard_right: NearestHeard,
    heard_left: NearestHeard,
    prefer_left: bool,
}

impl CheckedCorrection {
    /// Create the machine for `rank` of `p`.
    pub fn new(rank: Rank, p: u32) -> Self {
        assert!(p >= 1 && rank < p);
        CheckedCorrection {
            rank,
            p,
            next_right: 1,
            next_left: 1,
            heard_right: NOBODY,
            heard_left: NOBODY,
            // The paper's Lemma 2 proof sends the first message to the
            // left ("If processes send the first message to the left…").
            prefer_left: true,
        }
    }

    /// `p - 1` caps every direction: after sending to all other
    /// processes there is nobody left (only reachable when the whole
    /// rest of the ring was uncolored and silent).
    fn cap(&self) -> u32 {
        self.p.saturating_sub(1)
    }

    fn sent_to(&self, gaps: NearestHeard) -> bool {
        self.next_right > gaps.0 || self.next_left > gaps.1
    }

    fn right_done(&self) -> bool {
        self.next_right > self.cap() || self.sent_to(self.heard_right)
    }

    fn left_done(&self) -> bool {
        self.next_left > self.cap() || self.sent_to(self.heard_left)
    }

    /// Would [`Correction::poll`] report `Done` right now? Exposed for
    /// the paced wrapper, which must test the stop rule without letting
    /// `poll` commit another probe.
    pub(crate) fn done_now(&self) -> bool {
        self.p <= 1 || (self.right_done() && self.left_done())
    }
}

impl Correction for CheckedCorrection {
    fn on_correction(&mut self, from: Rank) {
        if from == self.rank {
            return;
        }
        let gr = ring_gap_cw(self.rank, from, self.p);
        let gl = ring_gap_ccw(self.rank, from, self.p);
        let nearer = |h: &mut NearestHeard| *h = (h.0.min(gr), h.1.min(gl));
        if gr <= gl {
            nearer(&mut self.heard_right);
        }
        if gl <= gr {
            nearer(&mut self.heard_left);
        }
    }

    fn poll(&mut self, _now: Time) -> CorrPoll {
        if self.done_now() {
            return CorrPoll::Done;
        }
        let go_left = if self.left_done() {
            false
        } else if self.right_done() {
            true
        } else {
            self.prefer_left
        };
        let target = if go_left {
            let t = ring_sub(self.rank, self.next_left, self.p);
            self.next_left += 1;
            self.prefer_left = false;
            t
        } else {
            let t = ring_add(self.rank, self.next_right, self.p);
            self.next_right += 1;
            self.prefer_left = true;
            t
        };
        CorrPoll::Send(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the machine, feeding `arrivals` as (after_nth_send, from).
    fn run(mut m: CheckedCorrection, arrivals: &[(usize, Rank)]) -> Vec<Rank> {
        let mut sent = Vec::new();
        let mut ai = 0;
        loop {
            while ai < arrivals.len() && arrivals[ai].0 <= sent.len() {
                m.on_correction(arrivals[ai].1);
                ai += 1;
            }
            match m.poll(Time::ZERO) {
                CorrPoll::Send(t) => sent.push(t),
                CorrPoll::Done => break,
                other => panic!("unexpected {other:?}"),
            }
            assert!(sent.len() < 1000, "machine failed to terminate");
        }
        sent
    }

    #[test]
    fn paper_example_process_23() {
        // Receives from 19 (left, distance 4) and 28 (right, distance 5)
        // early; must send {22,24,21,25,20,26,19,27,28} in that order.
        let m = CheckedCorrection::new(23, 64);
        let sent = run(m, &[(0, 19), (0, 28)]);
        assert_eq!(sent, vec![22, 24, 21, 25, 20, 26, 19, 27, 28]);
    }

    #[test]
    fn fault_free_neighbors_stop_after_handshake() {
        // Both immediate neighbors heard: sends exactly to them, stops.
        let m = CheckedCorrection::new(5, 64);
        let sent = run(m, &[(0, 4), (0, 6)]);
        assert_eq!(sent, vec![4, 6]);
    }

    #[test]
    fn late_arrival_after_overshoot_stops_immediately() {
        // We already sent to distance 3 both sides when messages from
        // distance-2 senders arrive → both directions instantly done.
        let mut m = CheckedCorrection::new(10, 64);
        let mut sent = Vec::new();
        for _ in 0..6 {
            match m.poll(Time::ZERO) {
                CorrPoll::Send(t) => sent.push(t),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(sent, vec![9, 11, 8, 12, 7, 13]);
        m.on_correction(8);
        m.on_correction(12);
        assert_eq!(m.poll(Time::ZERO), CorrPoll::Done);
    }

    #[test]
    fn unheard_direction_keeps_probing() {
        // Only the left side answers; the right side keeps growing until
        // someone (rank 9 at distance 4) finally answers.
        let m = CheckedCorrection::new(5, 64);
        let sent = run(m, &[(0, 4), (5, 9)]);
        // Left: only 4. Right: 6, 7, 8, 9 (heard from 9 after 5 sends).
        assert_eq!(sent, vec![4, 6, 7, 8, 9]);
    }

    #[test]
    fn sole_colored_process_terminates_via_ring_cap() {
        // Nobody else ever sends: the machine must still terminate after
        // covering the whole ring in both directions.
        let m = CheckedCorrection::new(0, 6);
        let sent = run(m, &[]);
        // Alternating left/right over 5 offsets each.
        assert_eq!(sent.len(), 10);
        assert!(sent.iter().all(|&t| t != 0));
    }

    #[test]
    fn two_process_ring_one_message_suffices() {
        // p=2: the only other process is at distance 1 both ways; after
        // sending left once and hearing from it, both directions are
        // done — no duplicate probe to the same process.
        let m = CheckedCorrection::new(0, 2);
        let sent = run(m, &[(1, 1)]);
        assert_eq!(sent, vec![1]);
    }

    #[test]
    fn single_process_done() {
        let mut m = CheckedCorrection::new(0, 1);
        assert_eq!(m.poll(Time::ZERO), CorrPoll::Done);
    }

    #[test]
    fn duplicate_arrivals_are_idempotent() {
        let mut m = CheckedCorrection::new(5, 64);
        m.on_correction(4);
        m.on_correction(4);
        m.on_correction(6);
        let sent = run(m, &[]);
        assert_eq!(sent, vec![4, 6]);
    }

    /// The stop rule as first written — remember every sender's gaps,
    /// scan them all — kept as the reference the running minima are
    /// checked against.
    struct ListChecked {
        rank: Rank,
        p: u32,
        next_right: u32,
        next_left: u32,
        heard: Vec<(u32, u32)>,
        prefer_left: bool,
    }

    impl ListChecked {
        fn new(rank: Rank, p: u32) -> Self {
            ListChecked {
                rank,
                p,
                next_right: 1,
                next_left: 1,
                heard: Vec::new(),
                prefer_left: true,
            }
        }

        fn sent_to(&self, (gr, gl): (u32, u32)) -> bool {
            self.next_right > gr || self.next_left > gl
        }

        fn right_done(&self) -> bool {
            self.next_right > self.p.saturating_sub(1)
                || (self.heard.iter()).any(|&(gr, gl)| gr <= gl && self.sent_to((gr, gl)))
        }

        fn left_done(&self) -> bool {
            self.next_left > self.p.saturating_sub(1)
                || (self.heard.iter()).any(|&(gr, gl)| gl <= gr && self.sent_to((gr, gl)))
        }

        fn done_now(&self) -> bool {
            self.p <= 1 || (self.right_done() && self.left_done())
        }

        fn on_correction(&mut self, from: Rank) {
            if from != self.rank {
                let gr = ring_gap_cw(self.rank, from, self.p);
                self.heard.push((gr, ring_gap_ccw(self.rank, from, self.p)));
            }
        }

        fn poll(&mut self) -> CorrPoll {
            if self.done_now() {
                return CorrPoll::Done;
            }
            let go_left = !self.left_done() && (self.right_done() || self.prefer_left);
            self.prefer_left = !go_left;
            CorrPoll::Send(if go_left {
                self.next_left += 1;
                ring_sub(self.rank, self.next_left - 1, self.p)
            } else {
                self.next_right += 1;
                ring_add(self.rank, self.next_right - 1, self.p)
            })
        }
    }

    proptest::proptest! {
        /// Any interleaving of arrivals and polls, tiny rings and
        /// antipodal senders included: the minima answer every poll and
        /// every `done_now` exactly as the list of senders does.
        #[test]
        fn running_minima_decide_exactly_like_the_list_of_senders(
            p in 1u32..65,
            rank_seed in proptest::prelude::any::<u32>(),
            ops in proptest::collection::vec(
                (0u32..8, proptest::prelude::any::<u32>()),
                0..160,
            ),
        ) {
            let rank = rank_seed % p;
            let mut minima = CheckedCorrection::new(rank, p);
            let mut list = ListChecked::new(rank, p);
            for (op, x) in ops {
                match op {
                    // An arrival from anywhere, from the antipode (a tie
                    // when P is even), or from next door.
                    0..=2 => {
                        let from = match op {
                            0 => x % p,
                            1 => ring_add(rank, p / 2, p),
                            _ if x % 2 == 0 => ring_add(rank, 1, p),
                            _ => ring_sub(rank, 1, p),
                        };
                        minima.on_correction(from);
                        list.on_correction(from);
                    }
                    _ => proptest::prop_assert_eq!(minima.poll(Time::ZERO), list.poll()),
                }
                proptest::prop_assert_eq!(minima.done_now(), list.done_now());
            }
            // And to the end: both stop, at the same send.
            for _ in 0..2 * p + 1 {
                proptest::prop_assert_eq!(minima.poll(Time::ZERO), list.poll());
            }
            proptest::prop_assert_eq!(list.poll(), CorrPoll::Done);
        }
    }
}
