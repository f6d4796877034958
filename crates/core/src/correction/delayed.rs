//! Delayed correction (§3.3).
//!
//! Minimizes messages in the fault-free case: every dissemination-
//! colored process sends a single correction message to its left
//! neighbor and then waits. If no correction message has arrived from
//! the right within `delay` steps, the process starts probing rightward
//! until one does. A dissemination-colored process that receives a
//! message *from the left* (i.e. a probe crossing it) immediately
//! replies to stop the prober.
//!
//! The delay must be long enough that a live, punctual right neighbor's
//! message always arrives in time — then no live process is ever
//! falsely suspected, so this is *not* a failure detector; non-faulty
//! liveness and termination still hold (§3.3). The paper does not
//! evaluate delayed correction because the appropriate delay is
//! application-specific; we implement and test it as the message-optimal
//! end of the trade-off space.

use std::collections::VecDeque;

use ct_logp::{ring_add, ring_sub, Rank, Time};

use super::{direction_of, CorrPoll, Correction, Direction};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Send the single leftward message.
    SendFirstLeft,
    /// Waiting for the right side until the deadline.
    Waiting,
    /// Deadline passed without a message from the right: probe rightward.
    Probing,
}

/// State machine for delayed correction.
#[derive(Debug, Clone)]
pub struct DelayedCorrection {
    rank: Rank,
    p: u32,
    delay: u64,
    phase: Phase,
    /// Deadline for suspecting the right side; set after the first send.
    deadline: Time,
    /// Next rightward probe offset (1-based; offset 1 re-probes the
    /// direct neighbor first).
    next_right: u32,
    got_right: bool,
    /// Stop-replies owed to probers that crossed us from the left.
    replies: VecDeque<Rank>,
    /// Senders already replied to — a prober needs one stop-reply, and
    /// on tiny rings (antipodal ties count as *both* directions) a
    /// second reply would bounce back and forth forever.
    replied_to: Vec<Rank>,
}

impl DelayedCorrection {
    /// Create the machine for `rank` of `p` with suspicion delay
    /// `delay`, counted from its first poll.
    pub fn new(rank: Rank, p: u32, delay: u64) -> Self {
        DelayedCorrection {
            rank,
            p,
            delay,
            phase: Phase::SendFirstLeft,
            deadline: Time::NEVER,
            next_right: 1,
            got_right: false,
            replies: VecDeque::new(),
            replied_to: Vec::new(),
        }
    }

    fn reply_once(&mut self, to: Rank) {
        if !self.replied_to.contains(&to) {
            self.replied_to.push(to);
            self.replies.push_back(to);
        }
    }
}

impl Correction for DelayedCorrection {
    fn on_correction(&mut self, from: Rank) {
        if from == self.rank {
            return;
        }
        match direction_of(self.rank, from, self.p) {
            Some(Direction::Right) => self.got_right = true,
            Some(Direction::Left) => self.reply_once(from),
            None => {
                // Antipodal tie: treat as both — the message stops our
                // right probe and, like a left-probe, earns a reply.
                self.got_right = true;
                self.reply_once(from);
            }
        }
    }

    fn poll(&mut self, now: Time) -> CorrPoll {
        // Stop-replies take priority: a prober is burning messages.
        if let Some(to) = self.replies.pop_front() {
            return CorrPoll::Send(to);
        }
        if self.p <= 1 {
            return CorrPoll::Idle;
        }
        match self.phase {
            Phase::SendFirstLeft => {
                self.phase = Phase::Waiting;
                self.deadline = now + self.delay;
                CorrPoll::Send(ring_sub(self.rank, 1, self.p))
            }
            Phase::Waiting => {
                if self.got_right {
                    // Never Done: a late prober may still need a reply.
                    CorrPoll::Idle
                } else if now < self.deadline {
                    CorrPoll::WaitUntil(self.deadline)
                } else {
                    self.phase = Phase::Probing;
                    self.poll(now)
                }
            }
            Phase::Probing => {
                if self.got_right || self.next_right >= self.p {
                    CorrPoll::Idle
                } else {
                    let t = ring_add(self.rank, self.next_right, self.p);
                    self.next_right += 1;
                    CorrPoll::Send(t)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_sends_exactly_one_message() {
        let mut m = DelayedCorrection::new(5, 64, 10);
        assert_eq!(m.poll(Time::ZERO), CorrPoll::Send(4));
        // Right neighbor's message arrives within the delay.
        m.on_correction(6);
        assert_eq!(m.poll(Time::new(5)), CorrPoll::Idle);
        assert_eq!(m.poll(Time::new(100)), CorrPoll::Idle);
    }

    #[test]
    fn waits_until_deadline_before_probing() {
        let mut m = DelayedCorrection::new(5, 64, 10);
        assert_eq!(m.poll(Time::new(0)), CorrPoll::Send(4));
        assert_eq!(m.poll(Time::new(3)), CorrPoll::WaitUntil(Time::new(10)));
        // Deadline passes in silence → probe rightward one per poll.
        assert_eq!(m.poll(Time::new(10)), CorrPoll::Send(6));
        assert_eq!(m.poll(Time::new(11)), CorrPoll::Send(7));
        assert_eq!(m.poll(Time::new(12)), CorrPoll::Send(8));
        // A reply finally arrives from the right.
        m.on_correction(8);
        assert_eq!(m.poll(Time::new(15)), CorrPoll::Idle);
    }

    #[test]
    fn replies_to_left_probes_immediately() {
        let mut m = DelayedCorrection::new(10, 64, 100);
        assert_eq!(m.poll(Time::ZERO), CorrPoll::Send(9));
        // A prober three to the left reaches us.
        m.on_correction(7);
        assert_eq!(m.poll(Time::new(2)), CorrPoll::Send(7), "stop-reply first");
        // Then back to waiting.
        assert_eq!(m.poll(Time::new(3)), CorrPoll::WaitUntil(Time::new(100)));
    }

    #[test]
    fn reply_obligation_can_arrive_after_quiescence() {
        let mut m = DelayedCorrection::new(10, 64, 5);
        assert_eq!(m.poll(Time::ZERO), CorrPoll::Send(9));
        m.on_correction(11);
        assert_eq!(m.poll(Time::new(3)), CorrPoll::Idle);
        // A very late prober from the left must still get a reply —
        // this is why the machine never reports Done.
        m.on_correction(6);
        assert_eq!(m.poll(Time::new(50)), CorrPoll::Send(6));
        assert_eq!(m.poll(Time::new(51)), CorrPoll::Idle);
    }

    #[test]
    fn replies_are_once_per_sender_no_ping_pong() {
        // Regression (found by property testing): on a 2-process ring
        // every message is an antipodal tie, so each arrival both stops
        // the right probe and earns a reply. Without per-sender dedup,
        // two delayed machines reply to each other's replies forever.
        let mut a = DelayedCorrection::new(0, 2, 5);
        let mut b = DelayedCorrection::new(1, 2, 5);
        let mut in_flight: Vec<(Rank, Rank)> = Vec::new(); // (from, to)
                                                           // First sends.
        if let CorrPoll::Send(t) = a.poll(Time::ZERO) {
            in_flight.push((0, t));
        }
        if let CorrPoll::Send(t) = b.poll(Time::ZERO) {
            in_flight.push((1, t));
        }
        let mut total = in_flight.len();
        let mut now = Time::new(4);
        while let Some((from, to)) = in_flight.pop() {
            let m = if to == 0 { &mut a } else { &mut b };
            m.on_correction(from);
            while let CorrPoll::Send(t) = m.poll(now) {
                in_flight.push((to, t));
                total += 1;
                assert!(total < 10, "reply ping-pong detected");
            }
            now += 1u64;
        }
        // Two first-sends plus at most one reply each.
        assert!(total <= 4, "{total} messages on a 2-ring");
    }

    #[test]
    fn probe_stops_at_ring_cap() {
        let mut m = DelayedCorrection::new(0, 4, 2);
        assert_eq!(m.poll(Time::ZERO), CorrPoll::Send(3));
        assert_eq!(m.poll(Time::new(2)), CorrPoll::Send(1));
        assert_eq!(m.poll(Time::new(3)), CorrPoll::Send(2));
        assert_eq!(m.poll(Time::new(4)), CorrPoll::Send(3));
        // All others probed; nothing left to try.
        assert_eq!(m.poll(Time::new(5)), CorrPoll::Idle);
    }

    #[test]
    fn singleton_ring_idles() {
        let mut m = DelayedCorrection::new(0, 1, 5);
        assert_eq!(m.poll(Time::ZERO), CorrPoll::Idle);
    }
}
