//! Causally paced checked correction.
//!
//! [`CheckedCorrection`] reproduces the paper's fault-free message
//! count `M_SCC = 3 + ⌈L/o⌉` (Corollary 1) only under the discrete
//! LogP schedule: probes leave one per `o`, and the terminating
//! handshake messages become *processable* exactly `o + L` after they
//! were sent. A discrete-event simulator enforces that schedule by
//! construction; a wall-clock runtime does not — under real scheduling
//! a rank may hear its neighbors before its second probe (2 sends) or
//! blast the whole ring while its neighbors are descheduled (2(P−1)
//! sends). [`PacedCheckedCorrection`] restores the discrete count
//! *causally*, without trusting any clock:
//!
//! * **Visibility gating** — an arrival from ring distance `d` carries
//!   enough information to reconstruct the sender's probe round
//!   (left-probes of distance `d` are round `2d−1`, right-probes round
//!   `2d`, because every machine alternates left/right from distance 1).
//!   The message is withheld from the stop rule until this machine is
//!   about to make its own send number `sender_round + D`, where
//!   `D = lag + 2` and `lag = ⌈L/o⌉` — exactly when the discrete model
//!   would process it. This prevents *undershoot* when neighbors run
//!   early.
//! * **Arrival gating** — sends number `D+1` and `D+2` (the first sends
//!   the discrete model makes at or after the handshake horizon) wait
//!   until the expected fault-free handshake message — from ring
//!   neighbor `r+1` respectively `r−1` — has physically arrived. This
//!   prevents *overshoot* when neighbors run late. A dead neighbor
//!   cannot send, so each gate also carries a generous fallback
//!   deadline; fault-free runs never consult it, faulty runs degrade to
//!   timing-dependent (but still stop-rule-bounded) counts.
//!
//! The result: on a fault-free synchronized run every rank sends
//! exactly `3 + lag` correction messages regardless of worker count,
//! scheduling delays, or how many concurrent broadcasts share the
//! machine — the property the pub/sub throughput benchmark asserts.

use ct_logp::{ring_add, ring_gap_ccw, ring_gap_cw, ring_sub, Rank, Time};

use super::{CheckedCorrection, CorrPoll, Correction};

/// Checked correction with the discrete-model probe schedule enforced
/// causally (see the module docs).
#[derive(Debug, Clone)]
pub struct PacedCheckedCorrection {
    inner: CheckedCorrection,
    rank: Rank,
    p: u32,
    /// Visibility offset `D = lag + 2` in probe rounds.
    vis_offset: u32,
    /// Arrival-gate fallback (same unit as [`Time`]).
    fallback: u64,
    /// Correction messages sent so far (probe rounds completed).
    sends: u32,
    /// Withheld arrivals `(from, visible_round)`.
    held: Vec<(Rank, u32)>,
    /// Physical arrivals from the immediate ring neighbors.
    got_right: bool,
    got_left: bool,
    /// Fallback deadline of the arrival gate currently blocking.
    gate_deadline: Option<Time>,
    /// Arrival gates waived by fallback expiry (right nbr, left nbr).
    waived: [bool; 2],
}

impl PacedCheckedCorrection {
    /// Create the machine for `rank` of `p`. `lag = ⌈L/o⌉` fixes the
    /// fault-free count at `3 + lag`; `fallback` bounds how long an
    /// arrival gate waits for a (possibly dead) neighbor.
    pub fn new(rank: Rank, p: u32, lag: u32, fallback: u64) -> Self {
        PacedCheckedCorrection {
            inner: CheckedCorrection::new(rank, p),
            rank,
            p,
            vis_offset: lag + 2,
            fallback,
            sends: 0,
            held: Vec::new(),
            got_right: false,
            got_left: false,
            gate_deadline: None,
            waived: [false; 2],
        }
    }

    /// Feed every withheld arrival whose visible round has been reached
    /// (processed strictly before send number `sends + 1`).
    fn feed_visible(&mut self) {
        let horizon = self.sends + 1;
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].1 <= horizon {
                let (from, _) = self.held.swap_remove(i);
                self.inner.on_correction(from);
            } else {
                i += 1;
            }
        }
    }

    /// The arrival gate for send number `n`, if any: gate 0 expects the
    /// right neighbor's first probe, gate 1 the left neighbor's second.
    fn gate_for(&self, n: u32) -> Option<usize> {
        if n == self.vis_offset + 1 {
            Some(0)
        } else if n == self.vis_offset + 2 {
            Some(1)
        } else {
            None
        }
    }
}

impl Correction for PacedCheckedCorrection {
    fn on_correction(&mut self, from: Rank) {
        if from == self.rank || self.p <= 1 {
            return;
        }
        if from == ring_add(self.rank, 1, self.p) {
            self.got_right = true;
        }
        if from == ring_sub(self.rank, 1, self.p) {
            self.got_left = true;
        }
        let gr = ring_gap_cw(self.rank, from, self.p);
        let gl = ring_gap_ccw(self.rank, from, self.p);
        // The nearer side names the sender's probe direction; an
        // antipodal tie is a left-probe (alternation sends left first).
        let sender_round = if gr <= gl { 2 * gr - 1 } else { 2 * gl };
        self.held.push((from, sender_round + self.vis_offset));
    }

    fn poll(&mut self, now: Time) -> CorrPoll {
        self.feed_visible();
        if self.inner.done_now() {
            return CorrPoll::Done;
        }
        if let Some(gate) = self.gate_for(self.sends + 1) {
            let arrived = if gate == 0 {
                self.got_right
            } else {
                self.got_left
            };
            if !arrived && !self.waived[gate] {
                let deadline = *self
                    .gate_deadline
                    .get_or_insert_with(|| now + self.fallback);
                if now < deadline {
                    return CorrPoll::WaitUntil(deadline);
                }
                self.waived[gate] = true;
            }
            self.gate_deadline = None;
        }
        match self.inner.poll(now) {
            CorrPoll::Send(to) => {
                self.sends += 1;
                self.gate_deadline = None;
                CorrPoll::Send(to)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAG: u32 = 2; // ⌈L/o⌉ for LogP::PAPER
    const FB: u64 = 1_000;

    /// Drive to completion, delivering `arrivals` as
    /// `(after_nth_send, from)`, and collect the send targets.
    fn run(mut m: PacedCheckedCorrection, arrivals: &[(u32, Rank)]) -> Vec<Rank> {
        let mut sent = Vec::new();
        let mut now = Time::ZERO;
        loop {
            for &(after, from) in arrivals {
                if after == sent.len() as u32 {
                    m.on_correction(from);
                }
            }
            match m.poll(now) {
                CorrPoll::Send(t) => sent.push(t),
                CorrPoll::Done => return sent,
                CorrPoll::WaitUntil(t) => {
                    assert!(t > now, "non-advancing wait");
                    now = t;
                }
                CorrPoll::Idle => panic!("paced machine never idles"),
            }
            assert!(sent.len() < 1000, "failed to terminate");
        }
    }

    #[test]
    fn fault_free_count_is_three_plus_lag_regardless_of_arrival_timing() {
        // The discrete model sends exactly 3 + lag = 5 probes. The paced
        // machine must reproduce that count whether the neighbors'
        // messages arrive instantly (undershoot risk for plain checked:
        // it would stop after 2) or only after this rank has already
        // probed (overshoot risk: plain checked would keep growing).
        for arrivals in [
            &[(0u32, 6u32), (0, 4)][..], // both early
            &[(2, 6), (3, 4)][..],       // on the discrete schedule
            &[(4, 6), (4, 4)][..],       // as late as causality allows
        ] {
            let m = PacedCheckedCorrection::new(5, 64, LAG, FB);
            let sent = run(m, arrivals);
            assert_eq!(
                sent,
                vec![4, 6, 3, 7, 2],
                "arrivals {arrivals:?} changed the probe schedule"
            );
        }
    }

    #[test]
    fn second_ring_arrivals_are_withheld_from_the_stop_rule() {
        // Messages from distance 2 become visible only at rounds
        // 3+D and 4+D — after the fault-free horizon — so hearing them
        // early must not stop the machine before its 5 probes.
        let m = PacedCheckedCorrection::new(10, 64, LAG, FB);
        let sent = run(m, &[(0, 12), (0, 8), (1, 11), (2, 9)]);
        assert_eq!(sent, vec![9, 11, 8, 12, 7]);
    }

    #[test]
    fn dead_right_neighbor_waits_fallback_then_probes_past_the_gap() {
        // r+1 (rank 6) is dead: gate 0 expires after the fallback and
        // the machine keeps probing right until rank 7 answers.
        let m = PacedCheckedCorrection::new(5, 64, LAG, FB);
        let sent = run(m, &[(0, 4), (5, 7)]);
        // Gate 0 (expecting dead rank 6) expires, probing resumes; rank
        // 7's answer (a distance-2 probe, visible at round 3+D = 7)
        // stops the right side after one more probe past it.
        assert_eq!(sent, vec![4, 6, 3, 7, 2, 8]);
    }

    #[test]
    fn two_process_ring_terminates() {
        let m = PacedCheckedCorrection::new(0, 2, LAG, FB);
        let sent = run(m, &[(1, 1)]);
        // Ring cap: both directions exhausted after probing the only
        // other process once per side.
        assert_eq!(sent, vec![1, 1]);
    }

    #[test]
    fn sole_colored_process_terminates_via_ring_cap_and_fallbacks() {
        let m = PacedCheckedCorrection::new(0, 6, LAG, FB);
        let sent = run(m, &[]);
        assert_eq!(sent.len(), 10);
        assert!(sent.iter().all(|&t| t != 0));
    }
}
