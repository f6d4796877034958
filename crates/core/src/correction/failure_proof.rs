//! Failure-proof correction.
//!
//! The paper introduces this as "a generalization of checked correction
//! that guarantees each process to be colored even in the presence of
//! failures during correction" and defers the details to Corrected
//! Gossip \[17\] because of "its complexity and high overhead" (§3.1).
//!
//! Our reconstruction keeps checked correction's probing discipline
//! unchanged and adds *delivery acknowledgments*: a correction-colored
//! process confirms each distinct prober once (the protocol layer sends
//! these as [`Payload::Ack`], see
//! [`CorrectionKind::replies_when_correction_colored`]). Crucially the
//! acknowledgment is **not** a correction message and never feeds the
//! checked stop rule — an ack proves the probe *arrived*, not that
//! anything beyond its sender is covered. (The test suite's property
//! checks caught exactly that unsoundness in an earlier design: a
//! prober that stops on the first ack strands the middle of a large
//! gap.)
//!
//! Under the paper's fault model (processes are dead or alive for the
//! whole broadcast, §2.1) the acknowledgments carry no decision-relevant
//! information, so coloring behavior coincides with checked correction
//! while paying the extra traffic — exactly how the paper characterizes
//! failure-proof correction. In a model with mid-broadcast failures the
//! acks are the raw material for retransmission decisions, which is the
//! complexity the paper (and this reproduction) leaves out of scope.
//!
//! [`CorrectionKind::replies_when_correction_colored`]: super::CorrectionKind::replies_when_correction_colored
//! [`Payload::Ack`]: crate::protocol::Payload::Ack

use ct_logp::{Rank, Time};

use super::checked::CheckedCorrection;
use super::{CorrPoll, Correction};

/// Checked-correction probing plus acknowledgment semantics (the acks
/// themselves are issued by the protocol layer for correction-colored
/// processes; this machine runs on dissemination-colored ones and is
/// driven only by genuine correction messages).
#[derive(Debug, Clone)]
pub struct FailureProofCorrection {
    inner: CheckedCorrection,
}

impl FailureProofCorrection {
    /// Create the machine for `rank` of `p`.
    pub fn new(rank: Rank, p: u32) -> Self {
        FailureProofCorrection {
            inner: CheckedCorrection::new(rank, p),
        }
    }
}

impl Correction for FailureProofCorrection {
    fn on_correction(&mut self, from: Rank) {
        self.inner.on_correction(from);
    }

    fn poll(&mut self, now: Time) -> CorrPoll {
        self.inner.poll(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probing_matches_checked_correction() {
        let mut fp = FailureProofCorrection::new(23, 64);
        let mut ck = CheckedCorrection::new(23, 64);
        for from in [19u32, 28] {
            fp.on_correction(from);
            ck.on_correction(from);
        }
        loop {
            let a = fp.poll(Time::ZERO);
            let b = ck.poll(Time::ZERO);
            assert_eq!(a, b);
            if a == CorrPoll::Done {
                break;
            }
        }
    }

    #[test]
    fn correction_messages_bound_directions_like_checked() {
        // Genuine correction messages (from dissemination-colored
        // participants) stop the probe exactly as in checked correction.
        let mut fp = FailureProofCorrection::new(0, 32);
        let mut sent = Vec::new();
        for _ in 0..6 {
            match fp.poll(Time::ZERO) {
                CorrPoll::Send(t) => sent.push(t),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(sent, vec![31, 1, 30, 2, 29, 3]);
        fp.on_correction(3);
        fp.on_correction(29);
        assert_eq!(fp.poll(Time::ZERO), CorrPoll::Done);
    }
}
