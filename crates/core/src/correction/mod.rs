//! Ring-correction algorithms (§3.1, §3.3).
//!
//! After dissemination, all processes colored *by dissemination* send
//! correction messages to ring neighbors so that every live process the
//! tree missed still gets the payload. Processes colored *by correction*
//! stay silent (except for tree forwarding on early correction in
//! overlapped mode, handled by the protocol layer).
//!
//! Each algorithm is a small pull-model state machine ([`Correction`]):
//! the driver (protocol layer) feeds it received correction messages and
//! polls it for the next target whenever the sender port is free. The
//! machines are transport-agnostic and identical under the LogP
//! simulator and the thread-cluster runtime.
//!
//! | kind | messages (fault-free) | guarantee |
//! |---|---|---|
//! | [`OpportunisticCorrection`] | `2d` per process | colors all iff `g_max ≤ 2d` |
//! | optimized opportunistic | `≤ 2d` | same, fewer messages (§3.3) |
//! | [`CheckedCorrection`] | `3 + ⌊L/o⌋` synchronized | all live colored for any `g_max`, if no failures during correction |
//! | failure-proof: [`CheckedCorrection`], and ranks colored by correction acknowledge | more | all live colored even with failures during correction |
//! | [`DelayedCorrection`] | 1 + reply | minimal messages, latency penalty on faults (§3.3) |

pub mod checked;
pub mod delayed;
pub mod host;
pub mod opportunistic;
pub mod paced;

use core::fmt;

pub use checked::CheckedCorrection;
use ct_logp::{LogP, Rank, Time};
pub use delayed::DelayedCorrection;
pub use host::{CorrectionHost, CorrectionMachine};
pub use opportunistic::OpportunisticCorrection;
pub use paced::PacedCheckedCorrection;

/// A direction on the correction ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Descending ranks (`r-1, r-2, …`).
    Left,
    /// Ascending ranks (`r+1, r+2, …`).
    Right,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Left => Direction::Right,
            Direction::Right => Direction::Left,
        }
    }
}

/// Which correction algorithm a broadcast uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CorrectionKind {
    /// No correction: plain, fault-agnostic tree broadcast.
    None,
    /// Opportunistic with correction distance `d` (§3.1): `d` messages
    /// in each direction, unconditionally.
    Opportunistic {
        /// Correction distance `d ≥ 1`.
        distance: u32,
    },
    /// Optimized opportunistic (§3.3): skips targets provably covered by
    /// a correction message already received from the other side. The
    /// paper's default for Corrected Trees.
    OpportunisticOptimized {
        /// Correction distance `d ≥ 1`.
        distance: u32,
    },
    /// Checked correction (§3.1): keep alternating left/right at
    /// increasing distance until a message arrives from each direction
    /// from a process already sent to.
    Checked,
    /// Checked correction with the discrete-model probe schedule
    /// enforced causally ([`PacedCheckedCorrection`]): fault-free
    /// synchronized runs send exactly `3 + lag` messages per process
    /// (Corollary 1 with `lag = ⌈L/o⌉`) on any driver, discrete-event
    /// or wall-clock. Built by [`CorrectionKind::checked_paced`].
    CheckedPaced {
        /// `⌈L/o⌉` of the LogP model the count is provisioned for.
        lag: u32,
        /// Arrival-gate fallback in [`Time`] units (only consulted when
        /// an expected handshake neighbor is dead or silent).
        fallback: u64,
    },
    /// Failure-proof correction: generalized checked correction in which
    /// correction-colored processes acknowledge, so senders converge
    /// even when processes fail *during* correction. (The paper defers
    /// details to Corrected Gossip, §3.1; this is our faithful-overhead
    /// reconstruction, see DESIGN.md.)
    ///
    /// Dissemination-colored processes probe exactly as under
    /// [`CorrectionKind::Checked`]. A correction-colored process confirms
    /// each distinct prober once, as a
    /// [`Payload::Ack`](crate::protocol::Payload::Ack) sent by the
    /// protocol layer. The ack is not a correction message and never
    /// feeds the checked stop rule: it proves the probe *arrived*, not
    /// that anything beyond its sender is covered (a prober that stopped
    /// on the first ack would strand the middle of a large gap). Under
    /// the paper's fault model (dead or alive for the whole broadcast,
    /// §2.1) the acks carry no decision-relevant information, so coloring
    /// coincides with checked correction while paying the extra traffic.
    FailureProof,
    /// Delayed correction (§3.3): one left message, then probe rightward
    /// only if no message arrived from the right within `delay` steps.
    Delayed {
        /// Steps to wait before suspecting the right side is uncolored.
        delay: u64,
    },
}

impl CorrectionKind {
    /// Paced checked correction provisioned for `logp`: the fault-free
    /// synchronized count is `3 + ⌈L/o⌉` per process, exactly
    /// [`ct_logp`]'s discrete model (Corollary 1).
    pub fn checked_paced(logp: &LogP, fallback: u64) -> CorrectionKind {
        CorrectionKind::CheckedPaced {
            lag: logp.l().div_ceil(logp.o()) as u32,
            fallback,
        }
    }

    /// Does this kind participate in the correction phase at all?
    pub fn is_none(&self) -> bool {
        matches!(self, CorrectionKind::None)
    }

    /// Do correction-colored processes send a reply/acknowledgment?
    /// Only failure-proof correction requires this.
    pub fn replies_when_correction_colored(&self) -> bool {
        matches!(self, CorrectionKind::FailureProof)
    }

    /// Instantiate the state machine for `rank` in a ring of `p`
    /// processes (`None` for [`CorrectionKind::None`]).
    pub fn machine(&self, rank: Rank, p: u32) -> Option<CorrectionMachine> {
        use CorrectionMachine as M;
        Some(match *self {
            CorrectionKind::None => return None,
            CorrectionKind::Opportunistic { distance } => {
                M::Opportunistic(OpportunisticCorrection::new(rank, p, distance, false))
            }
            CorrectionKind::OpportunisticOptimized { distance } => {
                M::Opportunistic(OpportunisticCorrection::new(rank, p, distance, true))
            }
            CorrectionKind::Checked | CorrectionKind::FailureProof => {
                M::Checked(CheckedCorrection::new(rank, p))
            }
            CorrectionKind::CheckedPaced { lag, fallback } => M::Paced(Box::new(
                PacedCheckedCorrection::new(rank, p, lag, fallback),
            )),
            CorrectionKind::Delayed { delay } => {
                M::Delayed(Box::new(DelayedCorrection::new(rank, p, delay)))
            }
        })
    }
}

impl fmt::Display for CorrectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorrectionKind::None => write!(f, "none"),
            CorrectionKind::Opportunistic { distance } => {
                write!(f, "opportunistic(d={distance})")
            }
            CorrectionKind::OpportunisticOptimized { distance } => {
                write!(f, "opportunistic-opt(d={distance})")
            }
            CorrectionKind::Checked => write!(f, "checked"),
            CorrectionKind::CheckedPaced { lag, .. } => write!(f, "checked-paced(lag={lag})"),
            CorrectionKind::FailureProof => write!(f, "failure-proof"),
            CorrectionKind::Delayed { delay } => write!(f, "delayed({delay})"),
        }
    }
}

/// What a correction machine wants to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorrPoll {
    /// Send a correction message to this rank now.
    Send(Rank),
    /// Nothing to send before this time; poll again then.
    WaitUntil(Time),
    /// Nothing to send until another message is received.
    Idle,
    /// This machine will never send again.
    Done,
}

/// A correction state machine for one dissemination-colored process.
/// When it may start is not its business: the [`CorrectionHost`] polls
/// it only from the (synchronized or overlapped) start on.
pub trait Correction: Send {
    /// A correction message from `from` arrived. Arrival *time* carries
    /// no information for any stop rule, so it is not passed.
    fn on_correction(&mut self, from: Rank);

    /// Next action, given that the sender port is free at `now`.
    fn poll(&mut self, now: Time) -> CorrPoll;
}

/// Classify the ring direction of a message from `from` as seen by `me`:
/// the side on which `from` is nearer. Ties (`p` even, antipodal
/// sender) count as both sides and are reported as `None`.
pub fn direction_of(me: Rank, from: Rank, p: u32) -> Option<Direction> {
    let right = ct_logp::ring_gap_cw(me, from, p);
    let left = ct_logp::ring_gap_ccw(me, from, p);
    match right.cmp(&left) {
        core::cmp::Ordering::Less => Some(Direction::Right),
        core::cmp::Ordering::Greater => Some(Direction::Left),
        core::cmp::Ordering::Equal => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_classification() {
        assert_eq!(direction_of(5, 6, 16), Some(Direction::Right));
        assert_eq!(direction_of(5, 4, 16), Some(Direction::Left));
        assert_eq!(direction_of(0, 15, 16), Some(Direction::Left));
        assert_eq!(direction_of(15, 0, 16), Some(Direction::Right));
        // Antipodal tie.
        assert_eq!(direction_of(0, 8, 16), None);
        assert_eq!(direction_of(0, 7, 16), Some(Direction::Right));
        assert_eq!(direction_of(0, 9, 16), Some(Direction::Left));
    }

    #[test]
    fn flip_is_involution() {
        assert_eq!(Direction::Left.flip(), Direction::Right);
        assert_eq!(Direction::Right.flip().flip(), Direction::Right);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(CorrectionKind::None.to_string(), "none");
        assert_eq!(
            CorrectionKind::Opportunistic { distance: 2 }.to_string(),
            "opportunistic(d=2)"
        );
        assert_eq!(
            CorrectionKind::OpportunisticOptimized { distance: 4 }.to_string(),
            "opportunistic-opt(d=4)"
        );
        assert_eq!(CorrectionKind::Checked.to_string(), "checked");
        assert_eq!(CorrectionKind::FailureProof.to_string(), "failure-proof");
        assert_eq!(
            CorrectionKind::Delayed { delay: 9 }.to_string(),
            "delayed(9)"
        );
    }

    #[test]
    fn machine_constructor_dispatch() {
        assert!(CorrectionKind::None.machine(0, 8).is_none());
        for kind in [
            CorrectionKind::Opportunistic { distance: 2 },
            CorrectionKind::OpportunisticOptimized { distance: 2 },
            CorrectionKind::Checked,
            CorrectionKind::FailureProof,
            CorrectionKind::Delayed { delay: 6 },
        ] {
            assert!(kind.machine(3, 8).is_some(), "{kind}");
        }
    }

    #[test]
    fn only_failure_proof_replies() {
        assert!(CorrectionKind::FailureProof.replies_when_correction_colored());
        assert!(!CorrectionKind::Checked.replies_when_correction_colored());
        assert!(!CorrectionKind::Opportunistic { distance: 1 }.replies_when_correction_colored());
    }
}
