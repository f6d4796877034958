//! The correction phase of one rank, as the protocol layer holds it.
//!
//! Tree and gossip processes drive correction the same way: nothing
//! until the rank is colored by dissemination, then feed correction
//! messages to the configured machine and poll it — not before the
//! synchronized start, if there is one — until it reports
//! [`CorrPoll::Done`]. [`CorrectionHost`] is that, once. The machine
//! lives inline in the host ([`CorrectionMachine`] is an enum, not a
//! `Box<dyn Correction>`), so a rank entering correction allocates
//! nothing for the opportunistic, checked and failure-proof kinds; the
//! paced and delayed machines own queues anyway and stay boxed inside
//! the enum, which keeps every process small.

use ct_logp::{Rank, Time};

use super::{
    CheckedCorrection, CorrPoll, Correction, CorrectionKind, DelayedCorrection,
    FailureProofCorrection, OpportunisticCorrection, PacedCheckedCorrection,
};

/// A correction state machine of any kind, by value.
#[derive(Debug, Clone)]
pub enum CorrectionMachine {
    /// [`CorrectionKind::Opportunistic`] and its optimized variant.
    Opportunistic(OpportunisticCorrection),
    /// [`CorrectionKind::Checked`].
    Checked(CheckedCorrection),
    /// [`CorrectionKind::CheckedPaced`].
    Paced(Box<PacedCheckedCorrection>),
    /// [`CorrectionKind::FailureProof`].
    FailureProof(FailureProofCorrection),
    /// [`CorrectionKind::Delayed`].
    Delayed(Box<DelayedCorrection>),
}

impl Correction for CorrectionMachine {
    fn on_correction(&mut self, from: Rank) {
        match self {
            CorrectionMachine::Opportunistic(m) => m.on_correction(from),
            CorrectionMachine::Checked(m) => m.on_correction(from),
            CorrectionMachine::Paced(m) => m.on_correction(from),
            CorrectionMachine::FailureProof(m) => m.on_correction(from),
            CorrectionMachine::Delayed(m) => m.on_correction(from),
        }
    }

    fn poll(&mut self, now: Time) -> CorrPoll {
        match self {
            CorrectionMachine::Opportunistic(m) => m.poll(now),
            CorrectionMachine::Checked(m) => m.poll(now),
            CorrectionMachine::Paced(m) => m.poll(now),
            CorrectionMachine::FailureProof(m) => m.poll(now),
            CorrectionMachine::Delayed(m) => m.poll(now),
        }
    }
}

/// Where a rank is in its correction phase.
#[derive(Debug, Clone)]
enum Phase {
    /// Not colored by dissemination (yet): the kind to run once it is.
    Waiting(CorrectionKind),
    Running(CorrectionMachine),
    /// The machine reported [`CorrPoll::Done`] (or the kind has none).
    Over,
}

/// One rank's correction phase: the machine, the start gate and whether
/// it is over.
#[derive(Debug, Clone)]
pub struct CorrectionHost {
    phase: Phase,
    /// No send before this time: the global start of synchronized
    /// correction, [`Time::ZERO`] (no gate) when overlapped.
    start: Time,
}

impl CorrectionHost {
    /// A host whose rank is not taking part (yet) — it hears nothing
    /// and polls as done; `sync_start` is the synchronized start,
    /// `None` = overlapped.
    pub fn new(kind: CorrectionKind, sync_start: Option<Time>) -> CorrectionHost {
        CorrectionHost {
            phase: Phase::Waiting(kind),
            start: sync_start.unwrap_or(Time::ZERO),
        }
    }

    /// `rank` of `p` was colored by dissemination (or is the root): it
    /// takes part from now on, until its machine is done.
    pub fn begin(&mut self, rank: Rank, p: u32) {
        if let Phase::Waiting(kind) = self.phase {
            self.phase = kind.machine(rank, p).map_or(Phase::Over, Phase::Running);
        }
    }

    /// A correction message from `from` arrived.
    pub fn on_correction(&mut self, from: Rank) {
        if let Phase::Running(m) = &mut self.phase {
            m.on_correction(from);
        }
    }

    /// Next action, given that the sender port is free at `now`.
    pub fn poll(&mut self, now: Time) -> CorrPoll {
        let Phase::Running(m) = &mut self.phase else {
            return CorrPoll::Done;
        };
        if now < self.start {
            return CorrPoll::WaitUntil(self.start);
        }
        let poll = m.poll(now);
        if poll == CorrPoll::Done {
            self.phase = Phase::Over;
        }
        poll
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_waits_for_the_synchronized_start() {
        let start = Time::new(40);
        for (kind, first) in [
            (CorrectionKind::Opportunistic { distance: 1 }, 4),
            (CorrectionKind::OpportunisticOptimized { distance: 2 }, 4),
            (CorrectionKind::Checked, 2),
            (
                CorrectionKind::CheckedPaced {
                    lag: 2,
                    fallback: 9,
                },
                2,
            ),
            (CorrectionKind::FailureProof, 2),
            (CorrectionKind::Delayed { delay: 10 }, 2),
        ] {
            let mut host = CorrectionHost::new(kind, Some(start));
            host.begin(3, 16);
            assert_eq!(host.poll(Time::new(39)), CorrPoll::WaitUntil(start));
            assert_eq!(host.poll(start), CorrPoll::Send(first), "{kind}");
        }
        // Delayed correction counts its deadline from the first send,
        // not from the gate.
        let mut host = CorrectionHost::new(CorrectionKind::Delayed { delay: 10 }, Some(start));
        host.begin(3, 16);
        assert_eq!(host.poll(start), CorrPoll::Send(2));
        assert_eq!(host.poll(Time::new(41)), CorrPoll::WaitUntil(Time::new(50)));
    }

    #[test]
    fn overlapped_hosts_send_at_once_and_finish_for_good() {
        let mut host = CorrectionHost::new(CorrectionKind::Checked, None);
        host.begin(5, 64);
        // Heard while still forwarding on the tree: fed straight in.
        host.on_correction(4);
        host.on_correction(6);
        assert_eq!(host.poll(Time::ZERO), CorrPoll::Send(4));
        assert_eq!(host.poll(Time::ZERO), CorrPoll::Send(6));
        assert_eq!(host.poll(Time::new(1)), CorrPoll::Done);
        host.on_correction(7);
        assert_eq!(host.poll(Time::new(2)), CorrPoll::Done);
    }

    #[test]
    fn the_inline_machine_keeps_hosts_small() {
        // Checked correction's nine words set the size; the two
        // machines that own queues are behind a pointer.
        assert!(std::mem::size_of::<CorrectionMachine>() <= 40);
        assert!(std::mem::size_of::<CorrectionHost>() <= 48);
    }

    #[test]
    fn a_rank_that_never_began_hears_nothing_and_is_done() {
        let mut host = CorrectionHost::new(CorrectionKind::Checked, Some(Time::new(9)));
        host.on_correction(1);
        assert_eq!(host.poll(Time::ZERO), CorrPoll::Done);
        // Nor does a rank whose broadcast has no correction at all.
        let mut host = CorrectionHost::new(CorrectionKind::None, None);
        host.begin(0, 8);
        assert_eq!(host.poll(Time::ZERO), CorrPoll::Done);
    }
}
