//! The correction phase of one rank, as the protocol layer holds it.
//!
//! Tree and gossip processes drive correction the same way: nothing
//! until the rank is colored by dissemination, then feed correction
//! messages to the configured machine and poll it — not before the
//! synchronized start, if there is one — until it reports
//! [`CorrPoll::Done`]. [`CorrectionHost`] is that, once. It holds only
//! where the rank is in that phase: the kind to run and the start are
//! the same for every rank of a broadcast, so the caller hands them in.
//! The machine lives inline in the host ([`CorrectionMachine`] is an
//! enum, not a `Box<dyn Correction>`), so a rank entering correction
//! allocates nothing for the opportunistic, checked and failure-proof
//! kinds; the paced and delayed machines own queues anyway and stay
//! boxed inside the enum, which keeps every process small.

use ct_logp::{Rank, Time};

use super::{
    CheckedCorrection, CorrPoll, Correction, CorrectionKind, DelayedCorrection,
    OpportunisticCorrection, PacedCheckedCorrection,
};

/// A correction state machine of any kind, by value.
#[derive(Debug, Clone)]
pub enum CorrectionMachine {
    /// [`CorrectionKind::Opportunistic`] and its optimized variant.
    Opportunistic(OpportunisticCorrection),
    /// [`CorrectionKind::Checked`] and [`CorrectionKind::FailureProof`].
    Checked(CheckedCorrection),
    /// [`CorrectionKind::CheckedPaced`].
    Paced(Box<PacedCheckedCorrection>),
    /// [`CorrectionKind::Delayed`].
    Delayed(Box<DelayedCorrection>),
}

impl Correction for CorrectionMachine {
    fn on_correction(&mut self, from: Rank) {
        match self {
            CorrectionMachine::Opportunistic(m) => m.on_correction(from),
            CorrectionMachine::Checked(m) => m.on_correction(from),
            CorrectionMachine::Paced(m) => m.on_correction(from),
            CorrectionMachine::Delayed(m) => m.on_correction(from),
        }
    }

    fn poll(&mut self, now: Time) -> CorrPoll {
        match self {
            CorrectionMachine::Opportunistic(m) => m.poll(now),
            CorrectionMachine::Checked(m) => m.poll(now),
            CorrectionMachine::Paced(m) => m.poll(now),
            CorrectionMachine::Delayed(m) => m.poll(now),
        }
    }
}

/// Where a rank is in its correction phase.
#[derive(Debug, Clone, Default)]
enum Phase {
    /// Not colored by dissemination (yet). A rank colored by
    /// correction stays here for good.
    #[default]
    NotBegun,
    Running(CorrectionMachine),
    /// The machine reported [`CorrPoll::Done`] (or the kind has none).
    Over,
}

/// One rank's correction phase. A fresh host ([`Default`]) has not
/// begun: it hears nothing and polls as done.
#[derive(Debug, Clone, Default)]
pub struct CorrectionHost {
    phase: Phase,
}

impl CorrectionHost {
    /// `rank` of `p` was colored by dissemination (or is the root): it
    /// runs `kind` from now on, until its machine is done. A host that
    /// has begun already ignores this.
    pub fn begin(&mut self, kind: CorrectionKind, rank: Rank, p: u32) {
        if let Phase::NotBegun = self.phase {
            self.phase = kind.machine(rank, p).map_or(Phase::Over, Phase::Running);
        }
    }

    /// Has [`CorrectionHost::begin`] been called since the host was
    /// fresh? Exactly the ranks colored by dissemination and the root.
    pub fn has_begun(&self) -> bool {
        !matches!(self.phase, Phase::NotBegun)
    }

    /// A correction message from `from` arrived.
    pub fn on_correction(&mut self, from: Rank) {
        if let Phase::Running(m) = &mut self.phase {
            m.on_correction(from);
        }
    }

    /// Next action, given that the sender port is free at `now`; no
    /// send before `not_before` — the global start of synchronized
    /// correction, [`Time::ZERO`] when overlapped.
    pub fn poll(&mut self, now: Time, not_before: Time) -> CorrPoll {
        let Phase::Running(m) = &mut self.phase else {
            return CorrPoll::Done;
        };
        if now < not_before {
            return CorrPoll::WaitUntil(not_before);
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
            let mut host = CorrectionHost::default();
            host.begin(kind, 3, 16);
            assert_eq!(host.poll(Time::new(39), start), CorrPoll::WaitUntil(start));
            assert_eq!(host.poll(start, start), CorrPoll::Send(first), "{kind}");
        }
        // Delayed correction counts its deadline from the first send,
        // not from the gate.
        let mut host = CorrectionHost::default();
        host.begin(CorrectionKind::Delayed { delay: 10 }, 3, 16);
        assert_eq!(host.poll(start, start), CorrPoll::Send(2));
        assert_eq!(
            host.poll(Time::new(41), start),
            CorrPoll::WaitUntil(Time::new(50))
        );
    }

    #[test]
    fn overlapped_hosts_send_at_once_and_finish_for_good() {
        let mut host = CorrectionHost::default();
        host.begin(CorrectionKind::Checked, 5, 64);
        // Heard while still forwarding on the tree: fed straight in.
        host.on_correction(4);
        host.on_correction(6);
        assert_eq!(host.poll(Time::ZERO, Time::ZERO), CorrPoll::Send(4));
        assert_eq!(host.poll(Time::ZERO, Time::ZERO), CorrPoll::Send(6));
        assert_eq!(host.poll(Time::new(1), Time::ZERO), CorrPoll::Done);
        host.on_correction(7);
        assert_eq!(host.poll(Time::new(2), Time::ZERO), CorrPoll::Done);
        // Over is still begun: a second `begin` changes nothing.
        assert!(host.has_begun());
        host.begin(CorrectionKind::Checked, 5, 64);
        assert_eq!(host.poll(Time::new(3), Time::ZERO), CorrPoll::Done);
    }

    #[test]
    fn the_host_is_its_phase_and_the_inline_machine_keeps_it_small() {
        // Checked correction's nine words set the size; the two
        // machines that own queues are behind a pointer, and kind and
        // start live with the broadcast, not the rank.
        assert!(std::mem::size_of::<CorrectionMachine>() <= 40);
        assert!(std::mem::size_of::<CorrectionHost>() <= 40);
    }

    #[test]
    fn a_rank_that_never_began_hears_nothing_and_is_done() {
        let mut host = CorrectionHost::default();
        host.on_correction(1);
        assert!(!host.has_begun());
        assert_eq!(host.poll(Time::ZERO, Time::new(9)), CorrPoll::Done);
        // Nor does a rank whose broadcast has no correction at all,
        // though it has begun.
        let mut host = CorrectionHost::default();
        host.begin(CorrectionKind::None, 0, 8);
        assert!(host.has_begun());
        assert_eq!(host.poll(Time::ZERO, Time::ZERO), CorrPoll::Done);
    }
}
