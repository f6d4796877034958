//! The Corrected Tree broadcast state machine (§3).
//!
//! Per-rank behavior:
//!
//! 1. **Dissemination** — once colored by a tree message (the root is
//!    born colored), send the payload to all tree children, one per
//!    sender-port slot.
//! 2. **Correction** — afterwards, if the process was colored by
//!    dissemination, run the configured correction machine: immediately
//!    (overlapped) or from the pre-specified global start time
//!    (synchronized).
//!
//! Reliability bookkeeping follows §2.1: a colored process never becomes
//! uncolored and masks duplicate payloads (*no duplicates*); an
//! uncolored process only becomes colored by a message from a colored
//! process (*integrity*). Processes colored *by correction* send no
//! correction messages; in overlapped mode an *early* correction message
//! (arriving before the tree message) still triggers tree forwarding to
//! the process's children (§3.3), which shortens coloring.

use std::collections::VecDeque;
use std::sync::Arc;

use ct_logp::{Rank, Time};

use crate::correction::{CorrPoll, Correction, CorrectionKind};
use crate::tree::{Topology, Tree};

use super::{ColoredVia, Payload, Process, SendPoll};

/// State machine for one rank of a (corrected) tree broadcast.
pub struct CorrectedTreeProcess {
    rank: Rank,
    tree: Arc<Tree>,
    corr_kind: CorrectionKind,
    /// `Some(t)` = synchronized correction starting at `t`;
    /// `None` = overlapped.
    sync_start: Option<Time>,
    colored_at: Option<Time>,
    colored_via: Option<ColoredVia>,
    /// Tree-forwarding progress; active while `sending_tree`.
    next_child: usize,
    sending_tree: bool,
    /// Correction machine, created lazily after dissemination sends.
    machine: Option<Box<dyn Correction>>,
    machine_done: bool,
    /// Correction messages received before the machine existed.
    pending_corr: Vec<(Rank, Time)>,
    /// Failure-proof acknowledgments owed (correction-colored processes
    /// reply once per distinct prober).
    replies: VecDeque<Rank>,
    replied_to: Vec<Rank>,
    done: bool,
}

impl CorrectedTreeProcess {
    /// Create the machine for `rank`. `sync_start` selects synchronized
    /// (`Some(global start)`) vs overlapped (`None`) correction.
    pub fn new(
        rank: Rank,
        tree: Arc<Tree>,
        corr_kind: CorrectionKind,
        sync_start: Option<Time>,
    ) -> Self {
        let is_root = rank == 0;
        CorrectedTreeProcess {
            rank,
            tree,
            corr_kind,
            sync_start,
            colored_at: is_root.then_some(Time::ZERO),
            colored_via: is_root.then_some(ColoredVia::Root),
            next_child: 0,
            sending_tree: is_root,
            machine: None,
            machine_done: false,
            pending_corr: Vec::new(),
            replies: VecDeque::new(),
            replied_to: Vec::new(),
            done: false,
        }
    }

    /// Rewind to exactly the state [`CorrectedTreeProcess::new`] would
    /// produce for these arguments, keeping the buffers' capacity — the
    /// in-place path of `BroadcastSpec::build_into`.
    pub fn reset(
        &mut self,
        rank: Rank,
        tree: &Arc<Tree>,
        corr_kind: CorrectionKind,
        sync_start: Option<Time>,
    ) {
        let is_root = rank == 0;
        self.rank = rank;
        if !Arc::ptr_eq(&self.tree, tree) {
            self.tree = Arc::clone(tree);
        }
        self.corr_kind = corr_kind;
        self.sync_start = sync_start;
        self.colored_at = is_root.then_some(Time::ZERO);
        self.colored_via = is_root.then_some(ColoredVia::Root);
        self.next_child = 0;
        self.sending_tree = is_root;
        self.machine = None;
        self.machine_done = false;
        self.pending_corr.clear();
        self.replies.clear();
        self.replied_to.clear();
        self.done = false;
    }

    /// Does this process take part in the correction phase? Only
    /// processes colored by dissemination (or the root) send correction
    /// messages (§3.1).
    fn participates_in_correction(&self) -> bool {
        !self.corr_kind.is_none()
            && matches!(
                self.colored_via,
                Some(ColoredVia::Root) | Some(ColoredVia::Dissemination)
            )
    }

    fn color(&mut self, via: ColoredVia, now: Time) {
        debug_assert!(self.colored_at.is_none());
        self.colored_at = Some(now);
        self.colored_via = Some(via);
    }

    fn ensure_machine(&mut self, now: Time) {
        if self.machine.is_some() || self.machine_done {
            return;
        }
        let start = self.sync_start.unwrap_or(now);
        let mut machine = self
            .corr_kind
            .machine(self.rank, self.tree.num_processes(), start)
            .expect("participating implies a correction kind");
        for (from, t) in self.pending_corr.drain(..) {
            machine.on_correction(from, t);
        }
        self.machine = Some(machine);
    }
}

impl Process for CorrectedTreeProcess {
    fn on_message(&mut self, from: Rank, payload: Payload, now: Time) {
        match payload {
            Payload::Tree | Payload::Gossip { .. } => {
                if self.colored_at.is_none() {
                    self.color(ColoredVia::Dissemination, now);
                    self.sending_tree = true;
                    self.done = false;
                }
                // Colored already: duplicate masked (§2.1) — tree
                // forwarding is in progress or finished either way.
            }
            Payload::Correction => {
                if self.colored_at.is_none() {
                    self.color(ColoredVia::Correction, now);
                    // Early correction (§3.3, overlapped only): the
                    // payload arrived, so forward it along tree edges.
                    if self.sync_start.is_none() {
                        self.sending_tree = true;
                        self.done = false;
                    }
                }
                match self.colored_via {
                    Some(ColoredVia::Correction) => {
                        // Not participating; failure-proof correction
                        // makes us acknowledge each distinct prober once.
                        // The acknowledgment is a *delivery confirmation*
                        // (Payload::Ack), deliberately not a correction
                        // message: hearing an ack proves the probe
                        // arrived, not that anything beyond the sender
                        // is covered, so it must not trigger the checked
                        // stop rule.
                        if self.corr_kind.replies_when_correction_colored()
                            && from != self.rank
                            && !self.replied_to.contains(&from)
                        {
                            self.replied_to.push(from);
                            self.replies.push_back(from);
                            self.done = false;
                        }
                    }
                    _ => {
                        // Participating: feed the machine (or buffer until
                        // it exists).
                        if let Some(m) = self.machine.as_mut() {
                            m.on_correction(from, now);
                        } else if !self.machine_done {
                            self.pending_corr.push((from, now));
                        }
                    }
                }
            }
            Payload::Ack => {
                // Failure-proof delivery confirmation. Under the paper's
                // fault model (processes are dead or alive for the whole
                // broadcast, §2.1) a confirmed delivery carries no
                // decision-relevant information — the probing discipline
                // already terminates — so it is accounted and dropped.
            }
        }
    }

    fn poll_send(&mut self, now: Time) -> SendPoll {
        if self.done {
            return SendPoll::Done;
        }
        // Failure-proof acknowledgments first.
        if let Some(to) = self.replies.pop_front() {
            return SendPoll::Now {
                to,
                payload: Payload::Ack,
            };
        }
        if self.colored_at.is_none() {
            return SendPoll::Idle;
        }
        if self.sending_tree {
            let children = self.tree.children(self.rank);
            if self.next_child < children.len() {
                let to = children[self.next_child];
                self.next_child += 1;
                return SendPoll::Now {
                    to,
                    payload: Payload::Tree,
                };
            }
            self.sending_tree = false;
        }
        if self.participates_in_correction() && !self.machine_done {
            self.ensure_machine(now);
            let poll = self
                .machine
                .as_mut()
                .expect("machine just ensured")
                .poll(now);
            return match poll {
                CorrPoll::Send(to) => SendPoll::Now {
                    to,
                    payload: Payload::Correction,
                },
                CorrPoll::WaitUntil(t) => SendPoll::WaitUntil(t),
                CorrPoll::Idle => SendPoll::Idle,
                CorrPoll::Done => {
                    self.machine = None;
                    self.machine_done = true;
                    self.done = true;
                    SendPoll::Done
                }
            };
        }
        // Colored, nothing left to do. Correction-colored processes under
        // failure-proof correction may still owe future replies.
        if self.corr_kind.replies_when_correction_colored()
            && self.colored_via == Some(ColoredVia::Correction)
        {
            SendPoll::Idle
        } else {
            self.done = true;
            SendPoll::Done
        }
    }

    fn colored_at(&self) -> Option<Time> {
        self.colored_at
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.colored_via
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeKind;
    use ct_logp::LogP;

    fn tree(p: u32) -> Arc<Tree> {
        Arc::new(TreeKind::BINOMIAL.build(p, &LogP::PAPER).unwrap())
    }

    fn drain_now(proc_: &mut CorrectedTreeProcess, now: Time) -> Vec<(Rank, Payload)> {
        let mut out = Vec::new();
        loop {
            match proc_.poll_send(now) {
                SendPoll::Now { to, payload } => out.push((to, payload)),
                _ => return out,
            }
        }
    }

    #[test]
    fn root_sends_tree_then_correction() {
        let mut root = CorrectedTreeProcess::new(
            0,
            tree(8),
            CorrectionKind::Opportunistic { distance: 1 },
            None,
        );
        let sent = drain_now(&mut root, Time::ZERO);
        assert_eq!(
            sent,
            vec![
                (1, Payload::Tree),
                (2, Payload::Tree),
                (4, Payload::Tree),
                (1, Payload::Correction),
                (7, Payload::Correction),
            ]
        );
        assert_eq!(root.poll_send(Time::ZERO), SendPoll::Done);
        assert_eq!(root.colored_via(), Some(ColoredVia::Root));
    }

    #[test]
    fn uncolored_process_is_idle_and_duplicates_are_masked() {
        let mut p5 = CorrectedTreeProcess::new(5, tree(8), CorrectionKind::None, None);
        assert_eq!(p5.poll_send(Time::ZERO), SendPoll::Idle);
        assert_eq!(p5.colored_at(), None);
        p5.on_message(1, Payload::Tree, Time::new(4));
        assert_eq!(p5.colored_at(), Some(Time::new(4)));
        p5.on_message(1, Payload::Tree, Time::new(9));
        assert_eq!(p5.colored_at(), Some(Time::new(4)), "first coloring wins");
    }

    #[test]
    fn plain_tree_leaf_finishes_after_coloring() {
        let mut p7 = CorrectedTreeProcess::new(7, tree(8), CorrectionKind::None, None);
        p7.on_message(3, Payload::Tree, Time::new(8));
        assert_eq!(p7.poll_send(Time::new(8)), SendPoll::Done);
    }

    #[test]
    fn correction_colored_sends_no_correction() {
        // Overlapped: rank 3 colored by a correction message — it must
        // forward tree messages (early correction) but never correct.
        let mut p3 = CorrectedTreeProcess::new(3, tree(8), CorrectionKind::Checked, None);
        p3.on_message(4, Payload::Correction, Time::new(5));
        assert_eq!(p3.colored_via(), Some(ColoredVia::Correction));
        let sent = drain_now(&mut p3, Time::new(5));
        assert_eq!(sent, vec![(7, Payload::Tree)], "tree forwarding only");
        assert_eq!(p3.poll_send(Time::new(6)), SendPoll::Done);
    }

    #[test]
    fn synchronized_correction_colored_does_not_forward() {
        let t = tree(8);
        let start = t.dissemination_deadline(&LogP::PAPER);
        let mut p3 = CorrectedTreeProcess::new(3, t, CorrectionKind::Checked, Some(start));
        p3.on_message(2, Payload::Correction, start + 3);
        assert_eq!(p3.colored_via(), Some(ColoredVia::Correction));
        assert_eq!(p3.poll_send(start + 3), SendPoll::Done);
    }

    #[test]
    fn synchronized_participant_waits_for_global_start() {
        let t = tree(8);
        let start = Time::new(40);
        let mut p3 = CorrectedTreeProcess::new(3, t, CorrectionKind::Checked, Some(start));
        p3.on_message(1, Payload::Tree, Time::new(6));
        // Tree child of 3 is 7.
        assert_eq!(
            p3.poll_send(Time::new(6)),
            SendPoll::Now {
                to: 7,
                payload: Payload::Tree
            }
        );
        assert_eq!(p3.poll_send(Time::new(7)), SendPoll::WaitUntil(start));
        assert_eq!(
            p3.poll_send(start),
            SendPoll::Now {
                to: 2,
                payload: Payload::Correction
            }
        );
    }

    #[test]
    fn early_corrections_buffered_for_late_machine() {
        // Overlapped, optimized opportunistic d=4: a correction from 5
        // (right, gap 2) arrives while rank 3 is still tree-forwarding;
        // the machine must still honor it (left targets trimmed).
        let mut p3 = CorrectedTreeProcess::new(
            3,
            tree(8),
            CorrectionKind::OpportunisticOptimized { distance: 4 },
            None,
        );
        p3.on_message(1, Payload::Tree, Time::new(4));
        p3.on_message(5, Payload::Correction, Time::new(4));
        let sent = drain_now(&mut p3, Time::new(4));
        // Tree child 7 first; then correction with the left side trimmed:
        // 5 covers ranks {4, 3, 2, 1} so left offsets 1–2 are skipped and
        // only offsets 3, 4 (ranks 0, 7) remain, interleaved with the
        // untrimmed right side (4, 5, 6, 7).
        assert_eq!(sent[0], (7, Payload::Tree));
        let corr: Vec<Rank> = sent[1..]
            .iter()
            .map(|&(to, p)| {
                assert_eq!(p, Payload::Correction);
                to
            })
            .collect();
        assert_eq!(corr, vec![4, 0, 5, 7, 6, 7]);
    }

    #[test]
    fn failure_proof_correction_colored_replies_once_per_prober() {
        let mut p3 = CorrectedTreeProcess::new(3, tree(8), CorrectionKind::FailureProof, None);
        p3.on_message(1, Payload::Correction, Time::new(9));
        assert_eq!(p3.colored_via(), Some(ColoredVia::Correction));
        let sent = drain_now(&mut p3, Time::new(9));
        // Tree forwarding (early correction) plus the ack to prober 1.
        assert!(sent.contains(&(1, Payload::Ack)), "{sent:?}");
        // Duplicate probe from 1: no second reply.
        p3.on_message(1, Payload::Correction, Time::new(12));
        assert_eq!(p3.poll_send(Time::new(12)), SendPoll::Idle);
        // A different prober gets its own reply.
        p3.on_message(2, Payload::Correction, Time::new(13));
        assert_eq!(
            p3.poll_send(Time::new(13)),
            SendPoll::Now {
                to: 2,
                payload: Payload::Ack
            }
        );
    }

    #[test]
    fn checked_participant_runs_to_completion() {
        let mut p3 = CorrectedTreeProcess::new(3, tree(8), CorrectionKind::Checked, None);
        p3.on_message(1, Payload::Tree, Time::new(4));
        // Feed neighbor messages so checked correction can stop.
        p3.on_message(2, Payload::Correction, Time::new(5));
        p3.on_message(4, Payload::Correction, Time::new(5));
        let sent = drain_now(&mut p3, Time::new(5));
        assert_eq!(
            sent,
            vec![
                (7, Payload::Tree),
                (2, Payload::Correction),
                (4, Payload::Correction),
            ]
        );
        assert_eq!(p3.poll_send(Time::new(6)), SendPoll::Done);
    }
}
