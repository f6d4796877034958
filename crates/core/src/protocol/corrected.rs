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

use crate::correction::{CorrPoll, CorrectionHost, CorrectionKind};
use crate::tree::{Topology, Tree};

use super::{ColoredVia, Payload, Process, SendPoll};

/// Failure-proof acknowledgments of a correction-colored process: one
/// reply per distinct prober. Only that kind ever allocates one.
#[derive(Default)]
struct Acks {
    owed: VecDeque<Rank>,
    replied_to: Vec<Rank>,
}

/// State machine for one rank of a (corrected) tree broadcast.
pub struct CorrectedTreeProcess {
    rank: Rank,
    tree: Arc<Tree>,
    /// Overlapped (as opposed to synchronized) correction: an early
    /// correction message makes its receiver forward on the tree.
    overlapped: bool,
    /// Does a correction-colored process acknowledge its probers
    /// ([`CorrectionKind::replies_when_correction_colored`])?
    acknowledges: bool,
    colored_at: Option<Time>,
    colored_via: Option<ColoredVia>,
    /// Tree-forwarding progress; active while `sending_tree`.
    next_child: usize,
    sending_tree: bool,
    /// The correction phase; begun when dissemination colors this rank.
    correction: CorrectionHost,
    acks: Option<Box<Acks>>,
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
        let mut process = CorrectedTreeProcess {
            rank,
            tree,
            overlapped: false,
            acknowledges: false,
            colored_at: None,
            colored_via: None,
            next_child: 0,
            sending_tree: false,
            correction: CorrectionHost::new(corr_kind, sync_start),
            acks: None,
            done: false,
        };
        process.rewind(corr_kind, sync_start);
        process
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
        self.rank = rank;
        if !Arc::ptr_eq(&self.tree, tree) {
            self.tree = Arc::clone(tree);
        }
        self.rewind(corr_kind, sync_start);
    }

    /// The state a broadcast starts from, given `rank` and `tree`: only
    /// the root is colored, and it alone has begun correction.
    fn rewind(&mut self, corr_kind: CorrectionKind, sync_start: Option<Time>) {
        let is_root = self.rank == 0;
        self.overlapped = sync_start.is_none();
        self.acknowledges = corr_kind.replies_when_correction_colored();
        self.colored_at = is_root.then_some(Time::ZERO);
        self.colored_via = is_root.then_some(ColoredVia::Root);
        self.next_child = 0;
        self.sending_tree = is_root;
        self.correction = CorrectionHost::new(corr_kind, sync_start);
        if is_root {
            self.begin_correction();
        }
        if let Some(acks) = &mut self.acks {
            acks.owed.clear();
            acks.replied_to.clear();
        }
        self.done = false;
    }

    /// Only processes colored by dissemination (and the root) send
    /// correction messages (§3.1): they begin when so colored.
    fn begin_correction(&mut self) {
        let p = self.tree.num_processes();
        self.correction.begin(self.rank, p);
    }

    fn color(&mut self, via: ColoredVia, now: Time) {
        debug_assert!(self.colored_at.is_none());
        self.colored_at = Some(now);
        self.colored_via = Some(via);
    }
}

impl Process for CorrectedTreeProcess {
    fn on_message(&mut self, from: Rank, payload: Payload, now: Time) {
        match payload {
            Payload::Tree | Payload::Gossip { .. } => {
                if self.colored_at.is_none() {
                    self.color(ColoredVia::Dissemination, now);
                    self.begin_correction();
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
                    if self.overlapped {
                        self.sending_tree = true;
                        self.done = false;
                    }
                }
                if self.colored_via != Some(ColoredVia::Correction) {
                    // Taking part (until the machine is done).
                    self.correction.on_correction(from);
                } else if self.acknowledges && from != self.rank {
                    // Not taking part; failure-proof correction makes us
                    // acknowledge each distinct prober once. The
                    // acknowledgment is a *delivery confirmation*
                    // (Payload::Ack), deliberately not a correction
                    // message: hearing an ack proves the probe arrived,
                    // not that anything beyond the sender is covered, so
                    // it must not trigger the checked stop rule.
                    let acks = self.acks.get_or_insert_with(Box::default);
                    if !acks.replied_to.contains(&from) {
                        acks.replied_to.push(from);
                        acks.owed.push_back(from);
                        self.done = false;
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
        if let Some(to) = self.acks.as_mut().and_then(|a| a.owed.pop_front()) {
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
        match self.correction.poll(now) {
            CorrPoll::Send(to) => {
                return SendPoll::Now {
                    to,
                    payload: Payload::Correction,
                }
            }
            CorrPoll::WaitUntil(t) => return SendPoll::WaitUntil(t),
            CorrPoll::Idle => return SendPoll::Idle,
            CorrPoll::Done => {}
        }
        // Colored, nothing left to do. Correction-colored processes under
        // failure-proof correction may still owe future replies.
        if self.acknowledges && self.colored_via == Some(ColoredVia::Correction) {
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
    fn early_corrections_reach_the_machine_before_its_first_poll() {
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

    #[test]
    fn the_inline_correction_machine_does_not_grow_the_process() {
        // 168 bytes is what the process took when its machine lived in
        // a box of its own (plus a `heard` buffer); with the machine
        // inline and the failure-proof reply queues behind one pointer
        // it is smaller than that, heap included.
        let size = std::mem::size_of::<CorrectedTreeProcess>();
        assert!(size <= 168, "CorrectedTreeProcess is {size} bytes");
    }
}
