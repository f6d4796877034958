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
//!
//! What every rank of a broadcast shares — the tree, the correction kind
//! and its start — is one [`TreeBroadcast`], stored once by whoever holds
//! the machines and handed to each call. A [`CorrectedTreeProcess`] is
//! the per-rank rest, 64 bytes.

use std::sync::Arc;

use ct_logp::{Rank, Time};

use crate::correction::{CorrPoll, CorrectionHost, CorrectionKind};
use crate::tree::{Topology, Tree};

use super::{ColoredVia, Machine, Payload, SendPoll};

/// The part of a corrected-tree broadcast that is the same for all of
/// its ranks.
#[derive(Debug)]
pub struct TreeBroadcast {
    tree: Arc<Tree>,
    kind: CorrectionKind,
    /// The global start of synchronized correction; `None` when
    /// overlapped, where an early correction message makes its receiver
    /// forward on the tree.
    sync_start: Option<Time>,
}

impl TreeBroadcast {
    /// A broadcast down `tree` with `kind` correction, synchronized from
    /// `sync_start` or overlapped (`None`).
    pub fn new(tree: Arc<Tree>, kind: CorrectionKind, sync_start: Option<Time>) -> TreeBroadcast {
        TreeBroadcast {
            tree,
            kind,
            sync_start,
        }
    }

    /// The dissemination tree.
    pub fn tree(&self) -> &Arc<Tree> {
        &self.tree
    }
}

impl Clone for TreeBroadcast {
    fn clone(&self) -> Self {
        let tree = Arc::clone(&self.tree);
        TreeBroadcast { tree, ..*self }
    }

    /// Re-points the tree only when it changed: rewinding `P` placed
    /// ranks then touches no shared counter.
    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.tree, &source.tree) {
            self.tree = Arc::clone(&source.tree);
        }
        (self.kind, self.sync_start) = (source.kind, source.sync_start);
    }
}

/// `next_child` once a rank has no tree message left to send, or never
/// will have (colored by correction under synchronized correction).
const FORWARDED: u32 = u32::MAX - 1;

/// `next_child` once `poll_send` has answered [`SendPoll::Done`], which
/// is final until the next rewind: nothing a done rank can hear gives it
/// work again.
const DONE: u32 = u32::MAX;

/// The failure-proof acknowledgments of a correction-colored process:
/// every distinct prober in the order it first probed, `probers[sent..]`
/// still owed their reply. Only that kind ever allocates one, and a rank
/// keeps it, emptied, from one broadcast to the next.
#[derive(Default)]
struct Replies {
    probers: Vec<Rank>,
    sent: usize,
}

/// State machine for one rank of a (corrected) tree broadcast: the
/// per-rank part only, driven together with its [`TreeBroadcast`].
///
/// How the rank was colored is not stored: dissemination (and the
/// root) begin correction and correction never does, so
/// [`CorrectionHost::has_begun`] tells the two apart.
pub struct CorrectedTreeProcess {
    /// Virtual rank; the root is 0.
    rank: Rank,
    /// Where the rank is in its sends: the tree-forwarding cursor into
    /// `children(rank)` (forwarding starts when the rank is colored),
    /// then [`FORWARDED`], then [`DONE`].
    next_child: u32,
    /// [`Time::NEVER`] until colored.
    colored_at: Time,
    /// The correction phase; begun when dissemination colors this rank.
    correction: CorrectionHost,
    replies: Option<Box<Replies>>,
}

impl CorrectedTreeProcess {
    fn is_colored(&self) -> bool {
        !self.colored_at.is_never()
    }
}

impl Machine for CorrectedTreeProcess {
    type Shared = TreeBroadcast;

    fn new(rank: Rank, broadcast: &TreeBroadcast) -> Self {
        let mut process = CorrectedTreeProcess {
            rank,
            next_child: 0,
            colored_at: Time::NEVER,
            correction: CorrectionHost::default(),
            replies: None,
        };
        process.reset(rank, broadcast);
        process
    }

    /// Keeps the reply buffer's capacity. Only the root is colored, and
    /// it alone has begun correction.
    fn reset(&mut self, rank: Rank, b: &TreeBroadcast) {
        let is_root = rank == 0;
        self.rank = rank;
        self.next_child = 0;
        self.colored_at = if is_root { Time::ZERO } else { Time::NEVER };
        self.correction = CorrectionHost::default();
        if is_root {
            self.correction.begin(b.kind, rank, b.tree.num_processes());
        }
        if let Some(replies) = &mut self.replies {
            replies.probers.clear();
            replies.sent = 0;
        }
    }

    fn on_message(&mut self, b: &TreeBroadcast, from: Rank, payload: Payload, now: Time) {
        match payload {
            Payload::Tree | Payload::Gossip { .. } => {
                if !self.is_colored() {
                    self.colored_at = now;
                    // Only processes colored by dissemination (and the
                    // root) send correction messages (§3.1).
                    let p = b.tree.num_processes();
                    self.correction.begin(b.kind, self.rank, p);
                }
                // Colored already: duplicate masked (§2.1) — tree
                // forwarding is in progress or finished either way.
            }
            Payload::Correction => {
                if !self.is_colored() {
                    self.colored_at = now;
                    // Early correction (§3.3, overlapped only): the
                    // payload arrived, so forward it along tree edges.
                    if b.sync_start.is_some() {
                        self.next_child = FORWARDED;
                    }
                }
                if self.correction.has_begun() {
                    // Taking part (until the machine is done).
                    self.correction.on_correction(from);
                } else if b.kind.replies_when_correction_colored() && from != self.rank {
                    // Not taking part; failure-proof correction makes us
                    // acknowledge each distinct prober once. The
                    // acknowledgment is a *delivery confirmation*
                    // (Payload::Ack), deliberately not a correction
                    // message: hearing an ack proves the probe arrived,
                    // not that anything beyond the sender is covered, so
                    // it must not trigger the checked stop rule.
                    let replies = self.replies.get_or_insert_with(Box::default);
                    if !replies.probers.contains(&from) {
                        replies.probers.push(from);
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

    fn poll_send(&mut self, b: &TreeBroadcast, now: Time) -> SendPoll {
        if self.next_child == DONE {
            return SendPoll::Done;
        }
        // Failure-proof acknowledgments first.
        if let Some(replies) = self.replies.as_deref_mut() {
            if let Some(&to) = replies.probers.get(replies.sent) {
                replies.sent += 1;
                let payload = Payload::Ack;
                return SendPoll::Now { to, payload };
            }
        }
        if !self.is_colored() {
            return SendPoll::Idle;
        }
        if self.next_child < FORWARDED {
            if let Some(&to) = b.tree.children(self.rank).get(self.next_child as usize) {
                self.next_child += 1;
                let payload = Payload::Tree;
                return SendPoll::Now { to, payload };
            }
            self.next_child = FORWARDED;
        }
        match self
            .correction
            .poll(now, b.sync_start.unwrap_or(Time::ZERO))
        {
            CorrPoll::Send(to) => {
                let payload = Payload::Correction;
                return SendPoll::Now { to, payload };
            }
            CorrPoll::WaitUntil(t) => return SendPoll::WaitUntil(t),
            CorrPoll::Idle => return SendPoll::Idle,
            CorrPoll::Done => {}
        }
        // Colored, nothing left to do. Correction-colored processes under
        // failure-proof correction may still owe future replies.
        if !self.correction.has_begun() && b.kind.replies_when_correction_colored() {
            SendPoll::Idle
        } else {
            self.next_child = DONE;
            SendPoll::Done
        }
    }

    fn colored_at(&self) -> Option<Time> {
        self.is_colored().then_some(self.colored_at)
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        Some(if !self.is_colored() {
            return None;
        } else if !self.correction.has_begun() {
            ColoredVia::Correction
        } else if self.rank == 0 {
            ColoredVia::Root
        } else {
            ColoredVia::Dissemination
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Blueprint, Plan, Process, Relabeling};
    use crate::tree::TreeKind;
    use ct_logp::LogP;

    fn tree(p: u32) -> Arc<Tree> {
        Arc::new(TreeKind::BINOMIAL.build(p, &LogP::PAPER).unwrap())
    }

    /// Rank `rank` of a binomial broadcast over `p`, linearly numbered.
    fn rank(
        rank: Rank,
        p: u32,
        kind: CorrectionKind,
        sync_start: Option<Time>,
    ) -> Box<dyn Process> {
        let shared = TreeBroadcast::new(tree(p), kind, sync_start);
        let map = Relabeling::rotation(p, 0);
        Plan::<CorrectedTreeProcess> { shared, map }.place(rank, None)
    }

    fn drain_now(proc_: &mut Box<dyn Process>, now: Time) -> Vec<(Rank, Payload)> {
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
        let mut root = rank(0, 8, CorrectionKind::Opportunistic { distance: 1 }, None);
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
        let mut p5 = rank(5, 8, CorrectionKind::None, None);
        assert_eq!(p5.poll_send(Time::ZERO), SendPoll::Idle);
        assert_eq!(p5.colored_at(), None);
        assert_eq!(p5.colored_via(), None);
        p5.on_message(1, Payload::Tree, Time::new(4));
        assert_eq!(p5.colored_at(), Some(Time::new(4)));
        assert_eq!(p5.colored_via(), Some(ColoredVia::Dissemination));
        p5.on_message(1, Payload::Tree, Time::new(9));
        assert_eq!(p5.colored_at(), Some(Time::new(4)), "first coloring wins");
    }

    #[test]
    fn plain_tree_leaf_finishes_after_coloring() {
        let mut p7 = rank(7, 8, CorrectionKind::None, None);
        p7.on_message(3, Payload::Tree, Time::new(8));
        assert_eq!(p7.poll_send(Time::new(8)), SendPoll::Done);
    }

    #[test]
    fn correction_colored_sends_no_correction() {
        // Overlapped: rank 3 colored by a correction message — it must
        // forward tree messages (early correction) but never correct.
        let mut p3 = rank(3, 8, CorrectionKind::Checked, None);
        p3.on_message(4, Payload::Correction, Time::new(5));
        assert_eq!(p3.colored_via(), Some(ColoredVia::Correction));
        let sent = drain_now(&mut p3, Time::new(5));
        assert_eq!(sent, vec![(7, Payload::Tree)], "tree forwarding only");
        assert_eq!(p3.poll_send(Time::new(6)), SendPoll::Done);
    }

    #[test]
    fn synchronized_correction_colored_does_not_forward() {
        let start = tree(8).dissemination_deadline(&LogP::PAPER);
        let mut p3 = rank(3, 8, CorrectionKind::Checked, Some(start));
        p3.on_message(2, Payload::Correction, start + 3);
        assert_eq!(p3.colored_via(), Some(ColoredVia::Correction));
        assert_eq!(p3.poll_send(start + 3), SendPoll::Done);
    }

    #[test]
    fn synchronized_participant_waits_for_global_start() {
        let start = Time::new(40);
        let mut p3 = rank(3, 8, CorrectionKind::Checked, Some(start));
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
        let mut p3 = rank(
            3,
            8,
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
        let mut p3 = rank(3, 8, CorrectionKind::FailureProof, None);
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
    fn a_failure_proof_rank_colored_by_correction_never_begins_correction() {
        // Rank 3 is colored by a probe from 2, then its tree message
        // arrives late. It still owes 2 its reply, forwards to its tree
        // child 7 only when overlapped, never sends a correction message
        // (synchronized, the start has passed) and keeps answering new
        // probers: it is never done.
        let start = Time::new(40);
        for sync_start in [None, Some(start)] {
            let mut p3 = rank(3, 8, CorrectionKind::FailureProof, sync_start);
            p3.on_message(2, Payload::Correction, start + 1);
            p3.on_message(1, Payload::Tree, start + 2);
            assert_eq!(p3.colored_via(), Some(ColoredVia::Correction));
            assert_eq!(p3.colored_at(), Some(start + 1));
            let mut expected = vec![(2, Payload::Ack)];
            if sync_start.is_none() {
                expected.push((7, Payload::Tree));
            }
            assert_eq!(drain_now(&mut p3, start + 2), expected, "{sync_start:?}");
            assert_eq!(p3.poll_send(start + 9), SendPoll::Idle);
            p3.on_message(4, Payload::Correction, start + 10);
            assert_eq!(drain_now(&mut p3, start + 10), vec![(4, Payload::Ack)]);
            assert_eq!(p3.poll_send(start + 11), SendPoll::Idle);
        }
    }

    #[test]
    fn checked_participant_runs_to_completion() {
        let mut p3 = rank(3, 8, CorrectionKind::Checked, None);
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
        // Done for good: a late correction message changes nothing.
        p3.on_message(6, Payload::Correction, Time::new(7));
        assert_eq!(p3.poll_send(Time::new(7)), SendPoll::Done);
    }

    #[test]
    fn the_per_rank_machine_is_one_cache_line() {
        // One cache line: what the ranks of a broadcast share lives in
        // its `TreeBroadcast`, stored once.
        let size = std::mem::size_of::<CorrectedTreeProcess>();
        assert!(size <= 64, "CorrectedTreeProcess is {size} bytes");
    }
}
