//! Tree broadcast with acknowledgments — the traditional fault-tolerance
//! baseline (§4.1, e.g. Buntinas \[5\]).
//!
//! Acknowledgments travel along the same tree as dissemination: a leaf
//! acknowledges to its parent as soon as it is colored; an inner process
//! acknowledges after it has received acknowledgments from all of its
//! children; the root is finished when all children acknowledged. "Even
//! in the fault-free case the tree has to be traversed twice, effectively
//! doubling the latency in comparison to a non-resilient algorithm"
//! (§5) — exactly the effect Figure 7 shows.
//!
//! Under failures the ack wave stalls (a dead child never acknowledges);
//! recovering from that requires a failure detector and tree
//! restructuring, which is what Corrected Trees avoid.

use std::sync::Arc;

use ct_logp::{Rank, Time};

use crate::tree::{Topology, Tree};

use super::{ColoredVia, Machine, Payload, SendPoll};

/// State machine for one rank of the acknowledged tree broadcast; the
/// tree is what all ranks share.
pub struct AckTreeProcess {
    rank: Rank,
    colored_at: Option<Time>,
    colored_via: Option<ColoredVia>,
    next_child: usize,
    acks_received: usize,
    ack_sent: bool,
    done: bool,
}

impl AckTreeProcess {
    /// Has the root observed a fully acknowledged broadcast down `tree`?
    /// Only meaningful on rank 0.
    pub fn root_completed(&self, tree: &Tree) -> bool {
        self.rank == 0 && self.acks_received == tree.children(self.rank).len()
    }
}

impl Machine for AckTreeProcess {
    type Shared = Arc<Tree>;

    fn new(rank: Rank, _tree: &Arc<Tree>) -> Self {
        let is_root = rank == 0;
        AckTreeProcess {
            rank,
            colored_at: is_root.then_some(Time::ZERO),
            colored_via: is_root.then_some(ColoredVia::Root),
            next_child: 0,
            acks_received: 0,
            ack_sent: false,
            done: false,
        }
    }

    fn on_message(&mut self, tree: &Arc<Tree>, from: Rank, payload: Payload, now: Time) {
        match payload {
            Payload::Tree => {
                if self.colored_at.is_none() {
                    self.colored_at = Some(now);
                    self.colored_via = Some(ColoredVia::Dissemination);
                }
            }
            Payload::Ack => {
                debug_assert!(tree.children(self.rank).contains(&from));
                self.acks_received += 1;
            }
            Payload::Correction | Payload::Gossip { .. } => {
                debug_assert!(false, "unexpected payload in ack-tree broadcast");
            }
        }
    }

    fn poll_send(&mut self, tree: &Arc<Tree>, _now: Time) -> SendPoll {
        if self.done {
            return SendPoll::Done;
        }
        if self.colored_at.is_none() {
            return SendPoll::Idle;
        }
        let children = tree.children(self.rank);
        if self.next_child < children.len() {
            let to = children[self.next_child];
            self.next_child += 1;
            return SendPoll::Now {
                to,
                payload: Payload::Tree,
            };
        }
        if self.acks_received < children.len() {
            return SendPoll::Idle; // waiting for child acknowledgments
        }
        if self.rank != 0 && !self.ack_sent {
            self.ack_sent = true;
            return SendPoll::Now {
                to: tree.parent(self.rank).expect("non-root"),
                payload: Payload::Ack,
            };
        }
        self.done = true;
        SendPoll::Done
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

    #[test]
    fn leaf_acks_immediately_after_coloring() {
        let t = tree(8);
        let mut p7 = AckTreeProcess::new(7, &t);
        assert_eq!(p7.poll_send(&t, Time::ZERO), SendPoll::Idle);
        p7.on_message(&t, 3, Payload::Tree, Time::new(12));
        assert_eq!(
            p7.poll_send(&t, Time::new(12)),
            SendPoll::Now {
                to: 3,
                payload: Payload::Ack
            }
        );
        assert_eq!(p7.poll_send(&t, Time::new(13)), SendPoll::Done);
    }

    #[test]
    fn inner_node_waits_for_all_child_acks() {
        // Rank 1 in binomial(8) has children {3, 5}.
        let t = tree(8);
        let mut p1 = AckTreeProcess::new(1, &t);
        p1.on_message(&t, 0, Payload::Tree, Time::new(4));
        assert_eq!(
            p1.poll_send(&t, Time::new(4)),
            SendPoll::Now {
                to: 3,
                payload: Payload::Tree
            }
        );
        assert_eq!(
            p1.poll_send(&t, Time::new(5)),
            SendPoll::Now {
                to: 5,
                payload: Payload::Tree
            }
        );
        assert_eq!(p1.poll_send(&t, Time::new(6)), SendPoll::Idle);
        p1.on_message(&t, 3, Payload::Ack, Time::new(14));
        assert_eq!(p1.poll_send(&t, Time::new(14)), SendPoll::Idle);
        p1.on_message(&t, 5, Payload::Ack, Time::new(15));
        assert_eq!(
            p1.poll_send(&t, Time::new(15)),
            SendPoll::Now {
                to: 0,
                payload: Payload::Ack
            }
        );
        assert_eq!(p1.poll_send(&t, Time::new(16)), SendPoll::Done);
    }

    #[test]
    fn root_completes_only_after_every_ack() {
        let t = tree(8);
        let mut root = AckTreeProcess::new(0, &t);
        for to in [1u32, 2, 4] {
            assert_eq!(
                root.poll_send(&t, Time::ZERO),
                SendPoll::Now {
                    to,
                    payload: Payload::Tree
                }
            );
        }
        assert_eq!(root.poll_send(&t, Time::ZERO), SendPoll::Idle);
        assert!(!root.root_completed(&t));
        for from in [1u32, 2, 4] {
            root.on_message(&t, from, Payload::Ack, Time::new(20));
        }
        assert!(root.root_completed(&t));
        assert_eq!(root.poll_send(&t, Time::new(20)), SendPoll::Done);
    }

    #[test]
    fn two_process_ack_roundtrip() {
        let t = tree(2);
        let mut root = AckTreeProcess::new(0, &t);
        let mut leaf = AckTreeProcess::new(1, &t);
        assert_eq!(
            root.poll_send(&t, Time::ZERO),
            SendPoll::Now {
                to: 1,
                payload: Payload::Tree
            }
        );
        leaf.on_message(&t, 0, Payload::Tree, Time::new(4));
        assert_eq!(
            leaf.poll_send(&t, Time::new(4)),
            SendPoll::Now {
                to: 0,
                payload: Payload::Ack
            }
        );
        root.on_message(&t, 1, Payload::Ack, Time::new(8));
        assert!(root.root_completed(&t));
    }
}
