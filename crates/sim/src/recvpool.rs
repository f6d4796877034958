//! Pooled per-rank receive queues.
//!
//! Each rank's receive port queues `(from, payload)` pairs FIFO. As
//! `Vec<VecDeque<…>>` that is one heap allocation *per rank* — a
//! million buffers at `P = 2²⁰`, none of them more than a few entries
//! deep. [`RecvPool`] replaces them with struct-of-arrays state: two
//! `u32` cursors per rank (head/tail of an intrusive list) plus one
//! shared node pool with a free list. Push and pop are O(1), the pool
//! grows to the peak number of *simultaneously* queued messages (tiny:
//! receive queues drain every `o` steps), and a reset keeps all
//! storage.
//!
//! Node indices are internal bookkeeping only — FIFO order per rank is
//! what the engine observes, and that is identical to the `VecDeque`
//! behaviour, so traces and outcomes are unchanged.

use ct_core::protocol::Payload;
use ct_logp::Rank;

const NIL: u32 = u32::MAX;

/// Struct-of-arrays FIFO queues for all ranks, backed by one node pool.
#[derive(Debug)]
pub(crate) struct RecvPool {
    /// Head node of each rank's queue (`NIL` = empty).
    head: Vec<u32>,
    /// Tail node of each rank's queue (`NIL` = empty).
    tail: Vec<u32>,
    /// Per-node forward link (`NIL` = last).
    next: Vec<u32>,
    /// Per-node message: sending rank.
    from: Vec<Rank>,
    /// Per-node message: content.
    payload: Vec<Payload>,
    /// Head of the free list threaded through `next` (`NIL` = empty).
    free: u32,
}

impl Default for RecvPool {
    /// No ranks and no nodes.
    fn default() -> RecvPool {
        RecvPool {
            head: Vec::new(),
            tail: Vec::new(),
            next: Vec::new(),
            from: Vec::new(),
            payload: Vec::new(),
            free: NIL,
        }
    }
}

impl RecvPool {
    /// Empty every queue and size for `p` ranks (indices `0..p`: all
    /// ranks of a run, or those of one of its shards), retaining the node
    /// pool. All nodes return to the free list.
    pub fn reset(&mut self, p: usize) {
        self.head.clear();
        self.head.resize(p, NIL);
        self.tail.clear();
        self.tail.resize(p, NIL);
        // Rethread the whole pool as the free list.
        let nodes = self.next.len();
        for i in 0..nodes {
            self.next[i] = if i + 1 < nodes { i as u32 + 1 } else { NIL };
        }
        self.free = if nodes == 0 { NIL } else { 0 };
    }

    /// Append a message to the queue of the rank at index `r`.
    pub fn push_back(&mut self, r: usize, from: Rank, payload: Payload) {
        let node = if self.free != NIL {
            let node = self.free;
            self.free = self.next[node as usize];
            self.next[node as usize] = NIL;
            self.from[node as usize] = from;
            self.payload[node as usize] = payload;
            node
        } else {
            let node = self.next.len() as u32;
            self.next.push(NIL);
            self.from.push(from);
            self.payload.push(payload);
            node
        };
        if self.tail[r] == NIL {
            self.head[r] = node;
        } else {
            self.next[self.tail[r] as usize] = node;
        }
        self.tail[r] = node;
    }

    /// Remove and return the oldest message of the queue at index `r`.
    pub fn pop_front(&mut self, r: usize) -> Option<(Rank, Payload)> {
        let node = self.head[r];
        if node == NIL {
            return None;
        }
        let n = node as usize;
        self.head[r] = self.next[n];
        if self.head[r] == NIL {
            self.tail[r] = NIL;
        }
        let msg = (self.from[n], self.payload[n]);
        self.next[n] = self.free;
        self.free = node;
        Some(msg)
    }

    /// Is the queue at index `r` empty?
    #[inline]
    pub fn is_empty(&self, r: usize) -> bool {
        self.head[r] == NIL
    }

    /// Total node capacity ever allocated (the peak backlog across all
    /// resets) — surfaced by allocator-churn diagnostics.
    pub fn capacity(&self) -> usize {
        self.next.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_rank_with_interleaved_ranks() {
        let mut pool = RecvPool::default();
        pool.reset(4);
        pool.push_back(1, 10, Payload::Tree);
        pool.push_back(2, 20, Payload::Correction);
        pool.push_back(1, 11, Payload::Ack);
        pool.push_back(1, 12, Payload::Gossip { round: 3 });
        assert_eq!(pool.pop_front(1), Some((10, Payload::Tree)));
        assert_eq!(pool.pop_front(2), Some((20, Payload::Correction)));
        assert!(pool.is_empty(2));
        assert_eq!(pool.pop_front(1), Some((11, Payload::Ack)));
        assert_eq!(pool.pop_front(1), Some((12, Payload::Gossip { round: 3 })));
        assert!(pool.is_empty(1));
        assert_eq!(pool.pop_front(1), None);
    }

    #[test]
    fn reset_recycles_nodes_without_growth() {
        let mut pool = RecvPool::default();
        pool.reset(2);
        for _ in 0..5 {
            pool.push_back(0, 1, Payload::Tree);
        }
        let cap = pool.capacity();
        assert_eq!(cap, 5);
        pool.reset(2);
        assert!(pool.is_empty(0));
        for _ in 0..5 {
            pool.push_back(1, 0, Payload::Tree);
        }
        assert_eq!(pool.capacity(), cap, "reset must reuse the pool");
    }

    #[test]
    fn free_list_reuses_popped_nodes() {
        let mut pool = RecvPool::default();
        pool.reset(1);
        pool.push_back(0, 1, Payload::Tree);
        let _ = pool.pop_front(0);
        pool.push_back(0, 2, Payload::Ack);
        assert_eq!(pool.capacity(), 1, "popped node must be recycled");
        assert_eq!(pool.pop_front(0), Some((2, Payload::Ack)));
    }
}
