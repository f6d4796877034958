//! Reusable per-run storage.
//!
//! One simulated broadcast needs an event queue, per-rank receive
//! queues, a handful of per-rank scalar vectors and `P` boxed protocol
//! state machines. A campaign runs thousands of such broadcasts with
//! identical shapes, so rebuilding all of that per repetition is pure
//! allocator traffic. A [`RunArena`] owns the storage and survives
//! across [`Simulation::run_reusable`](crate::Simulation::run_reusable)
//! calls; every run begins by clearing it (keeping capacity) and ends
//! leaving it warm for the next.
//!
//! Determinism: the arena holds no state that outlives the clear — the
//! engine resets every field to exactly the values a fresh run starts
//! from, and the protocol machines are rebuilt each run (via
//! [`ProtocolFactory::build_into`](ct_core::protocol::ProtocolFactory::build_into),
//! which reuses the vector's backing storage and, for plain
//! `BroadcastSpec`s, rewinds the previous run's machines in place to
//! exactly their freshly built state). A reused arena therefore
//! produces bit-identical outcomes and event streams; the golden-trace
//! and driver-contract suites and `tests/slot_reuse.rs` pin this.

use ct_core::protocol::Process;
use ct_logp::Time;

use crate::bits::BitSet;
use crate::queue::EventQueue;
use crate::recvpool::RecvPool;

/// Reusable backing storage for simulation runs. Create once with
/// [`RunArena::new`] (allocation-free) and pass to any number of
/// [`Simulation::run_reusable`](crate::Simulation::run_reusable) calls;
/// runs of differing `P`, protocol or observability may share one
/// arena.
///
/// Per-rank state is struct-of-arrays: the three boolean flags are
/// packed [`BitSet`]s (one bit per rank) and the receive queues share
/// one pooled [`RecvPool`] instead of a `VecDeque` per rank, so the
/// whole arena stays cache-resident even at `P = 2²⁰`.
pub struct RunArena {
    pub(crate) queue: EventQueue,
    pub(crate) send_busy_until: Vec<Time>,
    pub(crate) done: BitSet,
    pub(crate) recv_queue: RecvPool,
    pub(crate) recv_busy: BitSet,
    pub(crate) colored_seen: BitSet,
    pub(crate) procs: Vec<Box<dyn Process>>,
}

impl RunArena {
    /// An empty arena; storage grows on first use and is retained.
    pub fn new() -> RunArena {
        RunArena {
            queue: EventQueue::new(),
            send_busy_until: Vec::new(),
            done: BitSet::new(),
            recv_queue: RecvPool::new(),
            recv_busy: BitSet::new(),
            colored_seen: BitSet::new(),
            procs: Vec::new(),
        }
    }

    /// Restore the fresh-run state for `p` ranks, retaining capacity.
    /// `observing` sizes the colored-event dedup bitset (empty when the
    /// run is unobserved, exactly as a fresh run would allocate it).
    pub(crate) fn reset(&mut self, p: usize, observing: bool) {
        self.queue.reset();
        self.send_busy_until.clear();
        self.send_busy_until.resize(p, Time::ZERO);
        self.done.clear_resize(p);
        self.recv_busy.clear_resize(p);
        self.colored_seen
            .clear_resize(if observing { p } else { 0 });
        self.recv_queue.reset(p);
        // `procs` is intentionally untouched: the caller rebuilds it via
        // `ProtocolFactory::build_into`, reusing the vector itself.
    }

    /// Bytes of reusable storage currently held (approximate; excludes
    /// the protocol machines). Steady under arena reuse — growth across
    /// repetitions is allocator churn the perf bench reports.
    pub fn footprint_bytes(&self) -> usize {
        self.send_busy_until.capacity() * std::mem::size_of::<Time>()
            + self.recv_queue.capacity() * 16
    }
}

impl Default for RunArena {
    fn default() -> Self {
        RunArena::new()
    }
}
