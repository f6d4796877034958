//! Reusable per-run storage.
//!
//! One simulated broadcast needs an event queue, per-rank receive
//! queues, a handful of per-rank scalar vectors and a population of `P`
//! protocol state machines. A campaign runs thousands of such
//! broadcasts with identical shapes, so rebuilding all of that per
//! repetition is pure allocator traffic. A [`RunArena`] owns the storage
//! and survives across
//! [`Simulation::run_reusable`](crate::Simulation::run_reusable) calls;
//! every run begins by clearing it (keeping capacity) and ends leaving
//! it warm for the next.
//!
//! Determinism: the arena holds no state that outlives the clear — the
//! engine resets every field to exactly the values a fresh run starts
//! from, and the protocol machines are rebuilt each run (via
//! [`ProtocolFactory::populate`](ct_core::protocol::ProtocolFactory::populate)
//! over the arena's population slot: a `BroadcastSpec` without acks
//! keeps its machines there by value and rewinds the previous run's in
//! place to exactly their freshly built state, any other factory
//! rebuilds a vector of boxes kept in the same slot). A reused arena
//! therefore produces bit-identical outcomes and event streams; the
//! golden-trace and driver-contract suites, `tests/slot_reuse.rs` and
//! `crates/core/tests/population.rs` pin this.

use ct_core::protocol::Population;
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
/// Per-rank state is flat: the three boolean flags are packed
/// [`BitSet`]s (one bit per rank), the receive queues share one pooled
/// [`RecvPool`] instead of a `VecDeque` per rank, the protocol machines
/// of a `BroadcastSpec` lie by value in one vector, and the event queue
/// holds lane storage only for the few time steps that are live at once.
pub struct RunArena {
    pub(crate) queue: EventQueue,
    pub(crate) send_busy_until: Vec<Time>,
    pub(crate) done: BitSet,
    pub(crate) recv_queue: RecvPool,
    pub(crate) recv_busy: BitSet,
    pub(crate) colored_seen: BitSet,
    pub(crate) population: Option<Box<dyn Population>>,
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
            population: None,
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
        // `population` is intentionally untouched: the caller hands the
        // slot, with whatever the last run left in it, to
        // `ProtocolFactory::populate`.
    }

    /// Bytes of per-rank scalar and receive-queue storage currently
    /// held (approximate). Steady under arena reuse — growth across
    /// repetitions is allocator churn, which the repo benchmark reports
    /// as `sim.arena_growth_reps`. It leaves out the two largest
    /// structures, the population of protocol machines and the event
    /// queue's lanes (DESIGN.md §7 *Memory layout* has their measured
    /// sizes), and the three bitsets.
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
