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
//! over the arena's population slot: every protocol keeps its machines
//! there by value and rewinds the previous run's of the same machine
//! type in place to exactly their freshly built state). A reused arena
//! therefore produces bit-identical outcomes and event streams; the
//! golden-trace and driver-contract suites, `tests/slot_reuse.rs` and
//! `crates/core/tests/population.rs` pin this.

use ct_core::protocol::Population;

use crate::bits::BitSet;
use crate::queue::EventQueue;
use crate::shard::{Helper, ShardStore};

/// Reusable backing storage for simulation runs. Create once with
/// [`RunArena::new`] (allocation-free) and pass to any number of
/// [`Simulation::run_reusable`](crate::Simulation::run_reusable) calls;
/// runs of differing `P`, protocol or observability may share one
/// arena.
///
/// Per-rank state is flat: the boolean flags are packed bit vectors
/// (one bit per rank), the receive queues share one pooled node store
/// instead of a `VecDeque` per rank, the protocol machines lie by
/// value, and the event queue holds lane storage
/// only for the few time steps that are live at once.
///
/// The engine's per-rank state lives in two shard stores: a one-thread
/// run keeps every rank in the first; a run whose wide steps go to two
/// threads (the `shard` module) keeps each half of its ranks in its own,
/// which moves to the arena's helper thread for those steps, and so do
/// that half's machines. The helper is spawned at the arena's first such
/// step and joined when the arena drops, so its CPU time counts as this
/// process's for as long as the arena lives.
pub struct RunArena {
    pub(crate) queue: EventQueue,
    pub(crate) shards: [ShardStore; 2],
    pub(crate) colored_seen: BitSet,
    pub(crate) population: Option<Box<dyn Population>>,
    pub(crate) helper: Option<Helper>,
    /// Steps this arena's runs have split between two threads.
    pub(crate) split_steps: u64,
}

impl RunArena {
    /// An empty arena; storage grows on first use and is retained.
    pub fn new() -> RunArena {
        RunArena {
            queue: EventQueue::new(),
            shards: Default::default(),
            colored_seen: BitSet::new(),
            population: None,
            helper: None,
            split_steps: 0,
        }
    }

    /// Restore the fresh-run state of the queue, retaining capacity.
    /// `observing` sizes the colored-event dedup bitset for `p` ranks
    /// (empty when the run is unobserved, exactly as a fresh run would
    /// allocate it). The run sizes the shard stores it uses.
    pub(crate) fn reset(&mut self, p: usize, observing: bool) {
        self.queue.reset();
        self.colored_seen
            .clear_resize(if observing { p } else { 0 });
        // `population` is intentionally untouched: the caller hands the
        // slot, with whatever the last run left in it, to
        // `ProtocolFactory::populate`.
    }

    /// How many time steps of this arena's runs have run on two threads
    /// so far. Outcomes do not depend on it; it shows where the
    /// two-thread path ran.
    pub fn split_steps(&self) -> u64 {
        self.split_steps
    }

    /// Bytes of per-rank scalar and receive-queue storage currently
    /// held (approximate). Steady under arena reuse — growth across
    /// repetitions is allocator churn, which the repo benchmark reports
    /// as `sim.arena_growth_reps`. It leaves out the two largest
    /// structures, the population of protocol machines and the event
    /// queue's lanes (DESIGN.md §7 *Memory layout* has their measured
    /// sizes), the bitsets and the shards' step buffers.
    pub fn footprint_bytes(&self) -> usize {
        self.shards.iter().map(ShardStore::footprint_bytes).sum()
    }
}

impl Default for RunArena {
    fn default() -> Self {
        RunArena::new()
    }
}
