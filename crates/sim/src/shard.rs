//! Wide time steps on two threads.
//!
//! Within one time step every rank is touched only through its own
//! per-rank state and machine: an arrival changes its receiver, a
//! completion or a poll its own rank. So the ranks split into two
//! shards, alternating blocks of 64 ([`half_of`]), can run a step's
//! events on two threads with the engine's lane handlers unchanged,
//! each thread walking only its own shard's events of each lane.
//!
//! What the threads cannot split is the order of the step's output. The
//! one-thread step appends a `RecvDone`, a send (an `Arrive`, whose
//! sender is the `SenderFree` entry) or a `Repoll` while it handles an
//! event, and it handles events in lane order: arrivals, completions,
//! sender polls, repolls, each lane front to back. That is the *key*
//! of an event: the lanes before it plus its position in its own lane.
//! An event gives each output lane at most one entry, so the one-thread
//! order of every output lane is the key order of the events that
//! produced its entries. Each shard walks its events 64 at a time and
//! records, per 64, which of them appended a `RecvDone` and which a
//! send, and tags each `Repoll` with its key; [`merge`] interleaves the
//! two shards' output by those bits and keys. Every lane the queue
//! holds is then exactly the one-thread lane, and so is every outcome.
//!
//! What stays on one thread: runs under [`SHARD_MIN_P`] ranks, observed
//! runs (an enabled sink or a telemetry hub), boxed
//! populations, and runs that would take a core another run needs (the
//! free-core rule, [`InFlight`]). A sharded run hands its narrow steps
//! (under [`WIDE_STEP`] events) to the two shards in turn on its own
//! thread. A shard's per-rank state, step buffers and half of the
//! machines ([`PopulationHalf`]) move to the helper thread by value for
//! a wide step and come back with its results. The first shard writes
//! into the queue's own output lanes, and the merge moves the second
//! shard's entries in among them in place.

use std::any::Any;
use std::cell::OnceCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

#[cfg(doc)]
use ct_core::protocol::half_of;
use ct_core::protocol::PopulationHalf;
use ct_logp::{Rank, Time};

use crate::bits::BitSet;
use crate::engine::{Shard, StepCtx, StepResult};
use crate::queue::{Bucket, StepOutput};
use crate::recvpool::RecvPool;

/// Runs of fewer ranks stay on one thread: their steps are too narrow
/// to pay for the hand-over.
pub(crate) const SHARD_MIN_P: u32 = 16_384;

/// A sharded run's steps with fewer events run on its own thread.
pub(crate) const WIDE_STEP: usize = 2_048;

/// The per-rank engine state of the ranks one shard runs, addressed by
/// the shard's rank index, and the buffers its steps fill. Kept in the
/// [`RunArena`](crate::RunArena) from run to run.
#[derive(Debug, Default)]
pub(crate) struct ShardStore {
    pub(crate) send_busy_until: Vec<Time>,
    pub(crate) done: BitSet,
    pub(crate) recv_busy: BitSet,
    pub(crate) dead: BitSet,
    pub(crate) recv_queue: RecvPool,
    pub(crate) sent: Vec<u32>,
    /// The running step's output. A one-thread run and the first shard
    /// draw these lanes from the queue, which installs them; the second
    /// shard keeps its own, which [`merge`] moves into the first's.
    pub(crate) out: StepOutput,
    /// Per 64 events of the step's lanes, in key order, which of this
    /// shard's events appended to `out.recv_done` (sharded steps only).
    pub(crate) recv_done_bits: Vec<u64>,
    /// The same for sends, which append to `out.arrive`.
    pub(crate) send_bits: Vec<u64>,
    /// The step's `Repoll` pushes, in handling order (sharded steps
    /// only: a one-thread step pushes them to the queue).
    pub(crate) repolls: Vec<Repoll>,
}

/// A `Repoll` the running step schedules, with the key of the event
/// that asked for it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Repoll {
    pub(crate) key: u32,
    pub(crate) at: Time,
    pub(crate) rank: Rank,
}

impl ShardStore {
    /// The fresh-run state of `n` ranks whose dead flags are `dead`,
    /// packed 64 to the word; capacity is retained.
    pub(crate) fn reset(&mut self, n: usize, dead: impl Iterator<Item = u64>) {
        self.send_busy_until.clear();
        self.send_busy_until.resize(n, Time::ZERO);
        self.done.clear_resize(n);
        self.recv_busy.clear_resize(n);
        self.dead.copy_words(dead);
        self.recv_queue.reset(n);
        self.sent.clear();
        self.sent.resize(n, 0);
        self.clear_output();
    }

    /// Room for the output of the step of `lanes`, so that a shard of
    /// `ranks` ranks does not grow its big buffers on the helper thread,
    /// whose allocator would keep what a growth discards: a rank sends
    /// at most once per step, after a `RecvDone`, `SenderFree` or
    /// `Repoll`; it queues at most one `RecvDone`, after an `Arrive` or a
    /// `RecvDone`; and each 64 events add one word of output bits.
    pub(crate) fn reserve_step(&mut self, lanes: &Bucket, ranks: usize) {
        let sends = lanes.recv_done.len() + lanes.sender_free.len() + lanes.repoll.len();
        let recv_done = lanes.arrive.len() + lanes.recv_done.len();
        self.out.arrive.reserve_exact(sends.min(ranks));
        self.out.recv_done.reserve_exact(recv_done.min(ranks));
        let chunks: usize = [
            lanes.arrive.len(),
            lanes.recv_done.len(),
            lanes.sender_free.len(),
            lanes.repoll.len(),
        ]
        .map(|n| n.div_ceil(64))
        .iter()
        .sum();
        self.recv_done_bits.reserve(chunks);
        self.send_bits.reserve(chunks);
    }

    /// Drop the step's output, keeping the storage.
    pub(crate) fn clear_output(&mut self) {
        self.out.recv_done.clear();
        self.out.sender_free.clear();
        self.out.arrive.clear();
        self.recv_done_bits.clear();
        self.send_bits.clear();
        self.repolls.clear();
    }

    /// Bytes of per-rank scalar and receive-queue storage held.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.send_busy_until.capacity() * std::mem::size_of::<Time>()
            + self.recv_queue.capacity() * 16
    }
}

/// Move the second shard's output of one step into the first's, in
/// the order the one-thread step produces it: by the key of the event
/// that produced each entry. `repoll` gets the two shards' `Repoll`
/// pushes in that order.
pub(crate) fn merge(into: &mut ShardStore, from: &ShardStore, repoll: impl FnMut(Repoll)) {
    let out = &mut into.out;
    let (bits, other) = (&into.recv_done_bits, &from.recv_done_bits);
    merge_in_place(&mut out.recv_done, bits, &from.out.recv_done, other);
    let (bits, other) = (&into.send_bits, &from.send_bits);
    merge_in_place(&mut out.arrive, bits, &from.out.arrive, other);
    // Rare (timed correction only): sort rather than merge.
    into.repolls.extend_from_slice(&from.repolls);
    into.repolls.sort_unstable_by_key(|r| r.key);
    into.repolls.iter().copied().for_each(repoll);
}

/// Merge `b` into `a`. Chunk `c` of 64 events of the step produced the
/// entries of `a` at the set bits of `bits_a[c]` and those of `b` at
/// the set bits of `bits_b[c]`, bit by bit in order (the two are
/// disjoint: an event is one shard's). Back to front, so the entries of
/// `a` move at most once and nothing else is allocated; a chunk of one
/// shard's entries only moves as a block.
fn merge_in_place<T: Copy>(a: &mut Vec<T>, bits_a: &[u64], b: &[T], bits_b: &[u64]) {
    /// Runs are short (the shards alternate every few entries): one
    /// fixed-size copy moves a run of up to this many entries, with no
    /// branch on its length.
    const BLOCK: usize = 8;
    let (mut i, mut j) = (a.len(), b.len());
    a.reserve_exact(j);
    a.extend_from_slice(b);
    for (&x, &y) in bits_a.iter().zip(bits_b).rev() {
        if j == 0 {
            // What is left of `a` is in place.
            break;
        }
        // Run by run from the top: the shard whose mask is larger has
        // the last entry (the masks are disjoint), and its run reaches
        // down to the other's highest bit.
        let (mut x, mut y) = (x, y);
        while x | y != 0 {
            if x > y {
                let floor = 64 - y.leading_zeros();
                let run = (x >> floor).count_ones() as usize;
                if run <= BLOCK && i >= BLOCK && j >= BLOCK {
                    // A whole block: what lands below the run is
                    // overwritten later, and nothing unread is hit.
                    let block: [T; BLOCK] = a[i - BLOCK..i].try_into().expect("a block");
                    a[i + j - BLOCK..i + j].copy_from_slice(&block);
                } else {
                    a.copy_within(i - run..i, i + j - run);
                }
                i -= run;
                x &= (1 << floor) - 1;
            } else {
                let floor = 64 - x.leading_zeros();
                let run = (y >> floor).count_ones() as usize;
                if run <= BLOCK && j >= BLOCK {
                    a[i + j - BLOCK..i + j].copy_from_slice(&b[j - BLOCK..j]);
                } else {
                    a[i + j - run..i + j].copy_from_slice(&b[j - run..j]);
                }
                j -= run;
                y &= (1 << floor) - 1;
            }
        }
    }
    debug_assert_eq!(j, 0, "every entry of b has its bit");
}

/// Runs in flight in this process. A count that publishes no other
/// data, so its updates are relaxed.
static RUNS_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// One run, counted in [`RUNS_IN_FLIGHT`] while it lives.
pub(crate) struct InFlight {
    /// [`ct_obs::default_threads`], read once, when first needed.
    threads: OnceCell<usize>,
}

impl InFlight {
    pub(crate) fn enter() -> InFlight {
        RUNS_IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        InFlight {
            threads: OnceCell::new(),
        }
    }

    /// The free-core rule, asked when a run begins and before each of
    /// its wide steps: a run takes a second thread only while at most
    /// half of the process's thread count runs are in flight, so a
    /// campaign running one repetition per core keeps one thread per
    /// repetition, and its last repetition can take the core the others
    /// freed.
    pub(crate) fn core_free(&self) -> bool {
        let threads = *self.threads.get_or_init(ct_obs::default_threads);
        2 * RUNS_IN_FLIGHT.load(Ordering::Relaxed) <= threads
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        RUNS_IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The helper thread of one [`RunArena`](crate::RunArena): spawned at
/// the arena's first wide step, joined when the arena drops.
pub(crate) struct Helper {
    exchange: Arc<Exchange>,
    thread: Option<JoinHandle<()>>,
    /// The running wide step's lanes, shared with the helper while it
    /// reads them; an empty bucket between steps.
    lanes: Arc<Bucket>,
}

/// A wide step's share for the helper.
struct Job {
    shard: Shard<PopulationHalf>,
    lanes: Arc<Bucket>,
    ctx: StepCtx,
}

#[derive(Default)]
enum Slot {
    #[default]
    Idle,
    Job(Job),
    Busy,
    Done(Shard<PopulationHalf>, StepResult),
    Panicked(Box<dyn Any + Send>),
}

#[derive(Default)]
struct State {
    slot: Slot,
    quit: bool,
}

#[derive(Default)]
struct Exchange {
    state: Mutex<State>,
    wake: Condvar,
}

impl Exchange {
    /// Every update under the lock replaces the slot or the flag whole,
    /// so what a panicking thread left behind is still a valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper thread: run each job posted, until told to quit. A
    /// panicking job is handed back as its payload and ends the thread.
    fn serve(&self) {
        let mut state = self.lock();
        loop {
            match std::mem::replace(&mut state.slot, Slot::Busy) {
                Slot::Job(Job {
                    mut shard,
                    lanes,
                    ctx,
                }) => {
                    drop(state);
                    let stepped = catch_unwind(AssertUnwindSafe(|| shard.step(&lanes, &ctx)));
                    drop(lanes);
                    state = self.lock();
                    let panicked = stepped.is_err();
                    state.slot = match stepped {
                        Ok(result) => Slot::Done(shard, result),
                        Err(payload) => Slot::Panicked(payload),
                    };
                    self.wake.notify_all();
                    if panicked {
                        return;
                    }
                }
                other => {
                    state.slot = other;
                    if state.quit {
                        return;
                    }
                    state = self.wait(state);
                }
            }
        }
    }
}

impl Helper {
    /// A new helper thread, or `None` where none can be spawned.
    pub(crate) fn spawn() -> Option<Helper> {
        let exchange = Arc::new(Exchange::default());
        let served = Arc::clone(&exchange);
        let thread = std::thread::Builder::new()
            .name("ct-sim-shard".into())
            .spawn(move || served.serve())
            .ok()?;
        Some(Helper {
            exchange,
            thread: Some(thread),
            lanes: Arc::new(Bucket::default()),
        })
    }

    /// Has the thread ended (after a panic)?
    pub(crate) fn is_finished(&self) -> bool {
        self.thread.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Run the step of `lanes` with `other` on the helper thread while
    /// `own` runs on this one; give back the lanes, `other` and both
    /// results. A panic on the helper resumes here.
    pub(crate) fn step(
        &mut self,
        mut lanes: Bucket,
        other: Shard<PopulationHalf>,
        own: &mut Shard<PopulationHalf>,
        ctx: StepCtx,
    ) -> (Bucket, Shard<PopulationHalf>, StepResult, StepResult) {
        let mut state = self.exchange.lock();
        // A step abandoned by a panic on this thread may still run.
        while matches!(state.slot, Slot::Job(_) | Slot::Busy) {
            state = self.exchange.wait(state);
        }
        let shared = Arc::get_mut(&mut self.lanes).expect("the helper holds no lanes");
        std::mem::swap(shared, &mut lanes);
        state.slot = Slot::Job(Job {
            shard: other,
            lanes: Arc::clone(&self.lanes),
            ctx,
        });
        drop(state);
        self.exchange.wake.notify_all();

        let mine = own.step(&self.lanes, &ctx);

        let mut state = self.exchange.lock();
        let (other, theirs) = loop {
            match std::mem::take(&mut state.slot) {
                Slot::Done(shard, result) => break (shard, result),
                Slot::Panicked(payload) => {
                    drop(state);
                    resume_unwind(payload)
                }
                pending => {
                    state.slot = pending;
                    state = self.exchange.wait(state);
                }
            }
        };
        drop(state);
        let shared = Arc::get_mut(&mut self.lanes).expect("the helper gave the lanes back");
        std::mem::swap(shared, &mut lanes);
        (lanes, other, mine, theirs)
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.exchange.lock().quit = true;
        self.exchange.wake.notify_all();
        if let Some(thread) = self.thread.take() {
            // A panic on the helper was resumed on the run's thread.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random stream.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn merging_in_place_restores_event_order() {
        for (case, events) in [0usize, 1, 7, 64, 65, 200, 5000].into_iter().enumerate() {
            // Event `e` belongs to the second shard in runs of random
            // length, and produces entry `e` with probability 3/4.
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let (mut bits_a, mut bits_b) = (
                vec![0u64; events.div_ceil(64)],
                vec![0; events.div_ceil(64)],
            );
            let mut second = false;
            for e in 0..events {
                let h = mix((case * 100_000 + e) as u64);
                second ^= h.is_multiple_of(5);
                if h >> 8 & 3 == 0 {
                    continue;
                }
                let (entries, bits) = if second {
                    (&mut b, &mut bits_b)
                } else {
                    (&mut a, &mut bits_a)
                };
                entries.push(e);
                bits[e / 64] |= 1 << (e % 64);
            }
            let mut expected: Vec<usize> = a.iter().chain(&b).copied().collect();
            expected.sort_unstable();
            merge_in_place(&mut a, &bits_a, &b, &bits_b);
            assert_eq!(a, expected, "{events} events");
        }
    }
}
