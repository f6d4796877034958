//! The calendar (bucket) event queue behind the engine.
//!
//! The engine originally kept its pending events in a binary heap
//! ordered by `(time, class, seq)`. The LogP invariants (`L ≥ 1`,
//! `o ≥ 1`, validated in `ct-logp`) guarantee that every event pushed
//! while draining time `t` lies strictly in the future: `SenderFree`
//! and `RecvDone` land at `t + o`, `Arrive` at `t + o + L`, and a
//! `Repoll` at `t' ≤ t` is rejected as [`SimError::NonAdvancingWait`]
//! (`crate::SimError`). That makes a calendar queue *exactly*
//! order-equivalent to the heap — no event can join a bucket that is
//! already being drained — while turning the hot push/pop pair from
//! `O(log n)` comparisons into array appends and cursor walks.
//!
//! Layout: a window of [`WINDOW`] consecutive absolute time steps, one
//! bucket per step, four FIFO lanes per bucket (one per same-time
//! ordering class). Lanes are typed for density ([`Bucket`]): since the
//! lane itself encodes the class, the three poll-like lanes store bare
//! 4-byte ranks and only arrivals carry sender + packed payload (12
//! bytes) — a cache line holds 16 pending polls or 5 arrivals, against
//! 4 of the old 16-byte `(Rank, EventKind)` tuples. Within a lane,
//! append order *is* sequence order —
//! the global sequence counter is monotone — so FIFO drain reproduces
//! the heap's `seq` tie-break. Events beyond the window (distant
//! `WaitUntil`s, `Time::NEVER`) overflow into a small binary heap with
//! the original `(time, class, seq)` ordering; when the window empties
//! the queue re-bases onto the earliest overflow time and drains the
//! now-in-window prefix back into buckets, preserving that order.
//!
//! Storage: a bucket owns lane vectors only while it has events to
//! hold. A drained bucket hands its vectors to a LIFO spare list
//! ([`LanePool`]) and the first push into a lane without storage takes
//! the most recently retired one, so the queue retains about
//! `o + L + 2` buckets' worth of lanes — the steps that are live at
//! once, each as wide as the widest step — instead of one set for every
//! time step a run ever reached, and every push writes to memory that
//! was read a step or two ago.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ct_core::protocol::Payload;
use ct_logp::{Rank, Time};

/// The four event kinds driving a run (see the engine module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A rank's sender port became free; poll the protocol.
    SenderFree,
    /// A message reached a rank's receive port.
    Arrive {
        /// Sending rank.
        from: Rank,
        /// Message content.
        payload: Payload,
    },
    /// A rank finished the `o`-long processing of its queue head.
    RecvDone,
    /// A protocol-requested `WaitUntil` expired.
    Repoll,
}

impl EventKind {
    /// Same-time ordering class. Deliveries must precede sender polls at
    /// equal timestamps: a message whose processing completes at `t` is
    /// available to the send decision made at `t` — this is what makes
    /// the simulated checked correction match Lemma 2 exactly (a process
    /// that hears from both sides at `t` sends nothing more at `t`).
    pub(crate) fn class(self) -> u8 {
        match self {
            EventKind::Arrive { .. } => 0,
            EventKind::RecvDone => 1,
            EventKind::SenderFree => 2,
            EventKind::Repoll => 3,
        }
    }
}

/// Bucket window size in time steps. Quiescence of the paper workloads
/// is tens of steps, so one window normally covers a whole run; the
/// overflow heap handles anything longer (or `Time::NEVER`).
const WINDOW: usize = 1024;
const LANES: usize = 4;

/// An arrival packed to 12 bytes (vs 16 for `(Rank, EventKind)`): the
/// lane already encodes the event class, so only `Arrive` needs more
/// than the destination rank, and its payload fits a `u32` tag+round.
#[derive(Clone, Copy, Debug)]
struct PackedArrive {
    to: Rank,
    from: Rank,
    payload: u32,
}

#[inline]
fn pack_payload(p: Payload) -> u32 {
    match p {
        Payload::Tree => 0,
        Payload::Correction => 1,
        Payload::Ack => 2,
        Payload::Gossip { round } => {
            // 30 bits of round; a legitimate run is nowhere near (each
            // hop increments by one), so fail loudly rather than wrap.
            assert!(round < 1 << 30, "gossip round overflows packed event");
            3 | (round << 2)
        }
    }
}

#[inline]
fn unpack_payload(v: u32) -> Payload {
    match v & 3 {
        0 => Payload::Tree,
        1 => Payload::Correction,
        2 => Payload::Ack,
        _ => Payload::Gossip { round: v >> 2 },
    }
}

/// One time step's pending events, one FIFO lane per ordering class.
/// Lanes are *typed*: the three poll-like classes store a bare 4-byte
/// rank (16 events per cache line), arrivals store [`PackedArrive`].
#[derive(Debug, Default)]
struct Bucket {
    /// Class 0: deliveries.
    arrive: Vec<PackedArrive>,
    /// Class 1: receive-port completions.
    recv_done: Vec<Rank>,
    /// Class 2: sender-port frees.
    sender_free: Vec<Rank>,
    /// Class 3: protocol wake-ups.
    repoll: Vec<Rank>,
}

/// Lane vectors no bucket is using, most recently retired last.
#[derive(Debug, Default)]
struct LanePool {
    arrive: Vec<Vec<PackedArrive>>,
    /// Shared by the three rank lanes.
    ranks: Vec<Vec<Rank>>,
}

/// Empty `lane` and hand its storage, if it has any, to `spare`.
fn retire<T>(lane: &mut Vec<T>, spare: &mut Vec<Vec<T>>) {
    if lane.capacity() != 0 {
        lane.clear();
        spare.push(std::mem::take(lane));
    }
}

/// Append to `lane`, which takes the warmest spare if it has no storage.
#[inline]
fn append<T>(lane: &mut Vec<T>, spare: &mut Vec<Vec<T>>, item: T) {
    if lane.capacity() == 0 {
        adopt(lane, spare);
    }
    lane.push(item);
}

/// Once per lane and time step, against a push per event: kept out of
/// line (as is [`Bucket::retire`]) so that the per-event code of `push`
/// and `pop` stays what it is without a pool — inlined, the two cost
/// the cache-resident P = 1024 repetition 1–2 %.
#[cold]
#[inline(never)]
fn adopt<T>(lane: &mut Vec<T>, spare: &mut Vec<Vec<T>>) {
    if let Some(warm) = spare.pop() {
        *lane = warm;
    }
}

impl Bucket {
    /// Drop every event and give the lanes' storage back to `pool`.
    #[inline(never)]
    fn retire(&mut self, pool: &mut LanePool) {
        retire(&mut self.arrive, &mut pool.arrive);
        retire(&mut self.recv_done, &mut pool.ranks);
        retire(&mut self.sender_free, &mut pool.ranks);
        retire(&mut self.repoll, &mut pool.ranks);
    }

    /// Append an event to its class lane.
    #[inline]
    fn push(&mut self, rank: Rank, kind: EventKind, pool: &mut LanePool) {
        match kind {
            EventKind::Arrive { from, payload } => {
                let packed = PackedArrive {
                    to: rank,
                    from,
                    payload: pack_payload(payload),
                };
                append(&mut self.arrive, &mut pool.arrive, packed);
            }
            EventKind::RecvDone => append(&mut self.recv_done, &mut pool.ranks, rank),
            EventKind::SenderFree => append(&mut self.sender_free, &mut pool.ranks, rank),
            EventKind::Repoll => append(&mut self.repoll, &mut pool.ranks, rank),
        }
    }

    /// Entry `pos` of lane `lane`, or `None` past the lane's end.
    fn get(&self, lane: usize, pos: usize) -> Option<(Rank, EventKind)> {
        match lane {
            0 => self.arrive.get(pos).map(|a| {
                (
                    a.to,
                    EventKind::Arrive {
                        from: a.from,
                        payload: unpack_payload(a.payload),
                    },
                )
            }),
            1 => self.recv_done.get(pos).map(|&r| (r, EventKind::RecvDone)),
            2 => self
                .sender_free
                .get(pos)
                .map(|&r| (r, EventKind::SenderFree)),
            _ => self.repoll.get(pos).map(|&r| (r, EventKind::Repoll)),
        }
    }
}

/// An event parked beyond the current window.
#[derive(Clone, Copy, Debug)]
struct Overflow {
    time: Time,
    seq: u64,
    rank: Rank,
    kind: EventKind,
}

impl PartialEq for Overflow {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Overflow {}
impl PartialOrd for Overflow {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Overflow {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.kind.class(), self.seq).cmp(&(other.time, other.kind.class(), other.seq))
    }
}

/// The queue. [`EventQueue::reset`] retains every allocation (in the
/// lane pool), so a reused queue runs allocation-free once warm.
pub(crate) struct EventQueue {
    /// Absolute time of `buckets[0]`.
    base: u64,
    /// Bucket currently being drained.
    cursor: usize,
    /// Class lane currently being drained within the cursor bucket.
    lane: usize,
    /// Next position within that lane.
    pos: usize,
    /// Pending (pushed, not yet popped) events resident in buckets.
    len: usize,
    buckets: Vec<Bucket>,
    spare: LanePool,
    overflow: BinaryHeap<Reverse<Overflow>>,
    /// Monotone push counter, reproducing the heap's tie-break.
    seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> EventQueue {
        EventQueue {
            base: 0,
            cursor: 0,
            lane: 0,
            pos: 0,
            len: 0,
            buckets: (0..WINDOW).map(|_| Bucket::default()).collect(),
            spare: LanePool::default(),
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Empty the queue for a fresh run, keeping all backing storage.
    pub(crate) fn reset(&mut self) {
        // A bucket has storage only while it has events, and those
        // behind the cursor are drained: a run that emptied the queue
        // leaves at most the cursor bucket to retire, one that was cut
        // short everything from there on.
        let end = if self.len == 0 {
            WINDOW.min(self.cursor + 1)
        } else {
            WINDOW
        };
        for bucket in &mut self.buckets[self.cursor..end] {
            bucket.retire(&mut self.spare);
        }
        self.overflow.clear();
        self.base = 0;
        self.cursor = 0;
        self.lane = 0;
        self.pos = 0;
        self.len = 0;
        self.seq = 0;
    }

    /// Schedule an event. Must not be earlier than the bucket being
    /// drained — guaranteed by the LogP invariants (see module docs).
    pub(crate) fn push(&mut self, time: Time, rank: Rank, kind: EventKind) {
        self.seq += 1;
        let idx = time
            .steps()
            .checked_sub(self.base)
            .expect("event scheduled before the window base");
        if idx < WINDOW as u64 {
            let b = idx as usize;
            // Strictly-future pushes can never land behind the drain
            // point; only saturated `Time::NEVER` arithmetic could, and
            // that must fail loudly rather than lose the event.
            assert!(
                b > self.cursor || (b == self.cursor && kind.class() as usize >= self.lane),
                "event scheduled into an already-drained lane (time did not advance)"
            );
            self.buckets[b].push(rank, kind, &mut self.spare);
            self.len += 1;
        } else {
            self.overflow.push(Reverse(Overflow {
                time,
                seq: self.seq,
                rank,
                kind,
            }));
        }
    }

    /// Next event in `(time, class, seq)` order, or `None` when drained.
    pub(crate) fn pop(&mut self) -> Option<(Time, Rank, EventKind)> {
        loop {
            if self.len == 0 {
                // Window exhausted: whatever the cursor bucket still
                // holds is consumed. Jump straight to the overflow.
                if self.cursor < WINDOW {
                    self.buckets[self.cursor].retire(&mut self.spare);
                    self.pos = 0;
                }
                if self.overflow.is_empty() {
                    return None;
                }
                self.rebase();
            }
            while self.lane < LANES {
                if let Some((rank, kind)) = self.buckets[self.cursor].get(self.lane, self.pos) {
                    self.pos += 1;
                    self.len -= 1;
                    return Some((Time::new(self.base + self.cursor as u64), rank, kind));
                }
                self.lane += 1;
                self.pos = 0;
            }
            // Bucket fully drained: its lanes go back to the pool.
            // (Consumed events stay in the lane vectors until this
            // point.)
            self.buckets[self.cursor].retire(&mut self.spare);
            self.lane = 0;
            self.pos = 0;
            self.cursor += 1;
            if self.cursor == WINDOW {
                debug_assert_eq!(self.len, 0, "events counted but never reachable");
                if self.overflow.is_empty() {
                    return None;
                }
                self.rebase();
            }
        }
    }

    /// Move the window to the earliest overflow time and pull every
    /// overflow event that now fits back into buckets. Heap pop order is
    /// `(time, class, seq)`, so lane append order stays sequence order.
    fn rebase(&mut self) {
        debug_assert_eq!(self.len, 0);
        self.base = self
            .overflow
            .peek()
            .expect("rebase requires overflow events")
            .0
            .time
            .steps();
        self.cursor = 0;
        self.lane = 0;
        self.pos = 0;
        while let Some(Reverse(ev)) = self.overflow.peek() {
            let idx = ev.time.steps() - self.base;
            if idx >= WINDOW as u64 {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("just peeked");
            self.buckets[idx as usize].push(ev.rank, ev.kind, &mut self.spare);
            self.len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the original binary heap with explicit
    /// `(time, class, seq)` ordering.
    #[derive(Clone, Copy, Debug)]
    struct ModelEvent {
        time: Time,
        seq: u64,
        rank: Rank,
        kind: EventKind,
    }
    impl PartialEq for ModelEvent {
        fn eq(&self, other: &Self) -> bool {
            self.seq == other.seq
        }
    }
    impl Eq for ModelEvent {}
    impl PartialOrd for ModelEvent {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for ModelEvent {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.time, self.kind.class(), self.seq).cmp(&(
                other.time,
                other.kind.class(),
                other.seq,
            ))
        }
    }

    struct Model {
        heap: BinaryHeap<Reverse<ModelEvent>>,
        seq: u64,
    }
    impl Model {
        fn new() -> Model {
            Model {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn push(&mut self, time: Time, rank: Rank, kind: EventKind) {
            self.seq += 1;
            self.heap.push(Reverse(ModelEvent {
                time,
                seq: self.seq,
                rank,
                kind,
            }));
        }
        fn pop(&mut self) -> Option<(Time, Rank, EventKind)> {
            self.heap.pop().map(|Reverse(e)| (e.time, e.rank, e.kind))
        }
    }

    /// A deterministic pseudo-random stream (no external RNG needed).
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn kind_for(i: u64) -> EventKind {
        match i % 4 {
            0 => EventKind::SenderFree,
            1 => EventKind::Arrive {
                from: (i % 7) as Rank,
                payload: Payload::Tree,
            },
            2 => EventKind::RecvDone,
            _ => EventKind::Repoll,
        }
    }

    /// Drive queue and model through an identical interleaved
    /// push/pop schedule where every push is strictly in the future —
    /// the engine's invariant — and require identical pop streams.
    fn lockstep(time_spread: u64, label: &str) {
        let mut q = EventQueue::new();
        let mut m = Model::new();
        for r in 0..16u32 {
            q.push(Time::ZERO, r, EventKind::SenderFree);
            m.push(Time::ZERO, r, EventKind::SenderFree);
        }
        let mut i = 0u64;
        loop {
            let a = q.pop();
            let b = m.pop();
            match (a, b) {
                (None, None) => break,
                (Some((ta, ra, ka)), Some((tb, rb, kb))) => {
                    assert_eq!((ta, ra, ka), (tb, rb, kb), "{label}: divergence at pop {i}");
                    // Push 1–2 strictly-future events per pop (so the
                    // schedule cannot die out early), capped so it
                    // terminates.
                    if i < 4000 {
                        let n = 1 + mix(i) % 2;
                        for j in 0..n {
                            let h = mix(i * 3 + j);
                            let dt = 1 + h % time_spread;
                            let rank = (h >> 8) as u32 % 16;
                            let kind = kind_for(h >> 16);
                            q.push(ta + dt, rank, kind);
                            m.push(tb + dt, rank, kind);
                        }
                    }
                    i += 1;
                }
                (a, b) => panic!("{label}: one queue drained early: {a:?} vs {b:?}"),
            }
        }
        assert!(i > 4000, "{label}: schedule must actually exercise pops");
    }

    #[test]
    fn matches_heap_order_within_window() {
        lockstep(8, "dense");
    }

    #[test]
    fn matches_heap_order_across_window_overflow() {
        // Deltas far beyond WINDOW force constant overflow + rebase.
        lockstep(5000, "sparse");
    }

    #[test]
    fn never_scheduled_events_surface_last() {
        let mut q = EventQueue::new();
        q.push(Time::NEVER, 3, EventKind::Repoll);
        q.push(Time::ZERO, 1, EventKind::SenderFree);
        q.push(Time::new(2000), 2, EventKind::RecvDone);
        assert_eq!(q.pop(), Some((Time::ZERO, 1, EventKind::SenderFree)));
        assert_eq!(q.pop(), Some((Time::new(2000), 2, EventKind::RecvDone)));
        assert_eq!(q.pop(), Some((Time::NEVER, 3, EventKind::Repoll)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_orders_by_class_then_fifo() {
        let mut q = EventQueue::new();
        let t = Time::new(5);
        q.push(t, 9, EventKind::Repoll);
        q.push(t, 8, EventKind::SenderFree);
        q.push(t, 7, EventKind::RecvDone);
        q.push(
            t,
            6,
            EventKind::Arrive {
                from: 0,
                payload: Payload::Tree,
            },
        );
        q.push(t, 5, EventKind::RecvDone);
        let order: Vec<Rank> = std::iter::from_fn(|| q.pop()).map(|(_, r, _)| r).collect();
        assert_eq!(order, vec![6, 7, 5, 8, 9]);
    }

    impl EventQueue {
        /// `(arrival lanes, rank lanes)` that hold storage, as
        /// `[in buckets, spare]`.
        fn lanes_with_storage(&self) -> ([usize; 2], [usize; 2]) {
            let arrive = self.buckets.iter().filter(|b| b.arrive.capacity() != 0);
            let ranks = self
                .buckets
                .iter()
                .flat_map(|b| [&b.recv_done, &b.sender_free, &b.repoll])
                .filter(|lane| lane.capacity() != 0);
            (
                [arrive.count(), self.spare.arrive.len()],
                [ranks.count(), self.spare.ranks.len()],
            )
        }
    }

    #[test]
    fn lane_storage_is_bounded_by_the_steps_live_at_once() {
        use crate::{FaultPlan, RunArena, Simulation};
        use ct_core::correction::CorrectionKind;
        use ct_core::protocol::BroadcastSpec;
        use ct_core::tree::TreeKind;
        use ct_logp::LogP;

        let p = 4096;
        let logp = LogP::PAPER;
        let spec = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let mut arena = RunArena::new();
        for seed in [1, 2, 3] {
            let plan = FaultPlan::random_count(p, p / 100, seed).unwrap();
            let sim = Simulation::builder(p, logp).faults(plan).build();
            let out = sim.run_reusable(&spec, &mut arena).unwrap();
            assert!(out.all_live_colored());
            assert!(out.quiescence.steps() > 40, "many more steps than lanes");
            // Nothing stays in a drained bucket. Arrivals are pending
            // for the o+L+1 steps t ..= t+o+L at once, port events for
            // the two steps t and t+o (a `RecvDone` and a `SenderFree`
            // lane each): that is all the storage there is, and a
            // second and third run do not add to it.
            let (arrive, ranks) = arena.queue.lanes_with_storage();
            assert_eq!(
                arrive,
                [0, (logp.o() + logp.l() + 1) as usize],
                "seed {seed}"
            );
            assert_eq!(ranks, [0, 4], "seed {seed}");
        }
    }

    #[test]
    fn a_push_after_reset_writes_to_the_warmest_spare_lane() {
        let mut q = EventQueue::new();
        for t in 1..=3 {
            q.push(Time::new(t), 7, EventKind::SenderFree);
        }
        while q.pop().is_some() {}
        assert_eq!(q.lanes_with_storage(), ([0, 0], [0, 3]));
        q.reset();
        let warmest = q.spare.ranks.last().expect("three spares").as_ptr();
        q.push(Time::new(9), 1, EventKind::RecvDone);
        assert_eq!(
            q.buckets[9].recv_done.as_ptr(),
            warmest,
            "no new allocation"
        );
        assert_eq!(q.lanes_with_storage(), ([0, 0], [1, 2]));
        // A run cut short gives its pending lanes back on reset.
        q.reset();
        assert_eq!(q.lanes_with_storage(), ([0, 0], [0, 3]));
        assert_eq!(q.spare.ranks.last().unwrap().as_ptr(), warmest);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rebased_windows_refill_from_the_pool() {
        // Events more than a window apart: each rebase finds the lane
        // the previous window retired, so one lane serves them all.
        let mut q = EventQueue::new();
        for (i, t) in [0, 5_000, 10_000, u64::MAX].into_iter().enumerate() {
            q.push(Time::new(t), i as Rank, EventKind::Repoll);
        }
        for i in 0..4 {
            assert_eq!(q.pop().map(|(_, r, _)| r), Some(i));
            assert_eq!(q.lanes_with_storage(), ([0, 0], [1, 0]), "pop {i}");
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.lanes_with_storage(), ([0, 0], [0, 1]));
    }

    #[test]
    fn reset_restores_a_pristine_queue() {
        let mut q = EventQueue::new();
        q.push(Time::new(1), 1, EventKind::SenderFree);
        q.push(Time::new(90_000), 2, EventKind::Repoll);
        let _ = q.pop();
        q.reset();
        assert_eq!(q.pop(), None);
        // And it still orders correctly after reuse.
        q.push(Time::new(3), 4, EventKind::RecvDone);
        q.push(Time::new(2), 5, EventKind::SenderFree);
        assert_eq!(q.pop(), Some((Time::new(2), 5, EventKind::SenderFree)));
        assert_eq!(q.pop(), Some((Time::new(3), 4, EventKind::RecvDone)));
        assert_eq!(q.pop(), None);
    }
}
