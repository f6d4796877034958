//! The calendar (bucket) event queue behind the engine.
//!
//! The engine originally kept its pending events in a binary heap
//! ordered by `(time, class, seq)`. The LogP invariants (`L ≥ 1`,
//! `o ≥ 1`, validated in `ct-logp`) guarantee that every event scheduled
//! while time `t` runs lies strictly in the future: `SenderFree` and
//! `RecvDone` land at `t + o`, `Arrive` at `t + o + L`, and a `Repoll`
//! at `t' ≤ t` is rejected as [`SimError::NonAdvancingWait`]
//! (`crate::SimError`). That makes a calendar queue *exactly*
//! order-equivalent to the heap — no event can join a time step that has
//! begun — and it lets the queue hand the engine a time step at once
//! instead of an event at a time.
//!
//! Layout: a window of [`WINDOW`] consecutive absolute time steps, one
//! [`Bucket`] per step, four FIFO lanes per bucket (one per same-time
//! ordering class). Lanes are typed for density: since the lane itself
//! encodes the class, the three poll-like lanes store bare 4-byte ranks
//! and only arrivals carry sender + packed payload (12 bytes) — a cache
//! line holds 16 pending polls or 5 arrivals. Within a lane, append
//! order *is* sequence order, so walking the four lanes of a bucket in
//! class order reproduces the heap's `(class, seq)` tie-break. Events
//! beyond the window (distant `WaitUntil`s, `Time::NEVER`, anything
//! under `o + L ≥ 1024`) overflow into a small binary heap with the
//! original `(time, class, seq)` ordering — `seq` counts overflow pushes
//! only, an in-window lane needs none; when the window empties the queue
//! re-bases onto the earliest overflow time and drains the now-in-window
//! prefix back into buckets, preserving that order.
//!
//! Hand-out: [`EventQueue::next_step`] takes the next non-empty bucket
//! out of the window *whole* and the engine walks its lanes as slices.
//! From then on the bucket's time has begun: [`EventQueue::push`]
//! asserts that its target is a strictly later bucket.
//!
//! Step-owned lanes: only the step at `t` can schedule a `RecvDone` or a
//! `SenderFree` at `t + o` or an `Arrive` at `t + o + L` (the `t = 0`
//! polls precede every step), so those three lanes are empty when the
//! step begins and nobody else appends to them while it runs. The engine
//! fills them as three local vectors ([`StepOutput`]) and
//! [`EventQueue::finish_step`] installs each as the whole lane, asserting
//! that the slot held nothing. Only `Repoll` and the initial polls go
//! through the general [`EventQueue::push`].
//!
//! Storage: a bucket owns lane vectors only while it has events to
//! hold. A finished step hands its vectors to a LIFO spare list
//! ([`LanePool`]) and an output lane, or the first push into a lane
//! without storage, takes the most recently retired one, so the queue
//! retains about `o + L + 2` buckets' worth of lanes — the steps that are
//! live at once, each as wide as the widest step — instead of one set
//! for every time step a run ever reached, and every append writes to
//! memory that was read a step or two ago.

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

/// An arrival packed to 12 bytes (vs 16 for `(Rank, EventKind)`): the
/// lane already encodes the event class, so only `Arrive` needs more
/// than the destination rank, and its payload fits a `u32` tag+round.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackedArrive {
    /// Receiving rank.
    pub(crate) to: Rank,
    /// Sending rank.
    pub(crate) from: Rank,
    payload: u32,
}

impl PackedArrive {
    #[inline]
    pub(crate) fn new(to: Rank, from: Rank, payload: Payload) -> PackedArrive {
        let payload = match payload {
            Payload::Tree => 0,
            Payload::Correction => 1,
            Payload::Ack => 2,
            Payload::Gossip { round } => {
                // 30 bits of round; a legitimate run is nowhere near (each
                // hop increments by one), so fail loudly rather than wrap.
                assert!(round < 1 << 30, "gossip round overflows packed event");
                3 | (round << 2)
            }
        };
        PackedArrive { to, from, payload }
    }

    /// The message content.
    #[inline]
    pub(crate) fn payload(self) -> Payload {
        match self.payload & 3 {
            0 => Payload::Tree,
            1 => Payload::Correction,
            2 => Payload::Ack,
            _ => Payload::Gossip {
                round: self.payload >> 2,
            },
        }
    }
}

/// One time step's events, one FIFO lane per ordering class, to be
/// walked in field order. Lanes are *typed*: the three poll-like classes
/// store a bare 4-byte rank (16 events per cache line), arrivals store
/// [`PackedArrive`].
#[derive(Debug, Default)]
pub(crate) struct Bucket {
    /// Class 0: deliveries.
    pub(crate) arrive: Vec<PackedArrive>,
    /// Class 1: receive-port completions.
    pub(crate) recv_done: Vec<Rank>,
    /// Class 2: sender-port frees.
    pub(crate) sender_free: Vec<Rank>,
    /// Class 3: protocol wake-ups.
    pub(crate) repoll: Vec<Rank>,
}

/// The three lanes that belong to the running step alone (module docs):
/// port events at `now + o`, arrivals at `now + o + L`. Drawn from the
/// pool by [`EventQueue::output_lanes`], appended to by the engine,
/// installed by [`EventQueue::finish_step`].
#[derive(Debug, Default)]
pub(crate) struct StepOutput {
    /// `RecvDone` at `now + o`.
    pub(crate) recv_done: Vec<Rank>,
    /// `SenderFree` at `now + o`.
    pub(crate) sender_free: Vec<Rank>,
    /// `Arrive` at `now + o + L`.
    pub(crate) arrive: Vec<PackedArrive>,
}

/// Lane vectors no bucket is using, most recently retired last.
#[derive(Debug, Default)]
struct LanePool {
    arrive: Vec<Vec<PackedArrive>>,
    /// Shared by the three rank lanes.
    ranks: Vec<Vec<Rank>>,
}

/// Empty `lane` and hand its storage, if it has any, to `spare`.
fn retire<T>(mut lane: Vec<T>, spare: &mut Vec<Vec<T>>) {
    if lane.capacity() != 0 {
        lane.clear();
        spare.push(lane);
    }
}

/// Append to `lane`, which takes the warmest spare if it has no storage.
#[inline]
fn append<T>(lane: &mut Vec<T>, spare: &mut Vec<Vec<T>>, item: T) {
    if lane.capacity() == 0 {
        if let Some(warm) = spare.pop() {
            *lane = warm;
        }
    }
    lane.push(item);
}

impl Bucket {
    /// Events in all four lanes.
    pub(crate) fn len(&self) -> usize {
        self.arrive.len() + self.recv_done.len() + self.sender_free.len() + self.repoll.len()
    }

    /// Drop every event and give the lanes' storage back to `pool`.
    fn retire(self, pool: &mut LanePool) {
        retire(self.arrive, &mut pool.arrive);
        retire(self.recv_done, &mut pool.ranks);
        retire(self.sender_free, &mut pool.ranks);
        retire(self.repoll, &mut pool.ranks);
    }

    /// Append an event to its class lane.
    fn push(&mut self, rank: Rank, kind: EventKind, pool: &mut LanePool) {
        match kind {
            EventKind::Arrive { from, payload } => {
                let packed = PackedArrive::new(rank, from, payload);
                append(&mut self.arrive, &mut pool.arrive, packed);
            }
            EventKind::RecvDone => append(&mut self.recv_done, &mut pool.ranks, rank),
            EventKind::SenderFree => append(&mut self.sender_free, &mut pool.ranks, rank),
            EventKind::Repoll => append(&mut self.repoll, &mut pool.ranks, rank),
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
    /// First bucket not handed out yet: every bucket before it is empty
    /// and its time has begun.
    cursor: usize,
    /// Pending events resident in buckets.
    len: usize,
    buckets: Vec<Bucket>,
    spare: LanePool,
    overflow: BinaryHeap<Reverse<Overflow>>,
    /// Counts overflow pushes: the heap's tie-break. (In-window lanes
    /// are FIFO and need none.)
    seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> EventQueue {
        EventQueue {
            base: 0,
            cursor: 0,
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
        // behind the cursor were handed out: a run that emptied the
        // window leaves nothing to retire, one that was cut short
        // everything from the cursor on.
        if self.len != 0 {
            for bucket in &mut self.buckets[self.cursor..] {
                std::mem::take(bucket).retire(&mut self.spare);
            }
        }
        self.overflow.clear();
        self.base = 0;
        self.cursor = 0;
        self.len = 0;
        self.seq = 0;
    }

    /// The index of `time`'s bucket, or `None` beyond the window. `time` must
    /// not have begun — guaranteed by the LogP invariants (module docs).
    fn bucket_of(&self, time: Time) -> Option<usize> {
        let idx = time
            .steps()
            .checked_sub(self.base)
            .expect("event scheduled before the window base");
        if idx >= WINDOW as u64 {
            return None;
        }
        // Strictly-future scheduling can never land at or behind the
        // running step; only saturated `Time::NEVER` arithmetic could,
        // and that must fail loudly rather than lose the event.
        assert!(
            idx as usize >= self.cursor,
            "event scheduled into a time step that has begun (time did not advance)"
        );
        Some(idx as usize)
    }

    fn park(&mut self, time: Time, rank: Rank, kind: EventKind) {
        self.seq += 1;
        self.overflow.push(Reverse(Overflow {
            time,
            seq: self.seq,
            rank,
            kind,
        }));
    }

    /// Schedule one event at a time that has not begun.
    pub(crate) fn push(&mut self, time: Time, rank: Rank, kind: EventKind) {
        match self.bucket_of(time) {
            Some(b) => {
                self.buckets[b].push(rank, kind, &mut self.spare);
                self.len += 1;
            }
            None => self.park(time, rank, kind),
        }
    }

    /// Begin the earliest pending time step: its time and its four
    /// lanes, taken out of the window. `None` when nothing is pending.
    /// Give the lanes back through [`EventQueue::finish_step`].
    pub(crate) fn next_step(&mut self) -> Option<(Time, Bucket)> {
        if self.len == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            self.rebase();
        }
        // `len > 0`: a bucket at or after the cursor holds events.
        let mut idx = self.cursor;
        while self.buckets[idx].len() == 0 {
            idx += 1;
        }
        let lanes = std::mem::take(&mut self.buckets[idx]);
        self.len -= lanes.len();
        self.cursor = idx + 1;
        Some((Time::new(self.base + idx as u64), lanes))
    }

    /// Three empty lanes for the running step to fill, the warmest
    /// spares first.
    pub(crate) fn output_lanes(&mut self) -> StepOutput {
        StepOutput {
            recv_done: self.spare.ranks.pop().unwrap_or_default(),
            sender_free: self.spare.ranks.pop().unwrap_or_default(),
            arrive: self.spare.arrive.pop().unwrap_or_default(),
        }
    }

    /// End the running step: its drained `lanes` return to the pool and
    /// its output becomes the `RecvDone` and `SenderFree` lanes of
    /// `port_time` and the arrival lane of `arrive_time`, whole.
    pub(crate) fn finish_step(
        &mut self,
        lanes: Bucket,
        out: StepOutput,
        port_time: Time,
        arrive_time: Time,
    ) {
        lanes.retire(&mut self.spare);
        self.install_ranks(port_time, EventKind::RecvDone, out.recv_done);
        self.install_ranks(port_time, EventKind::SenderFree, out.sender_free);
        self.install_arrivals(arrive_time, out.arrive);
    }

    /// Make `lane` the whole `kind` lane (`RecvDone` or `SenderFree`) of
    /// `time`; event by event into the overflow beyond the window.
    fn install_ranks(&mut self, time: Time, kind: EventKind, lane: Vec<Rank>) {
        if lane.is_empty() {
            return retire(lane, &mut self.spare.ranks);
        }
        match self.bucket_of(time) {
            Some(b) => {
                let slot = match kind {
                    EventKind::RecvDone => &mut self.buckets[b].recv_done,
                    _ => &mut self.buckets[b].sender_free,
                };
                assert!(slot.capacity() == 0, "a step-owned lane was not empty");
                self.len += lane.len();
                *slot = lane;
            }
            None => {
                for &rank in &lane {
                    self.park(time, rank, kind);
                }
                retire(lane, &mut self.spare.ranks);
            }
        }
    }

    /// [`EventQueue::install_ranks`] for the arrival lane of `time`.
    fn install_arrivals(&mut self, time: Time, lane: Vec<PackedArrive>) {
        if lane.is_empty() {
            return retire(lane, &mut self.spare.arrive);
        }
        match self.bucket_of(time) {
            Some(b) => {
                let slot = &mut self.buckets[b].arrive;
                assert!(slot.capacity() == 0, "a step-owned lane was not empty");
                self.len += lane.len();
                *slot = lane;
            }
            None => {
                for a in &lane {
                    let kind = EventKind::Arrive {
                        from: a.from,
                        payload: a.payload(),
                    };
                    self.park(time, a.to, kind);
                }
                retire(lane, &mut self.spare.arrive);
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

    /// The events of a step in the order the engine walks them.
    fn walk(time: Time, lanes: &Bucket) -> Vec<(Time, Rank, EventKind)> {
        fn ranks(lane: &[Rank], kind: EventKind) -> impl Iterator<Item = (Rank, EventKind)> + '_ {
            lane.iter().map(move |&rank| (rank, kind))
        }
        let arrive = lanes.arrive.iter().map(|a| {
            let (from, payload) = (a.from, a.payload());
            (a.to, EventKind::Arrive { from, payload })
        });
        arrive
            .chain(ranks(&lanes.recv_done, EventKind::RecvDone))
            .chain(ranks(&lanes.sender_free, EventKind::SenderFree))
            .chain(ranks(&lanes.repoll, EventKind::Repoll))
            .map(|(rank, kind)| (time, rank, kind))
            .collect()
    }

    impl EventQueue {
        /// Run the next step as one that schedules nothing.
        fn pop_step(&mut self) -> Option<Vec<(Time, Rank, EventKind)>> {
            let (time, lanes) = self.next_step()?;
            let events = walk(time, &lanes);
            self.finish_step(lanes, StepOutput::default(), time, time);
            Some(events)
        }

        /// Every pending event, step by step.
        fn drain(&mut self) -> Vec<(Time, Rank, EventKind)> {
            std::iter::from_fn(|| self.pop_step()).flatten().collect()
        }
    }

    /// Drive queue and model through an identical schedule where every
    /// event scheduled lies strictly in the future — the engine's
    /// invariant — and require each step's four lanes to equal the
    /// model's `(time, class, seq)` drain. With `ports: None` every
    /// event goes through `push` at a random distance up to
    /// `time_spread`; with `Some((o, wire))` only `Repoll` does, and the
    /// other three kinds are the step's own output lanes, as in the
    /// engine.
    fn lockstep(time_spread: u64, ports: Option<(u64, u64)>, label: &str) {
        let mut q = EventQueue::new();
        let mut m = Model::new();
        for r in 0..16u32 {
            q.push(Time::ZERO, r, EventKind::SenderFree);
            m.push(Time::ZERO, r, EventKind::SenderFree);
        }
        let (o, wire) = ports.unwrap_or((1, 1));
        let mut i = 0u64;
        while let Some((now, lanes)) = q.next_step() {
            let mut out = q.output_lanes();
            for event in walk(now, &lanes) {
                assert_eq!(Some(event), m.pop(), "{label}: divergence at event {i}");
                // Schedule 1–2 strictly-future events per event (so the
                // schedule cannot die out early), capped so it
                // terminates.
                let n = if i < 4000 { 1 + mix(i) % 2 } else { 0 };
                for j in 0..n {
                    let h = mix(i * 3 + j);
                    let rank = (h >> 8) as u32 % 16;
                    let kind = kind_for(h >> 16);
                    let at = match (ports, kind) {
                        (None, _) | (_, EventKind::Repoll) => {
                            let at = now + (1 + h % time_spread);
                            q.push(at, rank, kind);
                            at
                        }
                        (_, EventKind::RecvDone) => {
                            out.recv_done.push(rank);
                            now + o
                        }
                        (_, EventKind::SenderFree) => {
                            out.sender_free.push(rank);
                            now + o
                        }
                        (_, EventKind::Arrive { from, payload }) => {
                            out.arrive.push(PackedArrive::new(rank, from, payload));
                            now + wire
                        }
                    };
                    m.push(at, rank, kind);
                }
                i += 1;
            }
            q.finish_step(lanes, out, now + o, now + wire);
        }
        assert_eq!(m.pop(), None, "{label}: the queue drained early");
        assert!(i > 4000, "{label}: schedule must actually exercise steps");
    }

    #[test]
    fn matches_heap_order_within_window() {
        lockstep(8, None, "dense");
        lockstep(8, Some((1, 3)), "dense, step-owned lanes");
        lockstep(8, Some((3, 10)), "dense, step-owned lanes, o > 1");
    }

    #[test]
    fn matches_heap_order_across_window_overflow() {
        // Deltas far beyond WINDOW force constant overflow + rebase.
        lockstep(5000, None, "sparse");
        lockstep(5000, Some((1, 3)), "sparse, step-owned lanes");
        // o + L beyond the window: every installed arrival lane goes to
        // the overflow event by event.
        lockstep(8, Some((1, 1501)), "arrivals beyond the window");
    }

    #[test]
    fn never_scheduled_events_surface_last() {
        let mut q = EventQueue::new();
        q.push(Time::NEVER, 3, EventKind::Repoll);
        q.push(Time::ZERO, 1, EventKind::SenderFree);
        q.push(Time::new(2000), 2, EventKind::RecvDone);
        assert_eq!(
            q.drain(),
            vec![
                (Time::ZERO, 1, EventKind::SenderFree),
                (Time::new(2000), 2, EventKind::RecvDone),
                (Time::NEVER, 3, EventKind::Repoll),
            ]
        );
        assert!(q.next_step().is_none());
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
        let order: Vec<Rank> = q.drain().into_iter().map(|(_, r, _)| r).collect();
        assert_eq!(order, vec![6, 7, 5, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "a time step that has begun")]
    fn a_push_into_the_running_step_is_rejected() {
        let mut q = EventQueue::new();
        q.push(Time::new(5), 1, EventKind::SenderFree);
        let (now, _lanes) = q.next_step().expect("one step pending");
        q.push(now, 2, EventKind::Repoll);
    }

    #[test]
    #[should_panic(expected = "a step-owned lane was not empty")]
    fn an_install_into_a_lane_that_holds_events_is_rejected() {
        let mut q = EventQueue::new();
        q.push(Time::new(5), 1, EventKind::SenderFree);
        q.push(Time::new(7), 2, EventKind::RecvDone);
        let (_, lanes) = q.next_step().expect("the step at 5");
        let mut out = q.output_lanes();
        out.recv_done.push(3);
        q.finish_step(lanes, out, Time::new(7), Time::new(8));
    }

    impl EventQueue {
        /// `(arrival lanes, rank lanes)` that hold storage, as
        /// `[in buckets, spare]`.
        pub(crate) fn lanes_with_storage(&self) -> ([usize; 2], [usize; 2]) {
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
        assert_eq!(q.drain().len(), 3);
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
        assert!(q.next_step().is_none());
    }

    #[test]
    fn a_steps_lanes_are_held_until_it_finishes_and_its_output_is_the_warmest() {
        let mut q = EventQueue::new();
        q.push(Time::new(1), 7, EventKind::SenderFree);
        assert_eq!(q.drain().len(), 1);
        q.push(Time::new(2), 7, EventKind::SenderFree);
        let (now, lanes) = q.next_step().expect("the step at 2");
        let drained = lanes.sender_free.as_ptr();
        // Taken out of the window: neither in a bucket nor spare.
        assert_eq!(q.lanes_with_storage(), ([0, 0], [0, 0]));
        let mut out = q.output_lanes();
        out.arrive.push(PackedArrive::new(1, 7, Payload::Tree));
        q.finish_step(lanes, out, now + 1, now + 3);
        assert_eq!(q.lanes_with_storage(), ([1, 0], [0, 1]));
        assert_eq!(q.output_lanes().recv_done.as_ptr(), drained);
    }

    #[test]
    fn rebased_windows_refill_from_the_pool() {
        // Events more than a window apart: each rebase finds the lane
        // the previous window retired, so one lane serves them all.
        let mut q = EventQueue::new();
        for (i, t) in [0, 5_000, 10_000, u64::MAX].into_iter().enumerate() {
            q.push(Time::new(t), i as Rank, EventKind::Repoll);
        }
        let mut lane = None;
        for i in 0..4 {
            let (now, lanes) = q.next_step().expect("four steps");
            assert_eq!(lanes.repoll, [i]);
            assert_eq!(
                *lane.get_or_insert(lanes.repoll.as_ptr()),
                lanes.repoll.as_ptr()
            );
            q.finish_step(lanes, StepOutput::default(), now, now);
            assert_eq!(q.lanes_with_storage(), ([0, 0], [0, 1]), "step {i}");
        }
        assert!(q.next_step().is_none());
    }

    #[test]
    fn reset_restores_a_pristine_queue() {
        let mut q = EventQueue::new();
        q.push(Time::new(1), 1, EventKind::SenderFree);
        q.push(Time::new(90_000), 2, EventKind::Repoll);
        let _ = q.pop_step();
        q.reset();
        assert!(q.next_step().is_none());
        // And it still orders correctly after reuse.
        q.push(Time::new(3), 4, EventKind::RecvDone);
        q.push(Time::new(2), 5, EventKind::SenderFree);
        assert_eq!(
            q.drain(),
            vec![
                (Time::new(2), 5, EventKind::SenderFree),
                (Time::new(3), 4, EventKind::RecvDone),
            ]
        );
    }
}
