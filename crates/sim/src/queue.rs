//! The event queue behind the engine: one ordered map of pending time
//! steps.
//!
//! A run hands out its events in `(time, class, insertion)` order. The
//! LogP invariants (`L ≥ 1`, `o ≥ 1`, validated in `ct-logp`) guarantee
//! that every event scheduled while time `t` runs lies strictly in the
//! future: `SenderFree` and `RecvDone` land at `t + o`, `Arrive` at
//! `t + o + L`, and a `Repoll` at `t' ≤ t` is rejected as
//! [`SimError::NonAdvancingWait`](crate::SimError). So no event can join
//! a time step that has begun, and the queue hands the engine a time
//! step at once instead of an event at a time.
//!
//! Layout: a `BTreeMap` from each pending time to its [`Bucket`], one
//! FIFO lane per same-time ordering class. Lanes are typed for density:
//! since the lane itself encodes the class, the three poll-like lanes
//! store bare 4-byte ranks and only arrivals carry sender + packed
//! payload (12 bytes) — a cache line holds 16 pending polls or 5
//! arrivals. Within a lane, append order *is* insertion order, so
//! walking a bucket's lanes in class order reproduces the
//! `(class, insertion)` tie-break, and the map yields steps in time
//! order.
//!
//! Hand-out: [`EventQueue::next_step`] pops the earliest step whole and
//! the engine walks its lanes as slices. From then on that time has
//! begun: scheduling into it, or before it, fails an assert.
//!
//! Step-owned lanes: only the step at `t` can schedule a `RecvDone` or a
//! `SenderFree` at `t + o` or an `Arrive` at `t + o + L` (the `t = 0`
//! polls, which [`EventQueue::start`] installs, precede every step), so
//! those three lanes are empty when the step begins and nobody else
//! appends to them while it runs. The engine fills them as three local
//! vectors ([`StepOutput`]) and [`EventQueue::finish_step`] installs each
//! as the whole lane, asserting that the slot held nothing. Only a
//! `Repoll` is scheduled event by event ([`EventQueue::repoll`]).
//!
//! Storage: a bucket owns lane vectors only while it has events to
//! hold. A finished step hands its vectors to a LIFO spare list
//! ([`LanePool`]) and an output lane, or the first repoll into a lane
//! without storage, takes the most recently retired one, so the queue
//! retains about `o + L + 2` buckets' worth of lanes — the steps that are
//! live at once, each as wide as the widest step — instead of one set
//! for every time step a run ever reached, and every append writes to
//! memory that was read a step or two ago. The map itself allocates only
//! when more than 11 steps are pending at once, which splits its one
//! leaf node.

use std::collections::BTreeMap;

use ct_core::protocol::Payload;
use ct_logp::{Rank, Time};

/// An arrival packed to 12 bytes: the lane already encodes the event
/// class, so only `Arrive` needs more than the destination rank, and its
/// payload fits a `u32` tag+round.
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
/// walked in field order. Deliveries precede sender polls at equal
/// times: a message whose processing completes at `t` is available to
/// the send decision made at `t` — this is what makes the simulated
/// checked correction match Lemma 2 exactly (a process that hears from
/// both sides at `t` sends nothing more at `t`). Lanes are *typed*: the
/// three poll-like classes store a bare 4-byte rank (16 events per cache
/// line), arrivals store [`PackedArrive`].
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
}

/// The queue. [`EventQueue::reset`] retains every allocation (lanes in
/// the pool, the map's root node), so a reused queue runs
/// allocation-free once warm.
pub(crate) struct EventQueue {
    /// Every pending time step; none of them is empty.
    steps: BTreeMap<Time, Bucket>,
    /// The time of the last step handed out, `None` before a run's
    /// first: nothing may be scheduled at or before it.
    begun: Option<Time>,
    spare: LanePool,
}

impl EventQueue {
    pub(crate) fn new() -> EventQueue {
        EventQueue {
            steps: BTreeMap::new(),
            begun: None,
            spare: LanePool::default(),
        }
    }

    /// Empty the queue for a fresh run, keeping all backing storage: a
    /// run cut short gives its pending lanes back to the pool, and
    /// popping (unlike `clear`) keeps the map's root node.
    pub(crate) fn reset(&mut self) {
        while let Some((_, bucket)) = self.steps.pop_first() {
            bucket.retire(&mut self.spare);
        }
        self.begun = None;
    }

    /// Strictly-future scheduling can never land at or before the
    /// running step; only saturated `Time::NEVER` arithmetic could, and
    /// that must fail loudly rather than lose the event.
    fn assert_pending(&self, time: Time) {
        assert!(
            self.begun < Some(time),
            "event scheduled into a time step that has begun (time did not advance)"
        );
    }

    /// Install the `t = 0` polls of the `live` ranks, before the first
    /// step, as that step's whole `SenderFree` lane.
    pub(crate) fn start(&mut self, live: impl IntoIterator<Item = Rank>) {
        let mut lane = self.spare.ranks.pop().unwrap_or_default();
        lane.extend(live);
        self.install(Time::ZERO, lane, |b| &mut b.sender_free, |p| &mut p.ranks);
    }

    /// Poll `rank` again at `at`, a time that has not begun. A lane
    /// without storage takes the warmest spare.
    pub(crate) fn repoll(&mut self, at: Time, rank: Rank) {
        self.assert_pending(at);
        let lane = &mut self.steps.entry(at).or_default().repoll;
        if lane.capacity() == 0 {
            if let Some(warm) = self.spare.ranks.pop() {
                *lane = warm;
            }
        }
        lane.push(rank);
    }

    /// Begin the earliest pending time step: its time and its four
    /// lanes, taken out of the map. `None` when nothing is pending.
    /// Give the lanes back through [`EventQueue::finish_step`].
    pub(crate) fn next_step(&mut self) -> Option<(Time, Bucket)> {
        let (time, lanes) = self.steps.pop_first()?;
        self.begun = Some(time);
        Some((time, lanes))
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
        self.install(
            port_time,
            out.recv_done,
            |b| &mut b.recv_done,
            |p| &mut p.ranks,
        );
        self.install(
            port_time,
            out.sender_free,
            |b| &mut b.sender_free,
            |p| &mut p.ranks,
        );
        self.install(
            arrive_time,
            out.arrive,
            |b| &mut b.arrive,
            |p| &mut p.arrive,
        );
    }

    /// Make `lane` the whole `slot` lane of `time`, or give an empty
    /// one's storage back to its `spare` list.
    fn install<T>(
        &mut self,
        time: Time,
        lane: Vec<T>,
        slot: fn(&mut Bucket) -> &mut Vec<T>,
        spare: fn(&mut LanePool) -> &mut Vec<Vec<T>>,
    ) {
        if lane.is_empty() {
            return retire(lane, spare(&mut self.spare));
        }
        self.assert_pending(time);
        let slot = slot(self.steps.entry(time).or_default());
        assert!(slot.capacity() == 0, "a step-owned lane was not empty");
        *slot = lane;
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    /// The four event kinds of the reference model, one per lane.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Kind {
        Arrive { from: Rank, payload: Payload },
        RecvDone,
        SenderFree,
        Repoll,
    }

    impl Kind {
        /// Same-time ordering class: the bucket's lane order.
        fn class(self) -> u8 {
            match self {
                Kind::Arrive { .. } => 0,
                Kind::RecvDone => 1,
                Kind::SenderFree => 2,
                Kind::Repoll => 3,
            }
        }
    }

    /// Reference model: a binary heap with explicit `(time, class, seq)`
    /// ordering, `seq` indexing the events in insertion order.
    #[derive(Default)]
    struct Model {
        events: Vec<(Time, Rank, Kind)>,
        heap: BinaryHeap<Reverse<(Time, u8, usize)>>,
    }

    impl Model {
        fn push(&mut self, time: Time, rank: Rank, kind: Kind) {
            let seq = self.events.len();
            self.heap.push(Reverse((time, kind.class(), seq)));
            self.events.push((time, rank, kind));
        }

        fn pop(&mut self) -> Option<(Time, Rank, Kind)> {
            self.heap.pop().map(|Reverse((_, _, seq))| self.events[seq])
        }
    }

    /// A deterministic pseudo-random stream (no external RNG needed).
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn kind_for(i: u64) -> Kind {
        match i % 4 {
            0 => Kind::SenderFree,
            1 => Kind::Arrive {
                from: (i % 7) as Rank,
                payload: Payload::Tree,
            },
            2 => Kind::RecvDone,
            _ => Kind::Repoll,
        }
    }

    /// The events of a step in the order the engine walks them.
    fn walk(time: Time, lanes: &Bucket) -> Vec<(Time, Rank, Kind)> {
        fn ranks(lane: &[Rank], kind: Kind) -> impl Iterator<Item = (Rank, Kind)> + '_ {
            lane.iter().map(move |&rank| (rank, kind))
        }
        let arrive = lanes.arrive.iter().map(|a| {
            let (from, payload) = (a.from, a.payload());
            (a.to, Kind::Arrive { from, payload })
        });
        arrive
            .chain(ranks(&lanes.recv_done, Kind::RecvDone))
            .chain(ranks(&lanes.sender_free, Kind::SenderFree))
            .chain(ranks(&lanes.repoll, Kind::Repoll))
            .map(|(rank, kind)| (time, rank, kind))
            .collect()
    }

    impl EventQueue {
        /// Run the next step as one that schedules nothing.
        fn pop_step(&mut self) -> Option<Vec<(Time, Rank, Kind)>> {
            let (time, lanes) = self.next_step()?;
            let events = walk(time, &lanes);
            self.finish_step(lanes, StepOutput::default(), time, time);
            Some(events)
        }

        /// Every pending event, step by step.
        fn drain(&mut self) -> Vec<(Time, Rank, Kind)> {
            std::iter::from_fn(|| self.pop_step()).flatten().collect()
        }
    }

    /// Drive queue and model through one schedule in the engine's shape
    /// and require each step's four lanes to equal the model's
    /// `(time, class, seq)` drain: the `t = 0` polls through `start`,
    /// `Repoll`s through `repoll` at a random distance up to `spread`,
    /// and the other three kinds as the step's own output lanes, port
    /// events at `now + o` and arrivals at `now + wire`.
    fn lockstep(spread: u64, o: u64, wire: u64, label: &str) {
        let mut q = EventQueue::new();
        let mut m = Model::default();
        q.start(0..16);
        for r in 0..16 {
            m.push(Time::ZERO, r, Kind::SenderFree);
        }
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
                    let at = match kind {
                        Kind::Repoll => {
                            let at = now + (1 + h % spread);
                            q.repoll(at, rank);
                            at
                        }
                        Kind::RecvDone => {
                            out.recv_done.push(rank);
                            now + o
                        }
                        Kind::SenderFree => {
                            out.sender_free.push(rank);
                            now + o
                        }
                        Kind::Arrive { from, payload } => {
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
    fn matches_heap_order_on_dense_schedules() {
        lockstep(8, 1, 3, "dense");
        lockstep(8, 3, 10, "dense, o > 1");
    }

    #[test]
    fn matches_heap_order_on_sparse_schedules() {
        // Repolls up to 5 000 steps ahead, and port and wire delays in
        // the thousands: pending steps lie far apart.
        lockstep(5000, 1, 3, "sparse repolls");
        lockstep(5000, 2000, 4500, "sparse, all of it");
    }

    #[test]
    fn matches_heap_order_with_o_plus_l_far_beyond_a_thousand_steps() {
        lockstep(8, 1, 1501, "o + L = 1 501");
        lockstep(8, 3, 1 << 40, "o + L = 2^40");
    }

    #[test]
    fn never_scheduled_events_surface_last() {
        let mut q = EventQueue::new();
        q.start([1]);
        q.repoll(Time::NEVER, 3);
        let (now, lanes) = q.next_step().expect("the t = 0 polls");
        assert_eq!(walk(now, &lanes), [(Time::ZERO, 1, Kind::SenderFree)]);
        let mut out = q.output_lanes();
        out.recv_done.push(2);
        q.finish_step(lanes, out, Time::new(2000), Time::new(2000));
        assert_eq!(
            q.drain(),
            [
                (Time::new(2000), 2, Kind::RecvDone),
                (Time::NEVER, 3, Kind::Repoll),
            ]
        );
        assert!(q.next_step().is_none());
    }

    #[test]
    fn same_time_orders_by_class_then_fifo() {
        let mut q = EventQueue::new();
        let t = Time::new(5);
        q.start([0]);
        q.repoll(t, 9);
        let (_, lanes) = q.next_step().expect("the t = 0 poll");
        let mut out = q.output_lanes();
        out.sender_free.push(8);
        out.recv_done.extend([7, 5]);
        out.arrive.push(PackedArrive::new(6, 0, Payload::Tree));
        q.finish_step(lanes, out, t, t);
        let order: Vec<Rank> = q.drain().into_iter().map(|(_, r, _)| r).collect();
        assert_eq!(order, [6, 7, 5, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "a time step that has begun")]
    fn a_push_into_the_running_step_is_rejected() {
        let mut q = EventQueue::new();
        q.repoll(Time::new(5), 1);
        let (now, _lanes) = q.next_step().expect("one step pending");
        q.repoll(now, 2);
    }

    #[test]
    #[should_panic(expected = "a step-owned lane was not empty")]
    fn an_install_into_a_lane_that_holds_events_is_rejected() {
        let mut q = EventQueue::new();
        q.start([1]);
        q.repoll(Time::new(5), 1);
        let (_, lanes) = q.next_step().expect("the step at 0");
        let mut out = q.output_lanes();
        out.recv_done.push(2);
        q.finish_step(lanes, out, Time::new(7), Time::new(8));
        let (_, lanes) = q.next_step().expect("the step at 5");
        let mut out = q.output_lanes();
        out.recv_done.push(3);
        q.finish_step(lanes, out, Time::new(7), Time::new(8));
    }

    impl EventQueue {
        /// `(arrival lanes, rank lanes)` that hold storage, as
        /// `[in buckets, spare]`.
        pub(crate) fn lanes_with_storage(&self) -> ([usize; 2], [usize; 2]) {
            let arrive = self.steps.values().filter(|b| b.arrive.capacity() != 0);
            let ranks = self
                .steps
                .values()
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
            q.repoll(Time::new(t), 7);
        }
        assert_eq!(q.drain().len(), 3);
        assert_eq!(q.lanes_with_storage(), ([0, 0], [0, 3]));
        q.reset();
        let warmest = q.spare.ranks.last().expect("three spares").as_ptr();
        q.repoll(Time::new(9), 1);
        assert_eq!(
            q.steps[&Time::new(9)].repoll.as_ptr(),
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
        q.repoll(Time::new(1), 7);
        assert_eq!(q.drain().len(), 1);
        q.repoll(Time::new(2), 7);
        let (now, lanes) = q.next_step().expect("the step at 2");
        let drained = lanes.repoll.as_ptr();
        // Taken out of the map: neither in a bucket nor spare.
        assert_eq!(q.lanes_with_storage(), ([0, 0], [0, 0]));
        let mut out = q.output_lanes();
        out.arrive.push(PackedArrive::new(1, 7, Payload::Tree));
        q.finish_step(lanes, out, now + 1, now + 3);
        assert_eq!(q.lanes_with_storage(), ([1, 0], [0, 1]));
        assert_eq!(q.output_lanes().recv_done.as_ptr(), drained);
    }

    #[test]
    fn far_apart_steps_hold_a_lane_only_while_pending() {
        let mut q = EventQueue::new();
        let times = [1, 5_000, 10_000, u64::MAX];
        for (i, t) in times.into_iter().enumerate() {
            q.repoll(Time::new(t), i as Rank);
        }
        assert_eq!(q.lanes_with_storage(), ([0, 0], [4, 0]));
        for (i, t) in times.into_iter().enumerate() {
            let (now, lanes) = q.next_step().expect("four steps");
            assert_eq!((now, &lanes.repoll[..]), (Time::new(t), &[i as Rank][..]));
            // The step holds its own lane; the later ones keep theirs.
            assert_eq!(q.lanes_with_storage(), ([0, 0], [3 - i, i]), "step {i}");
            q.finish_step(lanes, StepOutput::default(), now, now);
        }
        assert!(q.next_step().is_none());
        assert_eq!(q.lanes_with_storage(), ([0, 0], [0, 4]));
    }

    #[test]
    fn reset_restores_a_pristine_queue() {
        let mut q = EventQueue::new();
        q.repoll(Time::new(1), 1);
        q.repoll(Time::new(90_000), 2);
        let _ = q.pop_step();
        q.reset();
        assert!(q.next_step().is_none());
        // A fresh run starts at t = 0 again and still orders correctly.
        q.start([5]);
        q.repoll(Time::new(3), 4);
        q.repoll(Time::new(2), 6);
        assert_eq!(
            q.drain(),
            [
                (Time::ZERO, 5, Kind::SenderFree),
                (Time::new(2), 6, Kind::Repoll),
                (Time::new(3), 4, Kind::Repoll),
            ]
        );
    }
}
