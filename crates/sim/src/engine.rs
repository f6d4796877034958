//! The discrete-event engine.
//!
//! Four event kinds drive a run:
//!
//! * `SenderFree(r)` — `r`'s sender port became free; poll the protocol.
//! * `Arrive(r, …)` — a message reached `r`'s receive port (queues FIFO).
//! * `RecvDone(r)` — `r` finished the `o`-long processing of the message
//!   at the head of its receive queue; `on_message` runs, then the
//!   sender is polled (sends overlap receives, §2.2).
//! * `Repoll(r)` — a protocol-requested `WaitUntil` expired.
//!
//! Ties are broken first by an event-class order (deliveries before
//! sender polls — see `Bucket` in the queue module), then by insertion
//! order, so a run is a pure function of `(P, LogP, faults, seed,
//! protocol)`.
//!
//! The unit of work is a time step, not an event. Events live in an
//! ordered map of pending time steps ([`crate::queue`]) that hands out
//! the earliest step's four lanes whole; the engine walks each lane as a
//! slice, in class order — which *is* `(time, class, insertion)` order,
//! because under LogP (`o ≥ 1`, `L ≥ 1`) nothing a step schedules can
//! join it. The same invariants make three destination lanes the step's
//! own: only the step at `now` schedules a `RecvDone` or `SenderFree` at
//! `now + o` or an `Arrive` at `now + o + L`, so the handlers append to
//! three local vectors that the queue installs as whole lanes when the
//! step ends, and the `t = 0` polls go in as one lane before the first
//! step. Only a `Repoll` (any future time) is scheduled event by event.
//! All per-run storage can be reused across runs through a
//! [`RunArena`]; a run that ends in an error still returns the lanes it
//! held.
//!
//! The lane handlers are methods of a `Shard`: the ranks one thread
//! runs. A one-thread run is one shard of every rank. An unobserved run
//! of a by-value population from `SHARD_MIN_P` ranks up, with a core to
//! spare, is two shards of alternating 64-rank blocks, and its steps of
//! `WIDE_STEP` events or more run on the arena's helper thread and this
//! one at once, the same handlers walking each shard's own events (the
//! `shard` module has the rule and why the merged output is the
//! one-thread output).

use std::any::Any;
use std::sync::Arc;

use ct_core::protocol::{
    half_len, half_of, index_in_half, BuildCtx, CorrectedTreeProcess, Machine, Machines, Payload,
    Population, PopulationHalf, ProtocolError, ProtocolFactory, SendPoll,
};
use ct_logp::{LogP, Rank, Time};
use ct_obs::telemetry::TelemetryHub;
use ct_obs::{Event as ObsEvent, EventKind as ObsEventKind, EventSink, NullSink, Phase, VecSink};

use crate::arena::RunArena;
use crate::bits::BitSet;
use crate::faults::FaultPlan;
use crate::metrics::{MessageCounts, Outcome};
use crate::queue::{Bucket, EventQueue, PackedArrive, StepOutput};
use crate::shard::{self, Half, Helper, InFlight, Repoll, ShardStore, SHARD_MIN_P, WIDE_STEP};

/// Default cap on processed events — a runaway-protocol backstop far
/// above any legitimate run (`≈ 100` events per process at `P = 2¹⁹`).
pub const DEFAULT_MAX_EVENTS: u64 = 2_000_000_000;

/// Errors from a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The protocol factory failed.
    Protocol(ProtocolError),
    /// The event cap was exceeded (protocol likely livelocked).
    EventLimitExceeded {
        /// The configured cap.
        limit: u64,
    },
    /// A protocol returned `WaitUntil(t)` with `t` not in the future.
    NonAdvancingWait {
        /// The offending rank.
        rank: Rank,
        /// Current time.
        now: Time,
        /// Requested wake-up.
        at: Time,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Protocol(e) => write!(f, "protocol: {e}"),
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded")
            }
            SimError::NonAdvancingWait { rank, now, at } => {
                write!(f, "rank {rank} requested WaitUntil({at}) at time {now}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ProtocolError> for SimError {
    fn from(e: ProtocolError) -> Self {
        SimError::Protocol(e)
    }
}

/// A configured simulation; reusable across protocol factories.
///
/// ```
/// use ct_core::correction::CorrectionKind;
/// use ct_core::protocol::BroadcastSpec;
/// use ct_core::tree::TreeKind;
/// use ct_logp::LogP;
/// use ct_sim::{FaultPlan, Simulation};
///
/// let spec = BroadcastSpec::corrected_tree(
///     TreeKind::BINOMIAL,
///     CorrectionKind::OpportunisticOptimized { distance: 4 },
/// );
/// let outcome = Simulation::builder(64, LogP::PAPER)
///     .faults(FaultPlan::random_count(64, 3, 7)?)
///     .seed(7)
///     .build()
///     .run(&spec)?;
/// assert!(outcome.all_live_colored());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Simulation {
    p: u32,
    logp: LogP,
    faults: FaultPlan,
    seed: u64,
    max_events: u64,
    telemetry: Option<Arc<TelemetryHub>>,
}

/// Builder for [`Simulation`].
#[derive(Clone, Debug)]
pub struct SimulationBuilder {
    p: u32,
    logp: LogP,
    faults: Option<FaultPlan>,
    seed: u64,
    max_events: u64,
    telemetry: Option<Arc<TelemetryHub>>,
}

impl Simulation {
    /// Start configuring a simulation of `p` processes.
    pub fn builder(p: u32, logp: LogP) -> SimulationBuilder {
        SimulationBuilder {
            p,
            logp,
            faults: None,
            seed: 0,
            max_events: DEFAULT_MAX_EVENTS,
            telemetry: None,
        }
    }

    /// The LogP parameters in use.
    pub fn logp(&self) -> &LogP {
        &self.logp
    }

    /// The fault plan in use.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Run one broadcast and return its metrics.
    pub fn run(&self, factory: &dyn ProtocolFactory) -> Result<Outcome, SimError> {
        self.run_reusable(factory, &mut RunArena::new())
    }

    /// Like [`Simulation::run`], but drawing all per-run storage from
    /// `arena`. Results are bit-identical to a fresh run; the arena
    /// only saves the allocations. Reuse one arena across the
    /// repetitions of a campaign for the intended effect. A large
    /// unobserved run may also take the arena's helper thread for its
    /// widest time steps ([`RunArena`]); that changes its speed, never
    /// its outcome.
    pub fn run_reusable(
        &self,
        factory: &dyn ProtocolFactory,
        arena: &mut RunArena,
    ) -> Result<Outcome, SimError> {
        self.run_with_sink_reusable(factory, &mut NullSink, arena)
    }

    /// Run one broadcast, returning the raw observability events
    /// alongside the outcome — the input `ct-analyze` consumes.
    pub fn run_with_events(
        &self,
        factory: &dyn ProtocolFactory,
    ) -> Result<(Outcome, Vec<ObsEvent>), SimError> {
        let mut sink = VecSink::new();
        let outcome = self.run_with_sink_reusable(factory, &mut sink, &mut RunArena::new())?;
        Ok((outcome, sink.events))
    }

    /// Run one broadcast, streaming every event into `sink`, with all
    /// per-run storage drawn from `arena` (see
    /// [`Simulation::run_reusable`]).
    ///
    /// The sink's [`EventSink::enabled`] flag is checked once, before
    /// the event loop: with a disabled sink ([`NullSink`]) no events are
    /// constructed at all and the run costs the same as an unobserved
    /// one.
    pub fn run_with_sink_reusable(
        &self,
        factory: &dyn ProtocolFactory,
        sink: &mut dyn EventSink,
        arena: &mut RunArena,
    ) -> Result<Outcome, SimError> {
        let in_flight = InFlight::enter();
        self.run_in(factory, sink, arena, || in_flight.core_free())
    }

    /// [`Simulation::run_with_sink_reusable`], with `free_core` telling
    /// whether a run may take a second thread now: asked when the run
    /// begins, if it could shard at all, and before each wide step.
    fn run_in(
        &self,
        factory: &dyn ProtocolFactory,
        sink: &mut dyn EventSink,
        arena: &mut RunArena,
        free_core: impl Fn() -> bool,
    ) -> Result<Outcome, SimError> {
        let ctx = BuildCtx {
            p: self.p,
            logp: self.logp,
            seed: self.seed,
        };
        let observing = sink.enabled();
        arena.reset(self.p as usize, observing);
        factory.populate(&ctx, &mut arena.population)?;
        let RunArena {
            queue,
            shards,
            colored_seen,
            population,
            helper,
            split_steps,
        } = arena;
        let procs = population
            .as_deref_mut()
            .expect("a successful populate fills the slot");
        assert_eq!(
            procs.len(),
            self.p as usize,
            "factory must build P processes"
        );
        let run = Run {
            sim: self,
            events: 0,
        };
        let label = factory.label();
        let sharded = self.p >= SHARD_MIN_P
            && !observing
            && self.telemetry.is_none()
            && (&*procs as &dyn Any).is::<Machines<CorrectedTreeProcess>>()
            && free_core();
        if sharded {
            let store: &mut dyn Any = procs;
            let population = store.downcast_mut().expect("just checked");
            let threads = Threads {
                helper,
                free_core,
                split_steps,
            };
            return run.sharded(label, queue, population, shards, threads);
        }
        let whole = Whole {
            queue,
            procs,
            sink,
            observing,
            colored_seen,
        };
        run.whole(label, whole, &mut shards[0])
    }
}

/// A step's events handed to one shard's handlers, or what stopped it:
/// the first error, with the key of the event that raised it.
pub(crate) type StepResult = Result<(), (u32, SimError)>;

/// What every event of a step shares.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepCtx {
    now: Time,
    /// Sender and receiver overhead.
    o: u64,
    p: u32,
    /// Events the cap allows from this step on: the event of key `k` is
    /// the run's `events + k + 1`-th.
    room: u64,
    limit: u64,
}

impl StepCtx {
    /// Count the event of `key` against the runaway cap.
    #[inline]
    fn count(&self, key: u32) -> Result<(), SimError> {
        if u64::from(key) < self.room {
            Ok(())
        } else {
            Err(SimError::EventLimitExceeded { limit: self.limit })
        }
    }
}

/// How a shard's handlers reach its ranks: where a rank's per-rank state
/// lies, its machine, and what observes it.
pub(crate) trait Ranks {
    /// Whether the shard runs half of a sharded step and records where
    /// its output came from for [`shard::merge`].
    const SHARDED: bool;

    /// The index of `r` in its shard's per-rank state.
    fn index(r: Rank) -> usize;

    /// Deliver a message to `r` (at `index`).
    fn on_message(&mut self, r: Rank, index: usize, from: Rank, payload: Payload, now: Time);

    /// Poll `r` (at `index`) for its next send.
    fn poll_send(&mut self, r: Rank, index: usize, now: Time) -> SendPoll;

    /// A message reached `to`, alive or `dead`.
    fn arrived(&mut self, _now: Time, _from: Rank, _to: Rank, _payload: Payload, _dead: bool) {}

    /// `from` starts a send.
    fn sending(&mut self, _now: Time, _from: Rank, _to: Rank, _payload: Payload) {}

    /// `r`, polled by the event of `key`, asked to be polled again at
    /// `at`: schedule it, or keep it in `kept` for the merge.
    fn repoll(&mut self, key: u32, r: Rank, at: Time, kept: &mut Vec<Repoll>);
}

/// Every rank of a one-thread run, by rank, with every tap, and the
/// queue its `Repoll`s go to.
struct Whole<'a> {
    queue: &'a mut EventQueue,
    procs: &'a mut dyn Population,
    sink: &'a mut dyn EventSink,
    observing: bool,
    colored_seen: &'a mut BitSet,
}

impl Whole<'_> {
    /// Emit `Colored` the first time `r` is seen colored (observed runs).
    fn report_coloring(&mut self, r: Rank, now: Time) {
        if !self.colored_seen.get(r as usize) {
            if let Some(via) = self.procs.colored_via(r) {
                self.colored_seen.set(r as usize);
                self.sink
                    .emit(&ObsEvent::sim(now, ObsEventKind::Colored { rank: r, via }));
            }
        }
    }
}

impl Ranks for Whole<'_> {
    const SHARDED: bool = false;

    #[inline]
    fn index(r: Rank) -> usize {
        r as usize
    }

    fn on_message(&mut self, r: Rank, _: usize, from: Rank, payload: Payload, now: Time) {
        if self.observing {
            let to = r;
            let deliver = ObsEventKind::Deliver { from, to, payload };
            self.sink.emit(&ObsEvent::sim(now, deliver));
        }
        self.procs.on_message(r, from, payload, now);
        if self.observing {
            self.report_coloring(r, now);
        }
    }

    fn poll_send(&mut self, r: Rank, _: usize, now: Time) -> SendPoll {
        self.procs.poll_send(r, now)
    }

    fn arrived(&mut self, now: Time, from: Rank, to: Rank, payload: Payload, dead: bool) {
        if self.observing {
            let kind = if dead {
                ObsEventKind::DropDead { from, to, payload }
            } else {
                ObsEventKind::Arrive { from, to, payload }
            };
            self.sink.emit(&ObsEvent::sim(now, kind));
        }
    }

    fn sending(&mut self, now: Time, from: Rank, to: Rank, payload: Payload) {
        if self.observing {
            let send = ObsEventKind::SendStart { from, to, payload };
            self.sink.emit(&ObsEvent::sim(now, send));
        }
    }

    fn repoll(&mut self, _: u32, r: Rank, at: Time, _: &mut Vec<Repoll>) {
        self.queue.repoll(at, r);
    }
}

/// Half of a sharded run's ranks, by index in their half; nothing
/// observes them.
impl<M: Machine> Ranks for PopulationHalf<M> {
    const SHARDED: bool = true;

    #[inline]
    fn index(r: Rank) -> usize {
        index_in_half(r)
    }

    #[inline]
    fn on_message(&mut self, _: Rank, index: usize, from: Rank, payload: Payload, now: Time) {
        PopulationHalf::on_message(self, index, from, payload, now);
    }

    #[inline]
    fn poll_send(&mut self, _: Rank, index: usize, now: Time) -> SendPoll {
        PopulationHalf::poll_send(self, index, now)
    }

    fn repoll(&mut self, key: u32, rank: Rank, at: Time, kept: &mut Vec<Repoll>) {
        kept.push(Repoll { key, at, rank });
    }
}

/// The ranks one thread runs in a step — all of a one-thread run's, or
/// one shard's — with their per-rank state, the step's output and the
/// tallies. Its methods are the rank loop — deliver, poll, report
/// coloring, arm the next wake — one handler per event lane, the one
/// copy of each that one-thread and sharded steps run.
pub(crate) struct Shard<R> {
    ranks: R,
    /// Which half of the ranks a sharded step hands this shard
    /// ([`half_of`]).
    shard: usize,
    store: ShardStore,
    messages: MessageCounts,
    quiescence: Time,
}

impl<R: Ranks> Shard<R> {
    fn new(ranks: R, shard: usize, store: ShardStore) -> Shard<R> {
        Shard {
            ranks,
            shard,
            store,
            messages: MessageCounts::default(),
            quiescence: Time::ZERO,
        }
    }

    /// This shard's events of the step of `lanes`, in class order.
    pub(crate) fn step(&mut self, lanes: &Bucket, ctx: &StepCtx) -> StepResult {
        let mut key = 0;
        let arrival = |s: &mut Self, k, a| s.arrival(ctx, k, a);
        self.walk(&lanes.arrive, |a| a.to, &mut key, arrival)?;
        let recv_done = |s: &mut Self, k, r| s.receive_completion(ctx, k, r);
        self.walk(&lanes.recv_done, |&r| r, &mut key, recv_done)?;
        let poll = |s: &mut Self, k, r| s.sender_poll(ctx, k, r);
        self.walk(&lanes.sender_free, |&r| r, &mut key, poll)?;
        self.walk(&lanes.repoll, |&r| r, &mut key, poll)
    }

    /// Hand `handle` this shard's events of `lane`, the lane's first
    /// event keyed `*key`; leave `*key` past the lane.
    #[inline]
    fn walk<T: Copy>(
        &mut self,
        lane: &[T],
        rank: impl Fn(&T) -> Rank,
        key: &mut u32,
        mut handle: impl FnMut(&mut Self, u32, T) -> Result<(), SimError>,
    ) -> StepResult {
        let first = *key;
        *key += u32::try_from(lane.len()).expect("a step of fewer than 2^32 events");
        if !R::SHARDED {
            return (first..)
                .zip(lane)
                .try_for_each(|(k, &event)| handle(self, k, event).map_err(|e| (k, e)));
        }
        // This shard's events, found 64 at a time by a branch-free mask;
        // which of them appended a `RecvDone` or a send is recorded per
        // 64 as well, for the merge.
        for (chunk, base) in lane.chunks(64).zip((first..).step_by(64)) {
            let mut mine = 0u64;
            for (bit, event) in chunk.iter().enumerate() {
                mine |= u64::from(half_of(rank(event)) == self.shard) << bit;
            }
            let (mut recv_done, mut sends) = (0u64, 0u64);
            while mine != 0 {
                let bit = mine.trailing_zeros();
                mine &= mine - 1;
                let k = base + bit;
                let out = &self.store.out;
                let before = (out.recv_done.len(), out.arrive.len());
                handle(self, k, chunk[bit as usize]).map_err(|e| (k, e))?;
                let out = &self.store.out;
                recv_done |= u64::from(out.recv_done.len() != before.0) << bit;
                sends |= u64::from(out.arrive.len() != before.1) << bit;
            }
            self.store.recv_done_bits.push(recv_done);
            self.store.send_bits.push(sends);
        }
        Ok(())
    }

    /// `Arrive`: a message reaches its receive port and queues FIFO; an
    /// idle port starts its `o`-long processing. Dead ranks drop theirs.
    fn arrival(&mut self, ctx: &StepCtx, key: u32, a: PackedArrive) -> Result<(), SimError> {
        ctx.count(key)?;
        let (to, from, payload) = (a.to, a.from, a.payload());
        let i = R::index(to);
        let dead = self.store.dead.get(i);
        self.ranks.arrived(ctx.now, from, to, payload, dead);
        if dead {
            return Ok(());
        }
        self.store.recv_queue.push_back(i, from, payload);
        if !self.store.recv_busy.get(i) {
            self.store.recv_busy.set(i);
            self.store.out.recv_done.push(to);
        }
        Ok(())
    }

    /// `RecvDone`: a rank finished processing its queue head;
    /// `on_message` runs, then the sender is polled (sends overlap
    /// receives, §2.2) and the port turns to the next queued message.
    fn receive_completion(&mut self, ctx: &StepCtx, key: u32, r: Rank) -> Result<(), SimError> {
        ctx.count(key)?;
        let i = R::index(r);
        let (from, payload) = self
            .store
            .recv_queue
            .pop_front(i)
            .expect("RecvDone implies a queued message");
        self.quiescence = self.quiescence.max(ctx.now);
        self.ranks.on_message(r, i, from, payload, ctx.now);
        // Delivery may have unblocked sends.
        self.store.done.unset(i);
        if self.store.send_busy_until[i] <= ctx.now {
            self.poll(ctx, key, r, i)?;
        }
        if !self.store.recv_queue.is_empty(i) {
            self.store.out.recv_done.push(r);
        } else {
            self.store.recv_busy.unset(i);
        }
        Ok(())
    }

    /// `SenderFree` and `Repoll`: poll the rank if it is neither done
    /// nor still sending.
    fn sender_poll(&mut self, ctx: &StepCtx, key: u32, r: Rank) -> Result<(), SimError> {
        ctx.count(key)?;
        let i = R::index(r);
        if !self.store.done.get(i) && self.store.send_busy_until[i] <= ctx.now {
            self.poll(ctx, key, r, i)?;
        }
        Ok(())
    }

    /// Poll `r`'s protocol while its sender port is free; schedules at
    /// most one send (the port then stays busy for `o`).
    fn poll(&mut self, ctx: &StepCtx, key: u32, r: Rank, i: usize) -> Result<(), SimError> {
        let now = ctx.now;
        match self.ranks.poll_send(r, i, now) {
            SendPoll::Now { to, payload } => {
                debug_assert!(to < ctx.p, "send target out of range");
                self.store.sent[i] += 1;
                match payload {
                    Payload::Tree => self.messages.tree += 1,
                    Payload::Gossip { .. } => self.messages.gossip += 1,
                    Payload::Correction => self.messages.correction += 1,
                    Payload::Ack => self.messages.ack += 1,
                }
                self.ranks.sending(now, r, to, payload);
                self.store.send_busy_until[i] = now + ctx.o;
                self.quiescence = self.quiescence.max(now + ctx.o);
                // The wire delivers even to dead processes; they drop it.
                // (The `SenderFree` lane is the arrivals' senders: see
                // `sender_frees`.)
                let arrive = PackedArrive::new(to, r, payload);
                self.store.out.arrive.push(arrive);
            }
            SendPoll::WaitUntil(at) => {
                if at <= now {
                    return Err(SimError::NonAdvancingWait { rank: r, now, at });
                }
                self.ranks.repoll(key, r, at, &mut self.store.repolls);
            }
            SendPoll::Idle => {}
            SendPoll::Done => self.store.done.set(i),
        }
        Ok(())
    }
}

/// One run in flight: its simulation and its event count.
struct Run<'a> {
    sim: &'a Simulation,
    events: u64,
}

impl Run<'_> {
    /// Schedule the initial poll of every live rank at `t = 0`.
    fn start(&self, queue: &mut EventQueue) {
        let faults = &self.sim.faults;
        queue.start((0..self.sim.p).filter(|&r| !faults.is_failed(r)));
    }

    fn ctx(&self, now: Time) -> StepCtx {
        StepCtx {
            now,
            o: self.sim.logp.o(),
            p: self.sim.p,
            room: self.sim.max_events - self.events,
            limit: self.sim.max_events,
        }
    }

    /// The step's output lanes go to `port_time = now + o` and
    /// `arrive_time = now + o + L`.
    fn output_times(&self, now: Time) -> (Time, Time) {
        let o = self.sim.logp.o();
        (now + o, now + o + self.sim.logp.l())
    }

    /// A one-thread run of every rank.
    fn whole(
        mut self,
        label: String,
        ranks: Whole<'_>,
        slot: &mut ShardStore,
    ) -> Result<Outcome, SimError> {
        let sim = self.sim;
        let mut store = std::mem::take(slot);
        store.reset(sim.p as usize, sim.faults.words().iter().copied());
        let mut shard = Shard::new(ranks, 0, store);
        if shard.ranks.observing {
            let begin = ObsEventKind::PhaseBegin(Phase::Broadcast);
            shard.ranks.sink.emit(&ObsEvent::sim(Time::ZERO, begin));
            // The root (and any pre-colored rank) is colored at t = 0.
            for r in 0..sim.p {
                shard.ranks.report_coloring(r, Time::ZERO);
            }
        }
        self.start(shard.ranks.queue);
        let drained = self.drain_whole(&mut shard);
        let Shard {
            ranks,
            mut store,
            messages,
            quiescence,
            ..
        } = shard;
        let sent_per_rank = std::mem::take(&mut store.sent);
        *slot = store;
        drained?;
        if ranks.observing {
            let end = ObsEventKind::PhaseEnd(Phase::Broadcast);
            ranks.sink.emit(&ObsEvent::sim(quiescence, end));
        }
        let tallies = (messages, quiescence, sent_per_rank);
        Ok(self.outcome(label, ranks.procs, tallies))
    }

    /// Time step after time step until nothing is pending. A step's
    /// lanes go back to the queue whatever its result, so an aborted run
    /// leaves the arena's lane pool whole.
    fn drain_whole(&mut self, shard: &mut Shard<Whole<'_>>) -> Result<(), SimError> {
        while let Some((now, lanes)) = shard.ranks.queue.next_step() {
            let (ctx, width) = (self.ctx(now), lanes.len());
            shard.store.out = shard.ranks.queue.output_lanes();
            let stepped = shard.step(&lanes, &ctx);
            let out = sender_frees(std::mem::take(&mut shard.store.out));
            let (port, arrive) = self.output_times(now);
            shard.ranks.queue.finish_step(lanes, out, port, arrive);
            stepped.map_err(|(_, e)| e)?;
            self.events += width as u64;
        }
        Ok(())
    }

    /// A run of the two halves of `population`, wide steps on two
    /// threads.
    fn sharded(
        mut self,
        label: String,
        queue: &mut EventQueue,
        population: &mut Machines<CorrectedTreeProcess>,
        slots: &mut [ShardStore; 2],
        mut threads: Threads<'_, impl Fn() -> bool>,
    ) -> Result<Outcome, SimError> {
        let sim = self.sim;
        let [half0, half1] = population.take_halves();
        let shard = |half, ranks, slot: &mut ShardStore| {
            let mut store = std::mem::take(slot);
            let dead = sim.faults.words().iter().copied().skip(half).step_by(2);
            store.reset(half_len(sim.p, half), dead);
            Shard::new(ranks, half, store)
        };
        // Room to spread the first half's send counts to every rank's.
        slots[0].sent.reserve_exact(sim.p as usize);
        let mut own = shard(0, half0, &mut slots[0]);
        let mut other = Some(shard(1, half1, &mut slots[1]));
        self.start(queue);
        let drained = self.drain_sharded(queue, &mut own, &mut other, &mut threads);
        let other = other.expect("the shards are home between steps");
        let (a, b) = (own.messages, other.messages);
        let messages = MessageCounts {
            tree: a.tree + b.tree,
            gossip: a.gossip + b.gossip,
            correction: a.correction + b.correction,
            ack: a.ack + b.ack,
        };
        let quiescence = own.quiescence.max(other.quiescence);
        population.restore_halves([own.ranks, other.ranks]);
        *slots = [own.store, other.store];
        drained?;
        // From the top down, rank `r`'s count lands at `r`, at or above
        // where the first half kept it: nothing is overwritten unread.
        let mut sent_per_rank = std::mem::take(&mut slots[0].sent);
        sent_per_rank.resize(sim.p as usize, 0);
        for r in (0..sim.p).rev() {
            let i = index_in_half(r);
            sent_per_rank[r as usize] = match half_of(r) {
                0 => sent_per_rank[i],
                _ => slots[1].sent[i],
            };
        }
        Ok(self.outcome(label, population, (messages, quiescence, sent_per_rank)))
    }

    /// [`Run::drain_whole`] for the two shards of a sharded run: each
    /// handles its ranks' events of a step, at the same time when the
    /// step is wide, and their outputs merge into the step's lanes.
    fn drain_sharded(
        &mut self,
        queue: &mut EventQueue,
        own: &mut Shard<Half>,
        other: &mut Option<Shard<Half>>,
        threads: &mut Threads<'_, impl Fn() -> bool>,
    ) -> Result<(), SimError> {
        while let Some((now, lanes)) = queue.next_step() {
            let (ctx, width) = (self.ctx(now), lanes.len());
            let mut theirs = other.take().expect("the shards are home between steps");
            own.store.out = queue.output_lanes();
            let (lanes, theirs, mine, their_result) = match threads.for_step(width) {
                Some(helper) => {
                    theirs.store.reserve_step(&lanes, theirs.store.sent.len());
                    helper.step(lanes, theirs, own, ctx)
                }
                None => {
                    let mine = own.step(&lanes, &ctx);
                    let their_result = theirs.step(&lanes, &ctx);
                    (lanes, theirs, mine, their_result)
                }
            };
            let stepped = first_error(mine, their_result);
            if stepped.is_ok() {
                let repoll = |r: Repoll| queue.repoll(r.at, r.rank);
                shard::merge(&mut own.store, &theirs.store, repoll);
            }
            let out = sender_frees(std::mem::take(&mut own.store.out));
            own.store.clear_output();
            let other = other.insert(theirs);
            other.store.clear_output();
            let (port, arrive) = self.output_times(now);
            queue.finish_step(lanes, out, port, arrive);
            stepped?;
            self.events += width as u64;
        }
        Ok(())
    }

    /// Assemble the outcome from the machines and the shards' tallies:
    /// messages by kind, quiescence and messages sent per rank.
    fn outcome(
        self,
        label: String,
        procs: &dyn Population,
        (messages, quiescence, sent_per_rank): (MessageCounts, Time, Vec<u32>),
    ) -> Outcome {
        let sim = self.sim;
        let colored_at: Vec<Option<Time>> = (0..sim.p).map(|r| procs.colored_at(r)).collect();
        let colored_via = (0..sim.p).map(|r| procs.colored_via(r)).collect();
        let coloring_latency = colored_at
            .iter()
            .zip(sim.faults.mask())
            .filter_map(|(c, &f)| if f { None } else { *c })
            .max()
            .unwrap_or(Time::ZERO);

        let outcome = Outcome {
            label,
            p: sim.p,
            seed: sim.seed,
            colored_at,
            colored_via,
            failed: sim.faults.mask().to_vec(),
            messages,
            sent_per_rank,
            coloring_latency,
            quiescence,
            events: self.events,
        };
        if let Some(hub) = &sim.telemetry {
            hub.record_sim_rep(
                outcome.events,
                outcome.messages.total(),
                outcome.quiescence.steps(),
                outcome.all_live_colored(),
            );
        }
        outcome
    }
}

/// What a sharded run needs for its second thread: the arena's helper,
/// the free-core rule, and the arena's count of split steps.
struct Threads<'a, F> {
    helper: &'a mut Option<Helper>,
    free_core: F,
    split_steps: &'a mut u64,
}

impl<F: Fn() -> bool> Threads<'_, F> {
    /// The helper for a step of `width` events: spawned at the arena's
    /// first wide step, and again if a panic ended it. `None` for a
    /// narrow step, while no core is free, or where no thread can be
    /// spawned.
    fn for_step(&mut self, width: usize) -> Option<&mut Helper> {
        if width < WIDE_STEP || !(self.free_core)() {
            return None;
        }
        if self.helper.as_ref().is_none_or(Helper::is_finished) {
            *self.helper = Helper::spawn();
        }
        let helper = self.helper.as_mut()?;
        *self.split_steps += 1;
        Some(helper)
    }
}

/// Complete a step's output: each send frees its sender's port `o`
/// later, in send order, so the `SenderFree` lane lists the senders of
/// the arrival lane.
fn sender_frees(mut out: StepOutput) -> StepOutput {
    out.sender_free.extend(out.arrive.iter().map(|a| a.from));
    out
}

/// The error the one-thread step would have met first: the one of the
/// smaller key.
fn first_error(a: StepResult, b: StepResult) -> Result<(), SimError> {
    match (a, b) {
        (Err((ka, ea)), Err((kb, _))) if ka < kb => Err(ea),
        (_, Err((_, e))) | (Err((_, e)), _) => Err(e),
        (Ok(()), Ok(())) => Ok(()),
    }
}

impl SimulationBuilder {
    /// Set the fault plan (default: no failures).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        assert_eq!(plan.p(), self.p, "fault plan size must match P");
        self.faults = Some(plan);
        self
    }

    /// Set the seed passed to randomized protocols (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the runaway-event cap.
    pub fn max_events(mut self, cap: u64) -> Self {
        self.max_events = cap;
        self
    }

    /// Record per-repetition counters into `hub` (default off). The
    /// hot path is untouched — one [`TelemetryHub::record_sim_rep`]
    /// call per completed run, so outcomes and traces are bit-identical
    /// with telemetry on or off.
    pub fn telemetry(mut self, hub: Arc<TelemetryHub>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Finalize.
    pub fn build(self) -> Simulation {
        let faults = self.faults.unwrap_or_else(|| FaultPlan::none(self.p));
        Simulation {
            p: self.p,
            logp: self.logp,
            faults,
            seed: self.seed,
            max_events: self.max_events,
            telemetry: self.telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::correction::CorrectionKind;
    use ct_core::protocol::{Blueprint, BroadcastSpec, ColoredVia, Plan, Relabeling};
    use ct_core::tree::TreeKind;

    fn sim(p: u32) -> Simulation {
        Simulation::builder(p, LogP::PAPER).build()
    }

    #[test]
    fn plain_binomial_broadcast_colors_everyone() {
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let out = sim(64).run(&spec).unwrap();
        assert!(out.all_live_colored());
        assert_eq!(out.messages.tree, 63);
        assert_eq!(out.messages.total(), 63);
        // P=2^6: coloring latency = 6 · (2o+L) = 24 (see schedule tests).
        assert_eq!(out.coloring_latency, Time::new(24));
    }

    #[test]
    fn simulated_schedule_matches_analytic_schedule() {
        // The engine's fault-free dissemination must equal the closed
        // form in ct-core::tree::schedule for every rank.
        for kind in [
            TreeKind::BINOMIAL,
            TreeKind::LAME2,
            TreeKind::OPTIMAL,
            TreeKind::FOUR_ARY,
        ] {
            let p = 100;
            let logp = LogP::PAPER;
            let tree = kind.build(p, &logp).unwrap();
            let analytic = tree.dissemination_schedule(&logp);
            let spec = BroadcastSpec::plain_tree(kind);
            let out = Simulation::builder(p, logp).build().run(&spec).unwrap();
            for (r, &expected) in analytic.iter().enumerate() {
                assert_eq!(out.colored_at[r], Some(expected), "{kind} rank {r}");
            }
        }
    }

    #[test]
    fn failed_subtree_stays_uncolored_without_correction() {
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        // Rank 1's subtree in binomial(8) is {1, 3, 5, 7}.
        let faults = FaultPlan::from_ranks(8, &[1]).unwrap();
        let out = Simulation::builder(8, LogP::PAPER)
            .faults(faults)
            .build()
            .run(&spec)
            .unwrap();
        assert!(!out.all_live_colored());
        assert_eq!(out.uncolored_live(), vec![3, 5, 7]);
        // Root still sends to dead rank 1 (no feedback); the orphaned
        // subtree {3,5,7} never forwards: 3 (root) + 1 (rank 2 → 6).
        assert_eq!(out.messages.tree, 4);
    }

    #[test]
    fn corrected_tree_overlapped_heals_failures() {
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 4 },
        );
        let faults = FaultPlan::from_ranks(64, &[1, 2, 40]).unwrap();
        let out = Simulation::builder(64, LogP::PAPER)
            .faults(faults)
            .build()
            .run(&spec)
            .unwrap();
        assert!(
            out.all_live_colored(),
            "uncolored: {:?}",
            out.uncolored_live()
        );
        assert!(out.correction_colored() > 0);
    }

    #[test]
    fn checked_sync_heals_any_gap() {
        // Fail all children of the root except one — a huge gap that
        // opportunistic(d) cannot cover but checked correction can.
        let spec = BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let faults = FaultPlan::from_ranks(64, &[1, 2, 4, 8, 16]).unwrap();
        let out = Simulation::builder(64, LogP::PAPER)
            .faults(faults)
            .build()
            .run(&spec)
            .unwrap();
        assert!(
            out.all_live_colored(),
            "uncolored: {:?}",
            out.uncolored_live()
        );
    }

    #[test]
    fn quiescence_is_at_least_coloring_latency() {
        let spec = BroadcastSpec::corrected_tree_sync(TreeKind::LAME2, CorrectionKind::Checked);
        let out = sim(128).run(&spec).unwrap();
        assert!(out.quiescence >= out.coloring_latency);
    }

    #[test]
    fn same_seed_same_outcome() {
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 2 },
        );
        let faults = FaultPlan::random_count(256, 10, 99).unwrap();
        let mk = || {
            Simulation::builder(256, LogP::PAPER)
                .faults(faults.clone())
                .seed(7)
                .build()
                .run(&spec)
                .unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.colored_at, b.colored_at);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.quiescence, b.quiescence);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn trace_records_sends_and_deliveries() {
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let (out, events) = sim(8).run_with_events(&spec).unwrap();
        let sends: Vec<&ObsEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, ObsEventKind::SendStart { .. }))
            .collect();
        assert_eq!(sends.len() as u64, out.messages.total());
        // Every delivery follows its send by exactly 2o + L.
        for s in sends {
            let ObsEventKind::SendStart { from, to, payload } = s.kind else {
                unreachable!()
            };
            let deliver = events
                .iter()
                .find(|e| e.kind == ObsEventKind::Deliver { from, to, payload })
                .expect("fault-free: every send is delivered");
            assert_eq!(deliver.time, s.time + LogP::PAPER.transit_steps());
        }
    }

    #[test]
    fn event_limit_guards_against_runaway() {
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let err = Simulation::builder(1024, LogP::PAPER)
            .max_events(10)
            .build()
            .run(&spec);
        assert!(matches!(
            err,
            Err(SimError::EventLimitExceeded { limit: 10 })
        ));
    }

    /// A machine that asks to be woken at the very time it is polled.
    struct Stuck;
    impl Machine for Stuck {
        type Shared = ();
        fn new(_: Rank, _: &()) -> Self {
            Stuck
        }
        fn on_message(&mut self, _: &(), _: Rank, _: Payload, _: Time) {}
        fn poll_send(&mut self, _: &(), now: Time) -> SendPoll {
            SendPoll::WaitUntil(now)
        }
        fn colored_at(&self) -> Option<Time> {
            None
        }
        fn colored_via(&self) -> Option<ColoredVia> {
            None
        }
    }
    struct StuckFactory;
    fn stuck(ctx: &BuildCtx) -> Plan<Stuck> {
        let map = Relabeling::rotation(ctx.p, 0);
        Plan { shared: (), map }
    }
    impl ProtocolFactory for StuckFactory {
        fn label(&self) -> String {
            "stuck".into()
        }
        fn blueprint(&self, ctx: &BuildCtx) -> Result<Arc<dyn Blueprint>, ProtocolError> {
            Ok(Arc::new(stuck(ctx)))
        }
        fn populate(
            &self,
            ctx: &BuildCtx,
            slot: &mut Option<Box<dyn Population>>,
        ) -> Result<(), ProtocolError> {
            stuck(ctx).populate(slot);
            Ok(())
        }
    }

    #[test]
    fn an_aborted_run_gives_its_lanes_back() {
        // The configuration of `tests/golden_jsonl.rs`.
        const GOLDEN: &str = include_str!("../tests/data/golden_p4.jsonl");
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 2 },
        );
        let golden = || {
            Simulation::builder(4, LogP::PAPER)
                .faults(FaultPlan::from_ranks(4, &[2]).unwrap())
                .seed(1)
        };
        let replay = |arena: &mut RunArena| {
            let mut sink = VecSink::new();
            golden()
                .build()
                .run_with_sink_reusable(&spec, &mut sink, arena)
                .unwrap();
            sink.to_jsonl()
        };
        let held = |arena: &RunArena| {
            let (arrive, ranks) = arena.queue.lanes_with_storage();
            (arrive[0] + arrive[1], ranks[0] + ranks[1])
        };

        let mut arena = RunArena::new();
        assert_eq!(replay(&mut arena), GOLDEN);
        let clean = arena.queue.lanes_with_storage();
        let all = held(&arena);

        // Cut short in the middle of a step, by the cap …
        let capped = golden().max_events(7).build();
        let err = capped.run_reusable(&spec, &mut arena);
        assert!(matches!(
            err,
            Err(SimError::EventLimitExceeded { limit: 7 })
        ));
        assert_eq!(held(&arena), all, "lanes leaked out of the pool");
        assert_eq!(replay(&mut arena), GOLDEN);
        assert_eq!(arena.queue.lanes_with_storage(), clean);

        // … and by a protocol whose wait does not advance.
        let err = golden().build().run_reusable(&StuckFactory, &mut arena);
        assert!(matches!(
            err,
            Err(SimError::NonAdvancingWait { rank: 0, now, at }) if now == at
        ));
        assert_eq!(held(&arena), all, "lanes leaked out of the pool");
        assert_eq!(replay(&mut arena), GOLDEN);
        assert_eq!(arena.queue.lanes_with_storage(), clean);
    }

    #[test]
    fn a_sharded_run_cut_short_gives_its_lanes_back() {
        let p = 16_384;
        let spec = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let sim = |cap| {
            Simulation::builder(p, LogP::PAPER)
                .faults(FaultPlan::random_count(p, p / 100, 5).unwrap())
                .max_events(cap)
                .build()
        };
        let held = |arena: &RunArena| {
            let (arrive, ranks) = arena.queue.lanes_with_storage();
            (arrive[0] + arrive[1], ranks[0] + ranks[1])
        };
        // Sharded whatever else runs in this process.
        let sharded =
            |cap, arena: &mut RunArena| sim(cap).run_in(&spec, &mut NullSink, arena, || true);
        let mut arena = RunArena::new();
        let reference = sharded(DEFAULT_MAX_EVENTS, &mut arena).unwrap();
        let all = held(&arena);
        let split = arena.split_steps();
        assert!(split > 0, "wide steps ran on two threads");
        for cap in [
            reference.events / 2,
            reference.events / 3 + 1,
            reference.events - 1,
        ] {
            let err = sharded(cap, &mut arena);
            assert!(matches!(err, Err(SimError::EventLimitExceeded { limit }) if limit == cap));
            assert_eq!(
                held(&arena),
                all,
                "lanes leaked out of the pool (cap {cap})"
            );
            let before = arena.split_steps();
            let again = sharded(DEFAULT_MAX_EVENTS, &mut arena).unwrap();
            assert_eq!(arena.split_steps() - before, split, "the helper serves on");
            assert_eq!(
                (again.events, again.messages, again.quiescence),
                (reference.events, reference.messages, reference.quiescence)
            );
            assert_eq!(again.colored_at, reference.colored_at);
            assert_eq!(held(&arena), all);
        }
    }

    #[test]
    fn ack_tree_doubles_latency() {
        let plain = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let acked = BroadcastSpec::ack_tree(TreeKind::BINOMIAL);
        let p = 256;
        let a = sim(p).run(&plain).unwrap();
        let b = sim(p).run(&acked).unwrap();
        assert_eq!(b.messages.ack, (p - 1) as u64);
        assert!(
            b.quiescence.steps() >= 2 * a.coloring_latency.steps(),
            "ack wave must at least double the broadcast: {} vs {}",
            b.quiescence,
            a.coloring_latency
        );
    }

    #[test]
    fn single_process_broadcast_is_trivial() {
        let spec = BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let out = sim(1).run(&spec).unwrap();
        assert!(out.all_live_colored());
        assert_eq!(out.messages.total(), 0);
        assert_eq!(out.coloring_latency, Time::ZERO);
    }
}
