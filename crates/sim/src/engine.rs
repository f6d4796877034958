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
//! sender polls — see `EventKind::class` in the queue module), then by
//! insertion order, so a run is a pure function of `(P, LogP, faults,
//! seed, protocol)`.
//!
//! The unit of work is a time step, not an event. Events live in a
//! calendar queue ([`crate::queue`]) that hands out the earliest pending
//! step's four lanes whole; the engine walks each lane as a slice, in
//! class order — which *is* `(time, class, insertion)` order, because
//! under LogP (`o ≥ 1`, `L ≥ 1`) nothing a step schedules can join it.
//! The same invariants make three destination lanes the step's own:
//! only the step at `now` schedules a `RecvDone` or `SenderFree` at
//! `now + o` or an `Arrive` at `now + o + L`, so the handlers append to
//! three local vectors that the queue installs as whole lanes when the
//! step ends. Only `Repoll` (any future time) and the `t = 0` polls are
//! pushed one by one. All per-run storage can be reused across runs
//! through a [`RunArena`]; a run that ends in an error still returns the
//! lanes it held.

use std::sync::Arc;

use ct_core::protocol::{BuildCtx, Payload, Population, ProtocolError, ProtocolFactory, SendPoll};
use ct_logp::{LogP, Rank, Time};
use ct_obs::event::phases;
use ct_obs::flight::{FlightKind, FlightRecorder, NO_RANK};
use ct_obs::health::HealthConfig;
use ct_obs::series::{Sampler, SeriesStore, DEFAULT_SERIES_CAP};
use ct_obs::telemetry::TelemetryHub;
use ct_obs::{Event as ObsEvent, EventKind as ObsEventKind, EventSink, NullSink, VecSink};

use crate::arena::RunArena;
use crate::bits::BitSet;
use crate::faults::FaultPlan;
use crate::metrics::{MessageCounts, Outcome};
use crate::queue::{Bucket, EventKind, EventQueue, PackedArrive, StepOutput};
use crate::recvpool::RecvPool;

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
    flight: Option<Arc<FlightRecorder>>,
    /// Continuous sampler over the attached hub (`Arc` because
    /// `Simulation` is `Clone`; the thread stops when the last clone
    /// drops).
    sampler: Option<Arc<Sampler>>,
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
    flight: Option<Arc<FlightRecorder>>,
    sample: Option<std::time::Duration>,
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
            flight: None,
            sample: None,
        }
    }

    /// The continuous sampler's shared store ([`SimulationBuilder::sample`]);
    /// `None` unless both `telemetry` and `sample` were configured.
    pub fn series(&self) -> Option<Arc<SeriesStore>> {
        self.sampler.as_ref().map(|s| s.store())
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
    /// repetitions of a campaign for the intended effect.
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
        let ctx = BuildCtx {
            p: self.p,
            logp: self.logp,
            seed: self.seed,
        };
        let observing = sink.enabled();
        arena.reset(self.p as usize, observing);
        factory.populate(&ctx, &mut arena.population)?;
        let mut run = Run::new(self, arena, sink, observing);
        run.start();
        run.drain()?;
        Ok(run.finish(factory.label()))
    }
}

/// One run in flight: what it borrows from the simulation and the
/// arena, its tallies, and the running step's output lanes. The methods
/// are the rank loop — deliver, poll, report coloring, arm the next
/// wake — one handler per event lane.
struct Run<'a> {
    sim: &'a Simulation,
    procs: &'a mut dyn Population,
    sink: &'a mut dyn EventSink,
    observing: bool,
    queue: &'a mut EventQueue,
    send_busy_until: &'a mut [Time],
    done: &'a mut BitSet,
    recv_queue: &'a mut RecvPool,
    recv_busy: &'a mut BitSet,
    colored_seen: &'a mut BitSet,
    /// Sender and receiver overhead.
    o: u64,
    /// Send start → arrival, `o + L`.
    wire: u64,
    /// `RecvDone` and `SenderFree` at `now + o`, `Arrive` at
    /// `now + wire`: lanes only the running step writes.
    out: StepOutput,
    /// Handed to the outcome (allocated per run; it takes ownership).
    sent_per_rank: Vec<u32>,
    messages: MessageCounts,
    quiescence: Time,
    events: u64,
}

impl<'a> Run<'a> {
    fn new(
        sim: &'a Simulation,
        arena: &'a mut RunArena,
        sink: &'a mut dyn EventSink,
        observing: bool,
    ) -> Run<'a> {
        let procs = arena
            .population
            .as_deref_mut()
            .expect("a successful populate fills the slot");
        assert_eq!(
            procs.len(),
            sim.p as usize,
            "factory must build P processes"
        );
        Run {
            sim,
            procs,
            sink,
            observing,
            queue: &mut arena.queue,
            send_busy_until: &mut arena.send_busy_until,
            done: &mut arena.done,
            recv_queue: &mut arena.recv_queue,
            recv_busy: &mut arena.recv_busy,
            colored_seen: &mut arena.colored_seen,
            o: sim.logp.o(),
            wire: sim.logp.o() + sim.logp.l(),
            out: StepOutput::default(),
            sent_per_rank: vec![0; sim.p as usize],
            messages: MessageCounts::default(),
            quiescence: Time::ZERO,
            events: 0,
        }
    }

    /// Open the broadcast phase and schedule the initial poll of every
    /// live rank at `t = 0`.
    fn start(&mut self) {
        if self.observing {
            self.sink.emit(&ObsEvent::sim(
                Time::ZERO,
                ObsEventKind::PhaseBegin {
                    name: phases::BROADCAST.into(),
                },
            ));
            // The root (and any pre-colored rank) is colored at t = 0.
            for r in 0..self.sim.p {
                self.report_coloring(r, Time::ZERO);
            }
        }
        if let Some(f) = self.sim.flight.as_deref() {
            // The single-threaded simulator owns shard 0; there is no
            // wall clock, so wall_us stays 0 and `step` carries LogP
            // time.
            f.record(0, FlightKind::IterStart, NO_RANK, self.sim.seed, 0, 0);
        }
        for r in 0..self.sim.p {
            if !self.sim.faults.is_failed(r) {
                self.queue.push(Time::ZERO, r, EventKind::SenderFree);
            }
        }
    }

    /// Run time step after time step until nothing is pending. A step's
    /// lanes go back to the queue whatever its result, so an aborted run
    /// leaves the arena's lane pool whole.
    fn drain(&mut self) -> Result<(), SimError> {
        while let Some((now, lanes)) = self.queue.next_step() {
            self.out = self.queue.output_lanes();
            let stepped = self.step(now, &lanes);
            let out = std::mem::take(&mut self.out);
            self.queue
                .finish_step(lanes, out, now + self.o, now + self.wire);
            stepped?;
        }
        Ok(())
    }

    /// The events of time `now`, in class order.
    fn step(&mut self, now: Time, lanes: &Bucket) -> Result<(), SimError> {
        self.arrivals(now, &lanes.arrive)?;
        self.receive_completions(now, &lanes.recv_done)?;
        self.sender_polls(now, &lanes.sender_free)?;
        self.sender_polls(now, &lanes.repoll)
    }

    /// Count one event against the runaway cap.
    #[inline]
    fn count_event(&mut self) -> Result<(), SimError> {
        self.events += 1;
        if self.events > self.sim.max_events {
            return Err(SimError::EventLimitExceeded {
                limit: self.sim.max_events,
            });
        }
        Ok(())
    }

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

    /// `Arrive`: messages reach receive ports and queue FIFO; an idle
    /// port starts its `o`-long processing. Dead ranks drop theirs.
    fn arrivals(&mut self, now: Time, lane: &[PackedArrive]) -> Result<(), SimError> {
        for a in lane {
            self.count_event()?;
            let (to, from, payload) = (a.to, a.from, a.payload());
            if self.sim.faults.is_failed(to) {
                if self.observing {
                    self.sink.emit(&ObsEvent::sim(
                        now,
                        ObsEventKind::DropDead { from, to, payload },
                    ));
                }
                continue;
            }
            if self.observing {
                self.sink.emit(&ObsEvent::sim(
                    now,
                    ObsEventKind::Arrive { from, to, payload },
                ));
            }
            if let Some(f) = self.sim.flight.as_deref() {
                f.record(
                    0,
                    FlightKind::MailboxPush,
                    to,
                    u64::from(from),
                    now.steps(),
                    0,
                );
            }
            self.recv_queue.push_back(to, from, payload);
            if !self.recv_busy.get(to as usize) {
                self.recv_busy.set(to as usize);
                self.out.recv_done.push(to);
            }
        }
        Ok(())
    }

    /// `RecvDone`: a rank finished processing its queue head;
    /// `on_message` runs, then the sender is polled (sends overlap
    /// receives, §2.2) and the port turns to the next queued message.
    fn receive_completions(&mut self, now: Time, lane: &[Rank]) -> Result<(), SimError> {
        for &r in lane {
            self.count_event()?;
            let (from, payload) = self
                .recv_queue
                .pop_front(r)
                .expect("RecvDone implies a queued message");
            if self.observing {
                self.sink.emit(&ObsEvent::sim(
                    now,
                    ObsEventKind::Deliver {
                        from,
                        to: r,
                        payload,
                    },
                ));
            }
            self.quiescence = self.quiescence.max(now);
            self.procs.on_message(r, from, payload, now);
            if self.observing {
                self.report_coloring(r, now);
            }
            // Delivery may have unblocked sends.
            self.done.unset(r as usize);
            if self.send_busy_until[r as usize] <= now {
                self.poll(r, now)?;
            }
            if !self.recv_queue.is_empty(r) {
                self.out.recv_done.push(r);
            } else {
                self.recv_busy.unset(r as usize);
            }
        }
        Ok(())
    }

    /// `SenderFree` and `Repoll`: poll every rank of the lane that is
    /// neither done nor still sending.
    fn sender_polls(&mut self, now: Time, lane: &[Rank]) -> Result<(), SimError> {
        for &r in lane {
            self.count_event()?;
            if !self.done.get(r as usize) && self.send_busy_until[r as usize] <= now {
                self.poll(r, now)?;
            }
        }
        Ok(())
    }

    /// Poll `r`'s protocol while its sender port is free; schedules at
    /// most one send (the port then stays busy for `o`).
    fn poll(&mut self, r: Rank, now: Time) -> Result<(), SimError> {
        match self.procs.poll_send(r, now) {
            SendPoll::Now { to, payload } => {
                debug_assert!(to < self.sim.p, "send target out of range");
                self.sent_per_rank[r as usize] += 1;
                match payload {
                    Payload::Tree => self.messages.tree += 1,
                    Payload::Gossip { .. } => self.messages.gossip += 1,
                    Payload::Correction => self.messages.correction += 1,
                    Payload::Ack => self.messages.ack += 1,
                }
                if self.observing {
                    self.sink.emit(&ObsEvent::sim(
                        now,
                        ObsEventKind::SendStart {
                            from: r,
                            to,
                            payload,
                        },
                    ));
                }
                self.send_busy_until[r as usize] = now + self.o;
                self.quiescence = self.quiescence.max(now + self.o);
                self.out.sender_free.push(r);
                // The wire delivers even to dead processes; they drop it.
                self.out.arrive.push(PackedArrive::new(to, r, payload));
            }
            SendPoll::WaitUntil(at) => {
                if at <= now {
                    return Err(SimError::NonAdvancingWait { rank: r, now, at });
                }
                if let Some(f) = self.sim.flight.as_deref() {
                    f.record(0, FlightKind::TimerArm, r, at.steps(), now.steps(), 0);
                }
                self.queue.push(at, r, EventKind::Repoll);
            }
            SendPoll::Idle => {}
            SendPoll::Done => self.done.set(r as usize),
        }
        Ok(())
    }

    /// Close the broadcast phase and assemble the outcome.
    fn finish(self, label: String) -> Outcome {
        let (sim, procs) = (self.sim, self.procs);
        if self.observing {
            self.sink.emit(&ObsEvent::sim(
                self.quiescence,
                ObsEventKind::PhaseEnd {
                    name: phases::BROADCAST.into(),
                },
            ));
        }
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
            messages: self.messages,
            sent_per_rank: self.sent_per_rank,
            coloring_latency,
            quiescence: self.quiescence,
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
        if let Some(f) = sim.flight.as_deref() {
            f.record(
                0,
                FlightKind::IterEnd,
                NO_RANK,
                u64::from(outcome.all_live_colored()),
                outcome.quiescence.steps(),
                0,
            );
        }
        outcome
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

    /// Record flight-recorder events into `recorder`'s shard 0 (default
    /// off): iteration markers, message arrivals (with sender identity)
    /// and protocol timer arms, in the same record schema the cluster
    /// runtime writes. A pure observer — outcomes and traces are
    /// bit-identical with the recorder on or off.
    pub fn flight(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = Some(recorder);
        self
    }

    /// Continuously sample the attached telemetry hub every `interval`
    /// into a `ct-series-v1` ring, evaluating the health rules per
    /// window (default off; requires [`SimulationBuilder::telemetry`]
    /// to have any effect). The sampler is a pure observer on its own
    /// thread — outcomes and traces are bit-identical with sampling on
    /// or off.
    pub fn sample(mut self, interval: std::time::Duration) -> Self {
        self.sample = Some(interval);
        self
    }

    /// Finalize. When both a telemetry hub and a sampling interval are
    /// configured, this spawns the background sampler thread.
    pub fn build(self) -> Simulation {
        let faults = self.faults.unwrap_or_else(|| FaultPlan::none(self.p));
        let sampler = match (&self.telemetry, self.sample) {
            (Some(hub), Some(interval)) => Some(Arc::new(Sampler::spawn(
                Arc::clone(hub),
                "sim",
                interval,
                DEFAULT_SERIES_CAP,
                HealthConfig::default(),
            ))),
            _ => None,
        };
        Simulation {
            p: self.p,
            logp: self.logp,
            faults,
            seed: self.seed,
            max_events: self.max_events,
            telemetry: self.telemetry,
            flight: self.flight,
            sampler,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::correction::CorrectionKind;
    use ct_core::protocol::{BroadcastSpec, ColoredVia, Process};
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
    impl Process for Stuck {
        fn on_message(&mut self, _: Rank, _: Payload, _: Time) {}
        fn poll_send(&mut self, now: Time) -> SendPoll {
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
    impl ProtocolFactory for StuckFactory {
        fn label(&self) -> String {
            "stuck".into()
        }
        fn build(&self, ctx: &BuildCtx) -> Result<Vec<Box<dyn Process>>, ProtocolError> {
            Ok((0..ctx.p).map(|_| Box::new(Stuck) as _).collect())
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
