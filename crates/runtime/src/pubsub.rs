//! Topic-multiplexed concurrent broadcasts over one worker pool, and
//! the one coordinator every broadcast runs under.
//!
//! A [`TopicTable`] names a set of independent broadcast topics — each
//! its own [`BroadcastSpec`] (tree shape, root, correction), failure
//! mask and seed, resolved through the same topology cache single
//! broadcasts use. [`Cluster::run_pubsub`] drives `rounds` broadcasts
//! of every topic with up to `k` of them in flight at once, round-robin
//! admitted (round-major, topic-minor) so no topic starves.
//!
//! Scheduling stays rank-granular: one quantum drains a rank's mailbox
//! (at its start and every 16 sends of a burst) and serves *all* of its
//! installed iterations, so batch claiming, the lost-wakeup recheck and
//! the bounded-mailbox backpressure story are exactly those of a single
//! broadcast — multiplexing adds per-iteration state, not new scheduler
//! paths. The win is pipelining: a corrected-tree broadcast spends most
//! of its wall-clock waiting (correction pacing, synchronized-start
//! barriers), and concurrent topics fill those gaps with each other's
//! work.
//!
//! ## One window, two retirement rules
//!
//! Every broadcast runs through one loop: admit into a window of `k`
//! slots, wait on the coordinator inbox, retire. A single broadcast
//! ([`Cluster::run_broadcast`]) is a one-slot window; only the rule
//! that retires an admission differs:
//!
//! - A single broadcast retires once every live rank is colored and
//!   every message it took in is accounted for (`sent ≥ consumed`),
//!   truncating whatever the correction machines were still doing —
//!   fine when the broadcast owns the cluster. Its coordinator sleeps
//!   until the push that completes the coloring. The fence keeps the
//!   truncated count exact where it can be: a worker reports a batch's
//!   sends and receipts before its colorings, so by the time every
//!   rank is known colored, every message that colored one has been
//!   reported received — and `sent ≥ consumed` waits for its sender's
//!   report too. A plain tree thus reports exactly `P − 1`.
//! - A pub/sub broadcast retires only at *quiescence*: every live rank
//!   colored, every protocol machine reported
//!   [`ct_core::protocol::SendPoll::Done`], and every message sent also
//!   consumed (delivered or dead-dropped — nothing in flight).
//!   Fault-free checked-correction topics therefore report exactly the
//!   `(P-1) + M·P` total of Corollary 1 regardless of interleaving.
//!   Once every live rank is colored and done, any message can complete
//!   quiescence, so from then on its coordinator wakes on each.
//!   Topics whose machines never report `Done` (failure-proof gossip
//!   correction idles forever) only retire via the watchdog deadline;
//!   use checked correction for pub/sub workloads.
//!
//! Either way, a broadcast still in flight at its deadline retires with
//! a [`StallReport`] (and, with a flight recorder, a postmortem dump).
//! Retiring is one scheduler-lock acquisition that takes the broadcast
//! out of the window: its ranks drop it when they next sync, and what
//! it left in their mailboxes is dropped by id at their next drain.
//! Only a broadcast whose events are recorded is also harvested rank by
//! rank. Its message count is the sum of the workers' reports.
//!
//! [`BroadcastOutcome::latency`] is admission → last live rank colored
//! (the consumer-visible metric); retirement at quiescence happens
//! later, without extending the reported latency.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use ct_core::protocol::{BroadcastSpec, BuildCtx, ProtocolFactory};
use ct_logp::{Rank, Time};
use ct_obs::event::phases;
use ct_obs::flight::{FlightKind as Fk, NO_RANK};
use ct_obs::health::HealthEvent;
use ct_obs::{causal_order, Event as ObsEvent, EventKind as ObsEventKind, EventSink, NullSink};
use ct_obs::{Postmortem, RankStall, StallReport};

use crate::cluster::{Cluster, ClusterError, Entry, Window};
use crate::inbox::{CoordMsg, RecvError};

/// One broadcast topic: a protocol spec plus the failure mask and seed
/// its broadcasts run under.
#[derive(Clone, Debug)]
pub struct Topic {
    /// Display label (campaign cell name, monitor stream tag).
    pub label: String,
    /// The protocol to broadcast (tree, root, correction, start mode).
    pub spec: BroadcastSpec,
    /// Per-rank crash mask, length P.
    pub dead: Vec<bool>,
    /// Base build seed; round `r` builds with `seed + r` so repeated
    /// rounds of a shuffled topic use distinct permutations while a
    /// solo re-run of `(topic, round)` stays reproducible.
    pub seed: u64,
}

impl Topic {
    /// A fault-free topic of `p` ranks.
    pub fn new(label: impl Into<String>, spec: BroadcastSpec, p: u32, seed: u64) -> Topic {
        Topic {
            label: label.into(),
            spec,
            dead: vec![false; p as usize],
            seed,
        }
    }

    /// Replace the failure mask.
    pub fn with_dead(mut self, dead: Vec<bool>) -> Topic {
        self.dead = dead;
        self
    }
}

/// The set of topics a pub/sub run multiplexes.
#[derive(Clone, Debug, Default)]
pub struct TopicTable {
    topics: Vec<Topic>,
}

impl TopicTable {
    /// An empty table.
    pub fn new() -> TopicTable {
        TopicTable::default()
    }

    /// Append a topic; its index is the `topic` field of every
    /// [`BroadcastOutcome`] it produces.
    pub fn push(&mut self, topic: Topic) {
        self.topics.push(topic);
    }

    /// Number of topics.
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// The topics, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Topic> {
        self.topics.iter()
    }

    /// Topic at `index`.
    pub fn get(&self, index: usize) -> Option<&Topic> {
        self.topics.get(index)
    }
}

/// Tunables for [`Cluster::run_pubsub`].
#[derive(Clone, Copy, Debug)]
pub struct PubsubOptions {
    /// Maximum broadcasts in flight at once (≥ 1).
    pub k: usize,
    /// Broadcast rounds per topic (≥ 1); the run performs
    /// `rounds × topics` broadcasts in total.
    pub rounds: usize,
}

impl Default for PubsubOptions {
    fn default() -> PubsubOptions {
        PubsubOptions { k: 4, rounds: 1 }
    }
}

/// Result of one broadcast on the cluster: of a single broadcast
/// ([`Cluster::run_broadcast`]) or of one topic's round within a pub/sub
/// run.
#[derive(Clone, Debug)]
pub struct BroadcastOutcome {
    /// Index into the [`TopicTable`] (0 for a single broadcast).
    pub topic: usize,
    /// Round number (0-based; 0 for a single broadcast).
    pub round: usize,
    /// The broadcast id its messages and events carry.
    pub id: u64,
    /// Admission → last live rank colored. Equal to the watchdog
    /// timeout when the broadcast never fully colored. The epoch is a
    /// whole-µs point of the cluster timeline and the zero of every
    /// recorded event timestamp, so no event can postdate the latency.
    /// It is taken before the broadcast is published so events can
    /// never predate it either, which means latency includes the
    /// admission's O(P) enqueue sweep and each rank's own install —
    /// low microseconds even at P=4096, but a systematic inclusion to
    /// keep in mind for cross-P comparisons (see DESIGN.md "Cluster
    /// runtime", *One clock*).
    pub latency: Duration,
    /// Total messages sent, as the workers reported them by retirement;
    /// exact (not truncated) when a pub/sub broadcast `completed`.
    pub messages: u64,
    /// Whether the broadcast met its retirement rule before its
    /// deadline.
    pub completed: bool,
    /// Live ranks never colored (empty when fully colored).
    pub uncolored: Vec<Rank>,
    /// Watchdog diagnostics, taken at the deadline before retirement;
    /// `None` on completed broadcasts.
    pub stall: Option<StallReport>,
    /// The `ct-postmortem-v1` bundle this broadcast's deadline
    /// retirement captured when a flight recorder is attached
    /// ([`crate::ClusterConfig::flight`]); also written to
    /// [`crate::ClusterConfig::postmortem`] when a path is set. `None`
    /// on completed broadcasts and on runs without a recorder.
    pub postmortem: Option<Postmortem>,
    /// Health events the continuous sampler fired between this
    /// broadcast's admission and its retirement
    /// ([`crate::ClusterConfig::sample`]); empty without a sampler. On
    /// a stalled broadcast the `stall_precursor` event lands here —
    /// fired K sample windows into the wedge, well before the watchdog
    /// gave up.
    pub health: Vec<HealthEvent>,
}

/// Result of a whole pub/sub run.
#[derive(Clone, Debug)]
pub struct PubsubReport {
    /// One outcome per admitted broadcast, in admission order.
    pub outcomes: Vec<BroadcastOutcome>,
    /// Wall-clock time from first admission to last retirement.
    pub elapsed: Duration,
}

impl PubsubReport {
    /// Did every broadcast reach quiescence?
    pub fn completed(&self) -> bool {
        self.outcomes.iter().all(|o| o.completed)
    }

    /// Aggregate throughput: broadcasts retired per wall-clock second.
    pub fn broadcasts_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / secs
    }
}

/// Longest coordinator sleep with a telemetry hub attached: what is
/// queued below the wake-up threshold is taken in at least this often,
/// so the `iter.colored` gauge follows a long broadcast.
const GAUGE_REFRESH: Duration = Duration::from_millis(50);

/// When an admitted broadcast retires (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Once every live rank is colored: a single broadcast, which owns
    /// the cluster. Its events carry no broadcast id, as the
    /// simulator's do.
    Colored,
    /// At quiescence: a pub/sub broadcast, whose events are stamped
    /// with its id.
    Quiescent,
}

/// One broadcast to admit into the window.
pub(crate) struct Admission<'a> {
    pub(crate) factory: &'a dyn ProtocolFactory,
    /// Per-rank crash mask, length P.
    pub(crate) dead: &'a [bool],
    pub(crate) seed: u64,
    /// Index of the sink its events go to: its topic.
    pub(crate) topic: usize,
    pub(crate) round: usize,
    pub(crate) rule: Rule,
}

/// Coordinator-side state of one in-flight broadcast.
struct Active<'a> {
    topic: usize,
    round: usize,
    id: u64,
    rule: Rule,
    dead: &'a [bool],
    live: u32,
    colored: Vec<bool>,
    colored_count: u32,
    /// Live ranks whose protocol machine reported `Done`.
    done: u32,
    /// Messages pushed on behalf of this broadcast: its message count.
    sent: u64,
    /// Messages taken off mailboxes (delivered or dead-dropped).
    consumed: u64,
    epoch: Instant,
    /// `epoch` on the cluster timeline, µs.
    epoch_us: u64,
    deadline: Instant,
    /// Set the moment `colored_count` reached `live`.
    latency: Option<Duration>,
    record: bool,
    /// The sampler's health-log length at admission: what this
    /// broadcast's outcome reports from.
    health_mark: Option<usize>,
}

impl Active<'_> {
    /// Whether its rule retires it now.
    fn retirable(&self) -> bool {
        let colored = self.colored_count == self.live;
        match self.rule {
            Rule::Colored => colored && self.sent >= self.consumed,
            Rule::Quiescent => colored && self.done == self.live && self.sent == self.consumed,
        }
    }

    /// The fewest rank reports the inbox must hold before this
    /// broadcast can retire: the colorings still missing, and under
    /// [`Rule::Quiescent`] the machines not yet done too. None once all
    /// are in: then any message can be the one that balances its
    /// counts.
    fn need(&self) -> u64 {
        let colored = u64::from(self.live - self.colored_count);
        match self.rule {
            Rule::Colored => colored,
            Rule::Quiescent => colored + u64::from(self.live.saturating_sub(self.done)),
        }
    }
}

impl Cluster {
    /// Run `opts.rounds` broadcasts of every topic in `table`, up to
    /// `opts.k` in flight at once over the shared worker pool. Topics
    /// are admitted round-robin (round-major, topic-minor) as slots
    /// free up; each broadcast gets the cluster's watchdog timeout from
    /// its own admission. See the module docs for the quiescence-based
    /// completion rule.
    pub fn run_pubsub(
        &mut self,
        table: &TopicTable,
        opts: &PubsubOptions,
    ) -> Result<PubsubReport, ClusterError> {
        let mut sinks: Vec<NullSink> = table.iter().map(|_| NullSink).collect();
        let mut refs: Vec<&mut dyn EventSink> =
            sinks.iter_mut().map(|s| s as &mut dyn EventSink).collect();
        self.run_pubsub_observed(table, opts, &mut refs)
    }

    /// Like [`Cluster::run_pubsub`], additionally streaming each
    /// topic's observability events into its sink (`sinks[i]` receives
    /// topic `i`; lengths must match). Every event is stamped with its
    /// broadcast id ([`ObsEvent::with_bcast`]) and each broadcast is
    /// wrapped in its own `broadcast` phase span, so one topic's stream
    /// filtered by id replays exactly like a solo run's.
    pub fn run_pubsub_observed(
        &mut self,
        table: &TopicTable,
        opts: &PubsubOptions,
        sinks: &mut [&mut dyn EventSink],
    ) -> Result<PubsubReport, ClusterError> {
        assert!(!table.is_empty(), "pub/sub needs at least one topic");
        assert_eq!(
            sinks.len(),
            table.len(),
            "one event sink per topic (use NullSink for unobserved topics)"
        );
        let started = Instant::now();
        let admissions = (0..opts.rounds.max(1)).flat_map(|round| {
            table.iter().enumerate().map(move |(topic, t)| Admission {
                factory: &t.spec,
                dead: &t.dead,
                seed: t.seed.wrapping_add(round as u64),
                topic,
                round,
                rule: Rule::Quiescent,
            })
        });
        let outcomes = self.run_window(opts.k.max(1), admissions, sinks)?;
        Ok(PubsubReport {
            outcomes,
            elapsed: started.elapsed(),
        })
    }

    /// The one coordinator: admit `admissions` in order into a window
    /// of `k` slots, sleep on the inbox, retire each broadcast by its
    /// [`Rule`] or at its deadline. `sinks[a.topic]` receives admission
    /// `a`'s events. Returns one outcome per admission, in admission
    /// order.
    pub(crate) fn run_window<'a>(
        &mut self,
        k: usize,
        admissions: impl Iterator<Item = Admission<'a>>,
        sinks: &mut [&mut dyn EventSink],
    ) -> Result<Vec<BroadcastOutcome>, ClusterError> {
        let result = self.window(k, admissions, sinks);
        if let Err(ClusterError::WorkerPanicked) = &result {
            // The black box outlives the crash: freeze the rings and
            // dump whatever the workers managed to record before dying.
            let _ = self.capture_postmortem("worker_panic", None);
        }
        result
    }

    fn window<'a>(
        &mut self,
        k: usize,
        mut admissions: impl Iterator<Item = Admission<'a>>,
        sinks: &mut [&mut dyn EventSink],
    ) -> Result<Vec<BroadcastOutcome>, ClusterError> {
        let mut active: Vec<Active<'a>> = Vec::with_capacity(k);
        let mut outcomes = Vec::new();
        // The latest wait found the inbox empty.
        let mut drained = false;
        loop {
            while active.len() < k {
                let Some(admission) = admissions.next() else {
                    break;
                };
                let record = sinks[admission.topic].enabled();
                active.push(self.admit(admission, record, k)?);
            }
            if active.is_empty() {
                break;
            }
            self.publish_gauges(&active);

            // Retire everything retirable before blocking: a broadcast
            // can already be done at admission (zero live ranks). One
            // past its deadline retires once the inbox has handed over
            // everything queued, so no coloring it reported is lost.
            let in_flight = active.len();
            let mut i = 0;
            while i < active.len() {
                let done = active[i].retirable();
                if done || (drained && Instant::now() >= active[i].deadline) {
                    let a = active.remove(i);
                    let sink = &mut *sinks[a.topic];
                    outcomes.push(self.retire(a, done, sink)?);
                } else {
                    i += 1;
                }
            }
            drained = active.len() == in_flight && !self.wait(&mut active)?;
        }

        // Everything retired (the last withdrawal dropped the leftover
        // wake-ups): retire the gauges.
        self.publish_gauges(&[]);
        // Admission order, not retirement order: stable for reports.
        outcomes.sort_by_key(|o| o.id);
        Ok(outcomes)
    }

    /// Publish one broadcast into the window of `k` and make every rank
    /// runnable; each rank installs it in its own next quantum, while
    /// other iterations keep running.
    fn admit<'a>(
        &mut self,
        admission: Admission<'a>,
        record: bool,
        k: usize,
    ) -> Result<Active<'a>, ClusterError> {
        let dead = admission.dead;
        assert_eq!(dead.len(), self.p as usize);
        let health_mark = self.series().map(|store| store.events_len());
        let id = self.next_id;
        self.next_id += 1;
        let ctx = BuildCtx {
            p: self.p,
            logp: self.logp,
            seed: admission.seed,
        };
        let blueprint = admission.factory.blueprint(&ctx)?;
        let live: u32 = dead.iter().filter(|&&d| !d).count() as u32;
        // The iteration epoch: zero point of event timestamps and of
        // the latency measurement, taken before the broadcast is
        // published so no stamp can predate it.
        let (epoch, epoch_us) = self.shared.epoch();
        let entry = Entry {
            id,
            epoch_us,
            record,
            dead: dead.into(),
            blueprint,
        };
        self.shared.publish(entry, k)?;
        if let Some(f) = self.shared.flight.as_deref() {
            // The coordinator owns the extra shard past the workers.
            f.record(self.shared.workers, Fk::IterStart, NO_RANK, id, 0, epoch_us);
        }
        Ok(Active {
            topic: admission.topic,
            round: admission.round,
            id,
            rule: admission.rule,
            dead,
            live,
            colored: vec![false; self.p as usize],
            colored_count: 0,
            done: 0,
            sent: 0,
            consumed: 0,
            epoch,
            epoch_us,
            deadline: epoch + self.timeout,
            latency: (live == 0).then_some(Duration::ZERO),
            record,
            health_mark,
        })
    }

    /// Sleep until the inbox holds the fewest rank reports that could
    /// let some in-flight broadcast retire, or the earliest deadline
    /// passes, and take in one message; `false` when there was none. A
    /// one-slot window under [`Rule::Colored`] is thus woken once, by
    /// the push that completes it. With a hub attached the sleep is cut
    /// short to keep the progress gauge moving.
    fn wait(&self, active: &mut [Active<'_>]) -> Result<bool, ClusterError> {
        let mut until = active.iter().map(|a| a.deadline).min().expect("in flight");
        if self.shared.telemetry.is_some() {
            until = until.min(Instant::now() + GAUGE_REFRESH);
        }
        let need = active.iter().map(Active::need).min().expect("in flight");
        match self.shared.inbox.recv(until, need) {
            Ok(CoordMsg::Colored { id, ranks }) => {
                if let Some(a) = active.iter_mut().find(|a| a.id == id) {
                    for rank in ranks {
                        if !a.colored[rank as usize] {
                            a.colored[rank as usize] = true;
                            a.colored_count += 1;
                        }
                    }
                    if a.colored_count == a.live && a.latency.is_none() {
                        a.latency = Some(a.epoch.elapsed());
                    }
                }
            }
            Ok(CoordMsg::Progress {
                id,
                sent,
                consumed,
                done,
            }) => {
                if let Some(a) = active.iter_mut().find(|a| a.id == id) {
                    a.sent += sent;
                    a.consumed += consumed;
                    a.done += done;
                }
            }
            Err(RecvError::Timeout) => return Ok(false),
            Err(RecvError::Disconnected) => return Err(ClusterError::WorkerPanicked),
        }
        Ok(true)
    }

    /// Retire broadcast `a`, `done` by its rule or else past its
    /// deadline: diagnose a stall first, then withdraw it from the
    /// window — its ranks drop it when they next sync — and, when it
    /// records, harvest its events into its `sink`.
    fn retire(
        &mut self,
        a: Active<'_>,
        done: bool,
        sink: &mut dyn EventSink,
    ) -> Result<BroadcastOutcome, ClusterError> {
        // Diagnose a stall before anything moves on: the stranded
        // ranks' scheduled flags, mailboxes and last-poll stamps still
        // describe the stuck state here, and the flight recorder is
        // frozen while it is fresh.
        let stall = if done {
            None
        } else {
            Some(self.stall_report(&a)?)
        };
        let postmortem = stall
            .as_ref()
            .and_then(|report| self.capture_postmortem("watchdog_stall", Some(report)));
        let window = self.shared.withdraw(a.id)?;
        let latency = a.latency.unwrap_or(self.timeout);
        if let Some(f) = self.shared.flight.as_deref() {
            f.record(
                self.shared.workers,
                Fk::IterEnd,
                NO_RANK,
                u64::from(done),
                latency.as_micros() as u64,
                self.shared.now_us(),
            );
        }
        if a.record {
            let recorded = self.harvest(a.id, &window)?;
            let bcast = (a.rule == Rule::Quiescent).then_some(a.id);
            emit(sink, recorded, bcast);
        }
        let uncolored = a
            .colored
            .iter()
            .zip(a.dead)
            .enumerate()
            .filter_map(|(r, (&c, &d))| (!c && !d).then_some(r as Rank))
            .collect();
        let health = match (self.series(), a.health_mark) {
            (Some(store), Some(mark)) => store.events_from(mark),
            _ => Vec::new(),
        };
        Ok(BroadcastOutcome {
            topic: a.topic,
            round: a.round,
            id: a.id,
            latency,
            messages: a.sent,
            completed: done,
            uncolored,
            stall,
            postmortem,
            health,
        })
    }

    /// Take recorded broadcast `id`, already withdrawn (`window` is
    /// what remains), off every rank that installed it and return its
    /// events. Locking a rank's state waits out any quantum in flight
    /// on it; once the iteration is taken, later quanta no longer see
    /// it. A rank that has not installed it yet is synced with `window`
    /// here and marked past `id`, so that a worker still holding an
    /// older window cannot install it later.
    fn harvest(&self, id: u64, window: &Window) -> Result<Vec<ObsEvent>, ClusterError> {
        let mut recorded: Vec<ObsEvent> = Vec::new();
        for rank in 0..self.p {
            let mut st = self.shared.ranks[rank as usize]
                .state
                .lock()
                .map_err(|_| ClusterError::WorkerPanicked)?;
            if let Some(pos) = st.iters.iter().position(|i| i.id == id) {
                let mut iter = st.iters.remove(pos);
                recorded.append(&mut iter.events);
                if st.iters.len() + st.spare.len() < window.k {
                    st.spare.push(iter.process);
                }
            } else if id > st.last_installed {
                st.sync(rank, window);
                st.last_installed = st.last_installed.max(id);
            }
        }
        Ok(recorded)
    }

    /// The watchdog's [`StallReport`] for `a`: one [`RankStall`] per
    /// live-but-uncolored rank plus global scheduler state. Called with
    /// `a` still in the window, so the evidence is intact; the system
    /// is stuck, so the brief per-rank lock holds cannot perturb a
    /// healthy run. A rank counts as polled only if it drained its mailbox since
    /// `a`'s epoch.
    fn stall_report(&self, a: &Active<'_>) -> Result<StallReport, ClusterError> {
        let (runq_depth, pending_timers) = {
            let sched = self
                .shared
                .sched
                .lock()
                .map_err(|_| ClusterError::WorkerPanicked)?;
            (sched.runq.len(), sched.timers.len())
        };
        let mut ranks = Vec::new();
        for rank in 0..self.p {
            let r = rank as usize;
            if a.dead[r] || a.colored[r] {
                continue;
            }
            let cell = &self.shared.ranks[r];
            let last_poll_us = cell
                .state
                .lock()
                .map_err(|_| ClusterError::WorkerPanicked)?
                .last_poll_us
                .filter(|&us| us >= a.epoch_us);
            let scheduled = cell.scheduled.load(Ordering::SeqCst);
            let mb = cell
                .mailbox
                .lock()
                .map_err(|_| ClusterError::WorkerPanicked)?;
            ranks.push(RankStall {
                rank,
                scheduled,
                mailbox_len: mb.len(),
                mailbox_spilled: mb.spilled(),
                last_poll_us,
            });
        }
        Ok(StallReport {
            id: a.id,
            timeout_ms: self.timeout.as_millis() as u64,
            p: self.p,
            live: a.live,
            colored: a.colored_count,
            runq_depth,
            pending_timers,
            coord_in_flight: self.shared.inbox.len(),
            now_us: a.epoch.elapsed().as_micros() as u64,
            epoch_us: a.epoch_us,
            ranks,
        })
    }

    /// Publish the concurrency-aware iteration gauges: `iter.active` is
    /// the in-flight broadcast count, `iter.live`/`iter.colored` sum
    /// over them (the shape the `stall_precursor` health rule expects).
    fn publish_gauges(&self, active: &[Active<'_>]) {
        if let Some(t) = &self.shared.telemetry {
            let live: u64 = active.iter().map(|a| u64::from(a.live)).sum();
            let colored: u64 = active.iter().map(|a| u64::from(a.colored_count)).sum();
            t.set_iter_active(active.len() as u64);
            t.set_iter_progress(live, colored);
        }
    }
}

/// Emit a harvested broadcast into `sink`, stamped with `bcast`, inside
/// its `broadcast` phase span. Per-rank buffers are harvested in rank
/// order, so cross-rank events stamped in the same microsecond would
/// otherwise interleave arbitrarily — an `Arrive` could surface before
/// its `SendStart`. Emitting in [`causal_order`] restores
/// cause-before-effect at equal timestamps, keeps each rank's own
/// stream in order, and makes recorded cluster traces deterministic
/// for diffing.
fn emit(sink: &mut dyn EventSink, mut recorded: Vec<ObsEvent>, bcast: Option<u64>) {
    let order = causal_order(&recorded);
    let end = order.last().map_or(Time::ZERO, |&i| recorded[i].time);
    let phase = |time: Time, kind| ObsEvent {
        bcast,
        ..ObsEvent::wall(time, time.steps(), kind)
    };
    let name = || phases::BROADCAST.to_owned();
    sink.emit(&phase(
        Time::ZERO,
        ObsEventKind::PhaseBegin { name: name() },
    ));
    for i in order {
        let e = &mut recorded[i];
        e.bcast = bcast;
        sink.emit(e);
    }
    sink.emit(&phase(end, ObsEventKind::PhaseEnd { name: name() }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use ct_core::correction::CorrectionKind;
    use ct_core::protocol::{ColoredVia, Payload};
    use ct_core::tree::TreeKind;
    use ct_logp::LogP;
    use ct_obs::{EventKind, VecSink};

    /// `3 + ⌈l/o⌉` for [`LogP::PAPER`] (l=2, o=1): the per-process
    /// checked-correction message count of Corollary 1.
    const M_PAPER: u64 = 5;

    fn plain_topics(p: u32, n: usize) -> TopicTable {
        let mut table = TopicTable::new();
        for t in 0..n {
            let mut spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
            spec.root = (t as u32 * 7) % p;
            table.push(Topic::new(format!("t{t}"), spec, p, t as u64));
        }
        table
    }

    #[test]
    fn concurrent_plain_topics_complete_with_exact_totals() {
        let p = 32;
        let mut cluster = Cluster::new(p, LogP::PAPER);
        let table = plain_topics(p, 3);
        let opts = PubsubOptions { k: 2, rounds: 2 };
        let report = cluster.run_pubsub(&table, &opts).unwrap();
        assert_eq!(report.outcomes.len(), 6);
        assert!(report.completed(), "outcomes: {:?}", report.outcomes);
        for o in &report.outcomes {
            assert_eq!(o.messages, u64::from(p) - 1, "outcome {o:?}");
            assert!(o.uncolored.is_empty());
        }
        // Round-robin admission: ids are monotone in (round, topic).
        let order: Vec<(usize, usize)> =
            report.outcomes.iter().map(|o| (o.round, o.topic)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        // A rank keeps no more machines than the window has slots.
        assert!(cluster.most_machines_per_rank() <= opts.k);
    }

    #[test]
    fn checked_paced_topics_report_corollary1_totals_at_any_k() {
        let p = 16;
        let mut spec = BroadcastSpec::corrected_tree_sync(
            TreeKind::BINOMIAL,
            CorrectionKind::checked_paced(&LogP::PAPER, 2_000),
        );
        // Provision the synchronized start as a real wall-clock barrier
        // well past tree dissemination: with every rank tree-colored
        // before correction begins, all P machines participate and each
        // sends exactly M messages — the Corollary 1 count. (The
        // default `cached_deadline` start is a few µs — discrete-model
        // scale, long before a wall-clock tree completes — which turns
        // stragglers into correction-colored non-participants and
        // breaks the exact count.)
        spec.sync_start_override = Some(20_000);
        let expected = u64::from(p) - 1 + M_PAPER * u64::from(p);
        let wall = [1usize, 4].map(|k| {
            let mut cluster = Cluster::new(p, LogP::PAPER);
            let mut table = TopicTable::new();
            for t in 0..4 {
                table.push(Topic::new(format!("cp{t}"), spec, p, 100 + t));
            }
            let report = cluster
                .run_pubsub(&table, &PubsubOptions { k, rounds: 2 })
                .unwrap();
            assert!(report.completed(), "k={k}: {:?}", report.outcomes);
            for o in &report.outcomes {
                assert_eq!(
                    o.messages, expected,
                    "k={k} topic={} round={}",
                    o.topic, o.round
                );
            }
            report.elapsed
        });
        // Barrier-bound topics pipeline: k=1 sleeps through eight 20 ms
        // barriers one after another, k=4 through two waves of four.
        assert!(
            wall[1] < wall[0] / 2,
            "no pipelining: k=4 {:?} vs k=1 {:?}",
            wall[1],
            wall[0]
        );
    }

    #[test]
    fn faulty_corrected_topic_mixes_with_fault_free_neighbors() {
        let p = 64;
        let mut cluster = Cluster::new(p, LogP::PAPER);
        let mut table = plain_topics(p, 2);
        let mut dead = vec![false; p as usize];
        dead[3] = true;
        dead[17] = true;
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 4 },
        );
        table.push(Topic::new("faulty", spec, p, 9).with_dead(dead));
        let report = cluster
            .run_pubsub(&table, &PubsubOptions { k: 3, rounds: 1 })
            .unwrap();
        for o in &report.outcomes {
            assert!(o.uncolored.is_empty(), "outcome {o:?}");
            assert!(o.latency < cluster.shared.base.elapsed());
        }
    }

    #[test]
    fn capacity_one_mailboxes_backpressure_two_topics_without_deadlock() {
        let p = 32;
        let cfg = ClusterConfig::new()
            .mailbox_capacity(1)
            .timeout(Duration::from_secs(20));
        let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
        let table = plain_topics(p, 2);
        let report = cluster
            .run_pubsub(&table, &PubsubOptions { k: 2, rounds: 3 })
            .unwrap();
        assert!(report.completed(), "outcomes: {:?}", report.outcomes);
        for o in &report.outcomes {
            assert_eq!(o.messages, u64::from(p) - 1);
        }
    }

    #[test]
    fn emit_orders_events_as_a_stable_sort_by_time_and_class_would() {
        // Harvest order with many ties: equal stamps across ranks and
        // within one, every kind, times out of order.
        let mut x = 7u64;
        let recorded: Vec<ObsEvent> = (0..2_000u32)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (from, to, payload) = (i % 13, (i + 1) % 13, Payload::Tree);
                let kind = match (x >> 40) % 5 {
                    0 => EventKind::SendStart { from, to, payload },
                    1 => EventKind::Arrive { from, to, payload },
                    2 => EventKind::DropDead { from, to, payload },
                    3 => EventKind::Deliver { from, to, payload },
                    _ => EventKind::Colored {
                        rank: to,
                        via: ColoredVia::Dissemination,
                    },
                };
                let t = Time::new((x >> 20) % 40);
                ObsEvent::wall(t, t.steps(), kind)
            })
            .collect();
        let mut expected = recorded.clone();
        expected.sort_by_key(|e| (e.time, e.kind.order_class()));
        for e in &mut expected {
            e.bcast = Some(9);
        }
        let mut sink = VecSink::new();
        emit(&mut sink, recorded, Some(9));
        let n = sink.events.len();
        assert_eq!(sink.events[1..n - 1], expected[..]);
        let end = &sink.events[n - 1];
        assert!(matches!(end.kind, EventKind::PhaseEnd { .. }));
        assert_eq!(end.time, expected[expected.len() - 1].time);
    }

    #[test]
    fn per_topic_sinks_see_only_their_own_stamped_broadcasts() {
        let p = 16;
        let mut cluster = Cluster::new(p, LogP::PAPER);
        let table = plain_topics(p, 2);
        let mut s0 = VecSink::new();
        let mut s1 = VecSink::new();
        let report = {
            let mut sinks: Vec<&mut dyn EventSink> = vec![&mut s0, &mut s1];
            cluster
                .run_pubsub_observed(&table, &PubsubOptions { k: 2, rounds: 2 }, &mut sinks)
                .unwrap()
        };
        assert!(report.completed());
        for (tix, sink) in [(0usize, &s0), (1usize, &s1)] {
            let ids: Vec<u64> = report
                .outcomes
                .iter()
                .filter(|o| o.topic == tix)
                .map(|o| o.id)
                .collect();
            assert_eq!(ids.len(), 2);
            assert!(!sink.events.is_empty());
            for e in &sink.events {
                let b = e.bcast.expect("pub/sub events carry a broadcast id");
                assert!(ids.contains(&b), "event {e:?} not from topic {tix}");
            }
            // Each broadcast's span carries a full coloring.
            for id in ids {
                let colored = sink
                    .events
                    .iter()
                    .filter(|e| e.bcast == Some(id) && matches!(e.kind, EventKind::Colored { .. }))
                    .count();
                assert_eq!(colored, p as usize, "broadcast {id}");
            }
        }
    }
}
