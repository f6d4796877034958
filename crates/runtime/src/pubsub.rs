//! Topic-multiplexed concurrent broadcasts over one worker pool.
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
//! the bounded-mailbox backpressure story are exactly those of
//! single-broadcast mode —
//! multiplexing adds per-iteration state, not new scheduler paths. The
//! win is pipelining: a corrected-tree broadcast spends most of its
//! wall-clock waiting (correction pacing, synchronized-start barriers),
//! and concurrent topics fill those gaps with each other's work.
//!
//! ## Completion is quiescence, not coloring
//!
//! A single broadcast tears down when every live rank is colored,
//! truncating whatever the correction machines were still doing — fine
//! when the iteration owns the cluster, fatal for exact message
//! accounting under multiplexing. Here a broadcast retires only at
//! *quiescence*: every live rank colored, every protocol machine
//! reported [`ct_core::protocol::SendPoll::Done`], and every message
//! sent also consumed (delivered or dead-dropped — nothing in flight).
//! Fault-free checked-correction topics therefore report exactly the
//! `(P-1) + M·P` total of Corollary 1 regardless of interleaving.
//! Topics whose machines never report `Done` (failure-proof gossip
//! correction idles forever) only retire via the per-broadcast
//! watchdog deadline; use checked correction for pub/sub workloads.
//!
//! [`BroadcastOutcome::latency`] is admission → last live rank colored
//! (the consumer-visible metric); retirement happens later, at
//! quiescence, without extending the reported latency.

use std::time::{Duration, Instant};

use ct_core::protocol::{BroadcastSpec, BuildCtx, ProtocolFactory};
use ct_logp::{Rank, Time};
use ct_obs::event::phases;
use ct_obs::flight::{FlightKind as Fk, NO_RANK};
use ct_obs::{Event as ObsEvent, EventKind as ObsEventKind, EventSink, NullSink};

use crate::cluster::{Cluster, ClusterError, IterState};
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

/// Result of one broadcast of one topic within a pub/sub run.
#[derive(Clone, Debug)]
pub struct BroadcastOutcome {
    /// Index into the [`TopicTable`].
    pub topic: usize,
    /// Round number (0-based).
    pub round: usize,
    /// The broadcast id its messages and events carry.
    pub id: u64,
    /// Admission → last live rank colored. Equal to the watchdog
    /// timeout when the broadcast never fully colored.
    pub latency: Duration,
    /// Total messages sent; exact (not truncated) when `completed`.
    pub messages: u64,
    /// Whether the broadcast reached quiescence before its deadline.
    pub completed: bool,
    /// Live ranks never colored (empty when fully colored).
    pub uncolored: Vec<Rank>,
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

/// Coordinator-side state of one in-flight broadcast.
struct Active {
    topic: usize,
    round: usize,
    id: u64,
    live: u32,
    colored: Vec<bool>,
    colored_count: u32,
    /// Live ranks whose protocol machine reported `Done`.
    done: u32,
    /// Messages pushed on behalf of this broadcast.
    sent: u64,
    /// Messages taken off mailboxes (delivered or dead-dropped).
    consumed: u64,
    epoch: Instant,
    deadline: Instant,
    /// Set the moment `colored_count` reached `live`.
    latency: Option<Duration>,
    record: bool,
}

impl Active {
    fn quiescent(&self) -> bool {
        self.colored_count == self.live && self.done == self.live && self.sent == self.consumed
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
        let result = self.run_pubsub_inner(table, opts, sinks);
        if let Err(ClusterError::WorkerPanicked) = &result {
            let _ = self.capture_postmortem("worker_panic", None);
        }
        result
    }

    fn run_pubsub_inner(
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
        for topic in table.iter() {
            assert_eq!(topic.dead.len(), self.p as usize);
        }
        let k = opts.k.max(1);
        let rounds = opts.rounds.max(1);
        let total = rounds * table.len();
        let started = Instant::now();

        let mut admitted = 0usize;
        let mut active: Vec<Active> = Vec::with_capacity(k);
        let mut outcomes: Vec<BroadcastOutcome> = Vec::with_capacity(total);
        while outcomes.len() < total {
            // Refill the in-flight window (round-major, topic-minor).
            while active.len() < k && admitted < total {
                let topic = admitted % table.len();
                let round = admitted / table.len();
                admitted += 1;
                let record = sinks[topic].enabled();
                active.push(self.admit(&table.topics[topic], topic, round, record)?);
            }
            self.publish_gauges(&active);

            // Retire everything retirable before blocking: a broadcast
            // can already be quiescent at admission (zero live ranks)
            // or past its deadline.
            let now = Instant::now();
            let mut retired_any = false;
            let mut i = 0;
            while i < active.len() {
                let quiescent = active[i].quiescent();
                if quiescent || now >= active[i].deadline {
                    let a = active.remove(i);
                    let sink = &mut *sinks[a.topic];
                    outcomes.push(self.retire(a, quiescent, table, sink)?);
                    retired_any = true;
                } else {
                    i += 1;
                }
            }
            if retired_any {
                // Freed slots: admit before waiting on the channel.
                continue;
            }
            if active.is_empty() {
                break; // defensive: nothing in flight, nothing admissible
            }

            let earliest = active.iter().map(|a| a.deadline).min().expect("non-empty");
            // Any message can complete a topic's quiescence: wake on all.
            match self.shared.inbox.recv(earliest, 0) {
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
                Err(RecvError::Timeout) => {}
                Err(RecvError::Disconnected) => return Err(ClusterError::WorkerPanicked),
            }
        }

        // Everything retired: drop leftover wake-ups (a straggler timer
        // of an expired broadcast only costs a no-op quantum) and
        // retire the gauges.
        self.shared
            .sched
            .lock()
            .map_err(|_| ClusterError::WorkerPanicked)?
            .timers
            .clear();
        if let Some(t) = &self.shared.telemetry {
            t.set_iter_progress(0, 0);
            t.set_iter_active(0);
        }
        // Admission order, not retirement order: stable for reports.
        outcomes.sort_by_key(|o| o.id);
        Ok(PubsubReport {
            outcomes,
            elapsed: started.elapsed(),
        })
    }

    /// Install one broadcast of `topic` on every rank and make them
    /// runnable — the pub/sub counterpart of the single-broadcast
    /// install loop, minus the exclusivity: other iterations keep
    /// running while this one is pushed.
    fn admit(
        &mut self,
        topic: &Topic,
        tix: usize,
        round: usize,
        record: bool,
    ) -> Result<Active, ClusterError> {
        let id = self.next_id;
        self.next_id += 1;
        let ctx = BuildCtx {
            p: self.p,
            logp: self.logp,
            seed: topic.seed.wrapping_add(round as u64),
        };
        topic.spec.build_into(&ctx, &mut self.procs)?;
        assert_eq!(self.procs.len(), self.p as usize);
        let live: u32 = topic.dead.iter().filter(|&&d| !d).count() as u32;
        let (epoch, epoch_us) = self.shared.epoch();
        for rank in (0..self.p).rev() {
            let process = self.procs.pop().expect("one per rank");
            let mut st = self.shared.ranks[rank as usize]
                .state
                .lock()
                .map_err(|_| ClusterError::WorkerPanicked)?;
            debug_assert!(st.last_installed < id, "installs must be id-ordered");
            st.iters.push(IterState::new(
                id,
                process,
                topic.dead[rank as usize],
                epoch_us,
                record,
            ));
            st.last_installed = id;
        }
        self.shared.schedule_installed()?;
        if let Some(f) = self.shared.flight.as_deref() {
            f.record(self.shared.workers, Fk::IterStart, NO_RANK, id, 0, epoch_us);
        }
        Ok(Active {
            topic: tix,
            round,
            id,
            live,
            colored: vec![false; self.p as usize],
            colored_count: 0,
            done: 0,
            sent: 0,
            consumed: 0,
            epoch,
            deadline: epoch + self.timeout,
            latency: None,
            record,
        })
    }

    /// Remove broadcast `a` from every rank, harvest its message count
    /// and events, and emit its event stream (sorted, phase-wrapped,
    /// id-stamped) into the topic's sink.
    fn retire(
        &mut self,
        a: Active,
        quiescent: bool,
        table: &TopicTable,
        sink: &mut dyn EventSink,
    ) -> Result<BroadcastOutcome, ClusterError> {
        let mut messages = 0u64;
        let mut recorded: Vec<ObsEvent> = Vec::new();
        for rank in 0..self.p {
            let cell = &self.shared.ranks[rank as usize];
            let mut st = cell
                .state
                .lock()
                .map_err(|_| ClusterError::WorkerPanicked)?;
            let pos = st
                .iters
                .iter()
                .position(|i| i.id == a.id)
                .expect("iteration installed");
            let mut iter = st.iters.swap_remove(pos);
            st.pending.retain(|m| m.id != a.id);
            drop(st);
            messages += iter.sent;
            recorded.append(&mut iter.events);
            // Hand the machine back for the next admission's
            // `build_into` to re-initialise (one retirement's worth;
            // a second before the next admission is simply dropped).
            if self.procs.len() < self.p as usize {
                self.procs.push(iter.process);
            }
            if !quiescent {
                // An expired broadcast may still have messages queued;
                // a quiescent one by definition has none. Purge by id —
                // concurrent topics' traffic must survive.
                let mut mb = cell
                    .mailbox
                    .lock()
                    .map_err(|_| ClusterError::WorkerPanicked)?;
                let depth = mb.len();
                mb.purge_id(a.id);
                drop(mb);
                // The purge shrinks the mailbox behind its owner's back:
                // book the depth the owner's next drain will not see.
                if let Some(t) = &self.shared.telemetry {
                    t.mailbox_depth(rank as usize, depth as u64);
                }
            }
        }
        let latency = a.latency.unwrap_or(self.timeout);
        if let Some(f) = self.shared.flight.as_deref() {
            f.record(
                self.shared.workers,
                Fk::IterEnd,
                NO_RANK,
                u64::from(quiescent),
                latency.as_micros() as u64,
                self.shared.now_us(),
            );
        }
        if a.record {
            // Same deterministic order as single-broadcast harvests:
            // stable (time, order_class) sort restores
            // cause-before-effect at equal timestamps.
            recorded.sort_by_key(|e| (e.time, e.kind.order_class()));
            let end = recorded.last().map_or(Time::ZERO, |e| e.time);
            sink.emit(
                &ObsEvent::wall(
                    Time::ZERO,
                    0,
                    ObsEventKind::PhaseBegin {
                        name: phases::BROADCAST.into(),
                    },
                )
                .with_bcast(a.id),
            );
            for e in recorded {
                sink.emit(&e.with_bcast(a.id));
            }
            sink.emit(
                &ObsEvent::wall(
                    end,
                    end.steps(),
                    ObsEventKind::PhaseEnd {
                        name: phases::BROADCAST.into(),
                    },
                )
                .with_bcast(a.id),
            );
        }
        let uncolored = a
            .colored
            .iter()
            .zip(&table.topics[a.topic].dead)
            .enumerate()
            .filter_map(|(r, (&c, &d))| (!c && !d).then_some(r as Rank))
            .collect();
        Ok(BroadcastOutcome {
            topic: a.topic,
            round: a.round,
            id: a.id,
            latency,
            messages,
            completed: quiescent,
            uncolored,
        })
    }

    /// Publish the concurrency-aware iteration gauges: `iter.active` is
    /// the in-flight broadcast count, `iter.live`/`iter.colored` sum
    /// over them (the shape the `stall_precursor` health rule expects).
    fn publish_gauges(&self, active: &[Active]) {
        if let Some(t) = &self.shared.telemetry {
            let live: u64 = active.iter().map(|a| u64::from(a.live)).sum();
            let colored: u64 = active.iter().map(|a| u64::from(a.colored_count)).sum();
            t.set_iter_active(active.len() as u64);
            t.set_iter_progress(live, colored);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use ct_core::correction::CorrectionKind;
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
        // Retired machines went back to the pool the next install
        // (here or in single-broadcast mode) rebuilds from.
        assert_eq!(cluster.procs.len(), p as usize);
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
