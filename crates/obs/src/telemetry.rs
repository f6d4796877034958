//! Live runtime telemetry: a sharded hub of scheduler and protocol
//! counters the cluster runtime and the simulator feed while they run.
//!
//! Event traces ([`crate::EventSink`]) answer *what the protocol did*;
//! the [`TelemetryHub`] answers *what the machinery underneath did* —
//! how many scheduling quanta ran, how large the claimed batches were,
//! how deep mailboxes got, how many timers fired, how many lost-wakeup
//! rechecks actually fired. It is the backing store of `ct top`,
//! `ct stats` and the `telemetry` manifest block.
//!
//! Design:
//!
//! * **One tally shape.** A [`Tally`] is every [`Counter`] and one
//!   [`Histogram`] per [`Dist`] in plain integers. A producer with a hot
//!   loop counts into a local one and hands it over with one
//!   [`TelemetryHub::publish`] per batch; the cluster's workers publish
//!   once per run-queue batch, the simulator once per repetition
//!   ([`TelemetryHub::record_sim_rep`]). The hub holds one tally per
//!   worker behind a mutex, the shard aligned to [`SHARD_ALIGN`] bytes,
//!   so no word one worker writes shares a cache line with a word
//!   another writes — wherever the allocator puts the shard array. A
//!   shard's lock is taken by its worker once per batch and by a
//!   snapshot, so it is all but uncontended. [`TelemetryHub::add`] and
//!   [`TelemetryHub::observe`] take the same lock for one update.
//!   Per-rank state is one relaxed high-water slot per rank, written
//!   only when the mark rises, and the gauges are relaxed stores.
//! * **Zero-cost when disabled.** Producers carry an
//!   `Option<Arc<TelemetryHub>>` and hoist the `is-some` check exactly
//!   like the [`crate::EventSink::enabled`] pattern: with no hub
//!   attached, the instrumented paths compile down to a branch on a
//!   register (and the cluster's plain adds into a local tally nobody
//!   publishes), and the event stream and message totals are bit-for-bit
//!   those of an uninstrumented run.
//! * **One schema for sim and cluster.** [`TelemetrySnapshot`] always
//!   carries the full counter catalogue (cluster counters are zero on a
//!   sim snapshot and vice versa), rendered byte-stably (schema tag
//!   [`SCHEMA`], sorted maps, deterministic float format) so snapshots
//!   can be diffed, golden-tested and read back by
//!   [`TelemetrySnapshot::from_json`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::{u64_object, within, JsonObject, Value};
use crate::metrics::Histogram;

/// Schema tag stamped into every rendered snapshot; bump on any
/// incompatible change to the JSON layout.
pub const SCHEMA: &str = "ct-telemetry-v1";

/// Monotonic counters the hub tracks, one slot per counter per worker
/// shard. `sched.*`, `mailbox.*`, `msgs.*`, `timer.*` and `coord.*`
/// are fed by the cluster runtime; `sim.*` by the LogP simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Scheduling quanta executed (one runnable rank driven once).
    SchedQuanta,
    /// Quanta that found no installed iteration (stale wake-ups).
    SchedStaleQuanta,
    /// Run-queue batches claimed by workers.
    SchedBatches,
    /// End-of-quantum rechecks that re-armed the rank (lost-wakeup
    /// window closed by taking the wake-up back).
    SchedRechecks,
    /// Ranks made runnable by sends, timer fires and rechecks.
    SchedWakes,
    /// Wall-clock microseconds workers spent driving batches — claim
    /// through flush, everything but parking (busy time; the basis of
    /// `ct top` utilization bars).
    SchedBusyUs,
    /// Protocol messages sent rank-to-rank.
    MsgsSent,
    /// Current-iteration messages delivered to live ranks.
    MsgsDelivered,
    /// Stale messages discarded by broadcast id.
    MsgsStaleDropped,
    /// Mailbox pushes (ring or spill).
    MailboxPushes,
    /// Pushes that overflowed the ring into the heap spill queue.
    MailboxSpills,
    /// Timer insertions (protocol `WaitUntil` arms).
    TimerArms,
    /// Timers that fired (rank appended to the due list).
    TimerFires,
    /// Batched coordinator notifications sent.
    CoordBatches,
    /// Colored-rank notifications carried by those batches.
    CoordColored,
    /// Simulator repetitions completed.
    SimReps,
    /// Simulator events processed (all repetitions).
    SimEvents,
    /// Simulator messages sent (all repetitions).
    SimSends,
    /// Repetitions that ended with a live rank uncolored.
    SimIncomplete,
}

impl Counter {
    /// Every counter, in rendering order.
    pub const ALL: [Counter; 19] = [
        Counter::SchedQuanta,
        Counter::SchedStaleQuanta,
        Counter::SchedBatches,
        Counter::SchedRechecks,
        Counter::SchedWakes,
        Counter::SchedBusyUs,
        Counter::MsgsSent,
        Counter::MsgsDelivered,
        Counter::MsgsStaleDropped,
        Counter::MailboxPushes,
        Counter::MailboxSpills,
        Counter::TimerArms,
        Counter::TimerFires,
        Counter::CoordBatches,
        Counter::CoordColored,
        Counter::SimReps,
        Counter::SimEvents,
        Counter::SimSends,
        Counter::SimIncomplete,
    ];

    /// Stable dotted snapshot name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SchedQuanta => "sched.quanta",
            Counter::SchedStaleQuanta => "sched.stale_quanta",
            Counter::SchedBatches => "sched.batches",
            Counter::SchedRechecks => "sched.lost_wakeup_rechecks",
            Counter::SchedWakes => "sched.wakes",
            Counter::SchedBusyUs => "sched.busy_us",
            Counter::MsgsSent => "msgs.sent",
            Counter::MsgsDelivered => "msgs.delivered",
            Counter::MsgsStaleDropped => "msgs.stale_dropped",
            Counter::MailboxPushes => "mailbox.pushes",
            Counter::MailboxSpills => "mailbox.spills",
            Counter::TimerArms => "timer.arms",
            Counter::TimerFires => "timer.fires",
            Counter::CoordBatches => "coord.batches",
            Counter::CoordColored => "coord.colored",
            Counter::SimReps => "sim.reps",
            Counter::SimEvents => "sim.events",
            Counter::SimSends => "sim.sends",
            Counter::SimIncomplete => "sim.incomplete",
        }
    }

    /// One-line description for the Prometheus `# HELP` line.
    pub fn help(self) -> &'static str {
        match self {
            Counter::SchedQuanta => "Scheduling quanta executed (one runnable rank driven once).",
            Counter::SchedStaleQuanta => {
                "Quanta that found no installed iteration (stale wake-ups)."
            }
            Counter::SchedBatches => "Run-queue batches claimed by workers.",
            Counter::SchedRechecks => "End-of-quantum rechecks that re-armed the rank.",
            Counter::SchedWakes => "Ranks made runnable by sends, timer fires and rechecks.",
            Counter::SchedBusyUs => {
                "Wall-clock microseconds workers spent driving batches (not parked)."
            }
            Counter::MsgsSent => "Protocol messages sent rank-to-rank.",
            Counter::MsgsDelivered => "Current-iteration messages delivered to live ranks.",
            Counter::MsgsStaleDropped => "Stale messages discarded by broadcast id.",
            Counter::MailboxPushes => "Mailbox pushes (ring or spill).",
            Counter::MailboxSpills => "Pushes that overflowed the ring into the heap spill queue.",
            Counter::TimerArms => "Timer insertions (protocol WaitUntil arms).",
            Counter::TimerFires => "Timers that fired (rank appended to the due list).",
            Counter::CoordBatches => "Batched coordinator notifications sent.",
            Counter::CoordColored => "Colored-rank notifications carried by coordinator batches.",
            Counter::SimReps => "Simulator repetitions completed.",
            Counter::SimEvents => "Simulator events processed (all repetitions).",
            Counter::SimSends => "Simulator messages sent (all repetitions).",
            Counter::SimIncomplete => "Repetitions that ended with a live rank uncolored.",
        }
    }
}

/// Mergeable distributions the hub tracks, one [`Histogram`] per
/// distribution per [`Tally`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Dist {
    /// Wall-clock duration of one scheduling quantum, µs.
    QuantumUs,
    /// Runnable ranks claimed per run-queue batch.
    BatchSize,
    /// Run-queue depth sampled at each batch claim.
    RunqDepth,
    /// Messages drained from a mailbox per quantum.
    MailboxDrained,
    /// Colored ranks per batched coordinator notification.
    CoordBatchSize,
    /// Simulator events per repetition.
    SimRepEvents,
    /// Simulator sends per repetition.
    SimRepSends,
    /// Simulator quiescence time per repetition, LogP steps.
    SimRepQuiescence,
}

impl Dist {
    /// Every distribution, in rendering order.
    pub const ALL: [Dist; 8] = [
        Dist::QuantumUs,
        Dist::BatchSize,
        Dist::RunqDepth,
        Dist::MailboxDrained,
        Dist::CoordBatchSize,
        Dist::SimRepEvents,
        Dist::SimRepSends,
        Dist::SimRepQuiescence,
    ];

    /// Stable dotted snapshot name.
    pub fn name(self) -> &'static str {
        match self {
            Dist::QuantumUs => "sched.quantum_us",
            Dist::BatchSize => "sched.batch_size",
            Dist::RunqDepth => "sched.runq_depth",
            Dist::MailboxDrained => "mailbox.drained",
            Dist::CoordBatchSize => "coord.batch_size",
            Dist::SimRepEvents => "sim.rep_events",
            Dist::SimRepSends => "sim.rep_sends",
            Dist::SimRepQuiescence => "sim.rep_quiescence",
        }
    }

    /// One-line description for the Prometheus `# HELP` line.
    pub fn help(self) -> &'static str {
        match self {
            Dist::QuantumUs => "Wall-clock duration of one scheduling quantum, microseconds.",
            Dist::BatchSize => "Runnable ranks claimed per run-queue batch.",
            Dist::RunqDepth => "Run-queue depth sampled at each batch claim.",
            Dist::MailboxDrained => "Messages drained from a mailbox per quantum.",
            Dist::CoordBatchSize => "Colored ranks per batched coordinator notification.",
            Dist::SimRepEvents => "Simulator events per repetition.",
            Dist::SimRepSends => "Simulator sends per repetition.",
            Dist::SimRepQuiescence => "Simulator quiescence time per repetition, LogP steps.",
        }
    }
}

/// Alignment of a worker shard, here and in [`crate::flight`]: two
/// 64-byte cache lines, because x86-64 prefetches lines in adjacent
/// pairs and a write to one half takes the other along (the figure
/// crossbeam's `CachePadded` uses on x86-64 and aarch64).
pub const SHARD_ALIGN: usize = 128;

/// Every [`Counter`] and one [`Histogram`] per [`Dist`], in plain
/// integers: what a producer counts locally between publications
/// ([`TelemetryHub::publish`]), and what each hub shard holds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    counters: [u64; Counter::ALL.len()],
    dists: [Histogram; Dist::ALL.len()],
}

impl Tally {
    /// Add `delta` to `counter`.
    #[inline]
    pub fn add(&mut self, counter: Counter, delta: u64) {
        self.counters[counter as usize] += delta;
    }

    /// Increment `counter` by one.
    #[inline]
    pub fn inc(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Record `v` into `dist`.
    #[inline]
    pub fn observe(&mut self, dist: Dist, v: u64) {
        self.dists[dist as usize].record(v);
    }

    /// Add everything `other` counted to this tally and empty `other`.
    fn take_from(&mut self, other: &mut Tally) {
        for (c, o) in self.counters.iter_mut().zip(&mut other.counters) {
            *c += std::mem::take(o);
        }
        for (h, o) in self.dists.iter_mut().zip(&mut other.dists) {
            if o.count() > 0 {
                h.merge(o);
                o.reset();
            }
        }
    }
}

/// One worker's slice of the hub. [`SHARD_ALIGN`]-aligned, which also
/// pads its size to a multiple of that, and nothing behind a pointer
/// (the mutex and the tally are inline), so neighbours in the shard
/// array share no cache line.
#[repr(align(128))]
struct Shard(Mutex<Tally>);

const _: () = assert!(std::mem::align_of::<Shard>() == SHARD_ALIGN);

impl Shard {
    /// The tally; a poisoned lock still holds sound statistics.
    fn lock(&self) -> MutexGuard<'_, Tally> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Sharded store of live runtime counters (see module docs).
///
/// Construct one per run (or campaign), hand `Arc` clones to the
/// producers (`ClusterConfig::telemetry`, `SimulationBuilder::telemetry`)
/// and call [`TelemetryHub::snapshot`] at any time — including while the
/// run is still executing, which is exactly what `ct top` does.
pub struct TelemetryHub {
    shards: Vec<Shard>,
    /// Per-rank mailbox occupancy high-water marks.
    rank_hwm: Vec<AtomicU64>,
    /// Last sampled run-queue depth.
    runq_depth: AtomicU64,
    /// Last sampled pending-timer count.
    timers_pending: AtomicU64,
    /// Broadcast iterations currently installed: 0 between iterations,
    /// 1 during a single-broadcast run, the in-flight topic count under
    /// pub/sub multiplexing.
    iter_active: AtomicU64,
    /// Live (non-dead) ranks summed over installed iterations.
    iter_live: AtomicU64,
    /// Live ranks colored so far, summed over installed iterations.
    iter_colored: AtomicU64,
}

impl TelemetryHub {
    /// A hub with one shard per expected worker (at least one) and
    /// `ranks` mailbox high-water slots. Callers with more workers than
    /// shards still work — shard selection wraps — at the cost of some
    /// shard sharing.
    pub fn new(workers: usize, ranks: usize) -> TelemetryHub {
        TelemetryHub {
            shards: (0..workers.max(1))
                .map(|_| Shard(Mutex::default()))
                .collect(),
            rank_hwm: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            runq_depth: AtomicU64::new(0),
            timers_pending: AtomicU64::new(0),
            iter_active: AtomicU64::new(0),
            iter_live: AtomicU64::new(0),
            iter_colored: AtomicU64::new(0),
        }
    }

    fn shard(&self, worker: usize) -> MutexGuard<'_, Tally> {
        // No division for a worker that has a shard of its own.
        match self.shards.get(worker) {
            Some(shard) => shard.lock(),
            None => self.shards[worker % self.shards.len()].lock(),
        }
    }

    /// Add `delta` to `counter` on `worker`'s shard.
    pub fn add(&self, worker: usize, counter: Counter, delta: u64) {
        self.shard(worker).add(counter, delta);
    }

    /// Increment `counter` by one on `worker`'s shard.
    pub fn inc(&self, worker: usize, counter: Counter) {
        self.add(worker, counter, 1);
    }

    /// Record `v` into `dist` on `worker`'s shard.
    pub fn observe(&self, worker: usize, dist: Dist, v: u64) {
        self.shard(worker).observe(dist, v);
    }

    /// Fold everything `tally` counted into `worker`'s shard under one
    /// lock, and empty `tally` for the producer to count on — the
    /// per-batch counterpart of calling [`TelemetryHub::add`] and
    /// [`TelemetryHub::observe`] once per event, with the same snapshot
    /// as a result.
    pub fn publish(&self, worker: usize, tally: &mut Tally) {
        self.shard(worker).take_from(tally);
    }

    /// Raise `rank`'s mailbox-occupancy high-water mark to `depth`. The
    /// mark rises a handful of times in a run, so a load decides first
    /// and the slot's line is written only then.
    pub fn mailbox_depth(&self, rank: usize, depth: u64) {
        if let Some(slot) = self.rank_hwm.get(rank) {
            if depth > slot.load(Ordering::Relaxed) {
                slot.fetch_max(depth, Ordering::Relaxed);
            }
        }
    }

    /// `rank`'s mailbox-occupancy high-water mark so far.
    pub fn rank_hwm(&self, rank: usize) -> u64 {
        self.rank_hwm
            .get(rank)
            .map_or(0, |s| s.load(Ordering::Relaxed))
    }

    /// Publish the most recently sampled run-queue depth.
    pub fn set_runq_depth(&self, depth: u64) {
        self.runq_depth.store(depth, Ordering::Relaxed);
    }

    /// Publish the most recently sampled pending-timer count.
    pub fn set_timers_pending(&self, pending: u64) {
        self.timers_pending.store(pending, Ordering::Relaxed);
    }

    /// Publish how many broadcast iterations are currently installed
    /// (0 or 1 for single-broadcast runs; the in-flight topic count
    /// under pub/sub). Together with
    /// [`TelemetryHub::set_iter_progress`] this lets a background
    /// sampler see coloring progress (the `iter.*` gauges) without
    /// touching any scheduler structure.
    pub fn set_iter_active(&self, installed: u64) {
        self.iter_active.store(installed, Ordering::Relaxed);
    }

    /// Publish the live-rank total across installed iterations and how
    /// many of those ranks are colored so far.
    pub fn set_iter_progress(&self, live: u64, colored: u64) {
        self.iter_live.store(live, Ordering::Relaxed);
        self.iter_colored.store(colored, Ordering::Relaxed);
    }

    /// Current value of `counter` summed across all shards.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().counters[counter as usize])
            .sum()
    }

    /// Record one finished simulator repetition: rep/event/send totals
    /// plus the per-rep distributions, in one call so the simulator's
    /// hot loop stays untouched (the update runs once per repetition,
    /// after the outcome is already assembled).
    pub fn record_sim_rep(&self, events: u64, sends: u64, quiescence: u64, complete: bool) {
        let mut t = self.shard(0);
        t.inc(Counter::SimReps);
        t.add(Counter::SimEvents, events);
        t.add(Counter::SimSends, sends);
        if !complete {
            t.inc(Counter::SimIncomplete);
        }
        t.observe(Dist::SimRepEvents, events);
        t.observe(Dist::SimRepSends, sends);
        t.observe(Dist::SimRepQuiescence, quiescence);
    }

    /// Merge every shard into a point-in-time [`TelemetrySnapshot`]
    /// with source `"unknown"` (callers tag it via
    /// [`TelemetrySnapshot::with_source`]).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut total = Tally::default();
        let mut per_worker = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let mut s = shard.lock().clone();
            let nonzero = Counter::ALL.iter().zip(s.counters);
            let nonzero = nonzero.filter(|&(_, v)| v != 0);
            per_worker.push(nonzero.map(|(c, v)| (c.name().to_owned(), v)).collect());
            total.take_from(&mut s);
        }
        let counters = Counter::ALL.iter().zip(total.counters);
        let counters = counters.map(|(c, v)| (c.name().to_owned(), v)).collect();
        let dists = Dist::ALL.iter().zip(total.dists);
        let histograms = dists.map(|(d, h)| (d.name().to_owned(), h)).collect();
        let mut gauges = BTreeMap::new();
        gauges.insert(
            "iter.active".to_owned(),
            self.iter_active.load(Ordering::Relaxed),
        );
        gauges.insert(
            "iter.colored".to_owned(),
            self.iter_colored.load(Ordering::Relaxed),
        );
        gauges.insert(
            "iter.live".to_owned(),
            self.iter_live.load(Ordering::Relaxed),
        );
        gauges.insert(
            "runq.depth".to_owned(),
            self.runq_depth.load(Ordering::Relaxed),
        );
        gauges.insert(
            "timers.pending".to_owned(),
            self.timers_pending.load(Ordering::Relaxed),
        );
        gauges.insert(
            "mailbox.hwm".to_owned(),
            self.rank_hwm
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        );
        TelemetrySnapshot {
            source: "unknown".to_owned(),
            workers: self.shards.len() as u64,
            ranks: self.rank_hwm.len() as u64,
            counters,
            gauges,
            histograms,
            per_worker,
        }
    }
}

impl fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryHub")
            .field("workers", &self.shards.len())
            .field("ranks", &self.rank_hwm.len())
            .finish_non_exhaustive()
    }
}

/// A point-in-time merge of a [`TelemetryHub`]: the full counter
/// catalogue (zeros included), gauges, merged histograms and per-worker
/// counter breakdowns. Rendered byte-stably by
/// [`TelemetrySnapshot::to_json`] and as Prometheus text exposition by
/// [`TelemetrySnapshot::render_prometheus`].
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    /// What produced the snapshot: `"sim"`, `"cluster"` or `"unknown"`.
    pub source: String,
    /// Worker shards merged into the snapshot.
    pub workers: u64,
    /// Ranks the hub tracked.
    pub ranks: u64,
    /// Every [`Counter`], by dotted name, summed across shards.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges: `iter.active`, `iter.colored`,
    /// `iter.live`, `runq.depth`, `timers.pending`, `mailbox.hwm`
    /// (max over ranks).
    pub gauges: BTreeMap<String, u64>,
    /// Every [`Dist`], by dotted name, merged across shards.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-worker counter values (zero entries omitted), shard order.
    pub per_worker: Vec<BTreeMap<String, u64>>,
}

impl TelemetrySnapshot {
    /// Tag the snapshot with its producer (`"sim"` or `"cluster"`).
    pub fn with_source(mut self, source: &str) -> TelemetrySnapshot {
        source.clone_into(&mut self.source);
        self
    }

    /// Value of a counter by dotted name (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Render as one deterministic JSON object (schema [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut histograms = JsonObject::new();
        for (name, h) in &self.histograms {
            histograms.field_raw(name, &h.to_json());
        }
        let mut obj = JsonObject::new();
        obj.field_str("schema", SCHEMA);
        obj.field_str("source", &self.source);
        obj.field_u64("workers", self.workers);
        obj.field_u64("ranks", self.ranks);
        obj.field_u64_map("counters", &self.counters);
        obj.field_u64_map("gauges", &self.gauges);
        obj.field_raw("histograms", &histograms.finish());
        obj.field_array("per_worker", self.per_worker.iter().map(u64_object));
        obj.finish()
    }

    /// Read a snapshot written by [`TelemetrySnapshot::to_json`]. Every
    /// counter must be an unsigned integer and every histogram
    /// internally consistent, so a drifted producer fails here.
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
        TelemetrySnapshot::from_value(&Value::parse(text)?)
    }

    /// [`TelemetrySnapshot::from_json`] over a parsed value (a snapshot
    /// nested in a larger document).
    pub fn from_value(v: &Value) -> Result<TelemetrySnapshot, String> {
        let schema = v.str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "schema: unsupported telemetry schema {schema:?} (want {SCHEMA:?})"
            ));
        }
        let mut histograms = BTreeMap::new();
        for (name, h) in v.obj_field("histograms")? {
            let h = Histogram::from_value(h).map_err(within(&format!("histograms.{name}")))?;
            histograms.insert(name.clone(), h);
        }
        Ok(TelemetrySnapshot {
            source: v.str_field("source")?.to_owned(),
            workers: v.int_field("workers")?,
            ranks: v.int_field("ranks")?,
            counters: v.u64_map("counters")?,
            gauges: v.u64_map("gauges")?,
            histograms,
            per_worker: v.items("per_worker", Value::u64_entries)?,
        })
    }

    /// Render as Prometheus text exposition: every counter as
    /// `ct_<name>` (dots become underscores) with per-worker series
    /// labelled `{worker="i"}`, gauges as gauges, histograms as
    /// cumulative `_bucket{le=...}`/`_sum`/`_count` families. Each
    /// family leads with its `# HELP`/`# TYPE` lines and label values
    /// are escaped per the text exposition format.
    pub fn render_prometheus(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let source = prom_label_value(&self.source);
        for (name, v) in &self.counters {
            let metric = prom_name(name);
            if let Some(help) = counter_help(name) {
                let _ = writeln!(out, "# HELP {metric} {help}");
            }
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric}{{source=\"{source}\"}} {v}");
            for (i, w) in self.per_worker.iter().enumerate() {
                if let Some(wv) = w.get(name) {
                    let _ = writeln!(out, "{metric}{{source=\"{source}\",worker=\"{i}\"}} {wv}");
                }
            }
        }
        for (name, v) in &self.gauges {
            let metric = prom_name(name);
            if let Some(help) = gauge_help(name) {
                let _ = writeln!(out, "# HELP {metric} {help}");
            }
            let _ = writeln!(out, "# TYPE {metric} gauge");
            let _ = writeln!(out, "{metric}{{source=\"{source}\"}} {v}");
        }
        for (name, h) in &self.histograms {
            let metric = prom_name(name);
            if let Some(help) = dist_help(name) {
                let _ = writeln!(out, "# HELP {metric} {help}");
            }
            let _ = writeln!(out, "# TYPE {metric} histogram");
            let mut cum = 0u64;
            for (bound, count) in h.bounds().iter().zip(h.counts()) {
                cum += count;
                let _ = writeln!(
                    out,
                    "{metric}_bucket{{source=\"{source}\",le=\"{bound}\"}} {cum}"
                );
            }
            let _ = writeln!(
                out,
                "{metric}_bucket{{source=\"{source}\",le=\"+Inf\"}} {}",
                h.count()
            );
            let _ = writeln!(out, "{metric}_sum{{source=\"{source}\"}} {}", h.sum());
            let _ = writeln!(out, "{metric}_count{{source=\"{source}\"}} {}", h.count());
        }
        out
    }
}

/// `sched.quantum_us` → `ct_sched_quantum_us`.
fn prom_name(dotted: &str) -> String {
    let mut s = String::with_capacity(dotted.len() + 3);
    s.push_str("ct_");
    for c in dotted.chars() {
        s.push(if c == '.' { '_' } else { c });
    }
    s
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double-quote and newline must be backslash-escaped.
fn prom_label_value(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => s.push_str("\\\\"),
            '"' => s.push_str("\\\""),
            '\n' => s.push_str("\\n"),
            _ => s.push(c),
        }
    }
    s
}

/// `# HELP` text for a dotted counter name.
fn counter_help(name: &str) -> Option<&'static str> {
    Counter::ALL
        .iter()
        .find(|c| c.name() == name)
        .map(|c| c.help())
}

/// `# HELP` text for a dotted distribution name.
fn dist_help(name: &str) -> Option<&'static str> {
    Dist::ALL
        .iter()
        .find(|d| d.name() == name)
        .map(|d| d.help())
}

/// `# HELP` text for a gauge name.
fn gauge_help(name: &str) -> Option<&'static str> {
    match name {
        "iter.active" => Some("Broadcast iterations currently installed (0 between, 1 single, topic count under pub/sub)."),
        "iter.colored" => Some("Live ranks colored so far, summed over installed iterations."),
        "iter.live" => Some("Live (non-dead) ranks summed over installed iterations."),
        "runq.depth" => Some("Run-queue depth at snapshot time."),
        "timers.pending" => Some("Pending timers at snapshot time."),
        "mailbox.hwm" => Some("Highest mailbox occupancy seen on any rank."),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Regression test for the false sharing that made
    /// `cluster_p1024_observed` bimodal: unaligned 184-byte shards sat
    /// back to back, so one worker's counters shared lines with the
    /// next one's.
    #[test]
    fn neighbouring_shards_share_no_cache_line() {
        for workers in 1..=4 {
            let hub = TelemetryHub::new(workers, 1);
            let hot: Vec<usize> = hub
                .shards
                .iter()
                .map(|s| std::ptr::from_ref(s) as usize)
                .collect();
            for addr in &hot {
                assert_eq!(addr % SHARD_ALIGN, 0, "{workers} workers: {hot:x?}");
            }
            for pair in hot.windows(2) {
                assert!(
                    pair[1] - pair[0] >= SHARD_ALIGN,
                    "{workers} workers: {hot:x?}"
                );
            }
        }
        // Lock, counters and buckets included: a shard reaches no
        // memory outside itself.
        assert_eq!(std::mem::size_of::<Shard>() % SHARD_ALIGN, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Publishing a locally filled tally is indistinguishable
        /// from adding and observing its values one by one, and leaves
        /// the tally empty.
        #[test]
        fn publish_equals_observing_one_by_one(
            batches in proptest::collection::vec(
                proptest::collection::vec(0u64..3_000_000, 0..40), 0..6),
        ) {
            let published = TelemetryHub::new(2, 1);
            let observed = TelemetryHub::new(2, 1);
            let mut local = Tally::default();
            for (i, batch) in batches.iter().enumerate() {
                for &v in batch {
                    local.observe(Dist::MailboxDrained, v);
                    local.add(Counter::MsgsSent, v);
                    observed.observe(i & 1, Dist::MailboxDrained, v);
                    observed.add(i & 1, Counter::MsgsSent, v);
                }
                // An empty batch publishes as a no-op.
                published.publish(i & 1, &mut local);
                prop_assert_eq!(&local, &Tally::default());
            }
            // Counters, per-worker breakdowns, and each histogram's
            // count, sum, extremes and every bucket.
            prop_assert_eq!(published.snapshot(), observed.snapshot());
        }
    }

    #[test]
    fn snapshot_during_publish_is_consistent() {
        let hub = std::sync::Arc::new(TelemetryHub::new(1, 1));
        let writer = {
            let hub = std::sync::Arc::clone(&hub);
            std::thread::spawn(move || {
                let mut local = Tally::default();
                for batch in 0..20_000u64 {
                    for v in 0..20 {
                        local.observe(Dist::QuantumUs, (batch + v) & 63);
                    }
                    hub.publish(0, &mut local);
                }
            })
        };
        // Each snapshot must read back whole batches while the writer
        // runs.
        while !writer.is_finished() {
            let h = &hub.snapshot().histograms["sched.quantum_us"];
            assert_eq!(h.count() % 20, 0, "{h:?}");
            assert_eq!(h.counts().iter().sum::<u64>(), h.count());
        }
        writer.join().unwrap();
        assert_eq!(
            hub.snapshot().histograms["sched.quantum_us"].count(),
            400_000
        );
    }

    #[test]
    fn snapshot_during_observe_is_consistent() {
        let hub = std::sync::Arc::new(TelemetryHub::new(1, 1));
        let writer = {
            let hub = std::sync::Arc::clone(&hub);
            std::thread::spawn(move || {
                // One observation per publication, the finest grain.
                let mut local = Tally::default();
                for v in 0..400_000u64 {
                    local.observe(Dist::QuantumUs, v & 63);
                    local.inc(Counter::SchedQuanta);
                    hub.publish(0, &mut local);
                }
            })
        };
        // Each snapshot must read back whole while the writer runs: the
        // counter and the histogram of one publication land together.
        while !writer.is_finished() {
            let snap = hub.snapshot();
            let h = &snap.histograms["sched.quantum_us"];
            assert_eq!(snap.counter("sched.quanta"), h.count());
        }
        writer.join().unwrap();
        assert_eq!(
            hub.snapshot().histograms["sched.quantum_us"].count(),
            400_000
        );
    }

    #[test]
    fn counters_sum_across_shards() {
        let hub = TelemetryHub::new(3, 4);
        hub.inc(0, Counter::SchedQuanta);
        hub.add(1, Counter::SchedQuanta, 2);
        hub.add(2, Counter::SchedQuanta, 3);
        // Shard selection wraps for workers beyond the shard count.
        hub.inc(4, Counter::SchedQuanta);
        assert_eq!(hub.counter_total(Counter::SchedQuanta), 7);
        let snap = hub.snapshot();
        assert_eq!(snap.counter("sched.quanta"), 7);
        assert_eq!(snap.per_worker.len(), 3);
        assert_eq!(snap.per_worker[1]["sched.quanta"], 3);
    }

    #[test]
    fn histograms_merge_across_shards() {
        let hub = TelemetryHub::new(2, 1);
        hub.observe(0, Dist::BatchSize, 4);
        hub.observe(1, Dist::BatchSize, 32);
        let snap = hub.snapshot();
        let h = &snap.histograms["sched.batch_size"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(4));
        assert_eq!(h.max(), Some(32));
        assert_eq!(h.sum(), 36);
    }

    #[test]
    fn rank_hwm_is_monotone_and_bounded() {
        let hub = TelemetryHub::new(1, 2);
        hub.mailbox_depth(0, 3);
        hub.mailbox_depth(0, 1);
        hub.mailbox_depth(1, 9);
        hub.mailbox_depth(99, 1000); // out of range: ignored
        assert_eq!(hub.rank_hwm(0), 3);
        assert_eq!(hub.rank_hwm(1), 9);
        assert_eq!(hub.snapshot().gauges["mailbox.hwm"], 9);
    }

    #[test]
    fn snapshot_json_is_byte_stable_and_schema_tagged() {
        let hub = TelemetryHub::new(2, 4);
        hub.inc(0, Counter::MsgsSent);
        hub.observe(1, Dist::QuantumUs, 12);
        hub.set_runq_depth(5);
        let a = hub.snapshot().with_source("cluster").to_json();
        let b = hub.snapshot().with_source("cluster").to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"ct-telemetry-v1\",\"source\":\"cluster\""));
        assert!(a.contains("\"msgs.sent\":1"), "{a}");
        assert!(a.contains("\"runq.depth\":5"), "{a}");
        assert!(a.contains("\"per_worker\":[{"), "{a}");
        // The full catalogue is present even at zero.
        for c in Counter::ALL {
            assert!(a.contains(&format!("\"{}\":", c.name())), "{}", c.name());
        }
        for d in Dist::ALL {
            assert!(a.contains(&format!("\"{}\":", d.name())), "{}", d.name());
        }
    }

    #[test]
    fn reader_rejects_drifted_snapshots() {
        let err = TelemetrySnapshot::from_json(r#"{"schema":"ct-telemetry-v0"}"#).unwrap_err();
        assert!(err.contains("unsupported telemetry schema"), "{err}");
        let hub = TelemetryHub::new(1, 8);
        hub.record_sim_rep(100, 30, 40, true);
        hub.record_sim_rep(120, 31, 44, false);
        let json = hub.snapshot().with_source("sim").to_json();
        // Break one histogram's internal consistency: bump its count
        // without touching the buckets.
        let broken = json.replacen("\"count\":2", "\"count\":3", 1);
        assert_ne!(json, broken, "fixture must contain a count to break");
        let err = TelemetrySnapshot::from_json(&broken).unwrap_err();
        assert!(err.contains("do not sum"), "{err}");
        assert!(
            err.starts_with("histograms.sim.rep_events.counts: "),
            "{err}"
        );
        // Any bucket layout but the one is rejected, naming the field.
        let layout = Histogram::default().to_json();
        let bounds = &layout[..layout.find("],").unwrap() + 1];
        let other = json.replacen(bounds, "{\"bounds\":[1,2,3]", 1);
        assert_ne!(json, other, "fixture must contain the bounds to replace");
        let err = TelemetrySnapshot::from_json(&other).unwrap_err();
        assert!(
            err.starts_with("histograms.coord.batch_size.bounds: "),
            "{err}"
        );
        let err = TelemetrySnapshot::from_json(
            r#"{"schema":"ct-telemetry-v1","source":"sim","workers":1,"ranks":1,"counters":{"sim.reps":1.5},"gauges":{},"histograms":{},"per_worker":[{}]}"#,
        )
        .unwrap_err();
        assert_eq!(err, "counters.sim.reps: must be an unsigned integer");
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let hub = TelemetryHub::new(1, 1);
        hub.observe(0, Dist::BatchSize, 1);
        hub.observe(0, Dist::BatchSize, 2);
        hub.observe(0, Dist::BatchSize, 3);
        hub.inc(0, Counter::SchedQuanta);
        let text = hub.snapshot().with_source("cluster").render_prometheus();
        assert!(text.contains("# TYPE ct_sched_quanta counter"), "{text}");
        assert!(
            text.contains("# HELP ct_sched_quanta Scheduling quanta executed"),
            "{text}"
        );
        assert!(
            text.contains("# HELP ct_sched_batch_size Runnable ranks claimed per run-queue batch."),
            "{text}"
        );
        assert!(
            text.contains("# HELP ct_runq_depth Run-queue depth at snapshot time."),
            "{text}"
        );
        assert!(text.contains("ct_sched_quanta{source=\"cluster\"} 1"));
        assert!(
            text.contains("ct_sched_quanta{source=\"cluster\",worker=\"0\"} 1"),
            "{text}"
        );
        assert!(text.contains("ct_sched_batch_size_bucket{source=\"cluster\",le=\"1\"} 1"));
        assert!(text.contains("ct_sched_batch_size_bucket{source=\"cluster\",le=\"2\"} 2"));
        assert!(text.contains("ct_sched_batch_size_bucket{source=\"cluster\",le=\"4\"} 3"));
        assert!(text.contains("ct_sched_batch_size_bucket{source=\"cluster\",le=\"+Inf\"} 3"));
        assert!(text.contains("ct_sched_batch_size_sum{source=\"cluster\"} 6"));
        assert!(text.contains("ct_sched_batch_size_count{source=\"cluster\"} 3"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let hub = TelemetryHub::new(1, 1);
        hub.inc(0, Counter::SchedQuanta);
        let text = hub
            .snapshot()
            .with_source("clu\"st\\er\nx")
            .render_prometheus();
        assert!(
            text.contains("ct_sched_quanta{source=\"clu\\\"st\\\\er\\nx\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn record_sim_rep_updates_counters_and_dists() {
        let hub = TelemetryHub::new(1, 8);
        hub.record_sim_rep(100, 31, 2000, true);
        hub.record_sim_rep(80, 20, 1500, false);
        let snap = hub.snapshot().with_source("sim");
        assert_eq!(snap.counter("sim.reps"), 2);
        assert_eq!(snap.counter("sim.events"), 180);
        assert_eq!(snap.counter("sim.sends"), 51);
        assert_eq!(snap.counter("sim.incomplete"), 1);
        assert_eq!(snap.histograms["sim.rep_events"].count(), 2);
    }
}
