//! Live runtime telemetry: a lock-free, sharded hub of scheduler and
//! protocol counters the cluster runtime and the simulator feed while
//! they run.
//!
//! Event traces ([`crate::EventSink`]) answer *what the protocol did*;
//! the [`TelemetryHub`] answers *what the machinery underneath did* —
//! how many scheduling quanta ran, how large the claimed batches were,
//! how deep mailboxes got, how often the timer wheel cascaded, how many
//! lost-wakeup rechecks actually fired. It is the backing store of
//! `ct top`, `ct stats` and the `telemetry` manifest block.
//!
//! Design:
//!
//! * **Sharded and lock-free.** The hub holds one [`Counter`]/[`Dist`]
//!   shard per worker thread, counters and histogram buckets inline and
//!   the whole shard aligned to [`SHARD_ALIGN`] bytes, so no word one
//!   worker writes shares a cache line with a word another writes —
//!   wherever the allocator puts the shard array. An update is relaxed
//!   atomic RMWs on the caller's own shard and nothing else: one for
//!   [`TelemetryHub::add`], four for [`TelemetryHub::observe`], one per
//!   bucket that moved (plus the sum, and the extremes when they move)
//!   for [`TelemetryHub::merge_dist`] — no lock that could perturb the
//!   scheduler it is measuring. Producers with a hot loop do not pay
//!   even that per event: the cluster's workers tally in plain locals
//!   and hand the hub one batch at a time. Per-rank state is one
//!   high-water slot per rank, written only when the mark rises.
//!   Relaxed ordering is sufficient everywhere: the values are
//!   statistics, and [`TelemetryHub::snapshot`] merges whatever has
//!   landed by the time it runs.
//! * **Zero-cost when disabled.** Producers carry an
//!   `Option<Arc<TelemetryHub>>` and hoist the `is-some` check exactly
//!   like the [`crate::EventSink::enabled`] pattern: with no hub
//!   attached, the instrumented paths compile down to a branch on a
//!   register and the event stream and message totals are bit-for-bit
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

use crate::json::{u64_object, within, JsonObject, Value};
use crate::metrics::{bucket, Histogram, BUCKETS};

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
    /// Timer-wheel insertions (protocol `WaitUntil` arms).
    TimerArms,
    /// Timers that fired (rank appended to the due list).
    TimerFires,
    /// Overflow-heap entries migrated down into wheel slots.
    TimerCascades,
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
    pub const ALL: [Counter; 20] = [
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
        Counter::TimerCascades,
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
            Counter::TimerCascades => "timer.cascades",
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
            Counter::TimerArms => "Timer-wheel insertions (protocol WaitUntil arms).",
            Counter::TimerFires => "Timers that fired (rank appended to the due list).",
            Counter::TimerCascades => "Overflow-heap entries migrated down into wheel slots.",
            Counter::CoordBatches => "Batched coordinator notifications sent.",
            Counter::CoordColored => "Colored-rank notifications carried by coordinator batches.",
            Counter::SimReps => "Simulator repetitions completed.",
            Counter::SimEvents => "Simulator events processed (all repetitions).",
            Counter::SimSends => "Simulator messages sent (all repetitions).",
            Counter::SimIncomplete => "Repetitions that ended with a live rank uncolored.",
        }
    }
}

/// Mergeable distributions the hub tracks, one atomic [`Histogram`]
/// per distribution per worker shard.
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

/// The atomic storage of one [`Histogram`], updated with relaxed
/// RMWs. The buckets are inline so that a shard owns every word it
/// writes.
struct AtomicHistogram {
    /// Per-bucket counts; last entry is the overflow bucket.
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.counts[bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Add every observation of `local`: one RMW per bucket that moved,
    /// one for the sum, and one per extreme only when it moves — a load
    /// finds out, and after the first batches it rarely does.
    fn merge(&self, local: &Histogram) {
        let (Some(lo), Some(hi)) = (local.min(), local.max()) else {
            return;
        };
        if lo < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(lo, Ordering::Relaxed);
        }
        if hi > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(hi, Ordering::Relaxed);
        }
        self.sum.fetch_add(local.sum(), Ordering::Relaxed);
        for (slot, &n) in self.counts.iter().zip(local.counts()) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// The histogram as of now. Its count is the sum of the buckets just
    /// read, not a counter of its own: a separate load would race with
    /// `record`.
    fn snapshot(&self) -> Histogram {
        Histogram::from_buckets(
            std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// One worker's private slice of the hub: nothing behind a pointer,
/// and [`SHARD_ALIGN`]-aligned (which also pads its size to a multiple
/// of that), so neighbours in the shard array share no cache line.
#[repr(C, align(128))]
struct Shard {
    counters: [AtomicU64; Counter::ALL.len()],
    dists: [AtomicHistogram; Dist::ALL.len()],
}

const _: () = assert!(std::mem::align_of::<Shard>() == SHARD_ALIGN);

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            dists: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }
}

/// Lock-free, sharded store of live runtime counters (see module docs).
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
            shards: (0..workers.max(1)).map(|_| Shard::new()).collect(),
            rank_hwm: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            runq_depth: AtomicU64::new(0),
            timers_pending: AtomicU64::new(0),
            iter_active: AtomicU64::new(0),
            iter_live: AtomicU64::new(0),
            iter_colored: AtomicU64::new(0),
        }
    }

    fn shard(&self, worker: usize) -> &Shard {
        // No division for a worker that has a shard of its own.
        match self.shards.get(worker) {
            Some(shard) => shard,
            None => &self.shards[worker % self.shards.len()],
        }
    }

    /// Add `delta` to `counter` on `worker`'s shard.
    pub fn add(&self, worker: usize, counter: Counter, delta: u64) {
        self.shard(worker).counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Increment `counter` by one on `worker`'s shard.
    pub fn inc(&self, worker: usize, counter: Counter) {
        self.add(worker, counter, 1);
    }

    /// Record `v` into `dist` on `worker`'s shard.
    pub fn observe(&self, worker: usize, dist: Dist, v: u64) {
        self.shard(worker).dists[dist as usize].record(v);
    }

    /// Fold a histogram the caller filled locally into `dist` on
    /// `worker`'s shard — the per-batch counterpart of calling
    /// [`TelemetryHub::observe`] once per value, with the same snapshot
    /// as a result. An empty `local` is a no-op; the caller resets it
    /// afterwards ([`Histogram::reset`]).
    pub fn merge_dist(&self, worker: usize, dist: Dist, local: &Histogram) {
        self.shard(worker).dists[dist as usize].merge(local);
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
            .map(|s| s.counters[counter as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Record one finished simulator repetition: rep/event/send totals
    /// plus the per-rep distributions, in one call so the simulator's
    /// hot loop stays untouched (the update runs once per repetition,
    /// after the outcome is already assembled).
    pub fn record_sim_rep(&self, events: u64, sends: u64, quiescence: u64, complete: bool) {
        self.inc(0, Counter::SimReps);
        self.add(0, Counter::SimEvents, events);
        self.add(0, Counter::SimSends, sends);
        if !complete {
            self.inc(0, Counter::SimIncomplete);
        }
        self.observe(0, Dist::SimRepEvents, events);
        self.observe(0, Dist::SimRepSends, sends);
        self.observe(0, Dist::SimRepQuiescence, quiescence);
    }

    /// Merge every shard into a point-in-time [`TelemetrySnapshot`]
    /// with source `"unknown"` (callers tag it via
    /// [`TelemetrySnapshot::with_source`]).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters = BTreeMap::new();
        for c in Counter::ALL {
            counters.insert(c.name().to_owned(), self.counter_total(c));
        }
        let mut histograms = BTreeMap::new();
        for d in Dist::ALL {
            let mut merged = Histogram::default();
            for s in &self.shards {
                merged.merge(&s.dists[d as usize].snapshot());
            }
            histograms.insert(d.name().to_owned(), merged);
        }
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
        let per_worker = self
            .shards
            .iter()
            .map(|s| {
                Counter::ALL
                    .iter()
                    .filter_map(|&c| {
                        let v = s.counters[c as usize].load(Ordering::Relaxed);
                        (v != 0).then(|| (c.name().to_owned(), v))
                    })
                    .collect()
            })
            .collect();
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
        "timers.pending" => Some("Pending timer-wheel entries at snapshot time."),
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
                .map(|s| std::ptr::from_ref(&s.counters[0]) as usize)
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
        // Buckets included: a shard reaches no memory outside itself.
        assert_eq!(std::mem::size_of::<Shard>() % SHARD_ALIGN, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Publishing a locally filled histogram is indistinguishable
        /// from observing its values one by one.
        #[test]
        fn merge_dist_equals_observing_one_by_one(
            batches in proptest::collection::vec(
                proptest::collection::vec(0u64..3_000_000, 0..40), 0..6),
        ) {
            let merged = TelemetryHub::new(2, 1);
            let observed = TelemetryHub::new(2, 1);
            let mut local = Histogram::latency_default();
            for (i, batch) in batches.iter().enumerate() {
                for &v in batch {
                    local.record(v);
                    observed.observe(i & 1, Dist::MailboxDrained, v);
                }
                // An empty batch merges as a no-op.
                merged.merge_dist(i & 1, Dist::MailboxDrained, &local);
                local.reset();
            }
            // Count, sum, extremes and every bucket.
            prop_assert_eq!(merged.snapshot(), observed.snapshot());
        }
    }

    #[test]
    fn snapshot_during_merge_is_consistent() {
        let hub = std::sync::Arc::new(TelemetryHub::new(1, 1));
        let writer = {
            let hub = std::sync::Arc::clone(&hub);
            std::thread::spawn(move || {
                let mut local = Histogram::latency_default();
                for batch in 0..20_000u64 {
                    for v in 0..20 {
                        local.record((batch + v) & 63);
                    }
                    hub.merge_dist(0, Dist::QuantumUs, &local);
                    local.reset();
                }
            })
        };
        // Each snapshot must read back whole while the writer runs.
        while !writer.is_finished() {
            let _ = hub.snapshot();
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
                for v in 0..400_000u64 {
                    hub.observe(0, Dist::QuantumUs, v & 63);
                }
            })
        };
        // Each snapshot must read back whole while the writer runs.
        while !writer.is_finished() {
            let _ = hub.snapshot();
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
