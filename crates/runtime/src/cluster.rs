//! M:N rank scheduler, bounded mailboxes and the rank quantum; the
//! coordinator loop every broadcast runs under is in [`crate::pubsub`].
//!
//! A [`Cluster`] emulates `P` single-process nodes on a fixed pool of
//! worker threads ([`default_threads`]-sized, `CT_THREADS` override) —
//! M:N scheduling instead of the thread-per-rank design this module
//! started with. Each rank is a passive state machine: a protocol
//! [`Process`] plus a bounded SPSC-style mailbox (fixed-capacity ring,
//! no per-message heap allocation in the steady state). Workers pull
//! batches of *runnable* ranks off a shared run queue and drive each
//! one for a quantum: drain the mailbox, deliver messages, poll the
//! protocol for sends, and hand outgoing messages straight to the
//! destination mailbox. Protocol-requested wake-ups
//! (`SendPoll::WaitUntil`) go into one shared timer heap the pool
//! services between quanta, so idle ranks cost nothing — no P blocked
//! `recv_timeout` calls.
//!
//! A send burst hears its mailbox: every `STAMP_REFRESH_POLLS` sends
//! the quantum drains the mailbox again and routes what came in before
//! it drives the same machine on, so a receive completes between two
//! sends as LogP lets it, and checked correction stops probing a
//! direction it has heard from. An installed iteration that hears mail
//! after it settled is polled again before the quantum ends.
//!
//! Time is an input of the quantum, not something its steps read: a
//! quantum reads the clock once after each mailbox drain, on the
//! cluster-wide `Shared::now_us` timeline, and every protocol `Time`,
//! event stamp and flight stamp it produces is the latest such read
//! minus the iteration's `epoch_us`. Senders stamp before the push,
//! receivers after the drain, and the mailbox mutex orders the two, so
//! `Arrive.t ≥ SendStart.t` holds across workers; see DESIGN.md
//! "Cluster runtime", *One clock*.
//!
//! Coordinator traffic is batched: a worker accumulates per-broadcast
//! deltas (sent, consumed, done, colored), wake-ups and timer arms over
//! a batch of quanta and flushes them once — one post to the
//! coordinator's ledger (`crate::inbox`), which wakes it only at a
//! broadcast's milestones, and one run-queue lock. Sleeping workers are
//! woken one at a time, by whoever claims a batch and leaves work
//! behind (see `Sched::parked`). What the observability taps count
//! travels the same way: tallied in worker-local values and folded into
//! the telemetry hub once per batch, ahead of that batch's post (see
//! `Tally`).
//!
//! Ranks install and retire their own iterations. Admission publishes
//! the broadcast — its id, epoch, crash mask and
//! [`ct_core::protocol::Blueprint`] — into a window kept under the
//! scheduler lock and appends one sweep over the ranks to the run
//! queue, which claims expand rank by rank; retirement takes it out
//! again. A worker takes the current window when it claims a
//! batch, and each quantum first syncs its rank with it
//! (`RankState::sync`), under the state lock it holds anyway: it
//! installs what is new, placing the machine over a spare one so the
//! previous broadcast's machine is rewound in place, and retires what
//! is gone. The coordinator locks no rank to admit or retire a
//! broadcast; its message count is the sum of the workers' batched
//! reports, and only a broadcast whose events are recorded is
//! harvested rank by rank.
//!
//! Stale messages are discarded by broadcast id, so iterations cannot
//! bleed into one another even with messages still queued.

use std::collections::VecDeque;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ct_core::protocol::{Blueprint, Process, ProtocolError, ProtocolFactory, SendPoll};
use ct_logp::{LogP, Rank, Time};
use ct_obs::flight::{FlightKind as Fk, FlightRecorder, NO_RANK};
use ct_obs::series::{Sampler, SeriesStore, DEFAULT_SERIES_CAP};
use ct_obs::telemetry::{Counter as Tc, Dist as Td, Tally, TelemetryHub};
use ct_obs::{Event as ObsEvent, EventKind as ObsEventKind, EventSink, NullSink};
use ct_obs::{Postmortem, StallReport};

/// Worker-pool size: the process's one thread-count rule (`CT_THREADS`,
/// else the available parallelism), shared with the experiment
/// campaigns and the simulator.
pub use ct_obs::default_threads;

use crate::inbox::{Counts, Ledger};
use crate::mailbox::{Mailbox, Msg};
use crate::pubsub::{Admission, BroadcastOutcome, Rule};
use crate::timer::Timers;

/// Upper bound on ranks a worker claims per run-queue lock.
const MAX_BATCH: usize = 32;

/// `name` read as a positive integer, else `default`: how
/// `CT_MAILBOX_CAP` (default 64 slots per rank), `CT_WATCHDOG_MS` and
/// `CT_FLIGHT_CAP` are read. The watchdog's generous 30 000 ms default
/// means a completed iteration never waits on it and CPU contention on
/// oversubscribed machines does not turn into spurious incompleteness;
/// stress tests and CI set the variable to fail fast instead.
fn env_positive(name: &str, default: u64) -> u64 {
    parse_positive(std::env::var(name).ok().as_deref(), default)
}

/// [`env_positive`]'s parsing, factored out for deterministic testing.
fn parse_positive(raw: Option<&str>, default: u64) -> u64 {
    match raw.and_then(|s| s.trim().parse::<u64>().ok()) {
        Some(n) if n >= 1 => n,
        _ => default,
    }
}

/// Flight-recorder ring capacity (records per worker shard) used when
/// [`ClusterConfig::flight`] is enabled without an explicit size:
/// `CT_FLIGHT_CAP` when set to a positive integer, else 4096. At 40
/// bytes per record the default costs ~160 KiB per worker.
pub fn default_flight_cap() -> usize {
    env_positive("CT_FLIGHT_CAP", 4096) as usize
}

/// Tunables for a [`Cluster`]; [`ClusterConfig::new`] reads the
/// environment (`CT_THREADS`, `CT_MAILBOX_CAP`, `CT_WATCHDOG_MS`) so
/// tests can pin exact values without mutating process state.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Worker-pool size (clamped to `1..=p` at cluster construction).
    pub threads: usize,
    /// Per-rank mailbox ring capacity (≥ 1; overflow spills to the
    /// heap, so this bounds steady-state allocation, not correctness).
    pub mailbox_capacity: usize,
    /// Per-iteration completion deadline (the watchdog).
    pub timeout: Duration,
    /// Live-telemetry hub the workers feed; `None` (the default) keeps
    /// every instrumented path on its zero-cost branch, exactly like a
    /// disabled [`EventSink`].
    pub telemetry: Option<Arc<TelemetryHub>>,
    /// Flight-recorder ring capacity (records per worker shard);
    /// `None` (the default) attaches no recorder and keeps the
    /// instrumented paths on their zero-cost branch.
    pub flight: Option<usize>,
    /// Where to write the `ct-postmortem-v1` dump when the run dies
    /// (watchdog stall or worker panic) with a flight recorder
    /// attached; `None` keeps the dump in-memory only
    /// ([`BroadcastOutcome::postmortem`]).
    pub postmortem: Option<PathBuf>,
    /// Continuous-sampling interval: with a telemetry hub attached, a
    /// background [`Sampler`] polls it this often into a `ct-series-v1`
    /// ring and evaluates the health rules per window
    /// ([`Cluster::series`], [`BroadcastOutcome::health`]). `None` (the
    /// default) spawns no thread — same zero-cost discipline as the
    /// hub and the recorder. `ct` enables it with the
    /// `CT_SAMPLE_MS`-driven [`ct_obs::series::default_sample_ms`].
    pub sample: Option<Duration>,
}

impl ClusterConfig {
    /// Environment-driven defaults: [`default_threads`] workers, 64-slot
    /// mailboxes (`CT_MAILBOX_CAP` override) and a generous 30 s
    /// watchdog timeout (`CT_WATCHDOG_MS` override).
    pub fn new() -> ClusterConfig {
        ClusterConfig {
            threads: default_threads(),
            mailbox_capacity: env_positive("CT_MAILBOX_CAP", 64) as usize,
            timeout: Duration::from_millis(env_positive("CT_WATCHDOG_MS", 30_000)),
            telemetry: None,
            flight: None,
            postmortem: None,
            sample: None,
        }
    }

    /// Replace the worker-pool size.
    pub fn threads(mut self, threads: usize) -> ClusterConfig {
        self.threads = threads;
        self
    }

    /// Replace the per-rank mailbox ring capacity.
    pub fn mailbox_capacity(mut self, capacity: usize) -> ClusterConfig {
        self.mailbox_capacity = capacity;
        self
    }

    /// Replace the per-iteration completion deadline.
    pub fn timeout(mut self, timeout: Duration) -> ClusterConfig {
        self.timeout = timeout;
        self
    }

    /// Attach a live-telemetry hub for the workers to feed.
    pub fn telemetry(mut self, hub: Arc<TelemetryHub>) -> ClusterConfig {
        self.telemetry = Some(hub);
        self
    }

    /// Attach a flight recorder with `cap`-record rings (one ring per
    /// worker plus one for the coordinator). See [`default_flight_cap`]
    /// for the `CT_FLIGHT_CAP`-driven default size.
    pub fn flight(mut self, cap: usize) -> ClusterConfig {
        self.flight = Some(cap);
        self
    }

    /// Write the `ct-postmortem-v1` dump to `path` when a run dies with
    /// a flight recorder attached.
    pub fn postmortem(mut self, path: PathBuf) -> ClusterConfig {
        self.postmortem = Some(path);
        self
    }

    /// Enable continuous sampling at `interval` (requires
    /// [`ClusterConfig::telemetry`] to have any effect).
    pub fn sample(mut self, interval: Duration) -> ClusterConfig {
        self.sample = Some(interval);
        self
    }
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig::new()
    }
}

/// Errors from cluster operation.
#[derive(Debug)]
pub enum ClusterError {
    /// The protocol factory failed.
    Protocol(ProtocolError),
    /// A worker thread panicked (observed as a poisoned rank lock or as
    /// every worker having exited), so the iteration's state cannot be
    /// trusted or collected.
    WorkerPanicked,
}

impl core::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterError::Protocol(e) => write!(f, "protocol: {e}"),
            ClusterError::WorkerPanicked => write!(f, "a worker thread panicked"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ProtocolError> for ClusterError {
    fn from(e: ProtocolError) -> Self {
        ClusterError::Protocol(e)
    }
}

/// One in-flight broadcast iteration on a rank. A rank holds one of
/// these per concurrently installed topic (exactly one in
/// single-broadcast mode, up to `k` under pub/sub multiplexing), so all
/// per-iteration progress lives here rather than on [`RankState`].
pub(crate) struct IterState {
    pub(crate) id: u64,
    pub(crate) process: Box<dyn Process>,
    pub(crate) dead: bool,
    /// The iteration epoch on the cluster-wide µs timeline
    /// ([`Shared::epoch`]): protocol time is `now_us − epoch_us`, timer
    /// deadlines are `epoch_us + t`.
    pub(crate) epoch_us: u64,
    pub(crate) record: bool,
    /// Messages routed to this iteration (delivered or dead-dropped)
    /// not yet reported to the coordinator: a quantum counts here while
    /// routing and reports whenever it stops driving the machine, so a
    /// nonzero count on a machine already driven means it heard
    /// something after its last poll.
    pub(crate) consumed: u64,
    /// Whether the coordinator has been told this rank is colored.
    pub(crate) notified: bool,
    /// Whether the coordinator has been told this rank's protocol
    /// machine reported [`SendPoll::Done`] (quiescence tracking).
    pub(crate) done_notified: bool,
    /// Buffered observability events (when recording).
    pub(crate) events: Vec<ObsEvent>,
}

impl IterState {
    /// A freshly installed iteration: nothing sent, nothing reported.
    pub(crate) fn new(
        id: u64,
        process: Box<dyn Process>,
        dead: bool,
        epoch_us: u64,
        record: bool,
    ) -> IterState {
        IterState {
            id,
            process,
            dead,
            epoch_us,
            record,
            consumed: 0,
            notified: false,
            done_notified: false,
            events: Vec::new(),
        }
    }

    /// Protocol time of the cluster-timeline stamp `now_us`.
    fn at(&self, now_us: u64) -> Time {
        Time::new(now_us.saturating_sub(self.epoch_us))
    }

    /// Buffer an observability event stamped `now` (when recording).
    fn note(&mut self, now: Time, kind: ObsEventKind) {
        if self.record {
            self.events.push(ObsEvent::wall(now, now.steps(), kind));
        }
    }
}

/// Mutable per-rank state a worker locks for the span of one quantum.
pub(crate) struct RankState {
    /// The broadcast iterations currently installed on this rank; one
    /// quantum drains the rank's mailbox (at its start and at every
    /// refresh point of a send burst) and serves all of them.
    pub(crate) iters: Vec<IterState>,
    /// Messages drained ahead of their broadcast's installation on this
    /// rank (a peer that installed it already can send before this
    /// rank's worker has taken the window holding it). They are
    /// re-examined each quantum, and every admission schedules one that
    /// installs ([`Shared::publish`]).
    pub(crate) pending: Vec<Msg>,
    /// Highest broadcast id ever installed on this rank — installs
    /// happen in increasing id order, so a drained message with
    /// `id <= last_installed` that matches no installed iteration is
    /// stale (its iteration was torn down) and is dropped.
    pub(crate) last_installed: u64,
    /// Generation of the newest [`Window`] this rank synced with
    /// ([`RankState::sync`]); an older snapshot is not synced with.
    pub(crate) synced: u64,
    /// Machines of retired iterations, for the next install to place
    /// over; with the installed ones never more than the window's `k`.
    pub(crate) spare: Vec<Box<dyn Process>>,
    /// Cluster-timeline µs stamp of this rank's last mailbox drain
    /// (`None` until first polled). Always maintained — it is the clock
    /// read that follows every drain — so the watchdog's
    /// [`StallReport`] can tell "never polled" from "polled long ago"
    /// even on runs without telemetry; a stamp older than a broadcast's
    /// epoch counts as never polled for it.
    pub(crate) last_poll_us: Option<u64>,
}

impl RankState {
    /// Bring this rank's iterations in line with `window`, unless it
    /// synced with that generation or a newer one already: every
    /// unrecorded iteration whose broadcast retired goes (its machine
    /// becomes a spare; a recorded one waits for the coordinator's
    /// harvest), then every broadcast newer than `last_installed` is
    /// installed over a spare machine. Spares beyond the window's `k`
    /// machines are freed.
    pub(crate) fn sync(&mut self, rank: Rank, window: &Window) {
        if window.gen <= self.synced {
            return;
        }
        self.synced = window.gen;
        let mut i = 0;
        while i < self.iters.len() {
            let id = self.iters[i].id;
            if self.iters[i].record || window.entries.iter().any(|e| e.id == id) {
                i += 1;
            } else {
                let retired = self.iters.remove(i);
                self.spare.push(retired.process);
            }
        }
        // Entries are in id order.
        let from = window
            .entries
            .partition_point(|e| e.id <= self.last_installed);
        for e in &window.entries[from..] {
            let process = e.blueprint.place(rank, self.spare.pop());
            let dead = e.dead[rank as usize];
            let iter = IterState::new(e.id, process, dead, e.epoch_us, e.record);
            self.iters.push(iter);
            self.last_installed = e.id;
        }
        self.spare
            .truncate(window.k.saturating_sub(self.iters.len()));
    }
}

/// One rank: a schedule flag, a mailbox and the protocol state.
///
/// Lock order: `state` before `mailbox`; `mailbox` and the scheduler
/// lock are leaves (never held while taking another lock); no two
/// `state` locks are ever held at once.
pub(crate) struct RankCell {
    /// Set while the rank sits in the run queue or a worker's batch.
    /// Senders and timer expiry that win the `false → true` CAS take
    /// responsibility for enqueueing (a sender reads the flag first and
    /// writes it only when it reads `false`, see [`Quantum::drive`]),
    /// and the end-of-quantum recheck — on the stale path too — closes
    /// the clear-flag/new-work race. An admission neither sets the flag
    /// nor goes by it (a quantum on an older window may be about to
    /// clear it without installing): its sweep goes by the scheduler's
    /// own bookkeeping and sets the flag on each rank it hands out, see
    /// [`Shared::publish`].
    pub(crate) scheduled: AtomicBool,
    pub(crate) mailbox: Mutex<Mailbox>,
    pub(crate) state: Mutex<RankState>,
}

/// A run-queue entry: a rank woken by whoever won its `scheduled`
/// flag, or an admission's sweep (the front of [`Sched::sweeps`]).
#[derive(Clone, Copy)]
enum Item {
    Rank(Rank),
    Sweep,
}

/// Scheduler state shared by the pool.
pub(crate) struct Sched {
    runq: VecDeque<Item>,
    /// What is left of each sweep in `runq`, in queue order.
    sweeps: VecDeque<Range<Rank>>,
    /// Ranks `runq` holds, single or swept: the run-queue depth.
    pub(crate) depth: usize,
    /// Per rank, whether it has a single entry no worker claimed yet.
    unclaimed: Vec<bool>,
    /// Per rank, `admissions` as of its latest claim.
    claimed: Vec<u64>,
    admissions: u64,
    pub(crate) timers: Timers,
    pub(crate) shutdown: bool,
    /// Workers asleep on `sched_cv`. Work that enters the run queue
    /// wakes at most one of them, and only when somebody is left to
    /// wake: the coordinator rings once after an admission, and a worker
    /// that claims its share and leaves ranks behind rings for the next
    /// — the wake-ups chain for as long as there is surplus work. A
    /// worker that flushes wake-ups rings nobody: it claims next itself
    /// and the same rule applies to what it leaves.
    pub(crate) parked: usize,
    /// The broadcasts in flight, as the workers learn them when they
    /// claim ([`Shared::publish`], [`Shared::withdraw`]).
    pub(crate) window: Arc<Window>,
}

/// One admitted broadcast as its ranks see it: what a rank needs to
/// install its iteration by itself.
#[derive(Clone)]
pub(crate) struct Entry {
    pub(crate) id: u64,
    pub(crate) epoch_us: u64,
    pub(crate) record: bool,
    /// Per-rank crash mask, length P.
    pub(crate) dead: Arc<[bool]>,
    pub(crate) blueprint: Arc<dyn Blueprint>,
}

/// The coordinator's window of in-flight broadcasts, published whole
/// under the scheduler lock: a worker takes the current one when it
/// claims a batch, and each quantum syncs its rank with that snapshot
/// ([`RankState::sync`]).
pub(crate) struct Window {
    /// Bumped by every admission and retirement.
    pub(crate) gen: u64,
    /// Most broadcasts in flight at once: a rank keeps at most this
    /// many machines, installed plus spare.
    pub(crate) k: usize,
    /// In admission (= id) order.
    pub(crate) entries: Vec<Entry>,
}

impl Sched {
    /// Whether a sweep reaching `rank` passes it by: it has an unclaimed
    /// single entry, or was claimed since the latest admission. Either
    /// way a quantum on a window holding that admission runs without
    /// the sweep's.
    fn sweep_skips(&self, rank: Rank) -> bool {
        let r = rank as usize;
        self.unclaimed[r] || self.claimed[r] == self.admissions
    }

    /// Append a sweep over each gap, in rank order, that the pending
    /// sweeps leave in `0..p`: they hand out what they cover after this
    /// admission anyway (or skip it, see [`Sched::sweep_skips`]).
    fn sweep_uncovered(&mut self, p: Rank) {
        let mut covered: Vec<Range<Rank>> = self.sweeps.iter().cloned().collect();
        covered.sort_unstable_by_key(|r| r.start);
        let mut from = 0;
        for r in covered.into_iter().chain(std::iter::once(p..p)) {
            if from < r.start {
                self.depth += (r.start - from) as usize;
                self.sweeps.push_back(from..r.start);
                self.runq.push_back(Item::Sweep);
            }
            from = from.max(r.end);
        }
    }

    /// Enqueue `rank` for whoever won its `scheduled` CAS (sender,
    /// recheck, timer expiry), unless what is queued runs it after this
    /// anyway: its own unclaimed entry, or a pending sweep that covers
    /// it and will not skip it — eliding the entry of a rank the sweep
    /// skips would leave its mail undrained for good. A rank thus holds
    /// at most one single entry and lies in at most one sweep.
    fn push_woken(&mut self, rank: Rank) {
        let r = rank as usize;
        if self.unclaimed[r]
            || (!self.sweep_skips(rank) && self.sweeps.iter().any(|s| s.contains(&rank)))
        {
            return;
        }
        self.unclaimed[r] = true;
        self.depth += 1;
        self.runq.push_back(Item::Rank(rank));
    }

    /// Claim the next rank: the oldest single entry, or the next rank
    /// the oldest sweep does not skip, whose `scheduled` flag (in
    /// `ranks`) the sweep sets as it hands it out.
    fn pop(&mut self, ranks: &[RankCell]) -> Option<Rank> {
        loop {
            let item = *self.runq.front()?;
            self.depth -= 1;
            let rank = match item {
                Item::Rank(rank) => {
                    self.runq.pop_front();
                    self.unclaimed[rank as usize] = false;
                    rank
                }
                Item::Sweep => {
                    let sweep = self.sweeps.front_mut().expect("a range per sweep");
                    let rank = sweep.start;
                    sweep.start += 1;
                    if sweep.start == sweep.end {
                        self.sweeps.pop_front();
                        self.runq.pop_front();
                    }
                    if self.sweep_skips(rank) {
                        continue;
                    }
                    ranks[rank as usize].scheduled.store(true, Ordering::SeqCst);
                    rank
                }
            };
            self.claimed[rank as usize] = self.admissions;
            return Some(rank);
        }
    }
}

pub(crate) struct Shared {
    pub(crate) ranks: Vec<RankCell>,
    pub(crate) sched: Mutex<Sched>,
    pub(crate) sched_cv: Condvar,
    /// Worker → coordinator running totals.
    pub(crate) ledger: Ledger,
    /// Zero point of the cluster-wide µs timeline timers live on.
    pub(crate) base: Instant,
    pub(crate) workers: usize,
    /// Live-telemetry hub; `None` keeps instrumentation zero-cost.
    pub(crate) telemetry: Option<Arc<TelemetryHub>>,
    /// Flight recorder (shard per worker + one coordinator shard);
    /// `None` keeps instrumentation zero-cost.
    pub(crate) flight: Option<Arc<FlightRecorder>>,
}

impl Shared {
    /// Nanoseconds since `base`: the one clock every stamp in this
    /// crate is a function of.
    pub(crate) fn now_ns(&self) -> u64 {
        let d = self.base.elapsed();
        d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
    }

    /// Whole microseconds since `base` — the cluster-wide timeline
    /// protocol time, timers, events and flight records live on.
    pub(crate) fn now_us(&self) -> u64 {
        self.now_ns() / 1_000
    }

    /// A fresh iteration epoch: "now" floored to a whole µs of the
    /// timeline, as the `Instant` the coordinator measures latency and
    /// the watchdog deadline from and as the `epoch_us` the workers
    /// subtract. Being the same point, an event stamp
    /// `now_us − epoch_us` can never exceed a latency taken later.
    pub(crate) fn epoch(&self) -> (Instant, u64) {
        let epoch_us = self.now_us();
        (self.base + Duration::from_micros(epoch_us), epoch_us)
    }

    /// Admit `entry` into the window of `k` and make every rank
    /// runnable, in one scheduler-lock acquisition, then ring one worker
    /// (it wakes the next if it leaves work). Each rank installs the
    /// broadcast itself, in the first quantum that syncs with a window
    /// holding it: any quantum claimed from here on does.
    ///
    /// That costs O(1) here: a sweep over the ranks no pending sweep
    /// covers, which claims expand ([`Sched::pop`]). A sweep adds no
    /// quantum to a rank that has an unclaimed entry or was claimed
    /// since the admission ([`Sched::sweep_skips`]): that quantum
    /// installs the new iteration. A claim *before* the admission proves
    /// nothing — its quantum may run on an older window — so the
    /// scheduler's bookkeeping decides, not `scheduled`.
    pub(crate) fn publish(&self, entry: Entry, k: usize) -> Result<(), ClusterError> {
        {
            let mut sched = self
                .sched
                .lock()
                .map_err(|_| ClusterError::WorkerPanicked)?;
            let entries = sched.window.entries.iter().cloned();
            sched.window = Arc::new(Window {
                gen: sched.window.gen + 1,
                k,
                entries: entries.chain(std::iter::once(entry)).collect(),
            });
            sched.admissions += 1;
            sched.sweep_uncovered(self.ranks.len() as Rank);
        }
        self.sched_cv.notify_one();
        Ok(())
    }

    /// Retire broadcast `id` from the window; returns the window that
    /// remains. No rank is touched: each drops its iteration when it
    /// next syncs. A window left empty also empties the run queue and
    /// the timers — nothing in flight needs a quantum, and the
    /// next admission schedules every rank — so what a broadcast
    /// retired on coloring left behind does not run ahead of the next
    /// one: its messages are dropped by id when their rank next drains.
    pub(crate) fn withdraw(&self, id: u64) -> Result<Arc<Window>, ClusterError> {
        let mut sched = self
            .sched
            .lock()
            .map_err(|_| ClusterError::WorkerPanicked)?;
        let entries = sched.window.entries.iter().filter(|e| e.id != id).cloned();
        let window = Arc::new(Window {
            gen: sched.window.gen + 1,
            k: sched.window.k,
            entries: entries.collect(),
        });
        sched.window = Arc::clone(&window);
        if window.entries.is_empty() {
            sched.runq.clear();
            sched.sweeps.clear();
            sched.depth = 0;
            sched.unclaimed.fill(false);
            sched.timers.clear();
        }
        Ok(window)
    }
}

/// Per-worker scratch buffers, reused across quanta.
#[derive(Default)]
struct Scratch {
    /// Mailbox drain target.
    msgs: Vec<Msg>,
    /// Ranks made runnable by this batch's sends (CAS already won).
    wakes: Vec<Rank>,
    /// Timer arms `(deadline_us, rank)` to flush into the heap.
    timers: Vec<(u64, Rank)>,
    /// Per-broadcast deltas to post to the coordinator's ledger; merged
    /// by id at accumulation time (at most one entry per in-flight
    /// broadcast per batch).
    deltas: Vec<(u64, Counts)>,
    /// Timer-expiry drain target.
    due: Vec<Rank>,
}

/// Merge broadcast `id`'s delta into the batch's list (linear scan: at
/// most `k` in-flight broadcasts at a time).
fn bump(deltas: &mut Vec<(u64, Counts)>, id: u64, delta: Counts) {
    if delta == Counts::default() {
        return;
    }
    match deltas.iter_mut().find(|e| e.0 == id) {
        Some(e) => e.1.add(&delta),
        None => deltas.push((id, delta)),
    }
}

/// Worker-side poisoned-lock marker: the holder panicked, so the
/// observing worker exits and lets the coordinator surface
/// [`ClusterError::WorkerPanicked`].
struct Poisoned;

/// A pool of worker threads emulating a cluster of `P` single-process
/// nodes over a reliable in-memory interconnect.
pub struct Cluster {
    pub(crate) p: u32,
    pub(crate) logp: LogP,
    pub(crate) shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    pub(crate) next_id: u64,
    pub(crate) timeout: Duration,
    /// Where [`Cluster::capture_postmortem`] writes its dump.
    postmortem_path: Option<PathBuf>,
    /// Continuous sampler ([`ClusterConfig::sample`]); owns the
    /// background thread and the shared series store.
    sampler: Option<Sampler>,
}

impl Cluster {
    /// A cluster of `p` ranks with environment-driven defaults
    /// ([`ClusterConfig::new`]). `logp` is only forwarded to protocol
    /// factories (tree construction); transport timing is real.
    pub fn new(p: u32, logp: LogP) -> Cluster {
        Cluster::with_config(p, logp, ClusterConfig::new())
    }

    /// A cluster of `p` ranks with explicit tunables.
    pub fn with_config(p: u32, logp: LogP, cfg: ClusterConfig) -> Cluster {
        assert!(p >= 1);
        let workers = cfg.threads.clamp(1, p as usize);
        let capacity = cfg.mailbox_capacity.max(1);
        // The sampler only reads the hub, so it can start before the
        // workers exist; its clock is the cluster's lifetime.
        let sampler = match (&cfg.telemetry, cfg.sample) {
            (Some(hub), Some(interval)) => Some(Sampler::spawn(
                Arc::clone(hub),
                "cluster",
                interval,
                DEFAULT_SERIES_CAP,
            )),
            _ => None,
        };
        let ranks = (0..p)
            .map(|_| RankCell {
                scheduled: AtomicBool::new(false),
                mailbox: Mutex::new(Mailbox::new(capacity)),
                state: Mutex::new(RankState {
                    iters: Vec::new(),
                    pending: Vec::new(),
                    last_installed: 0,
                    synced: 0,
                    spare: Vec::new(),
                    last_poll_us: None,
                }),
            })
            .collect();
        let shared = Arc::new(Shared {
            ranks,
            sched: Mutex::new(Sched {
                runq: VecDeque::with_capacity(2 * p as usize),
                sweeps: VecDeque::new(),
                depth: 0,
                unclaimed: vec![false; p as usize],
                claimed: vec![0; p as usize],
                admissions: 0,
                timers: Timers::new(),
                shutdown: false,
                parked: 0,
                window: Arc::new(Window {
                    gen: 0,
                    k: 1,
                    entries: Vec::new(),
                }),
            }),
            sched_cv: Condvar::new(),
            ledger: Ledger::new(workers),
            base: Instant::now(),
            workers,
            telemetry: cfg.telemetry,
            flight: cfg
                .flight
                .map(|cap| Arc::new(FlightRecorder::new(workers + 1, cap))),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ct-worker-{i}"))
                    .spawn(move || worker_main(shared, i))
                    .expect("spawn worker thread"),
            );
        }
        Cluster {
            p,
            logp,
            shared,
            handles,
            next_id: 1,
            timeout: cfg.timeout,
            postmortem_path: cfg.postmortem,
            sampler,
        }
    }

    /// The continuous sampler's shared store — the live series ring
    /// plus health log behind the `/series.jsonl` and `/health`
    /// endpoints. `None` unless [`ClusterConfig::sample`] and
    /// [`ClusterConfig::telemetry`] are both set.
    pub fn series(&self) -> Option<Arc<SeriesStore>> {
        self.sampler.as_ref().map(Sampler::store)
    }

    /// Number of ranks.
    pub fn p(&self) -> u32 {
        self.p
    }

    /// Run one broadcast of `factory`'s protocol with `dead` marking
    /// emulated crash failures: a one-slot window of the pub/sub
    /// coordinator, retired once every live rank is colored (see
    /// [`crate::pubsub`]). The protocol's initiating rank (rank 0, or
    /// `BroadcastSpec::root` for rotated broadcasts) must be alive — a
    /// dead initiator simply times out with nobody colored.
    pub fn run_broadcast(
        &mut self,
        factory: &dyn ProtocolFactory,
        dead: &[bool],
        seed: u64,
    ) -> Result<BroadcastOutcome, ClusterError> {
        self.run_broadcast_observed(factory, dead, seed, &mut NullSink)
    }

    /// Like [`Cluster::run_broadcast`], additionally returning the
    /// iteration's raw observability events — the input `ct-analyze`
    /// consumes for causal-path analysis of real (wall-clock) runs.
    pub fn run_broadcast_traced(
        &mut self,
        factory: &dyn ProtocolFactory,
        dead: &[bool],
        seed: u64,
    ) -> Result<(BroadcastOutcome, Vec<ObsEvent>), ClusterError> {
        let mut sink = ct_obs::VecSink::new();
        let report = self.run_broadcast_observed(factory, dead, seed, &mut sink)?;
        Ok((report, sink.events))
    }

    /// Like [`Cluster::run_broadcast`], additionally streaming the
    /// iteration's observability events into `sink` — the same schema
    /// the simulator emits, each event stamped with both logical time
    /// (microseconds since the iteration epoch; the clock the protocol
    /// state machines see) and wall-clock microseconds.
    ///
    /// Recording is decided once per iteration from
    /// [`EventSink::enabled`]: with a disabled sink (the default
    /// [`NullSink`]) workers buffer nothing and the iteration behaves
    /// exactly like an unobserved one. Events are buffered per rank and
    /// merged time-sorted after the iteration, so observation adds no
    /// cross-thread traffic on the hot path.
    pub fn run_broadcast_observed(
        &mut self,
        factory: &dyn ProtocolFactory,
        dead: &[bool],
        seed: u64,
        sink: &mut dyn EventSink,
    ) -> Result<BroadcastOutcome, ClusterError> {
        let admission = Admission {
            factory,
            dead,
            seed,
            topic: 0,
            round: 0,
            rule: Rule::Colored,
        };
        let mut outcomes = self.run_window(1, std::iter::once(admission), &mut [sink])?;
        Ok(outcomes.pop().expect("one admission, one outcome"))
    }

    /// Freeze the flight recorder and bundle a [`Postmortem`]: the
    /// given `reason` (`watchdog_stall`, `worker_panic`,
    /// `monitor_violation`), the stall report when the failure was a
    /// stall, a telemetry snapshot when a hub is attached, the health
    /// precursor timeline when a sampler is attached, and the frozen
    /// rings. Written to [`ClusterConfig::postmortem`] when a
    /// path is configured. Returns `None` without a flight recorder
    /// ([`ClusterConfig::flight`]); recording never resumes afterwards
    /// — the black box keeps the crash evidence for the process
    /// lifetime of this cluster.
    pub fn capture_postmortem(
        &self,
        reason: &str,
        stall: Option<&StallReport>,
    ) -> Option<Postmortem> {
        let recorder = self.shared.flight.as_deref()?;
        recorder.freeze();
        let pm = Postmortem {
            reason: reason.to_owned(),
            p: self.p,
            stall: stall.cloned(),
            telemetry: self
                .shared
                .telemetry
                .as_ref()
                .map(|hub| hub.snapshot().with_source("cluster")),
            // The precursor timeline: everything the health engine
            // fired over this cluster's lifetime, stall precursors
            // included — fired windows before the watchdog gave up.
            health: self
                .sampler
                .as_ref()
                .map(|s| s.store().events())
                .unwrap_or_default(),
            flight: recorder.dump(),
        };
        if let Some(path) = &self.postmortem_path {
            if let Err(e) = pm.write(path) {
                eprintln!("ct: failed to write postmortem {}: {e}", path.display());
            }
        }
        Some(pm)
    }
}

#[cfg(test)]
impl Cluster {
    /// The most protocol machines any rank holds, installed plus spare.
    pub(crate) fn most_machines_per_rank(&self) -> usize {
        let held = self.shared.ranks.iter().map(|cell| {
            let st = cell.state.lock().unwrap();
            st.iters.len() + st.spare.len()
        });
        held.max().unwrap_or(0)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Ok(mut sched) = self.shared.sched.lock() {
            sched.shutdown = true;
        }
        self.shared.sched_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Sends a quantum makes on one mailbox drain and one clock read. A
/// send burst (rank 0's checked-correction round at P=1024) stops this
/// often to drain the mailbox, route what came in and only then re-read
/// the clock, so the machine hears its peers while it sends — checked
/// correction stops probing a direction once it has heard from it — and
/// protocol time still advances inside the burst. Almost every other
/// quantum is done long before.
const STAMP_REFRESH_POLLS: u32 = 16;

/// A worker's observability taps. With nothing attached every call
/// reduces to one `Option` branch.
#[derive(Clone, Copy)]
struct Taps<'a> {
    tel: Option<&'a TelemetryHub>,
    fl: Option<&'a FlightRecorder>,
    /// This worker's telemetry / flight shard.
    widx: usize,
}

impl Taps<'_> {
    fn flight(&self, kind: Fk, rank: Rank, aux: u64, step: u64, wall_us: u64) {
        if let Some(f) = self.fl {
            f.record(self.widx, kind, rank, aux, step, wall_us);
        }
    }
}

/// What a worker keeps to itself between publications.
///
/// The worker counts into `tally` — per quantum, at each claim and per
/// batch — and, with a hub attached, hands it over with one
/// [`TelemetryHub::publish`] per batch, in `flush` just before the
/// batch's ledger post, so whatever the coordinator has learnt from a
/// batch the hub already shows; a running worker's counters lag by at
/// most one batch (≤ [`MAX_BATCH`] quanta). The batch's busy time and
/// the `QuantumUs` sample of its last quantum, which the post-flush
/// clock read closes, lag by one more — published with the next batch,
/// or before the worker parks or shuts down, so a parked worker holds
/// nothing back. A worker that unwinds mid-batch takes that batch's
/// tally with it — at most one unpublished batch per panicking worker;
/// one that leaves because it found a peer's lock poisoned publishes on
/// its way out. Without a hub the counters are counted and never read,
/// and no histogram is recorded.
struct Local {
    tally: Tally,
    /// Post-drain stamp (µs) of the quantum whose `QuantumUs` interval
    /// is open: it ends at the next stamp the worker reads anyway — the
    /// next quantum's, or the one after the flush — so the intervals
    /// tile the batch's busy time and cost no clock read of their own.
    open_us: Option<u64>,
    /// The worker's latest clock read, µs: what flight records written
    /// where no clock is read (a stale quantum, a flush) are stamped
    /// with.
    stamp_us: u64,
}

impl Local {
    fn new() -> Local {
        Local {
            tally: Tally::default(),
            open_us: None,
            stamp_us: 0,
        }
    }

    /// A quantum read its post-drain stamp: the interval of the quantum
    /// before it ends there and its own begins.
    fn quantum_begins(&mut self, now_us: u64, drained: u64) {
        self.close_interval(now_us);
        self.open_us = Some(now_us);
        self.tally.observe(Td::MailboxDrained, drained);
    }

    /// End the open `QuantumUs` interval, if any, at `now_us`.
    fn close_interval(&mut self, now_us: u64) {
        if let Some(open_us) = self.open_us.take() {
            self.tally
                .observe(Td::QuantumUs, now_us.saturating_sub(open_us));
        }
    }

    /// Hand everything counted since the last call to the hub.
    fn publish(&mut self, taps: Taps<'_>) {
        if let Some(t) = taps.tel {
            t.publish(taps.widx, &mut self.tally);
        }
    }
}

/// Scheduler loop: claim a batch of runnable ranks (servicing the
/// timers while idle), drive a quantum per rank, flush batched effects.
///
/// `widx` names this worker's telemetry shard; with no hub attached
/// every instrumented path reduces to one `Option` branch.
fn worker_main(shared: Arc<Shared>, widx: usize) {
    /// Tells the ledger this worker is gone, however it goes: when the
    /// last one is, the coordinator sees the disconnect.
    struct Exit<'a>(&'a Ledger);
    impl Drop for Exit<'_> {
        fn drop(&mut self) {
            self.0.worker_exited();
        }
    }
    let _exit = Exit(&shared.ledger);
    let taps = Taps {
        tel: shared.telemetry.as_deref(),
        fl: shared.flight.as_deref(),
        widx,
    };
    let mut local = Local::new();
    let mut scratch = Scratch::default();
    let mut batch: Vec<Rank> = Vec::with_capacity(MAX_BATCH);
    // The window as of this worker's latest claim.
    let mut window = match shared.sched.lock() {
        Ok(sched) => Arc::clone(&sched.window),
        Err(_) => return,
    };
    // Busy time not yet published: it is summed in ns and `SchedBusyUs`
    // counts whole µs, so the sub-µs remainder is carried, not
    // truncated away (truncating per sub-µs quantum once made two
    // saturated workers read as 61 % busy).
    let mut busy_carry_ns = 0u64;
    loop {
        // The stamp of the claim that found work: start of this batch's
        // busy time.
        let claimed = claim(
            &shared,
            taps,
            &mut local.tally,
            &mut scratch.due,
            &mut batch,
            &mut window,
        );
        let Some(claimed_ns) = claimed else {
            // The last batch's busy time and closing `QuantumUs` sample
            // are still here.
            local.publish(taps);
            return;
        };
        local.tally.inc(Tc::SchedBatches);
        if taps.tel.is_some() {
            local.tally.observe(Td::BatchSize, batch.len() as u64);
        }
        local.stamp_us = claimed_ns / 1_000;
        for &rank in &batch {
            if run_quantum(&shared, rank, &window, &mut scratch, taps, &mut local).is_err() {
                // Another worker panicked; the coordinator will surface
                // WorkerPanicked and the cluster is unrecoverable.
                // Still flush best-effort: it publishes what this batch
                // tallied, and ranks whose wake-up CAS was already won
                // are not abandoned scheduled=true with no run-queue
                // entry, should poisoning ever be made survivable.
                let _ = flush(&shared, &mut scratch, taps, &mut local);
                return;
            }
        }
        if flush(&shared, &mut scratch, taps, &mut local).is_err() {
            return;
        }
        if taps.tel.is_some() {
            // The batch's one extra clock read. Busy is everything but
            // parking, claim through flush, and the last quantum's
            // interval ends where the busy time does. Both ride with
            // the next publication.
            let end_ns = shared.now_ns();
            local.close_interval(end_ns / 1_000);
            busy_carry_ns += end_ns.saturating_sub(claimed_ns);
            local.tally.add(Tc::SchedBusyUs, busy_carry_ns / 1_000);
            busy_carry_ns %= 1_000;
        }
    }
}

/// Claim a fair share of the run queue into `batch`, servicing the
/// timers and parking while there is none, and take the current window
/// when it changed; `None` on shutdown or a poisoned scheduler lock.
/// Returns the stamp (ns) of the claim that found work, and wakes the
/// next sleeper if work is left over. Timer fires and the run-queue
/// depth are counted into `tally`, which is published before the worker
/// parks.
fn claim(
    shared: &Shared,
    taps: Taps<'_>,
    tally: &mut Tally,
    due: &mut Vec<Rank>,
    batch: &mut Vec<Rank>,
    window: &mut Arc<Window>,
) -> Option<u64> {
    batch.clear();
    let mut sched = shared.sched.lock().ok()?;
    // Whether `tally` may hold counts the hub lacks.
    let mut held = true;
    let claimed_ns = loop {
        if sched.shutdown {
            return None;
        }
        let now_ns = shared.now_ns();
        let now = now_ns / 1_000;
        due.clear();
        sched.timers.expire(now, due);
        if !due.is_empty() {
            tally.add(Tc::TimerFires, due.len() as u64);
            held = true;
        }
        for &rank in due.iter() {
            taps.flight(Fk::TimerFire, rank, 0, 0, now);
            if !shared.ranks[rank as usize]
                .scheduled
                .swap(true, Ordering::SeqCst)
            {
                sched.push_woken(rank);
            }
        }
        // Claim a fair share of the queue in one lock acquisition.
        let depth = sched.depth;
        let share = depth.div_ceil(shared.workers).clamp(1, MAX_BATCH);
        batch.extend(std::iter::from_fn(|| sched.pop(&shared.ranks)).take(share));
        if !batch.is_empty() {
            if let Some(t) = taps.tel {
                tally.observe(Td::RunqDepth, depth as u64);
                t.set_runq_depth(depth as u64);
                t.set_timers_pending(sched.timers.len() as u64);
            }
            break now_ns;
        }
        if let (Some(t), true) = (taps.tel, held) {
            // A parked worker holds nothing back from the hub: publish
            // outside the lock, then look again.
            drop(sched);
            t.publish(taps.widx, tally);
            held = false;
            sched = shared.sched.lock().ok()?;
            continue;
        }
        sched.parked += 1;
        sched = match sched.timers.next_deadline() {
            Some(d) => {
                // Cap the sleep so a far-future deadline still
                // re-checks shutdown/wake state periodically.
                let wait_us = d.saturating_sub(now).clamp(1, 1_000_000);
                shared
                    .sched_cv
                    .wait_timeout(sched, Duration::from_micros(wait_us))
                    .ok()?
                    .0
            }
            None => shared.sched_cv.wait(sched).ok()?,
        };
        sched.parked -= 1;
    };
    let pass_on = sched.depth > 0 && sched.parked > 0;
    // Every rank claimed from here on runs on this window or a newer
    // one. The old one is let go outside the lock: the last reference
    // to a retired broadcast frees its blueprint.
    let old = (window.gen != sched.window.gen)
        .then(|| std::mem::replace(window, Arc::clone(&sched.window)));
    drop(sched);
    drop(old);
    // Surplus work and somebody asleep: pass the wake-up on.
    if pass_on {
        shared.sched_cv.notify_one();
    }
    Some(claimed_ns)
}

/// What one quantum carries from step to step: the time it runs at and
/// the worker's tally it counts into.
struct Quantum<'a> {
    shared: &'a Shared,
    rank: Rank,
    taps: Taps<'a>,
    /// The clock read that followed the quantum's latest mailbox drain,
    /// on the cluster-wide µs timeline. Every protocol [`Time`], event
    /// stamp and flight stamp of the quantum is this value (minus the
    /// iteration's `epoch_us` where relative) — time is an input of the
    /// quantum, not something its steps read.
    now_us: u64,
    /// Sends since the latest drain.
    sends: u32,
    local: &'a mut Local,
}

/// Why [`Quantum::drive`] stopped driving a machine.
#[derive(PartialEq, Eq)]
enum Stop {
    /// It has nothing to send right now (or its rank is dead).
    Settled,
    /// [`STAMP_REFRESH_POLLS`] sends since the last drain: hear the
    /// mailbox, then drive the same machine on.
    Refresh,
}

impl Quantum<'_> {
    /// Drain the rank's mailbox into `msgs`, then read the clock —
    /// after the drain, never before it: a sender stamps `SendStart`
    /// before its push and the mailbox mutex orders push → drain, so on
    /// a monotonic clock this stamp is at or after the stamp of every
    /// message just drained. Returns how many messages that was.
    fn drain(&mut self, st: &mut RankState, msgs: &mut Vec<Msg>) -> Result<usize, Poisoned> {
        msgs.clear();
        let drained = self.shared.ranks[self.rank as usize]
            .mailbox
            .lock()
            .map_err(|_| Poisoned)?
            .drain_into(msgs, usize::MAX);
        self.now_us = self.shared.now_us();
        self.sends = 0;
        // Always kept: the stamp the watchdog's StallReport ages
        // stranded ranks by.
        st.last_poll_us = Some(self.now_us);
        Ok(drained)
    }

    /// A refresh point of a send burst: drain, re-read the clock, and
    /// route what came in — the taps book a drain that takes messages
    /// as they book the quantum's first. (Nothing can be installed
    /// while the quantum holds the state lock, so a drain that takes
    /// nothing leaves the parked messages where they are.)
    fn hear(&mut self, st: &mut RankState, msgs: &mut Vec<Msg>) -> Result<(), Poisoned> {
        let drained = self.drain(st, msgs)?;
        if drained == 0 {
            return Ok(());
        }
        let (rank, taps) = (self.rank, self.taps);
        taps.flight(Fk::MailboxDrain, rank, drained as u64, 0, self.now_us);
        if let Some(t) = taps.tel {
            self.local.tally.observe(Td::MailboxDrained, drained as u64);
            t.mailbox_depth(rank as usize, drained as u64);
        }
        self.route(st, msgs);
        Ok(())
    }

    /// Drive installed iteration `i` until it settles, hearing the
    /// mailbox at every refresh point of its burst.
    fn settle(
        &mut self,
        st: &mut RankState,
        i: usize,
        scratch: &mut Scratch,
    ) -> Result<(), Poisoned> {
        while self.drive(&mut st.iters[i], scratch)? == Stop::Refresh {
            self.hear(st, &mut scratch.msgs)?;
        }
        Ok(())
    }

    /// Route every queued message — earlier-quantum leftovers first so
    /// per-channel FIFO order survives a topic's late installation,
    /// then this drain, in arrival order. A message either matches an
    /// installed iteration (delivered, or observably dropped on a dead
    /// rank), outruns installation (a peer of a topic being admitted
    /// got ahead of this rank's install; parked in `pending` until the
    /// quantum that follows the install), or is stale (its iteration
    /// already retired) and is discarded.
    fn route(&mut self, st: &mut RankState, drained: &[Msg]) {
        let rank = self.rank;
        let parked = std::mem::take(&mut st.pending);
        for &m in parked.iter().chain(drained) {
            let Some(iter) = st.iters.iter_mut().find(|i| i.id == m.id) else {
                if m.id > st.last_installed {
                    st.pending.push(m);
                } else {
                    self.local.tally.inc(Tc::MsgsStaleDropped);
                }
                continue;
            };
            iter.consumed += 1;
            let now = iter.at(self.now_us);
            let (from, to, payload) = (m.from, rank, m.payload);
            if iter.dead {
                // Crash emulation: drop the message, but observably.
                iter.note(now, ObsEventKind::DropDead { from, to, payload });
                continue;
            }
            self.local.tally.inc(Tc::MsgsDelivered);
            iter.note(now, ObsEventKind::Arrive { from, to, payload });
            iter.process.on_message(from, payload, now);
            iter.note(now, ObsEventKind::Deliver { from, to, payload });
        }
    }

    /// Drive one installed protocol as far as it goes right now — or up
    /// to the next refresh point — report its coloring, and book its
    /// quiescence deltas (a dead rank only ever has `consumed` to
    /// report).
    fn drive(&mut self, iter: &mut IterState, scratch: &mut Scratch) -> Result<Stop, Poisoned> {
        let (shared, rank, taps) = (self.shared, self.rank, self.taps);
        let now_us = self.now_us;
        let now = iter.at(now_us);
        let mut sent = 0;
        let mut machine_done = false;
        let mut stop = Stop::Settled;
        while !iter.dead {
            if self.sends == STAMP_REFRESH_POLLS {
                stop = Stop::Refresh;
                break;
            }
            match iter.process.poll_send(now) {
                SendPoll::Now { to, payload } => {
                    self.sends += 1;
                    sent += 1;
                    let from = rank;
                    // Stamped before the push: the mailbox mutex orders
                    // push → drain and the receiver reads its stamp
                    // after the drain, so `Arrive.t ≥ SendStart.t`.
                    iter.note(now, ObsEventKind::SendStart { from, to, payload });
                    let peer = &shared.ranks[to as usize];
                    let id = iter.id;
                    // The receiver contends for this lock: it is held
                    // for the push and nothing else, no tap included.
                    let spilled =
                        peer.mailbox
                            .lock()
                            .map_err(|_| Poisoned)?
                            .push(Msg { id, from, payload });
                    self.local.tally.add(Tc::MailboxSpills, u64::from(spilled));
                    // aux packs broadcast id and pusher: the black box
                    // can answer "who last fed this mailbox, on behalf
                    // of which topic".
                    let aux = (id << 32) | u64::from(rank);
                    taps.flight(Fk::MailboxPush, to, aux, now.steps(), now_us);
                    // Read before write: most sends find the peer
                    // scheduled already and skip the locked RMW. No
                    // wake-up is lost by that. The receiver clears its
                    // flag at the end of a quantum and then rechecks
                    // its mailbox under the mailbox mutex, which
                    // ordered this push. A load that reads `true` is
                    // ordered before that `store(false)` (SeqCst)
                    // exactly as a swap that reads `true` would be, so
                    // the recheck sees this message — or some later
                    // winner of the flag enqueues the rank.
                    if !peer.scheduled.load(Ordering::SeqCst)
                        && !peer.scheduled.swap(true, Ordering::SeqCst)
                    {
                        scratch.wakes.push(to);
                        self.local.tally.inc(Tc::SchedWakes);
                        taps.flight(Fk::Wake, to, u64::from(rank), now.steps(), now_us);
                    }
                }
                SendPoll::WaitUntil(t) => {
                    if !t.is_never() {
                        // Always arm, no dedup: a timer consumed by a
                        // coinciding message wake must be replaceable,
                        // and a stale duplicate only costs a harmless
                        // extra poll. A timer fires at
                        // `now_us ≥ deadline_us` and the woken quantum
                        // reads its stamp later still, so the machine is
                        // next polled with `now ≥ t`.
                        let deadline_us = iter.epoch_us.saturating_add(t.steps());
                        scratch.timers.push((deadline_us, rank));
                        self.local.tally.inc(Tc::TimerArms);
                        taps.flight(Fk::TimerArm, rank, deadline_us, t.steps(), now_us);
                    }
                    break;
                }
                SendPoll::Done => {
                    machine_done = true;
                    break;
                }
                SendPoll::Idle => break,
            }
        }
        // Every send is exactly one mailbox push.
        self.local.tally.add(Tc::MsgsSent, sent);
        self.local.tally.add(Tc::MailboxPushes, sent);
        let mut delta = Counts {
            sent,
            consumed: std::mem::take(&mut iter.consumed),
            done: u32::from(machine_done && !iter.done_notified),
            colored: 0,
        };
        iter.done_notified |= machine_done;
        if !iter.notified && iter.process.colored_at().is_some() {
            iter.notified = true;
            delta.colored = 1;
            if iter.record {
                if let (Some(at), Some(via)) =
                    (iter.process.colored_at(), iter.process.colored_via())
                {
                    iter.events.push(ObsEvent::wall(
                        at,
                        iter.at(self.now_us).steps(),
                        ObsEventKind::Colored { rank, via },
                    ));
                }
            }
        }
        bump(&mut scratch.deltas, iter.id, delta);
        Ok(stop)
    }
}

/// Drive one rank for a quantum: sync it with `window`, drain its
/// mailbox, read the clock, deliver current-id messages, poll the
/// protocol for sends (hearing the mailbox again every
/// [`STAMP_REFRESH_POLLS`] sends), report coloring. Effects that need
/// shared locks (wake-ups, timers, coordinator traffic) accumulate in
/// `scratch`, counts in `local`; both are flushed once per batch.
fn run_quantum(
    shared: &Shared,
    rank: Rank,
    window: &Window,
    scratch: &mut Scratch,
    taps: Taps<'_>,
    local: &mut Local,
) -> Result<(), Poisoned> {
    let cell = &shared.ranks[rank as usize];
    let mut guard = cell.state.lock().map_err(|_| Poisoned)?;
    let st = &mut *guard;
    st.sync(rank, window);
    local.tally.inc(Tc::SchedQuanta);
    if st.iters.is_empty() {
        return stale_quantum(shared, rank, guard, scratch, taps, local);
    }

    let mut q = Quantum {
        shared,
        rank,
        taps,
        now_us: 0, // read by the drain
        sends: 0,
        local,
    };
    let drained = q.drain(st, &mut scratch.msgs)?;
    if let Some(t) = taps.tel {
        q.local.quantum_begins(q.now_us, drained as u64);
        // A mailbox only grows between its owner's drains, and a drain
        // takes everything: what was just drained is the deepest the
        // mailbox got since the last one. (So does a stale quantum's.)
        t.mailbox_depth(rank as usize, drained as u64);
    }
    // One quantum serves every iteration installed on this rank. The
    // flight record names the broadcast when there is exactly one (the
    // single-broadcast invariant) and 0 for a multiplexed quantum; its
    // step is measured from the oldest installed epoch.
    let (quantum_aux, oldest_epoch_us) = match (taps.fl, &st.iters[..]) {
        (None, _) => (0, 0),
        (Some(_), [only]) => (only.id, only.epoch_us),
        (Some(_), iters) => (0, iters.iter().map(|i| i.epoch_us).min().unwrap_or(0)),
    };
    let since_oldest = |us: u64| us.saturating_sub(oldest_epoch_us);
    taps.flight(
        Fk::QuantumStart,
        rank,
        quantum_aux,
        since_oldest(q.now_us),
        q.now_us,
    );
    if drained > 0 {
        taps.flight(Fk::MailboxDrain, rank, drained as u64, 0, q.now_us);
    }

    q.route(st, &scratch.msgs);
    for i in 0..st.iters.len() {
        q.settle(st, i, scratch)?;
    }
    // A later iteration's burst may have heard mail for one that had
    // already settled: poll that one again — and only that one. Nobody
    // else would: the rank holds its `scheduled` flag until this
    // quantum ends.
    while let Some(i) = st.iters.iter().position(|iter| iter.consumed > 0) {
        q.settle(st, i, scratch)?;
    }
    // The end of a quantum reads no clock: its records carry the
    // quantum's last stamp (a send burst refreshed it on the way).
    q.local.stamp_us = q.now_us;
    taps.flight(
        Fk::QuantumEnd,
        rank,
        quantum_aux,
        since_oldest(q.now_us),
        q.now_us,
    );
    drop(guard);
    release(cell, rank, scratch, taps, q.local)
}

/// A quantum on a rank with nothing installed — a stale wake-up between
/// iterations, or leftover traffic of a retired one. Every message it
/// drains is either early traffic of a broadcast this worker's window
/// does not hold yet, parked in `pending` for the quantum that installs
/// it (the admission scheduled one), or stale and dropped. It reads no
/// clock: its flight records carry the worker's latest stamp and it
/// has no `QuantumUs` interval of its own (its time falls into that of
/// the quantum before it).
fn stale_quantum(
    shared: &Shared,
    rank: Rank,
    mut guard: std::sync::MutexGuard<'_, RankState>,
    scratch: &mut Scratch,
    taps: Taps<'_>,
    local: &mut Local,
) -> Result<(), Poisoned> {
    let cell = &shared.ranks[rank as usize];
    local.tally.inc(Tc::SchedStaleQuanta);
    taps.flight(Fk::StaleQuantum, rank, 0, 0, local.stamp_us);
    let mut q = Quantum {
        shared,
        rank,
        taps,
        now_us: local.stamp_us,
        sends: 0,
        local,
    };
    scratch.msgs.clear();
    let drained = cell
        .mailbox
        .lock()
        .map_err(|_| Poisoned)?
        .drain_into(&mut scratch.msgs, usize::MAX);
    if let (Some(t), 1..) = (taps.tel, drained) {
        t.mailbox_depth(rank as usize, drained as u64);
    }
    q.route(&mut guard, &scratch.msgs);
    drop(guard);
    release(cell, rank, scratch, taps, q.local)
}

/// End a quantum: clear the rank's flag, then recheck. A sender that
/// saw `scheduled` still true during the quantum skipped the enqueue,
/// so any message that raced in must be picked up here or it would
/// sleep forever. (An admission needs no such care: it never goes by
/// the flag, see [`Shared::publish`].)
fn release(
    cell: &RankCell,
    rank: Rank,
    scratch: &mut Scratch,
    taps: Taps<'_>,
    local: &mut Local,
) -> Result<(), Poisoned> {
    cell.scheduled.store(false, Ordering::SeqCst);
    if !cell.mailbox.lock().map_err(|_| Poisoned)?.is_empty()
        && !cell.scheduled.swap(true, Ordering::SeqCst)
    {
        scratch.wakes.push(rank);
        local.tally.inc(Tc::SchedRechecks);
        local.tally.inc(Tc::SchedWakes);
        taps.flight(Fk::Recheck, rank, 0, 0, local.stamp_us);
    }
    Ok(())
}

/// Flush a batch's accumulated effects: the worker's tally to the hub,
/// then one ledger post for every broadcast the batch touched and one
/// scheduler-lock acquisition for wake-ups and timer arms.
fn flush(
    shared: &Shared,
    scratch: &mut Scratch,
    taps: Taps<'_>,
    local: &mut Local,
) -> Result<(), Poisoned> {
    for &(id, d) in scratch.deltas.iter().filter(|(_, d)| d.colored > 0) {
        let n = u64::from(d.colored);
        local.tally.inc(Tc::CoordBatches);
        local.tally.add(Tc::CoordColored, n);
        if taps.tel.is_some() {
            local.tally.observe(Td::CoordBatchSize, n);
        }
        taps.flight(Fk::CoordBatch, NO_RANK, n, id, local.stamp_us);
    }
    // Before the post, so that the hub already shows whatever the
    // coordinator learns from it.
    local.publish(taps);
    if !scratch.deltas.is_empty() {
        // Sends, receipts and colorings of a batch land together: a
        // broadcast that retires on coloring is fenced by every send
        // that reached a rank it learns is colored (see
        // `crate::inbox`).
        shared.ledger.post(&scratch.deltas);
        scratch.deltas.clear();
    }
    if !scratch.wakes.is_empty() || !scratch.timers.is_empty() {
        // The wake-ups need no bell: this worker claims next. A new
        // timer does, so that a sleeper re-reads its deadline.
        let rearm = {
            let mut sched = shared.sched.lock().map_err(|_| Poisoned)?;
            for &(deadline_us, rank) in &scratch.timers {
                sched.timers.insert(deadline_us, rank);
            }
            for rank in scratch.wakes.drain(..) {
                sched.push_woken(rank);
            }
            !scratch.timers.is_empty() && sched.parked > 0
        };
        scratch.timers.clear();
        if rearm {
            shared.sched_cv.notify_one();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::correction::CorrectionKind;
    use ct_core::protocol::{BroadcastSpec, ColoredVia, Payload};
    use ct_core::tree::TreeKind;
    use std::sync::atomic::AtomicU32;

    fn no_faults(p: u32) -> Vec<bool> {
        vec![false; p as usize]
    }

    #[test]
    fn fault_free_binomial_completes() {
        let mut cluster = Cluster::new(32, LogP::PAPER);
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let report = cluster.run_broadcast(&spec, &no_faults(32), 0).unwrap();
        assert!(report.completed, "uncolored: {:?}", report.uncolored);
        assert!(report.uncolored.is_empty());
        assert_eq!(report.messages, 31);
    }

    #[test]
    fn corrected_tree_heals_crashed_ranks() {
        let p = 64;
        let mut cluster = Cluster::new(p, LogP::PAPER);
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 4 },
        );
        let mut dead = no_faults(p);
        dead[1] = true;
        dead[2] = true;
        dead[33] = true;
        let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();
        assert!(report.completed, "uncolored: {:?}", report.uncolored);
    }

    #[test]
    fn plain_tree_with_crash_times_out_and_reports_orphans() {
        let p = 16;
        let cfg = ClusterConfig::new().timeout(Duration::from_millis(200));
        let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let mut dead = no_faults(p);
        dead[1] = true; // orphan subtree {1,3,5,7,9,11,13,15}
        let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();
        assert!(!report.completed);
        assert_eq!(report.uncolored, vec![3, 5, 7, 9, 11, 13, 15]);
        // The watchdog names exactly the stranded ranks, with evidence.
        let stall = report.stall.expect("incomplete run carries a stall report");
        assert_eq!(stall.stranded(), report.uncolored);
        assert_eq!(stall.p, p);
        assert_eq!(stall.live, 15);
        assert_eq!(stall.colored, 8);
        assert_eq!(stall.timeout_ms, 200);
        for r in &stall.ranks {
            // Orphans under a dead parent legitimately have nothing to
            // do: polled once, empty mailbox, descheduled.
            assert!(!r.scheduled, "rank {}", r.rank);
            assert_eq!(r.mailbox_len, 0, "rank {}", r.rank);
            assert!(r.last_poll_us.is_some(), "rank {}", r.rank);
        }
        let text = stall.render_text();
        assert!(text.contains("rank     3"), "{text}");
    }

    #[test]
    fn completed_run_has_no_stall_report() {
        let mut cluster = Cluster::new(8, LogP::PAPER);
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let report = cluster.run_broadcast(&spec, &no_faults(8), 0).unwrap();
        assert!(report.completed);
        assert!(report.stall.is_none());
    }

    #[test]
    fn watchdog_ms_parsing() {
        let parse = |raw| parse_positive(raw, 30_000);
        assert_eq!(parse(None), 30_000);
        assert_eq!(parse(Some("250")), 250);
        assert_eq!(parse(Some(" 1000 ")), 1000);
        assert_eq!(parse(Some("0")), 30_000);
        assert_eq!(parse(Some("lots")), 30_000);
    }

    #[test]
    fn iterations_are_isolated() {
        let p = 16;
        let mut cluster = Cluster::new(p, LogP::PAPER);
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::Opportunistic { distance: 2 },
        );
        for i in 0..10 {
            let report = cluster.run_broadcast(&spec, &no_faults(p), i).unwrap();
            assert!(report.completed, "iteration {i}");
            // All 15 tree messages must flow each iteration; correction
            // sends may be truncated by retirement (latency is the
            // metric here, as in the paper's cluster experiments) but
            // can never exceed the protocol's deterministic total of
            // 16·2d. Any cross-iteration leakage would break these
            // bounds.
            assert!(
                (15..=15 + 16 * 4).contains(&report.messages),
                "iteration {i}: {} messages",
                report.messages
            );
        }
    }

    #[test]
    fn rotated_root_broadcast_completes_on_the_cluster() {
        let p = 32;
        let mut cluster = Cluster::new(p, LogP::PAPER);
        let spec = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked)
            .with_root(19);
        // Physical rank 0 may even be dead — it is not the root here.
        let mut dead = no_faults(p);
        dead[0] = true;
        let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();
        assert!(report.completed, "uncolored: {:?}", report.uncolored);
    }

    /// Pins a known defect: overlapped opportunistic correction on a
    /// real clock now and then leaves a live rank uncolored on two
    /// workers, while the simulator colors every live rank of the same
    /// plan. This is the rotated-root case above with
    /// `OpportunisticOptimized { distance: 2 }`, each run on a fresh
    /// cluster as there; it reports how many runs stranded a rank and
    /// fails while any does.
    #[test]
    #[ignore = "known defect of overlapped opportunistic correction on the cluster"]
    fn overlapped_opportunistic_correction_can_strand_a_live_rank() {
        let p = 32;
        let runs = 1_000;
        let cfg = ClusterConfig::new()
            .threads(2)
            .timeout(Duration::from_millis(250));
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 2 },
        )
        .with_root(19);
        let mut dead = no_faults(p);
        dead[0] = true;
        let mut stranded = Vec::new();
        for run in 0..runs {
            let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg.clone());
            let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();
            if !report.completed {
                stranded.push((run, report.uncolored));
            }
        }
        eprintln!(
            "{} of {runs} runs left a live rank uncolored: {stranded:?}",
            stranded.len()
        );
        assert!(stranded.is_empty(), "{stranded:?}");
    }

    #[test]
    fn shuffled_numbering_broadcast_completes_on_the_cluster() {
        let p = 64;
        let mut cluster = Cluster::new(p, LogP::PAPER);
        let spec = BroadcastSpec::corrected_tree(TreeKind::LAME2, CorrectionKind::Checked)
            .with_shuffle(0xBEEF);
        let mut dead = no_faults(p);
        for r in [8u32, 9, 10, 11] {
            dead[r as usize] = true; // a correlated block
        }
        for seed in 0..3 {
            let report = cluster.run_broadcast(&spec, &dead, seed).unwrap();
            assert!(report.completed, "seed {seed}: {:?}", report.uncolored);
        }
    }

    #[test]
    fn rapid_reiteration_never_strands_a_rank() {
        // Regression for a lost-wakeup race at iteration start: a stale
        // quantum that observed `iter == None` before the install could
        // clear `scheduled` *after* the start path had already elided
        // its enqueue on the strength of the flag, leaving an installed
        // rank outside the run queue with its initial poll lost — the
        // iteration then stalled to the watchdog. Back-to-back
        // iterations with correction traffic (truncated by retirement, so
        // straggler wake-ups land inside the next install window)
        // maximize the window.
        let cfg = ClusterConfig::new().threads(2);
        let mut cluster = Cluster::with_config(16, LogP::PAPER, cfg);
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::Opportunistic { distance: 2 },
        );
        for i in 0..200 {
            let report = cluster.run_broadcast(&spec, &no_faults(16), i).unwrap();
            assert!(report.completed, "iteration {i}: {:?}", report.uncolored);
        }
    }

    /// A machine of a multiplexed quantum under test: it counts its
    /// polls, sends `burst` messages to rank 1 — its first poll also
    /// drops `mail` into rank 0's mailbox, as a peer would mid-burst —
    /// then idles until it hears something and is done after that.
    struct Probe {
        polls: Arc<AtomicU32>,
        burst: u32,
        mail: Option<(Arc<Shared>, Msg)>,
        heard: bool,
    }

    impl Process for Probe {
        fn on_message(&mut self, _from: Rank, _payload: Payload, _now: Time) {
            self.heard = true;
        }

        fn poll_send(&mut self, _now: Time) -> SendPoll {
            self.polls.fetch_add(1, Ordering::SeqCst);
            if let Some((shared, msg)) = self.mail.take() {
                shared.ranks[0].mailbox.lock().unwrap().push(msg);
            }
            match (self.burst, self.heard) {
                (0, false) => SendPoll::Idle,
                (0, true) => SendPoll::Done,
                _ => {
                    self.burst -= 1;
                    SendPoll::Now {
                        to: 1,
                        payload: Payload::Tree,
                    }
                }
            }
        }

        fn colored_at(&self) -> Option<Time> {
            None
        }

        fn colored_via(&self) -> Option<ColoredVia> {
            None
        }
    }

    #[test]
    fn a_multiplexed_quantum_polls_again_only_a_settled_iteration_that_heard() {
        // One worker that is never given work: this thread runs rank 0's
        // quantum itself.
        let cluster = Cluster::with_config(2, LogP::PAPER, ClusterConfig::new().threads(1));
        let shared = &cluster.shared;
        let polls: Vec<Arc<AtomicU32>> = (0..3).map(|_| Arc::default()).collect();
        let probe = |i: usize, burst: u32, mail| -> Box<dyn Process> {
            Box::new(Probe {
                polls: Arc::clone(&polls[i]),
                burst,
                mail,
                heard: false,
            })
        };
        // Iterations 1 and 2 settle at once; iteration 3's burst carries
        // mail for iteration 1 in with its first refresh-point drain.
        let mail = Msg {
            id: 1,
            from: 1,
            payload: Payload::Tree,
        };
        let burst = 2 * STAMP_REFRESH_POLLS;
        {
            let mut st = shared.ranks[0].state.lock().unwrap();
            let iters = [
                probe(0, 0, None),
                probe(1, 0, None),
                probe(2, burst, Some((Arc::clone(shared), mail))),
            ];
            for (id, process) in (1..).zip(iters) {
                st.iters.push(IterState::new(id, process, false, 0, false));
            }
            st.last_installed = 3;
        }
        let taps = Taps {
            tel: None,
            fl: None,
            widx: 0,
        };
        let mut scratch = Scratch::default();
        let window = Arc::clone(&shared.sched.lock().unwrap().window);
        let quantum = run_quantum(shared, 0, &window, &mut scratch, taps, &mut Local::new());
        assert!(quantum.is_ok());

        // Iteration 1 is polled once more, after the pass, and finishes;
        // iteration 2 heard nothing and is not polled again.
        let polls: Vec<u32> = polls.iter().map(|p| p.load(Ordering::SeqCst)).collect();
        assert_eq!(polls, [2, 1, burst + 1]);
        let heard = Counts {
            sent: 0,
            consumed: 1,
            done: 1,
            colored: 0,
        };
        assert!(
            scratch.deltas.contains(&(1, heard)),
            "iteration 1 reports its message and its Done: {:?}",
            scratch.deltas
        );
    }

    /// A factory without a blueprint of its own: each broadcast gets the
    /// boxes `build` returns, handed out rank by rank.
    struct Boxed(BroadcastSpec);

    impl ProtocolFactory for Boxed {
        fn label(&self) -> String {
            format!("boxed {}", self.0)
        }

        fn build(
            &self,
            ctx: &ct_core::protocol::BuildCtx,
        ) -> Result<Vec<Box<dyn Process>>, ProtocolError> {
            self.0.build(ctx)
        }
    }

    #[test]
    fn ranks_keep_at_most_k_machines_across_mixed_broadcasts() {
        use crate::pubsub::{PubsubOptions, Topic, TopicTable};
        let p = 64;
        let k = 4;
        let cfg = ClusterConfig::new().threads(2);
        let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
        let plain = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let checked = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let mut dead = no_faults(p);
        for r in [5, 6, 40] {
            dead[r] = true;
        }
        let mut table = TopicTable::new();
        for t in 0..k as u32 {
            table.push(Topic::new(format!("t{t}"), plain.with_root(t * 9), p, 0));
        }
        for i in 0..50u64 {
            match i % 4 {
                0 => {
                    let report = cluster.run_broadcast(&plain, &no_faults(p), i).unwrap();
                    assert!(report.completed, "broadcast {i}");
                    assert_eq!(report.messages, u64::from(p) - 1, "broadcast {i}");
                }
                1 => {
                    let report = cluster.run_broadcast(&checked, &dead, i).unwrap();
                    assert!(report.completed, "broadcast {i}: {:?}", report.uncolored);
                }
                2 => {
                    let boxed = Boxed(checked.with_root(17));
                    let report = cluster.run_broadcast(&boxed, &dead, i).unwrap();
                    assert!(report.completed, "broadcast {i}: {:?}", report.uncolored);
                }
                _ => {
                    let opts = PubsubOptions { k, rounds: 2 };
                    let report = cluster.run_pubsub(&table, &opts).unwrap();
                    assert!(report.completed(), "call {i}: {:?}", report.outcomes);
                    for o in &report.outcomes {
                        assert_eq!(o.messages, u64::from(p) - 1, "call {i}: {o:?}");
                    }
                }
            }
        }
        assert!(cluster.most_machines_per_rank() <= k);
    }

    /// Rank 0 sends `burst` messages to rank 1 per timer tick, forever;
    /// nobody else ever hears anything.
    struct Flood {
        burst: u32,
        left: u32,
    }

    impl Process for Flood {
        fn on_message(&mut self, _from: Rank, _payload: Payload, _now: Time) {}

        fn poll_send(&mut self, now: Time) -> SendPoll {
            if self.left == 0 {
                self.left = self.burst;
                return SendPoll::WaitUntil(Time::new(now.steps() + 20));
            }
            self.left -= 1;
            SendPoll::Now {
                to: 1,
                payload: Payload::Tree,
            }
        }

        fn colored_at(&self) -> Option<Time> {
            None
        }

        fn colored_via(&self) -> Option<ColoredVia> {
            None
        }
    }

    struct Flooding;

    impl ProtocolFactory for Flooding {
        fn label(&self) -> String {
            "flooding".into()
        }

        fn build(
            &self,
            ctx: &ct_core::protocol::BuildCtx,
        ) -> Result<Vec<Box<dyn Process>>, ProtocolError> {
            Ok((0..ctx.p)
                .map(|r| {
                    let burst = if r == 0 { 40 } else { 0 };
                    Box::new(Flood { burst, left: burst }) as Box<dyn Process>
                })
                .collect())
        }
    }

    #[test]
    fn a_broadcast_retired_at_its_deadline_mid_traffic_leaves_the_next_one_exact() {
        let p = 16;
        let cfg = ClusterConfig::new()
            .threads(2)
            .timeout(Duration::from_millis(100));
        let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
        let report = cluster.run_broadcast(&Flooding, &no_faults(p), 0).unwrap();
        assert!(!report.completed);
        assert!(report.messages > 0);
        let plain = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        for seed in 1..4 {
            let report = cluster.run_broadcast(&plain, &no_faults(p), seed).unwrap();
            assert!(report.completed, "seed {seed}: {:?}", report.uncolored);
            assert_eq!(report.messages, u64::from(p) - 1, "seed {seed}");
        }
    }

    /// Spin until `flag` is set, for at most a second.
    fn spin_until(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(1) {
            std::hint::spin_loop();
        }
    }

    /// Rank 0, colored and reported from its first quantum, sends rank 1
    /// its one message from a second, timer-driven quantum — once rank
    /// 1's quantum is running on the other worker — and then holds that
    /// quantum, and the report of its send, for 50 ms. Rank 1's quantum
    /// ends when the send is done, and its next one delivers, colors
    /// and reports it in the meantime.
    struct LateSender {
        polls: u32,
        receiving: Arc<AtomicBool>,
        sent: Arc<AtomicBool>,
    }

    impl Process for LateSender {
        fn on_message(&mut self, _from: Rank, _payload: Payload, _now: Time) {}

        fn poll_send(&mut self, now: Time) -> SendPoll {
            self.polls += 1;
            match self.polls {
                1 => SendPoll::WaitUntil(Time::new(now.steps() + 1)),
                2 => {
                    spin_until(&self.receiving);
                    SendPoll::Now {
                        to: 1,
                        payload: Payload::Tree,
                    }
                }
                _ => {
                    self.sent.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    SendPoll::Done
                }
            }
        }

        fn colored_at(&self) -> Option<Time> {
            Some(Time::ZERO)
        }

        fn colored_via(&self) -> Option<ColoredVia> {
            Some(ColoredVia::Root)
        }
    }

    struct Receiver {
        colored_at: Option<Time>,
        receiving: Arc<AtomicBool>,
        sent: Arc<AtomicBool>,
    }

    impl Process for Receiver {
        fn on_message(&mut self, _from: Rank, _payload: Payload, now: Time) {
            self.colored_at.get_or_insert(now);
        }

        fn poll_send(&mut self, _now: Time) -> SendPoll {
            if self.colored_at.is_some() {
                return SendPoll::Done;
            }
            self.receiving.store(true, Ordering::SeqCst);
            spin_until(&self.sent);
            SendPoll::Idle
        }

        fn colored_at(&self) -> Option<Time> {
            self.colored_at
        }

        fn colored_via(&self) -> Option<ColoredVia> {
            self.colored_at.map(|_| ColoredVia::Dissemination)
        }
    }

    struct LateReport;

    impl ProtocolFactory for LateReport {
        fn label(&self) -> String {
            "late report".into()
        }

        fn build(
            &self,
            _ctx: &ct_core::protocol::BuildCtx,
        ) -> Result<Vec<Box<dyn Process>>, ProtocolError> {
            let (receiving, sent) = (Arc::default(), Arc::default());
            Ok(vec![
                Box::new(LateSender {
                    polls: 0,
                    receiving: Arc::clone(&receiving),
                    sent: Arc::clone(&sent),
                }),
                Box::new(Receiver {
                    colored_at: None,
                    receiving,
                    sent,
                }),
            ])
        }
    }

    #[test]
    fn a_send_reported_after_its_receiver_was_colored_is_still_counted() {
        let cfg = ClusterConfig::new().threads(2);
        let mut cluster = Cluster::with_config(2, LogP::PAPER, cfg);
        for seed in 0..3 {
            let report = cluster
                .run_broadcast(&LateReport, &no_faults(2), seed)
                .unwrap();
            assert!(report.completed, "seed {seed}");
            assert_eq!(report.messages, 1, "seed {seed}");
        }
    }

    /// Admissions and retirements of both kinds back to back on three
    /// workers: single broadcasts retired on coloring and pub/sub
    /// windows of one, of four and of sixteen (the benchmark's width)
    /// retired at quiescence, plain and checked. `#[ignore]`d for its
    /// length; CI runs it explicitly.
    #[test]
    #[ignore = "stress test; run explicitly (CI build-test does)"]
    fn lifecycle_stress_200_iterations_three_workers() {
        use crate::pubsub::{PubsubOptions, Topic, TopicTable};
        let p = 256;
        let cfg = ClusterConfig::new().threads(3);
        let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
        let plain = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let checked = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let mut faults = no_faults(p);
        for r in [3, 100, 101] {
            faults[r] = true;
        }
        for i in 0..200u64 {
            let exact = i % 2 == 0;
            let (spec, dead) = if exact {
                (plain, no_faults(p))
            } else {
                (checked, faults.clone())
            };
            if i % 3 == 0 {
                let report = cluster.run_broadcast(&spec, &dead, i).unwrap();
                assert!(report.completed, "iteration {i}: {:?}", report.uncolored);
                if exact {
                    assert_eq!(report.messages, u64::from(p) - 1, "iteration {i}");
                }
            } else {
                let k = match (i % 3, i / 3 % 2) {
                    (1, _) => 1,
                    (_, 0) => 4,
                    _ => 16,
                };
                let mut table = TopicTable::new();
                for t in 0..k.max(4) as u32 {
                    let topic = Topic::new(format!("t{t}"), spec.with_root(t * 7), p, i);
                    table.push(topic.with_dead(dead.clone()));
                }
                let opts = PubsubOptions { k, rounds: 1 };
                let report = cluster.run_pubsub(&table, &opts).unwrap();
                assert!(report.completed(), "iteration {i}: {:?}", report.outcomes);
                for o in report.outcomes.iter().filter(|_| exact) {
                    assert_eq!(o.messages, u64::from(p) - 1, "iteration {i}: {o:?}");
                }
            }
        }
        assert!(cluster.most_machines_per_rank() <= 16);
    }

    #[test]
    fn the_ledger_rings_at_most_twice_per_broadcast() {
        use crate::pubsub::{PubsubOptions, Topic, TopicTable};
        let p = 256;
        let mut cluster = Cluster::with_config(p, LogP::PAPER, ClusterConfig::new().threads(2));
        assert!(cluster.shared.telemetry.is_none());
        let plain = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let report = cluster.run_broadcast(&plain, &no_faults(p), 0).unwrap();
        assert!(report.completed);
        let single = cluster.shared.ledger.rings();
        assert!((1..=2).contains(&single), "{single} rings");
        let checked = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let mut table = TopicTable::new();
        for t in 0..16u32 {
            table.push(Topic::new(format!("t{t}"), checked.with_root(t * 13), p, 0));
        }
        let report = cluster
            .run_pubsub(&table, &PubsubOptions { k: 16, rounds: 1 })
            .unwrap();
        assert!(report.completed(), "{:?}", report.outcomes);
        let rings = cluster.shared.ledger.rings() - single;
        assert!(rings <= 2 * 16, "{rings} rings for 16 broadcasts");
    }

    /// A cluster of `p` ranks whose one worker has exited, so that a
    /// test drives its scheduler by hand.
    fn idle(p: u32) -> Cluster {
        let mut cluster = Cluster::with_config(p, LogP::PAPER, ClusterConfig::new().threads(1));
        cluster.shared.sched.lock().unwrap().shutdown = true;
        cluster.shared.sched_cv.notify_all();
        for h in cluster.handles.drain(..) {
            h.join().unwrap();
        }
        cluster.shared.sched.lock().unwrap().shutdown = false;
        cluster
    }

    /// Admit a plain broadcast `id` into `cluster`'s window.
    fn admit(cluster: &Cluster, id: u64) {
        let ctx = ct_core::protocol::BuildCtx {
            p: cluster.p,
            logp: LogP::PAPER,
            seed: 0,
        };
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let entry = Entry {
            id,
            epoch_us: 0,
            record: false,
            dead: no_faults(cluster.p).into(),
            blueprint: spec.blueprint(&ctx).unwrap(),
        };
        cluster.shared.publish(entry, 4).unwrap();
    }

    /// Claim ranks off `cluster`'s run queue until it is empty.
    fn drain(cluster: &Cluster) -> Vec<Rank> {
        let mut sched = cluster.shared.sched.lock().unwrap();
        std::iter::from_fn(|| sched.pop(&cluster.shared.ranks)).collect()
    }

    #[test]
    fn an_admission_enqueues_one_sweep_and_touches_no_rank() {
        let p = 4096;
        let cluster = idle(p);
        admit(&cluster, 1);
        let shared = &cluster.shared;
        assert!(shared
            .ranks
            .iter()
            .all(|c| !c.scheduled.load(Ordering::SeqCst)));
        let sched = shared.sched.lock().unwrap();
        assert_eq!(sched.depth, p as usize, "depth counts swept ranks");
        assert_eq!(sched.runq.len(), 1);
        drop(sched);
        // A claim hands a fair share out in rank order and flags each.
        let taps = Taps {
            tel: None,
            fl: None,
            widx: 0,
        };
        let mut window = Arc::clone(&shared.sched.lock().unwrap().window);
        let mut batch = Vec::new();
        let mut tally = Tally::default();
        assert!(claim(
            shared,
            taps,
            &mut tally,
            &mut Vec::new(),
            &mut batch,
            &mut window
        )
        .is_some());
        assert_eq!(batch, (0..MAX_BATCH as Rank).collect::<Vec<_>>());
        let flagged = |r: usize| shared.ranks[r].scheduled.load(Ordering::SeqCst);
        assert!((0..MAX_BATCH).all(flagged) && !flagged(MAX_BATCH));
        assert_eq!(shared.sched.lock().unwrap().depth, p as usize - MAX_BATCH);
    }

    #[test]
    fn a_sweep_skips_a_rank_claimed_since_the_admission() {
        let cluster = idle(8);
        let mut sched = cluster.shared.sched.lock().unwrap();
        sched.push_woken(3);
        drop(sched);
        admit(&cluster, 1);
        assert_eq!(cluster.shared.sched.lock().unwrap().depth, 9);
        // Rank 3's own entry comes first; the sweep then passes it by:
        // that claim came after the admission.
        assert_eq!(drain(&cluster), [3, 0, 1, 2, 4, 5, 6, 7]);
        assert_eq!(cluster.shared.sched.lock().unwrap().depth, 0);
    }

    #[test]
    fn a_rank_woken_after_its_claim_keeps_an_entry_under_a_pending_sweep() {
        let cluster = idle(8);
        let mut sched = cluster.shared.sched.lock().unwrap();
        sched.push_woken(5);
        drop(sched);
        admit(&cluster, 1);
        let mut sched = cluster.shared.sched.lock().unwrap();
        assert_eq!(sched.pop(&cluster.shared.ranks), Some(5));
        // Rank 5's recheck wins its flag while the sweep still covers
        // it. The sweep will skip it (claimed since the admission), so
        // the wake-up must get an entry of its own: were it elided too,
        // the mail that woke the rank would never be drained.
        sched.push_woken(5);
        assert!(sched.unclaimed[5]);
        let depth = sched.depth;
        sched.push_woken(5);
        assert_eq!(sched.depth, depth, "one single entry per rank");
        // A rank the sweep will hand out needs none.
        sched.push_woken(6);
        assert!(!sched.unclaimed[6]);
        drop(sched);
        // The sweep covers every rank, so the next admission adds none;
        // from then on rank 5's sweep turn is skipped for its own
        // unclaimed entry alone.
        admit(&cluster, 2);
        assert_eq!(cluster.shared.sched.lock().unwrap().runq.len(), 2);
        assert_eq!(drain(&cluster), [0, 1, 2, 3, 4, 6, 7, 5]);
    }

    #[test]
    fn single_rank_cluster() {
        let mut cluster = Cluster::new(1, LogP::PAPER);
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let report = cluster.run_broadcast(&spec, &no_faults(1), 0).unwrap();
        assert!(report.completed);
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn latency_and_event_timestamps_share_the_epoch_clock() {
        let mut cluster = Cluster::new(16, LogP::PAPER);
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let (report, events) = cluster
            .run_broadcast_traced(&spec, &no_faults(16), 0)
            .unwrap();
        assert!(report.completed);
        assert!(!events.is_empty());
        // Latency is measured from the same epoch event timestamps are
        // relative to, so no event — in particular no Colored event —
        // can postdate the reported coloring latency.
        let latency_us = report.latency.as_micros() as u64;
        for e in &events {
            assert!(
                e.time.steps() <= latency_us,
                "event at {} µs after reported latency {} µs: {:?}",
                e.time.steps(),
                latency_us,
                e.kind
            );
            if let Some(w) = e.wall_us {
                assert!(w <= latency_us, "wall stamp after latency");
            }
        }
    }

    #[test]
    fn tiny_mailboxes_backpressure_without_deadlock_or_loss() {
        // Capacity 1 forces every fan-in collision through the spill
        // path; message totals must be exactly those of an uncontended
        // run — nothing dropped, nothing stuck.
        let cfg = ClusterConfig::new().mailbox_capacity(1);
        let mut cluster = Cluster::with_config(64, LogP::PAPER, cfg);
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        for seed in 0..3 {
            let report = cluster.run_broadcast(&spec, &no_faults(64), seed).unwrap();
            assert!(report.completed, "seed {seed}: {:?}", report.uncolored);
            assert_eq!(report.messages, 63, "seed {seed}");
        }
        // And with faults + correction traffic on top.
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 4 },
        );
        let mut dead = no_faults(64);
        dead[5] = true;
        dead[6] = true;
        let report = cluster.run_broadcast(&spec, &dead, 7).unwrap();
        assert!(report.completed, "uncolored: {:?}", report.uncolored);
    }

    #[test]
    fn single_worker_drives_many_ranks() {
        let cfg = ClusterConfig::new().threads(1);
        let mut cluster = Cluster::with_config(64, LogP::PAPER, cfg);
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::Opportunistic { distance: 2 },
        );
        let mut dead = no_faults(64);
        dead[9] = true;
        let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();
        assert!(report.completed, "uncolored: {:?}", report.uncolored);
    }

    #[test]
    fn p4096_broadcast_completes_without_thread_per_rank() {
        let p = 4096;
        let mut cluster = Cluster::new(p, LogP::PAPER);
        let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        let report = cluster.run_broadcast(&spec, &no_faults(p), 0).unwrap();
        assert!(report.completed, "uncolored: {:?}", report.uncolored);
        assert_eq!(report.messages, u64::from(p) - 1);
    }
}
