//! The cluster runtime's quantum-time contract (DESIGN.md "Cluster
//! runtime", *One clock*): a quantum reads the clock once, after the
//! mailbox drain, and every `Time` and event stamp it produces derives
//! from that read; a send burst re-reads every 16 polls, right after it
//! drains the mailbox again, so it hears its peers; a timer that
//! fires at its deadline is polled at or after it; and the taps time a
//! quantum from that same read — no clock read of their own — so the
//! `sched.quantum_us` intervals tile the batch's busy time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::{
    BroadcastSpec, BuildCtx, ColoredVia, Payload, Process, ProtocolError, ProtocolFactory, SendPoll,
};
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::{LogP, Rank, Time};
use corrected_trees::obs::flight::{FlightDump, FlightKind};
use corrected_trees::obs::telemetry::{Counter, TelemetryHub};
use corrected_trees::obs::{EventKind, MonitorConfig, MonitorSink, VecSink};
use corrected_trees::runtime::{Cluster, ClusterConfig};
use corrected_trees::sim::FaultPlan;

/// (a) Causality of recorded stamps across workers: per message
/// `SendStart.t ≤ Arrive.t ≤ Deliver.t`, and the invariant monitor
/// accepts every stream.
#[test]
fn recorded_two_worker_broadcasts_are_causally_stamped() {
    let p = 256u32;
    let checked = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
    let plain = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let cfg = ClusterConfig::new().threads(2);
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let mut messages = 0usize;
    for i in 0..50u64 {
        let (spec, dead) = if i % 2 == 0 {
            let plan = FaultPlan::random_count_protecting(p, 3, 100 + i, 0).unwrap();
            (&checked, plan.mask().to_vec())
        } else {
            (&plain, vec![false; p as usize])
        };
        let mut sink = VecSink::new();
        let report = cluster
            .run_broadcast_observed(spec, &dead, i, &mut sink)
            .unwrap();
        assert!(report.completed, "broadcast {i}: {:?}", report.uncolored);

        let monitor = MonitorSink::check(
            &sink.events,
            &MonitorConfig::new()
                .with_p(p)
                .with_logp(LogP::PAPER)
                .with_failed(dead),
        );
        assert!(monitor.is_ok(), "broadcast {i}: {}", monitor.render_text());

        // Per channel the k-th send, the k-th arrival (or dead-drop) and
        // the k-th delivery are one message (FIFO mailboxes; each rank's
        // stream is emitted in its own order).
        type Channel = (Rank, Rank);
        let mut sends: BTreeMap<Channel, Vec<Time>> = BTreeMap::new();
        let mut arrivals: BTreeMap<Channel, Vec<Time>> = BTreeMap::new();
        let mut deliveries: BTreeMap<Channel, Vec<Time>> = BTreeMap::new();
        for e in &sink.events {
            match e.kind {
                EventKind::SendStart { from, to, .. } => {
                    sends.entry((from, to)).or_default().push(e.time)
                }
                EventKind::Arrive { from, to, .. } | EventKind::DropDead { from, to, .. } => {
                    arrivals.entry((from, to)).or_default().push(e.time)
                }
                EventKind::Deliver { from, to, .. } => {
                    deliveries.entry((from, to)).or_default().push(e.time)
                }
                _ => {}
            }
        }
        for (channel, arrived) in &arrivals {
            let sent = &sends[channel];
            assert!(arrived.len() <= sent.len(), "broadcast {i} {channel:?}");
            for (k, (s, a)) in sent.iter().zip(arrived).enumerate() {
                assert!(
                    s <= a,
                    "broadcast {i} {channel:?} #{k}: send {s:?} > arrive {a:?}"
                );
            }
            // Dead receivers deliver nothing; live ones everything.
            if let Some(delivered) = deliveries.get(channel) {
                assert_eq!(delivered.len(), arrived.len(), "broadcast {i} {channel:?}");
                for (k, (a, d)) in arrived.iter().zip(delivered).enumerate() {
                    assert!(
                        a <= d,
                        "broadcast {i} {channel:?} #{k}: arrive {a:?} > deliver {d:?}"
                    );
                }
            }
            messages += arrived.len();
        }
    }
    assert!(messages > 50 * (p as usize - 1), "only {messages} messages");
}

/// A two-rank protocol whose root sends `burst` messages back to back,
/// spinning `spin` per poll, and logs the `now` of every poll.
struct Burst {
    burst: u32,
    spin: Duration,
    polls: Arc<Mutex<Vec<Time>>>,
}

struct BurstRoot {
    left: u32,
    spin: Duration,
    polls: Arc<Mutex<Vec<Time>>>,
}

impl Process for BurstRoot {
    fn on_message(&mut self, _from: Rank, _payload: Payload, _now: Time) {}

    fn poll_send(&mut self, now: Time) -> SendPoll {
        self.polls.lock().unwrap().push(now);
        let start = Instant::now();
        while start.elapsed() < self.spin {
            std::hint::spin_loop();
        }
        if self.left == 0 {
            return SendPoll::Done;
        }
        self.left -= 1;
        SendPoll::Now {
            to: 1,
            payload: Payload::Tree,
        }
    }

    fn colored_at(&self) -> Option<Time> {
        Some(Time::ZERO)
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        Some(ColoredVia::Root)
    }
}

/// Colored by its first message; never sends.
#[derive(Default)]
struct Leaf {
    colored_at: Option<Time>,
}

impl Process for Leaf {
    fn on_message(&mut self, _from: Rank, _payload: Payload, now: Time) {
        self.colored_at.get_or_insert(now);
    }

    fn poll_send(&mut self, _now: Time) -> SendPoll {
        if self.colored_at.is_some() {
            SendPoll::Done
        } else {
            SendPoll::Idle
        }
    }

    fn colored_at(&self) -> Option<Time> {
        self.colored_at
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.colored_at.map(|_| ColoredVia::Dissemination)
    }
}

impl ProtocolFactory for Burst {
    fn label(&self) -> String {
        "burst".into()
    }

    fn build(&self, ctx: &BuildCtx) -> Result<Vec<Box<dyn Process>>, ProtocolError> {
        assert_eq!(ctx.p, 2);
        Ok(vec![
            Box::new(BurstRoot {
                left: self.burst,
                spin: self.spin,
                polls: Arc::clone(&self.polls),
            }),
            Box::<Leaf>::default(),
        ])
    }
}

/// (b) Time advances inside a send burst: 200 sends in one quantum
/// spanning ≥ 200 µs see a non-decreasing `now` that moves, and only at
/// the 16-poll refresh points.
#[test]
fn a_send_burst_sees_time_advance_at_the_refresh_points() {
    let polls = Arc::new(Mutex::new(Vec::new()));
    let factory = Burst {
        burst: 200,
        spin: Duration::from_micros(1),
        polls: Arc::clone(&polls),
    };
    let cfg = ClusterConfig::new().threads(2).flight(4096);
    let mut cluster = Cluster::with_config(2, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&factory, &[false, false], 0).unwrap();
    assert!(report.completed);
    assert_eq!(report.messages, 200);

    // The end of a quantum reads no clock: `QuantumEnd` carries the
    // quantum's last stamp, which the burst refreshed on the way.
    let dump = cluster.capture_postmortem("test", None).unwrap().flight;
    let burst: Vec<(u64, u64)> = quanta(&dump)
        .into_iter()
        .filter_map(|(rank, start, end)| (rank == 0).then_some((start, end)))
        .collect();
    assert!(
        burst.iter().any(|&(start, end)| end >= start + 100),
        "rank 0's burst quantum ends where it starts: {burst:?}"
    );

    // The state lock is held for the whole quantum, so teardown waited
    // for all 201 polls (200 sends and the final `Done`).
    let polls = polls.lock().unwrap();
    assert_eq!(polls.len(), 201);
    assert!(polls.windows(2).all(|w| w[0] <= w[1]), "{polls:?}");
    assert!(
        polls[200].steps() >= polls[0].steps() + 100,
        "burst spun ≥ 200 µs but time moved {} → {}",
        polls[0],
        polls[200]
    );
    for (i, w) in polls.windows(2).enumerate() {
        if w[0] != w[1] {
            assert_eq!((i + 1) % 16, 0, "stamp changed at poll {}", i + 1);
        }
    }
}

/// A two-rank protocol whose root sends to rank 1 until it has heard
/// anything (at most `burst` sends), spinning `spin` per poll; rank 1
/// replies to its first message.
///
/// The ranks meet once, so that rank 1 hears in the middle of the burst
/// and its reply can only reach the root through a drain inside it:
/// rank 1's first poll waits until the root is in its second poll (its
/// first push is in rank 1's mailbox), and that poll waits until rank 1
/// has received the message. Rank 1 therefore goes idle with mail
/// waiting, and its end-of-quantum recheck queues it again with no push
/// of the root racing the recheck — such a push would win the wake-up,
/// and wake-ups wait in the root's batch until its quantum ends.
struct Echo {
    burst: u32,
    spin: Duration,
}

/// What the two ranks of [`Echo`] see of each other.
#[derive(Default)]
struct Handshake {
    root_polls: AtomicU32,
    heard_root: AtomicBool,
}

/// Spin (yielding) until `done` holds, for at most 5 s.
fn wait_for(done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() && start.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
}

struct EchoRoot {
    left: u32,
    spin: Duration,
    heard: bool,
    shake: Arc<Handshake>,
}

impl Process for EchoRoot {
    fn on_message(&mut self, _from: Rank, _payload: Payload, _now: Time) {
        self.heard = true;
    }

    fn poll_send(&mut self, _now: Time) -> SendPoll {
        if self.shake.root_polls.fetch_add(1, Ordering::SeqCst) == 1 {
            wait_for(|| self.shake.heard_root.load(Ordering::SeqCst));
        }
        let start = Instant::now();
        while start.elapsed() < self.spin {
            std::hint::spin_loop();
        }
        if self.heard || self.left == 0 {
            return SendPoll::Done;
        }
        self.left -= 1;
        SendPoll::Now {
            to: 1,
            payload: Payload::Tree,
        }
    }

    fn colored_at(&self) -> Option<Time> {
        Some(Time::ZERO)
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        Some(ColoredVia::Root)
    }
}

/// Colored by its first message, which it answers once.
struct Replier {
    colored_at: Option<Time>,
    replied: bool,
    shake: Arc<Handshake>,
}

impl Process for Replier {
    fn on_message(&mut self, _from: Rank, _payload: Payload, now: Time) {
        self.colored_at.get_or_insert(now);
        self.shake.heard_root.store(true, Ordering::SeqCst);
    }

    fn poll_send(&mut self, _now: Time) -> SendPoll {
        match (self.colored_at, self.replied) {
            (None, _) => {
                wait_for(|| self.shake.root_polls.load(Ordering::SeqCst) >= 2);
                SendPoll::Idle
            }
            (Some(_), false) => {
                self.replied = true;
                SendPoll::Now {
                    to: 0,
                    payload: Payload::Tree,
                }
            }
            (Some(_), true) => SendPoll::Done,
        }
    }

    fn colored_at(&self) -> Option<Time> {
        self.colored_at
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.colored_at.map(|_| ColoredVia::Dissemination)
    }
}

impl ProtocolFactory for Echo {
    fn label(&self) -> String {
        "echo".into()
    }

    fn build(&self, ctx: &BuildCtx) -> Result<Vec<Box<dyn Process>>, ProtocolError> {
        assert_eq!(ctx.p, 2);
        let shake = Arc::new(Handshake::default());
        Ok(vec![
            Box::new(EchoRoot {
                left: self.burst,
                spin: self.spin,
                heard: false,
                shake: Arc::clone(&shake),
            }),
            Box::new(Replier {
                colored_at: None,
                replied: false,
                shake,
            }),
        ])
    }
}

/// (e) A send burst hears its mailbox: the root stops at the first
/// refresh point after rank 1's reply came in — a multiple of 16 sends,
/// long before its 10 000 — and the drain that took the reply is
/// recorded inside the burst's quantum, after its pushes.
#[test]
fn a_send_burst_hears_its_mailbox_at_the_refresh_points() {
    let factory = Echo {
        burst: 10_000,
        spin: Duration::from_micros(1),
    };
    // Room for every push and wake record of a burst that never hears.
    let cfg = ClusterConfig::new().threads(2).flight(1 << 15);
    let mut cluster = Cluster::with_config(2, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&factory, &[false, false], 0).unwrap();
    assert!(report.completed);
    let root_sent = report.messages - 1;
    assert!(
        root_sent > 0 && root_sent.is_multiple_of(16) && root_sent < 10_000,
        "the root sent {root_sent} messages"
    );

    let dump = cluster.capture_postmortem("test", None).unwrap().flight;
    let heard_inside = dump.shards.iter().any(|shard| {
        // Within a quantum of rank 0 (a shard runs one at a time):
        // whether it has pushed yet, and whether it drained after that.
        let (mut open, mut pushed, mut heard) = (false, false, false);
        shard.records.iter().any(|r| match r.kind {
            FlightKind::QuantumStart => {
                (open, pushed, heard) = (r.rank == 0, false, false);
                false
            }
            FlightKind::MailboxPush => {
                pushed |= open;
                false
            }
            FlightKind::MailboxDrain => {
                heard |= pushed && r.rank == 0;
                false
            }
            FlightKind::QuantumEnd => std::mem::take(&mut open) && heard,
            _ => false,
        })
    });
    assert!(heard_inside, "no MailboxDrain of rank 0 inside its burst");
}

/// `(rank, QuantumStart.wall_us, QuantumEnd.wall_us)` of every quantum
/// a dump retains whole (a shard runs one quantum at a time).
fn quanta(dump: &FlightDump) -> Vec<(Rank, u64, u64)> {
    let mut out = Vec::new();
    for shard in &dump.shards {
        let mut open = None;
        for r in &shard.records {
            match r.kind {
                FlightKind::QuantumStart => open = Some((r.rank, r.wall_us)),
                FlightKind::QuantumEnd => {
                    if let Some((rank, start)) = open.take() {
                        assert_eq!(rank, r.rank, "quanta interleaved on shard {}", shard.shard);
                        out.push((rank, start, r.wall_us));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// (d) With the always-on pair attached a quantum still reads the clock
/// once: its `sched.quantum_us` interval runs from that read to the
/// next one the worker makes anyway, so every quantum that is not stale
/// closes exactly one interval, on one worker the intervals sum to no
/// more than the busy time (each batch's first and last stamp are
/// floored to whole µs: one µs of slack per batch), and no flight
/// record of a quantum is stamped before the quantum's start.
#[test]
fn quantum_intervals_tile_the_busy_time() {
    let p = 256u32;
    let spec = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
    let hub = Arc::new(TelemetryHub::new(1, p as usize));
    let cfg = ClusterConfig::new()
        .threads(1)
        .telemetry(Arc::clone(&hub))
        .flight(4096);
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    for i in 0..20u64 {
        let plan = FaultPlan::random_count_protecting(p, 3, 200 + i, 0).unwrap();
        let report = cluster.run_broadcast(&spec, plan.mask(), i).unwrap();
        assert!(report.completed, "broadcast {i}: {:?}", report.uncolored);
    }
    let dump = cluster.capture_postmortem("test", None).unwrap().flight;
    // Joins the worker: it publishes on its way out, so its last
    // batch's busy time and closing interval are in the hub.
    drop(cluster);

    let snap = hub.snapshot();
    let quantum_us = &snap.histograms["sched.quantum_us"];
    let (busy_us, batches) = (snap.counter("sched.busy_us"), snap.counter("sched.batches"));
    // Every rank runs at least one quantum per broadcast.
    let sched_quanta = snap.counter("sched.quanta");
    assert!(sched_quanta >= 20 * u64::from(p), "{sched_quanta}");
    assert_eq!(
        quantum_us.count(),
        sched_quanta - snap.counter("sched.stale_quanta")
    );
    assert!(
        quantum_us.sum() <= busy_us + batches,
        "quanta sum to {} µs, {batches} batches were busy for {busy_us} µs",
        quantum_us.sum()
    );

    let quanta = quanta(&dump);
    assert!(quanta.len() > 100, "{}", quanta.len());
    for (rank, start, end) in quanta {
        assert!(end >= start, "rank {rank}: quantum {start} → {end}");
    }
}

/// A one-rank protocol that asks to be woken `delay` µs after its first
/// poll and colors itself when polled at or after that time.
struct Sleeper {
    delay: u64,
    polls: Arc<Mutex<Vec<Time>>>,
}

struct SleeperRank {
    delay: u64,
    wake_at: Option<Time>,
    colored_at: Option<Time>,
    polls: Arc<Mutex<Vec<Time>>>,
}

impl Process for SleeperRank {
    fn on_message(&mut self, _from: Rank, _payload: Payload, _now: Time) {}

    fn poll_send(&mut self, now: Time) -> SendPoll {
        self.polls.lock().unwrap().push(now);
        let wake_at = *self.wake_at.get_or_insert(now + self.delay);
        if now < wake_at {
            return SendPoll::WaitUntil(wake_at);
        }
        self.colored_at.get_or_insert(now);
        SendPoll::Done
    }

    fn colored_at(&self) -> Option<Time> {
        self.colored_at
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.colored_at.map(|_| ColoredVia::Root)
    }
}

impl ProtocolFactory for Sleeper {
    fn label(&self) -> String {
        "sleeper".into()
    }

    fn build(&self, ctx: &BuildCtx) -> Result<Vec<Box<dyn Process>>, ProtocolError> {
        assert_eq!(ctx.p, 1);
        Ok(vec![Box::new(SleeperRank {
            delay: self.delay,
            wake_at: None,
            colored_at: None,
            polls: Arc::clone(&self.polls),
        })])
    }
}

/// (c) Timers and protocol time share one timeline: a machine that
/// returns `WaitUntil(t)` is next polled with `now ≥ t`, so it arms
/// exactly one timer (two timelines that floor differently could poll it
/// at `t − 1` and make it re-arm).
#[test]
fn a_fired_timer_polls_at_or_after_its_deadline() {
    for rep in 0..40u64 {
        let polls = Arc::new(Mutex::new(Vec::new()));
        let factory = Sleeper {
            delay: 150 + rep,
            polls: Arc::clone(&polls),
        };
        let hub = Arc::new(TelemetryHub::new(1, 1));
        let cfg = ClusterConfig::new().threads(1).telemetry(Arc::clone(&hub));
        let mut cluster = Cluster::with_config(1, LogP::PAPER, cfg);
        let report = cluster.run_broadcast(&factory, &[false], rep).unwrap();
        assert!(report.completed, "rep {rep}");

        let polls = polls.lock().unwrap();
        assert_eq!(polls.len(), 2, "rep {rep}: {polls:?}");
        assert!(
            polls[1] >= polls[0] + factory.delay,
            "rep {rep}: woken at {} for deadline {}",
            polls[1],
            polls[0] + factory.delay
        );
        assert_eq!(hub.counter_total(Counter::TimerArms), 1, "rep {rep}");
        assert_eq!(hub.counter_total(Counter::TimerFires), 1, "rep {rep}");
    }
}
