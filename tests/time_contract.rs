//! The cluster runtime's quantum-time contract (DESIGN.md "Cluster
//! runtime", *One clock*): a quantum reads the clock once, after the
//! mailbox drain, and every `Time` and event stamp it produces derives
//! from that read; a send burst re-reads every 16 polls; a timer that
//! fires at its deadline is polled at or after it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::{
    BroadcastSpec, BuildCtx, ColoredVia, Payload, Process, ProtocolError, ProtocolFactory, SendPoll,
};
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::{LogP, Rank, Time};
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
    let cfg = ClusterConfig::new().threads(2);
    let mut cluster = Cluster::with_config(2, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&factory, &[false, false], 0).unwrap();
    assert!(report.completed);
    assert_eq!(report.messages, 200);

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
