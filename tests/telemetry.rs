//! Telemetry contract tests across both drivers.
//!
//! Four guarantees: attaching a [`TelemetryHub`] never perturbs what a
//! run computes (traces and outcomes are byte-identical on vs off); a
//! single-worker cluster run produces exactly predictable counters
//! (the instrumentation counts what it claims to count); workers
//! publish their per-batch tallies before the coordinator can act on
//! the batch, so a returned broadcast is fully counted; and a forced
//! stall yields a [`StallReport`] naming precisely the stranded ranks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use corrected_trees::core::protocol::{
    Blueprint, BroadcastSpec, BuildCtx, ColoredVia, Machine, Payload, Plan, Population,
    ProtocolError, ProtocolFactory, Relabeling, SendPoll,
};
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::{LogP, Rank, Time};
use corrected_trees::obs::telemetry::{Counter, TelemetryHub};
use corrected_trees::obs::VecSink;
use corrected_trees::runtime::{Cluster, ClusterConfig};
use corrected_trees::sim::{FaultPlan, RunArena, Simulation};

/// Run the reference corrected-tree sim twice — with and without a
/// telemetry hub — and require identical event streams and outcomes.
/// Telemetry must be a pure observer of the simulation.
#[test]
fn sim_trace_is_byte_identical_with_telemetry_attached() {
    let p = 64u32;
    let seed = 42u64;
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        corrected_trees::core::correction::CorrectionKind::OpportunisticOptimized { distance: 4 },
    );
    let plan = FaultPlan::random_count_protecting(p, 3, seed, 0).unwrap();

    let mut plain_sink = VecSink::new();
    let plain_out = Simulation::builder(p, LogP::PAPER)
        .faults(plan.clone())
        .seed(seed)
        .build()
        .run_with_sink_reusable(&spec, &mut plain_sink, &mut RunArena::new())
        .unwrap();

    let hub = Arc::new(TelemetryHub::new(1, p as usize));
    let mut obs_sink = VecSink::new();
    let obs_out = Simulation::builder(p, LogP::PAPER)
        .faults(plan)
        .seed(seed)
        .telemetry(Arc::clone(&hub))
        .build()
        .run_with_sink_reusable(&spec, &mut obs_sink, &mut RunArena::new())
        .unwrap();

    assert_eq!(plain_sink.events, obs_sink.events);
    assert_eq!(plain_out.events, obs_out.events);
    assert_eq!(plain_out.messages.total(), obs_out.messages.total());
    assert_eq!(plain_out.colored_at, obs_out.colored_at);

    // And the hub did observe the one rep it was attached to.
    let snap = hub.snapshot();
    assert_eq!(snap.counter("sim.reps"), 1);
    assert_eq!(snap.counter("sim.events"), obs_out.events);
    assert_eq!(snap.counter("sim.sends"), obs_out.messages.total());
}

/// A cluster run with telemetry attached must report the same protocol
/// results as one without: the hub only reads, never steers.
#[test]
fn cluster_results_are_identical_with_telemetry_attached() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let dead = vec![false; p as usize];

    let mut plain = Cluster::new(p, LogP::PAPER);
    let plain_report = plain.run_broadcast(&spec, &dead, 7).unwrap();

    let hub = Arc::new(TelemetryHub::new(2, p as usize));
    let cfg = ClusterConfig::new().threads(2).telemetry(Arc::clone(&hub));
    let mut observed = Cluster::with_config(p, LogP::PAPER, cfg);
    let obs_report = observed.run_broadcast(&spec, &dead, 7).unwrap();

    assert!(plain_report.completed && obs_report.completed);
    assert_eq!(plain_report.messages, 7);
    assert_eq!(obs_report.messages, 7);
    assert_eq!(plain_report.uncolored, obs_report.uncolored);
    assert_eq!(hub.snapshot().counter("msgs.delivered"), 7);
}

/// On a single worker a fault-free plain binomial broadcast at P=8 is
/// fully deterministic, so every counter has one exact value: one
/// batch of all 8 ranks, 8 quanta, 7 tree messages, one coordinator
/// flush coloring all 8 ranks, and nothing stale, spilled or retried.
#[test]
fn single_worker_counters_are_exact() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let hub = Arc::new(TelemetryHub::new(1, p as usize));
    let cfg = ClusterConfig::new().threads(1).telemetry(Arc::clone(&hub));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let report = cluster
        .run_broadcast(&spec, &vec![false; p as usize], 0)
        .unwrap();
    assert!(report.completed);

    let snap = hub.snapshot();
    assert_eq!(snap.counter("sched.quanta"), 8, "one quantum per rank");
    assert_eq!(snap.counter("sched.stale_quanta"), 0);
    assert_eq!(snap.counter("sched.batches"), 1, "all ranks in one batch");
    assert_eq!(snap.counter("sched.lost_wakeup_rechecks"), 0);
    assert_eq!(snap.counter("sched.wakes"), 0, "single worker never parks");
    assert_eq!(snap.counter("msgs.sent"), 7);
    assert_eq!(snap.counter("msgs.delivered"), 7);
    assert_eq!(snap.counter("msgs.stale_dropped"), 0);
    assert_eq!(snap.counter("mailbox.pushes"), 7);
    assert_eq!(snap.counter("mailbox.spills"), 0);
    assert_eq!(snap.counter("timer.arms"), 0, "plain tree arms no timers");
    assert_eq!(snap.counter("timer.fires"), 0);
    assert_eq!(snap.counter("coord.batches"), 1);
    assert_eq!(snap.counter("coord.colored"), 8);

    assert_eq!(snap.gauges.get("mailbox.hwm"), Some(&1));
    assert_eq!(snap.gauges.get("runq.depth"), Some(&8));
    assert_eq!(snap.gauges.get("timers.pending"), Some(&0));

    let batch = snap.histograms.get("sched.batch_size").unwrap();
    assert_eq!((batch.count(), batch.sum()), (1, 8));
    let runq = snap.histograms.get("sched.runq_depth").unwrap();
    assert_eq!((runq.count(), runq.sum()), (1, 8));
    let drained = snap.histograms.get("mailbox.drained").unwrap();
    assert_eq!((drained.count(), drained.sum()), (8, 7));
    assert_eq!(drained.max(), Some(1), "no rank ever drains two at once");
}

/// Workers tally per batch and publish before the batch's coordinator
/// notifications, so when `run_broadcast` returns the hub has counted
/// the whole broadcast, its last batch included. A fault-free
/// plain tree delivers exactly one message to every rank but the root
/// and colors each rank once.
#[test]
fn a_returned_broadcast_is_fully_published() {
    let p = 256u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let dead = vec![false; p as usize];
    let hub = Arc::new(TelemetryHub::new(2, p as usize));
    let cfg = ClusterConfig::new().threads(2).telemetry(Arc::clone(&hub));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let (mut delivered, mut colored) = (0, 0);
    for i in 0..200u64 {
        let report = cluster.run_broadcast(&spec, &dead, i).unwrap();
        assert!(report.completed, "broadcast {i}");
        let now = (
            hub.counter_total(Counter::MsgsDelivered),
            hub.counter_total(Counter::CoordColored),
        );
        assert_eq!(now.0 - delivered, u64::from(p) - 1, "broadcast {i}");
        assert_eq!(now.1 - colored, u64::from(p), "broadcast {i}");
        (delivered, colored) = now;
    }
}

/// A rank that follows a script: colored from the start or by its first
/// message, it answers its `k`-th poll with the `k`-th batch of sends
/// (then `Done`).
#[derive(Clone, Default)]
struct Scripted {
    colored_at: Option<Time>,
    polls: Vec<Vec<Rank>>,
    poll: usize,
    queued: Vec<Rank>,
}

impl Scripted {
    fn new(colored: bool, polls: Vec<Vec<Rank>>) -> Scripted {
        Scripted {
            colored_at: colored.then_some(Time::ZERO),
            polls,
            ..Scripted::default()
        }
    }
}

/// Every rank's script, shared by the ranks of one broadcast.
impl Machine for Scripted {
    type Shared = Arc<Vec<Scripted>>;

    fn new(rank: Rank, scripts: &Self::Shared) -> Self {
        scripts[rank as usize].clone()
    }

    fn on_message(&mut self, _: &Self::Shared, _from: Rank, _payload: Payload, now: Time) {
        self.colored_at.get_or_insert(now);
    }

    fn poll_send(&mut self, _: &Self::Shared, _now: Time) -> SendPoll {
        if self.queued.is_empty() {
            let Some(sends) = self.polls.get(self.poll) else {
                return SendPoll::Done;
            };
            self.poll += 1;
            self.queued = sends.iter().rev().copied().collect();
        }
        match self.queued.pop() {
            Some(to) => SendPoll::Now {
                to,
                payload: Payload::Tree,
            },
            None => SendPoll::Idle,
        }
    }

    fn colored_at(&self) -> Option<Time> {
        self.colored_at
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.colored_at.map(|_| ColoredVia::Dissemination)
    }
}

/// One fresh copy of each scripted rank per broadcast.
struct ScriptedFactory(Vec<Scripted>);

impl ScriptedFactory {
    fn plan(&self, ctx: &BuildCtx) -> Plan<Scripted> {
        assert_eq!(ctx.p as usize, self.0.len());
        let map = Relabeling::rotation(ctx.p, 0);
        Plan {
            shared: Arc::new(self.0.clone()),
            map,
        }
    }
}

impl ProtocolFactory for ScriptedFactory {
    fn label(&self) -> String {
        "scripted".into()
    }

    fn blueprint(&self, ctx: &BuildCtx) -> Result<Arc<dyn Blueprint>, ProtocolError> {
        Ok(Arc::new(self.plan(ctx)))
    }

    fn populate(
        &self,
        ctx: &BuildCtx,
        slot: &mut Option<Box<dyn Population>>,
    ) -> Result<(), ProtocolError> {
        self.plan(ctx).populate(slot);
        Ok(())
    }
}

/// `mailbox.hwm` is booked by the owner when it drains, not by every
/// pusher: five messages pushed to rank 1 in one quantum of rank 0 and
/// drained in one quantum of rank 1 read as a high-water mark of 5.
#[test]
fn mailbox_hwm_is_the_depth_the_owner_drains() {
    let factory = ScriptedFactory(vec![
        Scripted::new(true, vec![vec![1; 5]]),
        Scripted::new(false, vec![]),
    ]);
    let hub = Arc::new(TelemetryHub::new(1, 2));
    let cfg = ClusterConfig::new().threads(1).telemetry(Arc::clone(&hub));
    let mut cluster = Cluster::with_config(2, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&factory, &[false, false], 0).unwrap();
    assert!(report.completed);
    assert_eq!(report.messages, 5);
    assert_eq!(hub.rank_hwm(1), 5);
    assert_eq!(hub.rank_hwm(0), 0);
    assert_eq!(hub.snapshot().gauges["mailbox.hwm"], 5);
}

/// Retirement leaves mailboxes alone: what a retired broadcast left in
/// one is booked by its owner's next drain. All three ranks are colored
/// from the start, so the first batch completes the broadcast; in it
/// rank 2 sends one message to rank 1 and then five to rank 0, which
/// the worker drains after the broadcast has retired.
///
/// Rank 2's burst wakes rank 1 and then rank 0. Rank 0 takes the
/// hand-off slot and runs right after rank 2; rank 1 waits in the
/// batch's wake list, which is queued only at the batch's flush, after
/// the ledger post that lets the broadcast retire. So nothing orders
/// rank 1's drain before the cluster's shutdown except a later
/// broadcast that needs a quantum of rank 1.
#[test]
fn messages_left_at_retirement_are_booked_by_the_owners_next_drain() {
    let hub = Arc::new(TelemetryHub::new(1, 3));
    let factory = ScriptedFactory(vec![
        Scripted::new(true, vec![vec![]]),
        Scripted::new(true, vec![vec![]]),
        Scripted::new(true, vec![vec![1, 0, 0, 0, 0, 0]]),
    ]);
    let cfg = ClusterConfig::new().threads(1).telemetry(Arc::clone(&hub));
    let mut cluster = Cluster::with_config(3, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&factory, &[false; 3], 0).unwrap();
    assert!(report.completed);
    assert_eq!(report.messages, 6);
    let start = Instant::now();
    while hub.rank_hwm(0) < 5 && start.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    assert_eq!(hub.rank_hwm(0), 5);
    // A broadcast in which nobody sends retires only after each rank
    // has run a quantum, and rank 1's drains its mailbox first.
    let quiet = ScriptedFactory(vec![Scripted::new(true, vec![vec![]]); 3]);
    assert!(
        cluster
            .run_broadcast(&quiet, &[false; 3], 1)
            .unwrap()
            .completed
    );
    drop(cluster);
    assert_eq!(hub.rank_hwm(1), 1);
}

/// Killing rank 1 under a plain (uncorrected) binomial tree at P=8
/// strands exactly its subtree {3, 5, 7}; the watchdog's stall report
/// must name those ranks and no others, each unscheduled with an empty
/// mailbox (stranded, not stuck).
#[test]
fn stall_report_names_the_stranded_ranks() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let mut dead = vec![false; p as usize];
    dead[1] = true;

    let hub = Arc::new(TelemetryHub::new(2, p as usize));
    let cfg = ClusterConfig::new()
        .threads(2)
        .timeout(std::time::Duration::from_millis(200))
        .telemetry(Arc::clone(&hub));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();

    assert!(!report.completed);
    assert_eq!(report.uncolored, vec![3, 5, 7]);
    let stall = report.stall.expect("timed-out run carries a StallReport");
    assert_eq!(stall.stranded(), vec![3, 5, 7]);
    for rank in &stall.ranks {
        assert!(!rank.scheduled, "stranded rank {} not runnable", rank.rank);
        assert_eq!(rank.mailbox_len, 0, "stranded rank {} idle", rank.rank);
    }
    let text = stall.render_text();
    assert!(text.contains("stall: broadcast"), "{text}");
    assert!(text.contains("rank     3:"), "{text}");
    // The report is also structured JSON carrying the stranded set.
    let json = stall.to_json();
    for rank in [3, 5, 7] {
        assert!(json.contains(&format!("{{\"rank\":{rank},")), "{json}");
    }
    assert!(json.contains("\"colored\":4"), "{json}");
}
