//! Flight-recorder and postmortem contract tests of the cluster runtime.
//!
//! Five guarantees: the per-shard ring retains exactly the most recent
//! `cap` records with loss-detecting sequence numbers; attaching a
//! [`FlightRecorder`] never perturbs what a cluster run computes; a
//! forced stall at P=8 with rank 1 dead produces a `ct-postmortem-v1`
//! dump whose per-rank tails name the stranded subtree {3, 5, 7} and
//! the absence of any mailbox push to it; a
//! worker panic produces a `worker_panic` bundle whose telemetry lacks
//! at most the panicking worker's unpublished batch; and a hand-fed
//! deterministic dump renders byte-for-byte stable JSON and
//! reconstruction text (regenerate with `CT_REGEN_GOLDEN=1`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use corrected_trees::analyze::postmortem::render_text;
use corrected_trees::core::protocol::{
    Blueprint, BroadcastSpec, BuildCtx, ColoredVia, Payload, Plan, Population, Process,
    ProtocolError, ProtocolFactory, SendPoll,
};
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::{LogP, Rank, Time};
use corrected_trees::obs::flight::{FlightKind, FlightRecorder, NO_RANK};
use corrected_trees::obs::telemetry::{Counter, Dist, TelemetryHub};
use corrected_trees::runtime::{
    Cluster, ClusterConfig, ClusterError, Postmortem, RankStall, StallReport,
};
use ct_testkit::scripted::{scripted, Scripted};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A shard ring overwrites oldest-first: after `total` writes it
    /// holds exactly the newest `min(cap, total)` records, and the
    /// surviving sequence numbers are contiguous up to the last write,
    /// so a reader can tell precisely how many records were lost.
    #[test]
    fn ring_retains_exactly_the_most_recent_cap_records(cap in 1usize..32, total in 0u64..200) {
        let rec = FlightRecorder::new(1, cap);
        for i in 0..total {
            rec.record(0, FlightKind::Wake, (i % 7) as u32, i, i, i);
        }
        let dump = rec.dump();
        let shard = &dump.shards[0];
        prop_assert_eq!(shard.written, total);
        prop_assert_eq!(shard.lost, total.saturating_sub(cap as u64));
        prop_assert_eq!(shard.records.len() as u64, total.min(cap as u64));
        for (i, r) in shard.records.iter().enumerate() {
            prop_assert_eq!(r.seq, shard.lost + i as u64);
            // The payload rode along with its sequence number: what
            // survived is the newest data, not a torn mix.
            prop_assert_eq!(r.aux, r.seq);
        }
        prop_assert_eq!(dump.total_written(), total);
        prop_assert_eq!(dump.total_lost(), total.saturating_sub(cap as u64));
    }
}

/// A cluster run with a flight recorder attached must report the same
/// protocol results as one without: the black box only reads, never
/// steers.
#[test]
fn cluster_results_are_identical_with_flight_recorder_attached() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let dead = vec![false; p as usize];

    let mut plain = Cluster::new(p, LogP::PAPER);
    let plain_report = plain.run_broadcast(&spec, &dead, 7).unwrap();

    let cfg = ClusterConfig::new().threads(2).flight(4096);
    let mut observed = Cluster::with_config(p, LogP::PAPER, cfg);
    let obs_report = observed.run_broadcast(&spec, &dead, 7).unwrap();

    assert!(plain_report.completed && obs_report.completed);
    assert_eq!(plain_report.messages, 7);
    assert_eq!(obs_report.messages, 7);
    assert_eq!(plain_report.uncolored, obs_report.uncolored);
    // A clean run captures no postmortem.
    assert!(obs_report.postmortem.is_none());
}

/// The acceptance scenario: killing rank 1 under a plain binomial tree
/// at P=8 strands its subtree {3, 5, 7}. The watchdog must freeze the
/// rings and attach a `ct-postmortem-v1` dump whose per-rank tails show
/// each stranded rank's last poll and — the diagnosis — that no mailbox
/// push ever reached it, while alive ranks' tails name their pushers.
#[test]
fn forced_stall_dump_names_the_stranded_subtree() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let mut dead = vec![false; p as usize];
    dead[1] = true;

    let cfg = ClusterConfig::new()
        .threads(2)
        .timeout(std::time::Duration::from_millis(200))
        .flight(4096);
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();

    assert!(!report.completed);
    let pm = report
        .postmortem
        .expect("stalled run captures a postmortem");
    assert_eq!(pm.reason, "watchdog_stall");
    assert_eq!(pm.focus_ranks(), vec![3, 5, 7]);
    let json = pm.to_json();
    assert!(
        json.starts_with("{\"schema\":\"ct-postmortem-v1\""),
        "{json}"
    );

    for rank in [3u32, 5, 7] {
        let tail = pm.flight.rank_tail(rank, 16);
        assert!(
            tail.iter()
                .any(|(_, r)| r.kind == FlightKind::QuantumStart && r.rank == rank),
            "stranded rank {rank} polled at least once before stranding"
        );
        assert!(
            !tail.iter().any(|(_, r)| r.kind == FlightKind::MailboxPush),
            "no mailbox push ever reached stranded rank {rank}"
        );
    }
    // Rank 2 is alive and was pushed to directly by the root: the
    // record's aux packs `broadcast_id << 32 | pushing_rank`, so the
    // black box attributes the push to both its sender and its topic
    // (this cluster's first broadcast has id 1).
    let alive_tail = pm.flight.rank_tail(2, 16);
    assert!(
        alive_tail
            .iter()
            .any(|(_, r)| r.kind == FlightKind::MailboxPush
                && r.rank == 2
                && r.push_peer() == 0
                && r.push_bcast() == 1),
        "alive rank 2 received the root's push"
    );

    // The consumer-side reconstruction renders the same diagnosis.
    let read = Postmortem::from_json(&json).expect("runtime dump parses");
    assert_eq!(read.to_json(), json, "the dump reads back as written");
    let rendered = render_text(&read);
    for rank in [3, 5, 7] {
        assert!(
            rendered.contains(&format!("rank     {rank}:")),
            "{rendered}"
        );
    }
    assert!(
        rendered.contains("no message ever reached this rank"),
        "{rendered}"
    );
}

/// A plain binomial tree whose rank 5 panics in `poll_send` once armed.
struct Bomb {
    armed: Arc<AtomicBool>,
}

struct BombRank {
    inner: Box<dyn Process>,
    armed: Arc<AtomicBool>,
}

impl Process for BombRank {
    fn on_message(&mut self, from: Rank, payload: Payload, now: Time) {
        self.inner.on_message(from, payload, now);
    }

    fn poll_send(&mut self, now: Time) -> SendPoll {
        assert!(!self.armed.load(Ordering::SeqCst), "rank 5 blows up");
        self.inner.poll_send(now)
    }

    fn colored_at(&self) -> Option<Time> {
        self.inner.colored_at()
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.inner.colored_via()
    }
}

impl Bomb {
    fn plan(&self, ctx: &BuildCtx) -> Result<Plan<Scripted>, ProtocolError> {
        let tree = BroadcastSpec::plain_tree(TreeKind::BINOMIAL).blueprint(ctx)?;
        let armed = Arc::clone(&self.armed);
        Ok(scripted(ctx.p, move |rank| {
            let inner = tree.place(rank, None);
            match rank {
                5 => Box::new(BombRank {
                    inner,
                    armed: Arc::clone(&armed),
                }),
                _ => inner,
            }
        }))
    }
}

impl ProtocolFactory for Bomb {
    fn label(&self) -> String {
        "bomb".into()
    }

    fn blueprint(&self, ctx: &BuildCtx) -> Result<Arc<dyn Blueprint>, ProtocolError> {
        Ok(Arc::new(self.plan(ctx)?))
    }

    fn populate(
        &self,
        ctx: &BuildCtx,
        slot: &mut Option<Box<dyn Population>>,
    ) -> Result<(), ProtocolError> {
        self.plan(ctx).map(|plan| plan.populate(slot))
    }
}

/// Workers publish their tallies once per batch, so a worker that
/// unwinds takes at most one batch's counts with it: after three clean
/// broadcasts and one in which rank 5 panics, the `worker_panic` bundle
/// still shows every message of the clean ones, and the surviving
/// worker — which leaves through a poisoned lock — has published too.
#[test]
fn worker_panic_bundle_keeps_every_published_batch() {
    let p = 64u32;
    let dead = vec![false; p as usize];
    let armed = Arc::new(AtomicBool::new(false));
    let factory = Bomb {
        armed: Arc::clone(&armed),
    };
    let path = std::env::temp_dir().join(format!("ct-worker-panic-{}.json", std::process::id()));
    let hub = Arc::new(TelemetryHub::new(2, p as usize));
    let cfg = ClusterConfig::new()
        .threads(2)
        // The surviving worker may never touch rank 5's poisoned lock
        // and park instead; the watchdog then ends the wait.
        .timeout(std::time::Duration::from_millis(300))
        .telemetry(Arc::clone(&hub))
        .flight(4096)
        .postmortem(path.clone());
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    for seed in 0..3 {
        let report = cluster.run_broadcast(&factory, &dead, seed).unwrap();
        assert!(report.completed);
    }
    let clean = 3 * (u64::from(p) - 1);
    assert_eq!(hub.counter_total(Counter::MsgsDelivered), clean);

    armed.store(true, Ordering::SeqCst);
    let err = cluster.run_broadcast(&factory, &dead, 3).unwrap_err();
    assert!(matches!(err, ClusterError::WorkerPanicked));
    let json = std::fs::read_to_string(&path).expect("worker panic writes the bundle");
    let _ = std::fs::remove_file(&path);
    let bundle = Postmortem::from_json(&json).expect("bundle parses");
    assert_eq!(bundle.reason, "worker_panic");
    assert!(bundle.flight.total_written() > 0);
    assert!(bundle.flight.shards.iter().any(|s| !s.records.is_empty()));
    // Rank 5 never forwarded, so the fourth broadcast delivered fewer
    // than P−1 messages; whatever it did deliver can only add.
    let delivered = hub.counter_total(Counter::MsgsDelivered);
    assert!(
        (clean..clean + u64::from(p) - 1).contains(&delivered),
        "{delivered} delivered, {clean} before the panic"
    );
}

const GOLDEN_DUMP_PATH: &str = "tests/data/golden_postmortem.json";
const GOLDEN_DUMP: &str = include_str!("data/golden_postmortem.json");
const GOLDEN_REPORT_PATH: &str = "tests/data/golden_postmortem_report.txt";
const GOLDEN_REPORT: &str = include_str!("data/golden_postmortem_report.txt");

/// A fixed two-shard recorder plus hand-built stall report and
/// telemetry: one stranded rank (3) that polled once and never heard
/// from anyone, one healthy rank (2) with a push, a drain, and a
/// pending timer.
fn golden_postmortem_json() -> String {
    let rec = FlightRecorder::new(2, 8);
    rec.record(0, FlightKind::IterStart, NO_RANK, 1, 0, 100);
    rec.record(0, FlightKind::QuantumStart, 3, 1, 8, 350);
    rec.record(0, FlightKind::QuantumEnd, 3, 1, 8, 351);
    // MailboxPush aux packs `broadcast_id << 32 | pushing_rank`:
    // rank 0 pushing on behalf of broadcast 1.
    rec.record(1, FlightKind::MailboxPush, 2, 1 << 32, 2, 340);
    rec.record(1, FlightKind::QuantumStart, 2, 1, 4, 345);
    rec.record(1, FlightKind::MailboxDrain, 2, 1, 0, 345);
    rec.record(1, FlightKind::TimerArm, 2, 400, 6, 346);
    rec.record(1, FlightKind::QuantumEnd, 2, 1, 6, 347);
    rec.record(1, FlightKind::CoordBatch, NO_RANK, 2, 1, 348);
    rec.freeze();

    let hub = TelemetryHub::new(2, 8);
    for w in 0..2usize {
        let n = (w as u64) + 1;
        hub.add(w, Counter::SchedQuanta, 4 * n);
        hub.add(w, Counter::MsgsDelivered, 2 * n);
        hub.add(w, Counter::MailboxPushes, 2 * n);
        hub.add(w, Counter::TimerArms, n - 1);
        hub.add(w, Counter::CoordBatches, n - 1);
        hub.add(w, Counter::CoordColored, 2 * n);
        hub.observe(w, Dist::QuantumUs, 10 * n);
    }
    hub.set_runq_depth(0);
    hub.set_timers_pending(1);

    let stall = StallReport {
        id: 1,
        timeout_ms: 200,
        p: 8,
        live: 7,
        colored: 4,
        runq_depth: 0,
        pending_timers: 1,
        coord_in_flight: 0,
        now_us: 200_400,
        epoch_us: 100,
        ranks: vec![RankStall {
            rank: 3,
            scheduled: false,
            mailbox_len: 0,
            mailbox_spilled: 0,
            last_poll_us: Some(350),
        }],
    };

    let pm = Postmortem {
        reason: "watchdog_stall".to_owned(),
        p: 8,
        stall: Some(stall),
        telemetry: Some(hub.snapshot().with_source("cluster")),
        health: Vec::new(),
        flight: rec.dump(),
    };
    pm.to_json() + "\n"
}

fn regen() -> bool {
    std::env::var_os("CT_REGEN_GOLDEN").is_some()
}

#[test]
fn golden_dump_is_byte_for_byte_stable() {
    let json = golden_postmortem_json();
    if regen() {
        std::fs::write(GOLDEN_DUMP_PATH, &json).expect("write golden dump");
        return;
    }
    assert_eq!(
        json, GOLDEN_DUMP,
        "postmortem dump diverged from the golden file; if intentional, \
         regenerate with CT_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_report_text_is_byte_for_byte_stable() {
    // Under regen the checked-in dump may be stale (or empty on first
    // generation) — render from the freshly built dump.
    let json = if regen() {
        golden_postmortem_json()
    } else {
        GOLDEN_DUMP.to_owned()
    };
    let text = render_text(&Postmortem::from_json(&json).expect("golden dump parses"));
    if regen() {
        std::fs::write(GOLDEN_REPORT_PATH, &text).expect("write golden report text");
        return;
    }
    assert_eq!(
        text, GOLDEN_REPORT,
        "postmortem report diverged from the golden file; if intentional, \
         regenerate with CT_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_report_is_internally_consistent() {
    let report = Postmortem::from_json(GOLDEN_DUMP).unwrap();
    assert_eq!(report.reason, "watchdog_stall");
    assert_eq!(report.p, 8);
    assert_eq!(report.flight.shards.len(), 2);
    assert_eq!(report.flight.total_written(), 9);
    let retained: usize = report.flight.shards.iter().map(|s| s.records.len()).sum();
    assert_eq!(retained, 9);
    assert_eq!(report.flight.total_lost(), 0);
    let stall = report.stall.as_ref().expect("golden dump carries a stall");
    assert_eq!(stall.ranks.len(), 1);
    assert_eq!(stall.ranks[0].rank, 3);
    let text = render_text(&report);
    assert!(text.contains("postmortem: watchdog_stall (p=8)"), "{text}");
    assert!(text.contains("last mailbox push: none recorded"), "{text}");
    assert!(text.contains("pending timers:"), "{text}");
}
