//! Per-topic equality for multiplexed broadcasts.
//!
//! The pub/sub layer's central correctness claim: running N topics
//! concurrently over one worker pool is *observationally equivalent*,
//! per topic, to running each topic alone. Every event the cluster
//! emits carries its broadcast id, so each topic's stream can be
//! filtered out of the multiplexed run and compared — after stripping
//! timestamps and the id stamp itself — against a solo run of the same
//! spec at the same seed.
//!
//! Only deterministic protocols qualify for exact stream equality:
//! plain trees (fault-free dissemination is schedule-independent) and
//! checked-paced synchronized correction with a provisioned barrier
//! (`sync_start_override` far past dissemination), whose per-rank send
//! sequences are fixed by the paper's discrete machine regardless of
//! interleaving. Opportunistic correction reacts to wall-clock timing
//! and is exercised by the count-level tests in `ct-runtime` instead.

use std::sync::Arc;
use std::time::Duration;

use corrected_trees::core::{
    correction::CorrectionKind,
    protocol::{BroadcastSpec, Payload},
    tree::TreeKind,
};
use corrected_trees::logp::LogP;
use corrected_trees::obs::telemetry::TelemetryHub;
use corrected_trees::obs::{Event, EventKind, VecSink};
use corrected_trees::runtime::{Cluster, ClusterConfig, PubsubOptions, Topic, TopicTable};
use corrected_trees::sim::{RunArena, Simulation};

/// Arrival-gate fallback of the paced topics, µs on the cluster.
const PACED_FALLBACK_US: u64 = 50_000;

/// Canonical multiset of a stream's semantic content: every event kind
/// rendered without its timestamps or broadcast stamp, sorted. Two
/// streams with equal canonical forms describe the same broadcast — the
/// same sends, arrivals, deliveries, colorings, and phase structure —
/// even if the runs interleaved differently.
fn canonical(events: &[Event]) -> Vec<String> {
    let mut keys: Vec<String> = events.iter().map(|e| format!("{:?}", e.kind)).collect();
    keys.sort();
    keys
}

/// Message-only multiset (send/arrive/deliver), for comparison against
/// the simulator, whose stream carries LogP-timed phase spans that are
/// not expected to mirror the cluster's wall-clock spans one-to-one.
fn message_multiset(events: &[Event]) -> Vec<(&'static str, u32, u32, Payload)> {
    let mut keys: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SendStart { from, to, payload } => Some(("send", from, to, payload)),
            EventKind::Arrive { from, to, payload } => Some(("arrive", from, to, payload)),
            EventKind::Deliver { from, to, payload } => Some(("deliver", from, to, payload)),
            _ => None,
        })
        .collect();
    keys.sort_by_key(|&(tag, from, to, p)| (tag, from, to, format!("{p:?}")));
    keys
}

/// Colored set with provenance: which ranks colored, and how.
fn colored(events: &[Event]) -> Vec<(u32, String)> {
    let mut out: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Colored { rank, via } => Some((rank, format!("{via:?}"))),
            _ => None,
        })
        .collect();
    out.sort();
    out
}

/// The ISSUE's four deterministic topics at P=512: varied roots and
/// tree shapes, one with checked-paced synchronized correction behind a
/// provisioned barrier.
fn equality_topics(p: u32) -> TopicTable {
    let mut table = TopicTable::new();
    table.push(Topic::new(
        "plain-binomial-r0",
        BroadcastSpec::plain_tree(TreeKind::BINOMIAL),
        p,
        11,
    ));
    table.push(Topic::new(
        "plain-binomial-r37",
        BroadcastSpec::plain_tree(TreeKind::BINOMIAL).with_root(37),
        p,
        12,
    ));
    table.push(Topic::new(
        "plain-lame2-r101",
        BroadcastSpec::plain_tree(TreeKind::LAME2).with_root(101),
        p,
        13,
    ));
    // The arrival-gate fallback (50 ms) is far past any scheduling
    // delay: a fault-free run never needs it, and one of 4 µs expired
    // under load often enough to make the counts timing-dependent.
    let mut checked = BroadcastSpec::corrected_tree_sync(
        TreeKind::BINOMIAL,
        CorrectionKind::checked_paced(&LogP::PAPER, PACED_FALLBACK_US),
    )
    .with_root(200);
    // Provision the synchronized start well past wall-clock
    // dissemination at P=512 so every rank participates in correction
    // and Corollary 1 holds exactly (150 ms >> tree time on one core).
    checked.sync_start_override = Some(150_000);
    table.push(Topic::new("checked-sync-r200", checked, p, 14));
    table
}

#[test]
fn multiplexed_topic_streams_equal_solo_runs_at_p512_k4() {
    let p = 512u32;
    let table = equality_topics(p);
    let opts = PubsubOptions { k: 4, rounds: 1 };

    // Multiplexed run: all four topics admitted together (k = 4), one
    // VecSink per topic.
    let cfg = ClusterConfig::new().timeout(Duration::from_secs(60));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let mut sinks: Vec<VecSink> = (0..table.len()).map(|_| VecSink::new()).collect();
    {
        let mut refs: Vec<&mut dyn corrected_trees::obs::EventSink> = sinks
            .iter_mut()
            .map(|s| s as &mut dyn corrected_trees::obs::EventSink)
            .collect();
        let report = cluster
            .run_pubsub_observed(&table, &opts, &mut refs)
            .expect("multiplexed run");
        assert!(report.completed(), "multiplexed outcomes: {report:?}");
        assert_eq!(report.outcomes.len(), table.len());
    }

    // Every event in a topic's sink must carry that topic's broadcast
    // id — the filtering the equality claim rests on.
    for sink in &sinks {
        let ids: std::collections::BTreeSet<_> = sink.events.iter().map(|e| e.bcast()).collect();
        assert_eq!(ids.len(), 1, "one broadcast id per topic per round");
        assert!(ids.iter().all(|id| id.is_some()));
    }

    // Solo baselines: each topic alone, k = 1, fresh cluster, same
    // seed and spec. The pub/sub driver is its own baseline so both
    // sides share completion semantics (quiescence, not first-colored
    // truncation).
    for (t, topic) in table.iter().enumerate() {
        let mut solo_table = TopicTable::new();
        solo_table.push(topic.clone());
        let cfg = ClusterConfig::new().timeout(Duration::from_secs(60));
        let mut solo_cluster = Cluster::with_config(p, LogP::PAPER, cfg);
        let mut solo_sink = VecSink::new();
        {
            let mut refs: Vec<&mut dyn corrected_trees::obs::EventSink> = vec![&mut solo_sink];
            let report = solo_cluster
                .run_pubsub_observed(&solo_table, &PubsubOptions { k: 1, rounds: 1 }, &mut refs)
                .expect("solo run");
            assert!(report.completed(), "solo {}: {report:?}", topic.label);
        }
        assert_eq!(
            canonical(&sinks[t].events),
            canonical(&solo_sink.events),
            "topic {} stream diverged from its solo run",
            topic.label
        );
        let expected: Vec<(u32, String)> = (0..p)
            .map(|r| {
                let via = if r == topic.spec.root {
                    "Root"
                } else {
                    "Dissemination"
                };
                (r, via.to_string())
            })
            .collect();
        assert_eq!(
            colored(&sinks[t].events),
            expected,
            "topic {}: every rank colors via dissemination",
            topic.label
        );
    }
}

#[test]
fn multiplexed_checked_topic_matches_simulator_multiset() {
    // Cross-driver check: the checked-paced topic's per-topic stream
    // out of a k=4 multiplexed cluster run carries the same message
    // multiset as the LogP simulator running the same spec — the
    // schedule-independence of the paper's paced machine, now holding
    // even under topic multiplexing.
    let p = 128u32;
    let mut spec = BroadcastSpec::corrected_tree_sync(
        TreeKind::BINOMIAL,
        CorrectionKind::checked_paced(&LogP::PAPER, PACED_FALLBACK_US),
    )
    .with_root(9);
    spec.sync_start_override = Some(60_000);

    let mut table = TopicTable::new();
    for t in 0..4u32 {
        table.push(Topic::new(
            format!("checked-{t}"),
            spec,
            p,
            21 + u64::from(t),
        ));
    }

    let cfg = ClusterConfig::new().timeout(Duration::from_secs(60));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let mut sinks: Vec<VecSink> = (0..table.len()).map(|_| VecSink::new()).collect();
    {
        let mut refs: Vec<&mut dyn corrected_trees::obs::EventSink> = sinks
            .iter_mut()
            .map(|s| s as &mut dyn corrected_trees::obs::EventSink)
            .collect();
        let report = cluster
            .run_pubsub_observed(&table, &PubsubOptions { k: 4, rounds: 1 }, &mut refs)
            .expect("multiplexed run");
        assert!(report.completed(), "{report:?}");
    }

    let mut sim_sink = VecSink::new();
    Simulation::builder(p, LogP::PAPER)
        .build()
        .run_with_sink_reusable(&spec, &mut sim_sink, &mut RunArena::new())
        .expect("sim run");

    let reference = message_multiset(&sim_sink.events);
    // Corollary 1: (P-1) tree sends + M*P correction sends, each
    // arriving and delivering exactly once fault-free.
    let m = 5u64; // 3 + ceil(l/o) with LogP::PAPER
    let expected_msgs = (u64::from(p) - 1) + m * u64::from(p);
    assert_eq!(reference.len() as u64, 3 * expected_msgs);
    for (t, sink) in sinks.iter().enumerate() {
        assert_eq!(
            message_multiset(&sink.events),
            reference,
            "topic {t} diverged from the simulator"
        );
    }
}

#[test]
fn run_queue_depth_is_bounded_by_the_rank_count_not_by_the_admissions() {
    // An admission sweeps only ranks no pending sweep covers, and a
    // wake-up adds no entry to a rank that has one unclaimed, so
    // however many broadcasts are admitted the queue holds at most two
    // ranks' worth per rank. (When every admission enqueued every rank,
    // 48 admissions at k = 16 left the queue thousands deep.)
    let p = 256u32;
    let hub = Arc::new(TelemetryHub::new(2, p as usize));
    let cfg = ClusterConfig::new()
        .threads(2)
        .timeout(Duration::from_secs(60))
        .telemetry(Arc::clone(&hub));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let deepest = |hub: &TelemetryHub| {
        hub.snapshot().histograms["sched.runq_depth"]
            .max()
            .expect("workers claimed batches")
    };

    // The work-bound shape of the repo benchmark: 16 checked/overlapped
    // topics rooted all over the ring, all in flight at once.
    let spec = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
    let mut table = TopicTable::new();
    for t in 0..16u32 {
        let topic = Topic::new(format!("topic-{t}"), spec.with_root(t * 97 % p), p, 40);
        table.push(topic);
    }
    let report = cluster
        .run_pubsub(&table, &PubsubOptions { k: 16, rounds: 3 })
        .expect("multiplexed run");
    assert!(report.completed(), "{report:?}");
    assert_eq!(report.outcomes.len(), 48);
    assert!(deepest(&hub) <= 2 * u64::from(p), "depth {}", deepest(&hub));

    // Back-to-back single broadcasts install into the same queue.
    let dead = vec![false; p as usize];
    for seed in 0..40 {
        let report = cluster
            .run_broadcast(&spec, &dead, seed)
            .expect("broadcast");
        assert!(report.completed, "seed {seed}: {:?}", report.uncolored);
    }
    assert!(deepest(&hub) <= 2 * u64::from(p), "depth {}", deepest(&hub));
}

#[test]
fn a_stranded_topic_retires_with_the_watchdogs_evidence() {
    // Two plain-binomial topics in flight together; the one with rank
    // 1 dead orphans ranks 3, 5 and 7 and only its deadline retires it.
    let p = 8u32;
    let cfg = ClusterConfig::new().timeout(Duration::from_millis(300));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let mut dead = vec![false; p as usize];
    dead[1] = true;
    let mut table = TopicTable::new();
    table.push(Topic::new("healthy", spec, p, 1));
    table.push(Topic::new("stranded", spec, p, 2).with_dead(dead));
    let report = cluster
        .run_pubsub(&table, &PubsubOptions { k: 2, rounds: 1 })
        .expect("pub/sub run");

    let healthy = &report.outcomes[0];
    assert!(healthy.completed, "{healthy:?}");
    assert_eq!(healthy.messages, u64::from(p) - 1);
    assert!(healthy.stall.is_none());

    let stranded = &report.outcomes[1];
    assert!(!stranded.completed);
    assert_eq!(stranded.uncolored, vec![3, 5, 7]);
    let stall = stranded.stall.as_ref().expect("a deadline retirement");
    assert_eq!(stall.stranded(), stranded.uncolored);
    assert_eq!(stall.id, stranded.id);
    for r in &stall.ranks {
        assert!(r.last_poll_us.is_some(), "rank {} never polled", r.rank);
    }
}

#[test]
fn only_the_stalled_topic_carries_the_flight_recorders_dump() {
    // The stranded topic of the test above between two healthy ones,
    // in a window of two, with a flight recorder attached: its deadline
    // retirement captures the dump, into its own outcome only.
    let p = 8u32;
    let cfg = ClusterConfig::new()
        .timeout(Duration::from_millis(300))
        .flight(1024);
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let mut dead = vec![false; p as usize];
    dead[1] = true;
    let mut table = TopicTable::new();
    table.push(Topic::new("healthy", spec, p, 1));
    table.push(Topic::new("stranded", spec, p, 2).with_dead(dead));
    table.push(Topic::new("late", spec, p, 3));
    let report = cluster
        .run_pubsub(&table, &PubsubOptions { k: 2, rounds: 1 })
        .expect("pub/sub run");

    for o in [&report.outcomes[0], &report.outcomes[2]] {
        assert!(o.completed, "{o:?}");
        assert!(o.stall.is_none() && o.postmortem.is_none(), "{o:?}");
    }
    let stranded = &report.outcomes[1];
    assert!(!stranded.completed);
    let stall = stranded.stall.as_ref().expect("a deadline retirement");
    let pm = stranded.postmortem.as_ref().expect("the recorder's dump");
    assert_eq!(pm.reason, "watchdog_stall");
    assert_eq!(pm.stall.as_ref().map(|s| s.id), Some(stall.id));
    assert!(pm.flight.total_written() > 0);
}

#[test]
fn a_single_broadcast_is_a_one_slot_admission() {
    // The single broadcast and a one-topic pub/sub run go through the
    // same coordinator; on a fault-free plain tree both see the whole
    // broadcast, and only the retirement rule and the id stamp differ.
    let p = 64u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let mut cluster = Cluster::new(p, LogP::PAPER);

    let mut solo = VecSink::new();
    let report = cluster
        .run_broadcast_observed(&spec, &vec![false; p as usize], 5, &mut solo)
        .expect("single broadcast");
    assert!(report.completed);
    assert_eq!(report.messages, u64::from(p) - 1);
    assert!(report.uncolored.is_empty());
    assert!(solo.events.iter().all(|e| e.bcast().is_none()));

    let mut table = TopicTable::new();
    table.push(Topic::new("one", spec, p, 5));
    let mut slot = VecSink::new();
    let pubsub = {
        let mut refs: Vec<&mut dyn corrected_trees::obs::EventSink> = vec![&mut slot];
        cluster
            .run_pubsub_observed(&table, &PubsubOptions { k: 1, rounds: 1 }, &mut refs)
            .expect("one-topic pub/sub run")
    };
    let outcome = &pubsub.outcomes[0];
    assert!(outcome.completed);
    assert_eq!(outcome.messages, u64::from(p) - 1);
    assert!(outcome.uncolored.is_empty());
    assert!(slot.events.iter().all(|e| e.bcast() == Some(outcome.id)));

    assert_eq!(canonical(&solo.events), canonical(&slot.events));
}

#[test]
fn a_recorded_topic_trace_agrees_with_its_outcome() {
    // A pub/sub broadcast retires at quiescence, and a quantum's events
    // reach its broadcast's buffer before the ledger post that carries
    // its counts: so a completed broadcast's trace holds every message
    // its outcome counts, each once, on two workers too.
    let p = 128u32;
    let cfg = ClusterConfig::new().threads(2);
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let spec = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
    let mut table = TopicTable::new();
    for t in 0..4u32 {
        let root = t * 37;
        // Two dead ranks per topic, never its root.
        let mut dead = vec![false; p as usize];
        for offset in [3 + t, 70 + 5 * t] {
            dead[((root + offset) % p) as usize] = true;
        }
        let topic = Topic::new(format!("checked-r{root}"), spec.with_root(root), p, 60);
        table.push(topic.with_dead(dead));
    }
    let mut sinks: Vec<VecSink> = (0..table.len()).map(|_| VecSink::new()).collect();
    let report = {
        let mut refs: Vec<&mut dyn corrected_trees::obs::EventSink> = sinks
            .iter_mut()
            .map(|s| s as &mut dyn corrected_trees::obs::EventSink)
            .collect();
        cluster
            .run_pubsub_observed(&table, &PubsubOptions { k: 4, rounds: 2 }, &mut refs)
            .expect("pub/sub run")
    };
    assert_eq!(report.outcomes.len(), 8);
    for (t, sink) in sinks.iter().enumerate() {
        let ids: Vec<u64> = report
            .outcomes
            .iter()
            .filter(|o| o.topic == t)
            .map(|o| o.id)
            .collect();
        for e in &sink.events {
            let id = e.bcast().expect("every event carries its broadcast id");
            assert!(ids.contains(&id), "topic {t}: {e:?}");
        }
    }
    let completed: Vec<_> = report.outcomes.iter().filter(|o| o.completed).collect();
    assert!(!completed.is_empty(), "{:?}", report.outcomes);
    for o in completed {
        let dead = &table.get(o.topic).expect("its topic").dead;
        let (mut sends, mut arrivals, mut drops, mut deliveries) = (0u64, 0u64, 0u64, 0u64);
        let mut colored = Vec::new();
        let events = sinks[o.topic].events.iter();
        for e in events.filter(|e| e.bcast() == Some(o.id)) {
            match e.kind {
                EventKind::SendStart { .. } => sends += 1,
                EventKind::Arrive { .. } => arrivals += 1,
                EventKind::DropDead { .. } => drops += 1,
                EventKind::Deliver { .. } => deliveries += 1,
                EventKind::Colored { rank, .. } => colored.push(rank),
                _ => {}
            }
        }
        let label = format!("topic {} round {}", o.topic, o.round);
        assert_eq!(sends, o.messages, "{label}: sends");
        assert_eq!(arrivals + drops, o.messages, "{label}: arrivals and drops");
        assert_eq!(deliveries, arrivals, "{label}: deliveries");
        colored.sort_unstable();
        let live: Vec<u32> = (0..p).filter(|&r| !dead[r as usize]).collect();
        assert_eq!(colored, live, "{label}: one coloring per live rank");
    }
}
