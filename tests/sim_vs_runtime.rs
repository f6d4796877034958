//! The two drivers — LogP simulator and thread cluster — run the same
//! protocol state machines. These tests pin down that shared-semantics
//! contract at two levels: aggregate (identical coloring outcomes and
//! tree message counts, correction healing the same fault patterns) and
//! event-level (both drivers emit the same `ct-obs` event schema, and
//! for deterministic protocols the same multiset of protocol events).

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::{BroadcastSpec, Payload};
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::LogP;
use corrected_trees::obs::{Event, EventKind, MonitorConfig, MonitorSink, VecSink};
use corrected_trees::runtime::{Cluster, ClusterConfig};
use corrected_trees::sim::{FaultPlan, RunArena, Simulation};

#[test]
fn plain_tree_message_counts_agree() {
    let p = 64u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let sim_out = Simulation::builder(p, LogP::PAPER)
        .build()
        .run(&spec)
        .unwrap();
    let mut cluster = Cluster::new(p, LogP::PAPER);
    let report = cluster
        .run_broadcast(&spec, &vec![false; p as usize], 0)
        .unwrap();
    assert!(report.completed);
    // Dissemination is deterministic and runs to completion on both
    // drivers: exactly P - 1 messages.
    assert_eq!(sim_out.messages.total(), 63);
    assert_eq!(report.messages, 63);
}

#[test]
fn both_drivers_heal_the_same_fault_pattern() {
    let p = 128u32;
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::LAME2,
        CorrectionKind::OpportunisticOptimized { distance: 4 },
    );
    let dead_ranks = [3u32, 64, 65, 100];
    let plan = FaultPlan::from_ranks(p, &dead_ranks).unwrap();
    let sim_out = Simulation::builder(p, LogP::PAPER)
        .faults(plan)
        .build()
        .run(&spec)
        .unwrap();
    assert!(sim_out.all_live_colored(), "{:?}", sim_out.uncolored_live());

    let mut dead = vec![false; p as usize];
    for &r in &dead_ranks {
        dead[r as usize] = true;
    }
    let mut cluster = Cluster::new(p, LogP::PAPER);
    let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();
    assert!(
        report.completed,
        "cluster uncolored: {:?}",
        report.uncolored
    );
    assert!(report.uncolored.is_empty());
}

#[test]
fn plain_tree_leaves_identical_orphans_on_both_drivers() {
    let p = 32u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let plan = FaultPlan::from_ranks(p, &[2]).unwrap();
    let sim_out = Simulation::builder(p, LogP::PAPER)
        .faults(plan)
        .build()
        .run(&spec)
        .unwrap();

    let mut dead = vec![false; p as usize];
    dead[2] = true;
    let cfg = ClusterConfig::new().timeout(std::time::Duration::from_millis(300));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();
    assert!(!report.completed);
    assert_eq!(sim_out.uncolored_live(), report.uncolored);
}

/// The timing-independent core of an event: kind tag + endpoints +
/// payload. Two correct drivers of a deterministic protocol must agree
/// on the multiset of these.
fn event_key(e: &Event) -> Option<(&'static str, u32, u32, Payload)> {
    match e.kind {
        EventKind::SendStart { from, to, payload } => Some(("send", from, to, payload)),
        EventKind::Arrive { from, to, payload } => Some(("arrive", from, to, payload)),
        EventKind::Deliver { from, to, payload } => Some(("deliver", from, to, payload)),
        _ => None,
    }
}

fn message_multiset(events: &[Event]) -> Vec<(&'static str, u32, u32, Payload)> {
    let mut keys: Vec<_> = events.iter().filter_map(event_key).collect();
    keys.sort_by_key(|&(tag, from, to, p)| (tag, from, to, format!("{p:?}")));
    keys
}

#[test]
fn event_streams_agree_for_deterministic_dissemination() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);

    let mut sim_sink = VecSink::new();
    Simulation::builder(p, LogP::PAPER)
        .build()
        .run_with_sink_reusable(&spec, &mut sim_sink, &mut RunArena::new())
        .unwrap();

    let mut cluster_sink = VecSink::new();
    let mut cluster = Cluster::new(p, LogP::PAPER);
    let report = cluster
        .run_broadcast_observed(&spec, &vec![false; p as usize], 0, &mut cluster_sink)
        .unwrap();
    assert!(report.completed);

    // Same protocol, same fault-free world: identical multisets of
    // send/arrive/deliver events (timing and interleaving differ).
    assert_eq!(
        message_multiset(&sim_sink.events),
        message_multiset(&cluster_sink.events)
    );

    // Both streams color the same ranks.
    let colored = |events: &[Event]| {
        let mut ranks: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Colored { rank, .. } => Some(rank),
                _ => None,
            })
            .collect();
        ranks.sort_unstable();
        ranks
    };
    assert_eq!(colored(&sim_sink.events), (0..p).collect::<Vec<_>>());
    assert_eq!(colored(&sim_sink.events), colored(&cluster_sink.events));
}

#[test]
fn event_schemas_are_identical_across_drivers() {
    let p = 4u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);

    let mut sim_sink = VecSink::new();
    Simulation::builder(p, LogP::PAPER)
        .build()
        .run_with_sink_reusable(&spec, &mut sim_sink, &mut RunArena::new())
        .unwrap();
    let mut cluster_sink = VecSink::new();
    let mut cluster = Cluster::new(p, LogP::PAPER);
    cluster
        .run_broadcast_observed(&spec, &vec![false; p as usize], 0, &mut cluster_sink)
        .unwrap();

    // JSONL field shape: strip the timestamps and the two streams use
    // exactly the same fields and values per event kind. (The cluster
    // stream additionally carries a `"w"` wall-clock field.)
    let shape = |events: &[Event]| {
        let mut lines: Vec<String> = events
            .iter()
            .filter(|e| event_key(e).is_some() || matches!(e.kind, EventKind::Colored { .. }))
            .map(|e| Event::sim(corrected_trees::logp::Time::ZERO, e.kind).to_json())
            .collect();
        lines.sort();
        lines
    };
    assert_eq!(shape(&sim_sink.events), shape(&cluster_sink.events));

    // Wall-clock stamping: never on simulator events, always on cluster
    // protocol events.
    assert!(sim_sink.events.iter().all(|e| e.wall_us().is_none()));
    assert!(cluster_sink.events.iter().all(|e| e.wall_us().is_some()));
}

#[test]
fn cluster_records_drops_at_dead_ranks() {
    let p = 8u32;
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 2 },
    );
    let mut dead = vec![false; p as usize];
    dead[3] = true;
    let mut sink = VecSink::new();
    let mut cluster = Cluster::new(p, LogP::PAPER);
    let report = cluster
        .run_broadcast_observed(&spec, &dead, 0, &mut sink)
        .unwrap();
    assert!(report.completed, "uncolored: {:?}", report.uncolored);
    // Dead rank 3 records drops (its parent still sends to it), and
    // every drop names rank 3 as the receiver.
    let drops: Vec<_> = sink
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::DropDead { to, .. } => Some(to),
            _ => None,
        })
        .collect();
    assert!(!drops.is_empty());
    assert!(drops.iter().all(|&to| to == 3));
}

#[test]
fn invariant_monitor_accepts_both_drivers() {
    // The same monitor validates both event streams: the simulator's
    // stream with full LogP timing checks, the cluster's wall-stamped
    // stream with the timing checks automatically relaxed. Zero
    // violations on either is the "identical semantics" contract in
    // executable form.
    let p = 32u32;
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::LAME2,
        CorrectionKind::OpportunisticOptimized { distance: 4 },
    );
    let dead_ranks = [5u32, 17];
    let mut dead = vec![false; p as usize];
    for &r in &dead_ranks {
        dead[r as usize] = true;
    }

    let mut sim_monitor = MonitorSink::new(
        MonitorConfig::new()
            .with_p(p)
            .with_logp(LogP::PAPER)
            .with_failed(dead.clone()),
    );
    let plan = FaultPlan::from_ranks(p, &dead_ranks).unwrap();
    Simulation::builder(p, LogP::PAPER)
        .faults(plan)
        .build()
        .run_with_sink_reusable(&spec, &mut sim_monitor, &mut RunArena::new())
        .unwrap();
    let sim_report = sim_monitor.finish();
    assert!(sim_report.is_ok(), "sim: {}", sim_report.render_text());
    assert!(sim_report.events > 0);

    let mut cluster_monitor = MonitorSink::new(
        MonitorConfig::new()
            .with_p(p)
            .with_logp(LogP::PAPER)
            .with_failed(dead.clone()),
    );
    let mut cluster = Cluster::new(p, LogP::PAPER);
    let report = cluster
        .run_broadcast_observed(&spec, &dead, 0, &mut cluster_monitor)
        .unwrap();
    assert!(report.completed, "uncolored: {:?}", report.uncolored);
    let cluster_report = cluster_monitor.finish();
    assert!(
        cluster_report.is_ok(),
        "cluster: {}",
        cluster_report.render_text()
    );
    assert!(cluster_report.events > 0);
}

#[test]
fn gossip_round_limited_completes_on_both_drivers() {
    let p = 64u32;
    let spec = corrected_trees::core::protocol::gossip::GossipSpec::round_limited(
        10,
        CorrectionKind::Opportunistic { distance: 4 },
    );
    let sim_out = Simulation::builder(p, LogP::PAPER)
        .seed(3)
        .build()
        .run(&spec)
        .unwrap();
    assert!(sim_out.all_live_colored(), "{:?}", sim_out.uncolored_live());

    let mut cluster = Cluster::new(p, LogP::PAPER);
    let report = cluster
        .run_broadcast(&spec, &vec![false; p as usize], 3)
        .unwrap();
    assert!(report.completed, "{:?}", report.uncolored);
}

/// Previously infeasible on the thread-per-rank cluster (P=512 meant
/// 512 OS threads): the M:N scheduler runs the same cross-driver
/// equality contract at paper-relevant scale.
#[test]
fn sim_and_cluster_agree_at_p512() {
    let p = 512u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let sim_out = Simulation::builder(p, LogP::PAPER)
        .build()
        .run(&spec)
        .unwrap();
    assert!(sim_out.all_live_colored());
    assert_eq!(sim_out.messages.total(), u64::from(p) - 1);

    let mut cluster = Cluster::new(p, LogP::PAPER);
    let report = cluster
        .run_broadcast(&spec, &vec![false; p as usize], 0)
        .unwrap();
    assert!(report.completed, "uncolored: {:?}", report.uncolored);
    assert_eq!(report.messages, u64::from(p) - 1);

    // And with faults + correction: both drivers heal the same plan.
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 4 },
    );
    let plan = FaultPlan::random_count_protecting(p, 5, 9, 0).unwrap();
    let sim_out = Simulation::builder(p, LogP::PAPER)
        .faults(plan.clone())
        .build()
        .run(&spec)
        .unwrap();
    assert!(sim_out.all_live_colored(), "{:?}", sim_out.uncolored_live());
    let report = cluster.run_broadcast(&spec, plan.mask(), 0).unwrap();
    assert!(report.completed, "uncolored: {:?}", report.uncolored);
}

/// Regression stress for the retired ~1-in-10 cluster watchdog flake:
/// under the old thread-per-rank design, P OS threads on an
/// oversubscribed machine could starve an iteration past its 30 s
/// watchdog roughly once per ten CI runs. The M:N pool removes the
/// oversubscription; 200 back-to-back iterations on two workers must
/// complete without a single timeout. `#[ignore]`d locally for being
/// slow-ish; CI's build-test job runs it explicitly with
/// `CT_THREADS=2`.
#[test]
#[ignore = "stress test; run explicitly (CI build-test does)"]
fn cluster_stress_200_iterations_two_workers() {
    use corrected_trees::runtime::ClusterConfig;
    let p = 64u32;
    let cfg = ClusterConfig::new().threads(2);
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 4 },
    );
    let mut dead = vec![false; p as usize];
    dead[7] = true;
    dead[40] = true;
    for i in 0..200u64 {
        let report = cluster.run_broadcast(&spec, &dead, i).unwrap();
        assert!(
            report.completed,
            "iteration {i} timed out, uncolored: {:?}",
            report.uncolored
        );
    }
}

/// The arena-reuse fast path is an optimization of the fresh-build
/// path, not a semantic change: for every variant and fault regime, a
/// single dirty arena threaded through back-to-back runs must replay
/// the exact event stream and outcome a fresh simulation produces.
#[test]
fn reused_arena_matches_fresh_build_across_variants_and_faults() {
    let p = 96u32;
    let specs: Vec<BroadcastSpec> = vec![
        BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked),
        BroadcastSpec::corrected_tree(
            TreeKind::LAME2,
            CorrectionKind::OpportunisticOptimized { distance: 4 },
        ),
        BroadcastSpec::corrected_tree(
            TreeKind::FOUR_ARY,
            CorrectionKind::Opportunistic { distance: 2 },
        ),
        BroadcastSpec::ack_tree(TreeKind::BINOMIAL),
    ];
    let plans = [
        FaultPlan::none(p),
        FaultPlan::random_count(p, 5, 11).unwrap(),
        FaultPlan::random_rate(p, 0.05, 7).unwrap(),
        FaultPlan::from_ranks(p, &[1, 2, 3, 50]).unwrap(),
    ];
    let mut arena = RunArena::new();
    for spec in &specs {
        for plan in &plans {
            let sim = || {
                Simulation::builder(p, LogP::PAPER)
                    .faults(plan.clone())
                    .seed(5)
                    .build()
            };
            let mut fresh_sink = VecSink::new();
            let fresh_out = sim()
                .run_with_sink_reusable(spec, &mut fresh_sink, &mut RunArena::new())
                .unwrap();
            let mut reused_sink = VecSink::new();
            let reused_out = sim()
                .run_with_sink_reusable(spec, &mut reused_sink, &mut arena)
                .unwrap();
            assert_eq!(
                fresh_sink.to_jsonl(),
                reused_sink.to_jsonl(),
                "event streams diverged for {spec:?}"
            );
            assert_eq!(fresh_out.quiescence, reused_out.quiescence);
            assert_eq!(fresh_out.events, reused_out.events);
            assert_eq!(fresh_out.messages.total(), reused_out.messages.total());
            assert_eq!(fresh_out.colored_at, reused_out.colored_at);
        }
    }
}

/// A multi-repetition campaign reuses one arena and the topology cache;
/// running each repetition as its own single-rep campaign rebuilds
/// everything from scratch. The records must be identical.
#[test]
fn campaign_records_identical_between_reused_and_fresh_paths() {
    use corrected_trees::exp::{Campaign, FaultSpec, Variant};
    let p = 128u32;
    let cases = [
        (
            Variant::tree_checked_sync(TreeKind::BINOMIAL),
            FaultSpec::Rate(0.03),
        ),
        (
            Variant::tree_opportunistic(TreeKind::LAME2, 4),
            FaultSpec::Count(3),
        ),
        (Variant::ack_tree(TreeKind::BINOMIAL), FaultSpec::None),
    ];
    for (variant, faults) in cases {
        let reps = 4u32;
        let seed0 = 21u64;
        let campaign = Campaign::new(variant, p, LogP::PAPER)
            .with_faults(faults.clone())
            .with_reps(reps)
            .with_seed(seed0);
        let reused = campaign.run(1).unwrap();
        let fresh: Vec<_> = (0..reps)
            .flat_map(|i| {
                Campaign::new(variant, p, LogP::PAPER)
                    .with_faults(faults.clone())
                    .with_reps(1)
                    .with_seed(seed0 + u64::from(i))
                    .run(1)
                    .unwrap()
            })
            .collect();
        assert_eq!(reused, fresh, "records diverged for {variant:?}");
    }
}
