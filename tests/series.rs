//! Continuous-sampler contract tests of the cluster runtime.
//!
//! Three guarantees: attaching the background sampler never perturbs
//! what a cluster run computes; a forced cluster stall fires the
//! `stall_precursor` health rule strictly before the watchdog expires,
//! and the event shows up in all three places it is promised —
//! `BroadcastOutcome::health`, the `ct-series-v1` JSONL export and the
//! `ct-postmortem-v1` dump; and the series ring retains exactly the
//! newest `min(cap, pushed)` windows for any push sequence.

use std::sync::Arc;
use std::time::Duration;

use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::LogP;
use corrected_trees::obs::health::Severity;
use corrected_trees::obs::series::{SeriesRing, SeriesSample};
use corrected_trees::obs::telemetry::TelemetryHub;
use corrected_trees::runtime::{Cluster, ClusterConfig};
use proptest::prelude::*;

/// Cluster purity: sampling changes nothing about the protocol result.
#[test]
fn cluster_results_are_identical_with_sampler_attached() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let dead = vec![false; p as usize];

    let mut plain = Cluster::with_config(p, LogP::PAPER, ClusterConfig::new().threads(2));
    let plain_report = plain.run_broadcast(&spec, &dead, 7).unwrap();

    let hub = Arc::new(TelemetryHub::new(2, p as usize));
    let cfg = ClusterConfig::new()
        .threads(2)
        .telemetry(Arc::clone(&hub))
        .sample(Duration::from_millis(5));
    let mut observed = Cluster::with_config(p, LogP::PAPER, cfg);
    let obs_report = observed.run_broadcast(&spec, &dead, 7).unwrap();

    assert!(plain_report.completed && obs_report.completed);
    assert_eq!(plain_report.messages, obs_report.messages);
    assert_eq!(plain_report.uncolored, obs_report.uncolored);
    assert!(plain_report.health.is_empty());
    assert!(obs_report.health.is_empty(), "{:?}", obs_report.health);
    // Sampling off means no store; on means the store saw the run.
    assert!(plain.series().is_none());
    let store = observed.series().expect("sampler attached");
    // Give the 5 ms sampler one more window, then check it sampled.
    std::thread::sleep(Duration::from_millis(30));
    assert!(!store.samples().is_empty());
}

/// The acceptance scenario: a plain (correction-free) binomial
/// broadcast with rank 1 dead strands ranks {3, 5, 7}. The
/// `stall_precursor` rule must fire strictly before the watchdog
/// expires and the event must land in the run report, the series
/// export and the postmortem dump.
#[test]
fn forced_stall_fires_precursor_before_watchdog_everywhere() {
    let p = 8u32;
    let watchdog_ms = 1_500u64;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let mut dead = vec![false; p as usize];
    dead[1] = true;

    let hub = Arc::new(TelemetryHub::new(2, p as usize));
    let cfg = ClusterConfig::new()
        .threads(2)
        .telemetry(Arc::clone(&hub))
        .sample(Duration::from_millis(30))
        .timeout(Duration::from_millis(watchdog_ms))
        .flight(1024);
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&spec, &dead, 7).unwrap();

    assert!(!report.completed);
    assert_eq!(report.uncolored, vec![3, 5, 7]);

    // 1. The run report carries the precursor, fired strictly before
    //    the watchdog expired. The sampler clock starts at cluster
    //    construction — before the run — so t_ms < watchdog_ms proves
    //    the event predates the expiry.
    let precursor = report
        .health
        .iter()
        .find(|e| e.rule == "stall_precursor")
        .expect("stall precursor fired");
    assert_eq!(precursor.severity, Severity::Critical);
    assert!(
        precursor.t_ms < watchdog_ms,
        "precursor at {} ms, watchdog at {} ms",
        precursor.t_ms,
        watchdog_ms
    );
    assert!(precursor.message.contains("before the watchdog"));

    // 2. The series export carries it as an interleaved health line.
    let store = cluster.series().expect("sampler attached");
    let jsonl = store.export_jsonl();
    let health_line = jsonl
        .lines()
        .find(|l| l.contains("\"kind\":\"health\"") && l.contains("\"rule\":\"stall_precursor\""))
        .expect("series export carries the precursor");
    assert!(health_line.starts_with("{\"schema\":\"ct-series-v1\""));

    // 3. The postmortem dump's precursor timeline carries it too.
    let pm = report.postmortem.as_ref().expect("flight recorder dumped");
    assert!(pm.health.iter().any(|e| e.rule == "stall_precursor"));
    assert!(pm.to_json().contains("\"rule\":\"stall_precursor\""));
}

/// Windows stamped 1..=n so retention is checkable by timestamp.
fn window(i: u64) -> SeriesSample {
    let hub = TelemetryHub::new(1, 1);
    let snap = hub.snapshot();
    SeriesSample::between(&snap, &snap, i, i, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any capacity and push count, the ring retains exactly the
    /// newest `min(cap, pushed)` windows in order and reports the rest
    /// as dropped.
    #[test]
    fn ring_wrap_retains_newest(cap in 1usize..40, pushed in 0u64..120) {
        let mut ring = SeriesRing::new(cap);
        for i in 0..pushed {
            ring.push(window(i));
        }
        let kept = ring.samples().map(|s| s.seq).collect::<Vec<u64>>();
        let expect_len = (pushed as usize).min(cap);
        prop_assert_eq!(kept.len(), expect_len);
        let first = pushed - expect_len as u64;
        prop_assert_eq!(kept, (first..pushed).collect::<Vec<u64>>());
        prop_assert_eq!(ring.dropped(), pushed.saturating_sub(cap as u64));
    }
}
