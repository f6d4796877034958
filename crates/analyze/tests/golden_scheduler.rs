//! Golden scheduler-summary regression: a deterministic telemetry
//! snapshot must keep rendering byte-for-byte stable JSON and summary
//! text. Guards the `ct-telemetry-v1` snapshot format and the
//! `ct analyze --view scheduler` rendering end to end.
//!
//! To regenerate after an *intentional* change, run
//! `CT_REGEN_GOLDEN=1 cargo test -p ct-analyze --test golden_scheduler`
//! and review the diff.

use ct_analyze::scheduler::render_text;
use ct_obs::telemetry::{Counter, Dist, TelemetryHub, TelemetrySnapshot};

const GOLDEN_SNAPSHOT_PATH: &str = "tests/data/golden_telemetry.json";
const GOLDEN_SNAPSHOT: &str = include_str!("data/golden_telemetry.json");
const GOLDEN_TEXT_PATH: &str = "tests/data/golden_scheduler_summary.txt";
const GOLDEN_TEXT: &str = include_str!("data/golden_scheduler_summary.txt");

/// A fixed two-worker hub exercising every counter family the cluster
/// and sim producers feed, with values spread across both shards.
fn golden_snapshot_json() -> String {
    let hub = TelemetryHub::new(2, 8);
    for w in 0..2usize {
        let n = (w as u64) + 1;
        hub.add(w, Counter::SchedQuanta, 4 * n);
        hub.add(w, Counter::SchedStaleQuanta, n - 1);
        hub.add(w, Counter::SchedBatches, n);
        hub.add(w, Counter::SchedRechecks, n - 1);
        hub.add(w, Counter::SchedWakes, 2 * n);
        hub.add(w, Counter::SchedBusyUs, 100 * n);
        hub.add(w, Counter::MsgsSent, 3 * n);
        hub.add(w, Counter::MsgsDelivered, 3 * n);
        hub.add(w, Counter::MsgsStaleDropped, n - 1);
        hub.add(w, Counter::MailboxPushes, 3 * n);
        hub.add(w, Counter::MailboxSpills, n - 1);
        hub.add(w, Counter::TimerArms, n);
        hub.add(w, Counter::TimerFires, n);
        hub.add(w, Counter::CoordBatches, n);
        hub.add(w, Counter::CoordColored, 4 * n);
        hub.observe(w, Dist::QuantumUs, 10 * n);
        hub.observe(w, Dist::BatchSize, 4);
        hub.observe(w, Dist::RunqDepth, 8 - w as u64);
        hub.observe(w, Dist::MailboxDrained, n);
        hub.observe(w, Dist::CoordBatchSize, 4 * n);
    }
    hub.mailbox_depth(3, 2);
    hub.mailbox_depth(5, 1);
    hub.set_runq_depth(1);
    hub.set_timers_pending(2);
    hub.record_sim_rep(100, 30, 40, true);
    hub.record_sim_rep(140, 34, 52, false);
    hub.snapshot().with_source("cluster").to_json() + "\n"
}

fn regen() -> bool {
    std::env::var_os("CT_REGEN_GOLDEN").is_some()
}

#[test]
fn golden_snapshot_is_byte_for_byte_stable() {
    let json = golden_snapshot_json();
    if regen() {
        std::fs::write(GOLDEN_SNAPSHOT_PATH, &json).expect("write golden snapshot");
        return;
    }
    assert_eq!(
        json, GOLDEN_SNAPSHOT,
        "telemetry snapshot diverged from the golden file; if intentional, \
         regenerate with CT_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_summary_text_is_byte_for_byte_stable() {
    // Under regen the checked-in snapshot may be stale (or empty on
    // first generation) — render from the freshly built snapshot.
    let json = if regen() {
        golden_snapshot_json()
    } else {
        GOLDEN_SNAPSHOT.to_owned()
    };
    let snap = TelemetrySnapshot::from_json(&json).expect("golden snapshot parses");
    let text = render_text(&snap);
    if regen() {
        std::fs::write(GOLDEN_TEXT_PATH, &text).expect("write golden summary text");
        return;
    }
    assert_eq!(
        text, GOLDEN_TEXT,
        "scheduler summary diverged from the golden file; if intentional, \
         regenerate with CT_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_summary_is_internally_consistent() {
    let s = TelemetrySnapshot::from_json(GOLDEN_SNAPSHOT).unwrap();
    assert_eq!(s.source, "cluster");
    assert_eq!(s.workers, 2);
    assert_eq!(s.ranks, 8);
    // Shard sums: 4·1 + 4·2 quanta, one stale from shard 1.
    assert_eq!(s.counter("sched.quanta"), 12);
    assert_eq!(s.counter("sched.stale_quanta"), 1);
    assert_eq!(s.counter("sim.reps"), 2);
    assert_eq!(s.counter("sim.incomplete"), 1);
    assert_eq!(s.gauges["mailbox.hwm"], 2);
    assert_eq!(s.gauges["runq.depth"], 1);
    let h = s.histograms.get("sched.quantum_us").unwrap();
    assert_eq!(h.count(), 2);
    assert_eq!(h.sum(), 30);
    let text = render_text(&s);
    assert!(text.contains("quanta: 12 (1 stale)"), "{text}");
    assert!(text.contains("sim: reps 2 (1 incomplete)"), "{text}");
}
