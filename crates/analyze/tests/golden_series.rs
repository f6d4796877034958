//! Golden time-series regression: a deterministic `ct-series-v1`
//! export must keep rendering byte-for-byte stable JSONL and summary
//! text. Guards the sampler's JSONL layout and the
//! `ct analyze --view series` rendering end to end — health lines
//! included, so a forced `stall_precursor` episode stays pinned too.
//!
//! To regenerate after an *intentional* change, run
//! `CT_REGEN_GOLDEN=1 cargo test -p ct-analyze --test golden_series`
//! and review the diff.

use ct_analyze::series::render_text;
use ct_obs::series::{SeriesExport, SeriesStore};
use ct_obs::telemetry::{Counter, TelemetryHub};

const GOLDEN_JSONL_PATH: &str = "tests/data/golden_series.jsonl";
const GOLDEN_JSONL: &str = include_str!("data/golden_series.jsonl");
const GOLDEN_TEXT_PATH: &str = "tests/data/golden_series_summary.txt";
const GOLDEN_TEXT: &str = include_str!("data/golden_series_summary.txt");

/// A fixed six-window export built through the real producer step —
/// hub snapshots into [`SeriesStore::sample`] — with synthetic 100 ms
/// timestamps. The first two windows make
/// progress; an iteration then wedges at 4/7 colored, so the stall
/// rule's three-window streak fires in window five.
fn golden_export() -> String {
    let hub = TelemetryHub::new(2, 8);
    let store = SeriesStore::new(16);
    hub.set_iter_active(1);
    store.sample(hub.snapshot().with_source("cluster"), 0);
    for seq in 0..6u64 {
        match seq {
            // Two healthy windows: deliveries flow, coloring advances.
            0 | 1 => {
                hub.add(0, Counter::SchedQuanta, 40);
                hub.add(1, Counter::SchedQuanta, 38);
                hub.add(0, Counter::SchedBusyUs, 900);
                hub.add(1, Counter::SchedBusyUs, 880);
                hub.add(0, Counter::MsgsDelivered, 12);
                hub.add(0, Counter::MailboxPushes, 12);
                hub.add(1, Counter::CoordColored, 2 + seq);
                hub.set_iter_progress(7, 2 + 3 * seq);
            }
            // Then the wedge: no deliveries, no coloring, 4/7 stuck.
            _ => {
                hub.add(0, Counter::SchedQuanta, 5);
                hub.set_iter_progress(7, 4);
            }
        }
        store.sample(hub.snapshot().with_source("cluster"), (seq + 1) * 100);
    }
    store.export_jsonl()
}

fn regen() -> bool {
    std::env::var_os("CT_REGEN_GOLDEN").is_some()
}

#[test]
fn golden_export_is_byte_for_byte_stable() {
    let jsonl = golden_export();
    if regen() {
        std::fs::write(GOLDEN_JSONL_PATH, &jsonl).expect("write golden series export");
        return;
    }
    assert_eq!(
        jsonl, GOLDEN_JSONL,
        "series export diverged from the golden file; if intentional, \
         regenerate with CT_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_summary_text_is_byte_for_byte_stable() {
    // Under regen the checked-in export may be stale (or empty on
    // first generation) — render from the freshly built export.
    let jsonl = if regen() {
        golden_export()
    } else {
        GOLDEN_JSONL.to_owned()
    };
    let export = SeriesExport::from_jsonl(&jsonl).expect("golden export parses");
    let text = render_text(&export);
    if regen() {
        std::fs::write(GOLDEN_TEXT_PATH, &text).expect("write golden series summary");
        return;
    }
    assert_eq!(
        text, GOLDEN_TEXT,
        "series summary diverged from the golden file; if intentional, \
         regenerate with CT_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_export_is_internally_consistent() {
    if regen() {
        // The compiled-in export may be stale mid-regen; the next
        // plain run checks the regenerated one.
        return;
    }
    let s = SeriesExport::from_jsonl(GOLDEN_JSONL).unwrap();
    assert!(s.samples.iter().all(|w| w.source == "cluster"));
    assert_eq!(s.samples.len(), 6);
    let total = |name| s.samples.iter().map(|w| w.delta(name)).sum::<u64>();
    assert_eq!(s.samples.iter().map(|w| w.dt_ms).sum::<u64>(), 600);
    assert_eq!(total("sched.quanta"), 176);
    assert_eq!(total("msgs.delivered"), 24);
    // The wedge: three zero-progress windows with an active iteration
    // fire exactly one critical stall precursor, in window five.
    assert_eq!(s.health.len(), 1);
    let e = &s.health[0];
    assert_eq!(e.rule, "stall_precursor");
    assert_eq!(e.seq, 4);
    assert_eq!(e.t_ms, 500);
    let text = render_text(&s);
    assert!(text.contains("1 critical"), "{text}");
    assert!(text.contains("stall_precursor"), "{text}");
}
