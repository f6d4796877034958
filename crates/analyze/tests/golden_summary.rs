//! Golden analysis-summary regression: analyzing the simulator's
//! checked-in golden trace must keep producing a byte-for-byte stable
//! summary JSON. Guards the whole pipeline end to end — JSONL parsing,
//! DAG reconstruction, critical-path extraction, aggregation and the
//! summary's stable field order.
//!
//! To regenerate after an *intentional* change, run
//! `CT_REGEN_GOLDEN=1 cargo test -p ct-analyze --test golden_summary`
//! and review the diff. If `ct-sim`'s golden trace itself changed,
//! regenerate that one first.

use ct_analyze::{analyze_rep, parse_jsonl, AnalysisSummary, AnalyzeConfig};
use ct_logp::LogP;

// The simulator's golden trace: P = 4, binomial/interleaved with
// opportunistic-optimized (d = 2) correction, rank 2 dead, seed 1,
// paper parameters. Overlapped mode, so no Lemma-3 bounds apply.
const GOLDEN_TRACE: &str = include_str!("../../sim/tests/data/golden_p4.jsonl");
const GOLDEN_SUMMARY_PATH: &str = "tests/data/golden_p4_summary.json";
const GOLDEN_SUMMARY: &str = include_str!("data/golden_p4_summary.json");

fn summarize() -> AnalysisSummary {
    let events = parse_jsonl(GOLDEN_TRACE).expect("golden trace parses");
    let rep = analyze_rep(&events, &AnalyzeConfig::new(LogP::PAPER));
    AnalysisSummary::from_reps(&[rep])
}

#[test]
fn golden_summary_is_byte_for_byte_stable() {
    let json = summarize().to_json() + "\n";
    if std::env::var_os("CT_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_SUMMARY_PATH, &json).expect("write golden summary");
        return;
    }
    assert_eq!(
        json, GOLDEN_SUMMARY,
        "analysis summary diverged from the golden file; if intentional, \
         regenerate with CT_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_summary_is_internally_consistent() {
    let s = summarize();
    assert_eq!(s.p, 4);
    assert_eq!(s.reps, 1);
    // Cost fractions partition the critical path.
    let total = s.cost_fracs.0 + s.cost_fracs.1 + s.cost_fracs.2;
    assert!((total - 1.0).abs() < 1e-9, "cost fracs sum to {total}");
    // Rank 2 is dead, so the correction phase must have run.
    assert!(s.messages.correction > 0);
    // Overlapped mode: no synchronized correction, no bounds.
    assert_eq!(s.bounds.0, 0);
}
