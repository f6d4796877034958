//! The causal index at its edge: a stream naming a rank past the
//! configured process count. The monitor judges it as it always did,
//! the analyzer ignores the stray rank's busy time, and the index —
//! sized by the ranks the trace names, not by the configuration —
//! indexes it like any other.

use corrected_trees::analyze::{analyze_rep, parse_jsonl, AnalyzeConfig};
use corrected_trees::logp::LogP;
use corrected_trees::obs::{CausalIndex, MonitorConfig, MonitorSink};

/// The ct-sim golden trace: P = 4, rank 2 dead.
const GOLDEN_TRACE: &str = include_str!("../crates/sim/tests/data/golden_p4.jsonl");

/// Appended to it (events 34–39): rank 9 is sent to, colored and
/// delivers; then an unmatched delivery from 9 and an unmatched drop at
/// the live rank 9.
const PAST_P: &str = r#"{"t":30,"kind":"send","from":0,"to":9,"payload":"correction"}
{"t":33,"kind":"arrive","from":0,"to":9,"payload":"correction"}
{"t":34,"kind":"deliver","from":0,"to":9,"payload":"correction"}
{"t":34,"kind":"colored","rank":9,"via":"correction"}
{"t":35,"kind":"deliver","from":9,"to":3,"payload":"tree"}
{"t":36,"kind":"drop","from":3,"to":9,"payload":"ack"}
"#;

/// The monitor's report on that stream at P = 4, byte for byte: the
/// configured P bounds reliability, not what the checks can see.
const REPORT_AT_P4: &str = concat!(
    r#"{"violations":4,"events":40,"reps":1,"records":["#,
    r#"{"invariant":"deliver-unmatched","rep":0,"message":"delivery on channel 9->3 with no pending arrival","#,
    r#""event":{"t":35,"kind":"deliver","from":9,"to":3,"payload":"tree"},"witness":null},"#,
    r#"{"invariant":"deliver-once","rep":0,"message":"rank 3 delivered the tree payload twice","#,
    r#""event":{"t":35,"kind":"deliver","from":9,"to":3,"payload":"tree"},"#,
    r#""witness":{"t":8,"kind":"deliver","from":1,"to":3,"payload":"tree"}},"#,
    r#"{"invariant":"drop-dead-target","rep":0,"message":"drop at live rank 9","#,
    r#""event":{"t":36,"kind":"drop","from":3,"to":9,"payload":"ack"},"witness":null},"#,
    r#"{"invariant":"fifo-order","rep":0,"message":"wire event on 3->9 with no outstanding send","#,
    r#""event":{"t":36,"kind":"drop","from":3,"to":9,"payload":"ack"},"witness":null}]}"#,
);

fn stream() -> Vec<corrected_trees::obs::Event> {
    parse_jsonl(&format!("{GOLDEN_TRACE}{PAST_P}")).expect("valid trace")
}

#[test]
fn a_rank_past_the_configured_p_keeps_its_report() {
    let cfg = MonitorConfig::new()
        .with_logp(LogP::PAPER)
        .with_failed(vec![false, false, true, false]);
    let report = MonitorSink::check(&stream(), &cfg.clone().with_p(4));
    assert_eq!(report.to_json(), REPORT_AT_P4);
    // Inferred, P is 10: ranks 4–8 are live and never colored.
    let inferred = MonitorSink::check(&stream(), &cfg);
    let unreliable: Vec<&str> = inferred.violations[4..]
        .iter()
        .map(|v| v.message.as_str())
        .collect();
    assert_eq!(unreliable.len(), 5, "{}", inferred.render_text());
    assert_eq!(unreliable[0], "live rank 4 never colored");
    assert_eq!(unreliable[4], "live rank 8 never colored");
}

#[test]
fn a_rank_past_the_configured_p_is_analyzed_and_indexed() {
    let events = stream();
    let rep = analyze_rep(&events, &AnalyzeConfig::new(LogP::PAPER).with_p(4));
    assert_eq!((rep.p, rep.completion), (4, 35));
    assert_eq!(rep.utilization.busy, vec![8, 6, 0, 5]);

    let index = CausalIndex::build(&events);
    assert_eq!(index.p(), 10);
    assert_eq!(index.cause(35), Some(34));
    assert_eq!(index.cause(36), Some(35));
    assert_eq!(index.first_coloring(0, 9), Some(36));
    assert_eq!(index.first_colored(0, 9), Some(37));
    assert_eq!(index.cause(38), None);
    assert_eq!(index.cause(39), None);
    assert!(index.is_drop_target(9));
    assert_eq!(index.first_colored(0, 10), None);
}
