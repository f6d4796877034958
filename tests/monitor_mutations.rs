//! Mutation-based tests for the streaming invariant monitor: each test
//! corrupts the golden trace in one specific way and asserts the
//! monitor flags it with the *right* invariant id — a monitor that
//! merely errors somewhere would pass a weaker test and miss
//! misclassified diagnoses.
//!
//! The combined violation report over all mutation classes is itself a
//! golden file (`tests/data/golden_violations.json`): the diagnosis
//! text and JSON schema are part of the tool's contract. Regenerate
//! after an intentional change with
//! `CT_REGEN_GOLDEN=1 cargo test --test monitor_mutations`.

use corrected_trees::analyze::parse_jsonl;
use corrected_trees::core::protocol::Payload;
use corrected_trees::logp::{LogP, Time};
use corrected_trees::obs::{Event, EventKind, MonitorConfig, MonitorReport, MonitorSink};

/// The ct-sim golden trace: P = 4 interleaved binomial, optimized
/// opportunistic correction (d = 2), rank 2 dead, seed 1, LogP paper.
const GOLDEN_TRACE: &str = include_str!("../crates/sim/tests/data/golden_p4.jsonl");

const GOLDEN_VIOLATIONS_PATH: &str = "tests/data/golden_violations.json";
const GOLDEN_VIOLATIONS: &str = include_str!("data/golden_violations.json");

fn golden_events() -> Vec<Event> {
    parse_jsonl(GOLDEN_TRACE).expect("golden trace parses")
}

fn golden_cfg() -> MonitorConfig {
    MonitorConfig::new()
        .with_p(4)
        .with_logp(LogP::PAPER)
        .with_failed(vec![false, false, true, false])
}

fn check(events: &[Event]) -> MonitorReport {
    MonitorSink::check(events, &golden_cfg())
}

fn ids(report: &MonitorReport) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = report.violations.iter().map(|v| v.invariant.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

// ---------------------------------------------------------------------
// The mutations, one per corruption class.

/// Drop the first Arrive: its send never completes (wire-complete) and
/// its delivery has no pending arrival (deliver-unmatched).
fn mutate_drop_arrive(events: &mut Vec<Event>) {
    let i = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::Arrive { .. }))
        .expect("golden trace has arrivals");
    events.remove(i);
}

/// Swap the payloads of two sends on one channel: the arrivals now
/// come back in the wrong order for FIFO matching (fifo-order).
fn mutate_swap_channel_sends(events: &mut [Event]) {
    let mut sends: Vec<usize> = Vec::new();
    let mut channel = None;
    for (i, e) in events.iter().enumerate() {
        if let EventKind::SendStart { from, to, payload } = e.kind {
            match channel {
                None => {
                    channel = Some((from, to, payload));
                    sends.push(i);
                }
                Some((f, t, p)) if f == from && t == to && p != payload => {
                    sends.push(i);
                    break;
                }
                _ => {}
            }
        }
    }
    assert_eq!(
        sends.len(),
        2,
        "golden trace reuses a channel with a different payload"
    );
    let (a, b) = (sends[0], sends[1]);
    let pa = payload_of(&events[a]);
    let pb = payload_of(&events[b]);
    set_payload(&mut events[a], pb);
    set_payload(&mut events[b], pa);
}

fn payload_of(e: &Event) -> Payload {
    match e.kind {
        EventKind::SendStart { payload, .. } => payload,
        _ => unreachable!("only called on sends"),
    }
}

fn set_payload(e: &mut Event, p: Payload) {
    if let EventKind::SendStart { payload, .. } = &mut e.kind {
        *payload = p;
    }
}

/// Forge a SendStart from the dead rank 2 (dead-silent).
fn mutate_forged_dead_send(events: &mut Vec<Event>) {
    let t = events[1].time;
    events.insert(
        1,
        Event::sim(
            t,
            EventKind::SendStart {
                from: 2,
                to: 3,
                payload: Payload::Correction,
            },
        ),
    );
}

/// Duplicate the first Tree delivery (deliver-once).
fn mutate_double_deliver(events: &mut Vec<Event>) {
    let i = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::Deliver { payload, .. } if payload.colors()))
        .expect("golden trace has coloring deliveries");
    let dup = events[i];
    events.insert(i + 1, dup);
}

/// Remove a Colored event for a live rank (reliability).
fn mutate_drop_colored(events: &mut Vec<Event>) {
    let i = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::Colored { rank: 1, .. }))
        .expect("rank 1 gets colored");
    events.remove(i);
}

/// Rewind a mid-stream timestamp below its predecessor (time-monotone).
fn mutate_time_regression(events: &mut [Event]) {
    let i = events
        .iter()
        .position(|e| e.time > Time::new(2))
        .expect("golden trace advances past t=2");
    events[i].time = Time::ZERO;
}

fn mutated(mutation: fn(&mut Vec<Event>)) -> Vec<Event> {
    let mut events = golden_events();
    mutation(&mut events);
    events
}

/// A multiplexed stream: the golden broadcast run twice concurrently as
/// broadcasts 1 and 2, merged by timestamp the way the pub/sub layer's
/// per-topic streams would interleave on one cluster. Phase spans are
/// stripped so the monitor checks both broadcasts in a single
/// repetition buffer, keyed by id.
fn multiplexed_events() -> Vec<Event> {
    let mut merged: Vec<Event> = Vec::new();
    for b in [1u64, 2] {
        merged.extend(
            golden_events()
                .into_iter()
                .filter(|e| {
                    !matches!(
                        e.kind,
                        EventKind::PhaseBegin { .. } | EventKind::PhaseEnd { .. }
                    )
                })
                .map(|e| e.with_bcast(b)),
        );
    }
    merged.sort_by_key(|e| e.time);
    merged
}

// ---------------------------------------------------------------------
// Baseline + per-class detection.

#[test]
fn golden_trace_is_clean() {
    let report = check(&golden_events());
    assert!(report.is_ok(), "{}", report.render_text());
    assert_eq!(report.reps, 1);
}

#[test]
fn dropped_arrive_is_flagged() {
    let report = check(&mutated(mutate_drop_arrive));
    let ids = ids(&report);
    assert!(ids.contains(&"wire-complete"), "{}", report.render_text());
    assert!(
        ids.contains(&"deliver-unmatched"),
        "{}",
        report.render_text()
    );
}

#[test]
fn swapped_channel_sends_are_flagged() {
    let report = check(&mutated(|e| mutate_swap_channel_sends(e)));
    assert!(
        ids(&report).contains(&"fifo-order"),
        "{}",
        report.render_text()
    );
}

#[test]
fn forged_send_from_dead_rank_is_flagged() {
    let report = check(&mutated(mutate_forged_dead_send));
    assert!(
        ids(&report).contains(&"dead-silent"),
        "{}",
        report.render_text()
    );
}

#[test]
fn double_delivery_is_flagged() {
    let report = check(&mutated(mutate_double_deliver));
    assert!(
        ids(&report).contains(&"deliver-once"),
        "{}",
        report.render_text()
    );
}

#[test]
fn missing_coloring_is_flagged() {
    let report = check(&mutated(mutate_drop_colored));
    assert!(
        ids(&report).contains(&"reliability"),
        "{}",
        report.render_text()
    );
}

#[test]
fn time_regression_is_flagged() {
    let report = check(&mutated(|e| mutate_time_regression(e)));
    assert!(
        ids(&report).contains(&"time-monotone"),
        "{}",
        report.render_text()
    );
}

#[test]
fn multiplexed_golden_streams_are_clean() {
    // Two concurrent copies of a correct broadcast, distinguished only
    // by their `b` stamps, must validate: the monitor keys every
    // cross-rank invariant by broadcast id.
    let report = check(&multiplexed_events());
    assert!(report.is_ok(), "{}", report.render_text());
    assert_eq!(report.reps, 1);
}

#[test]
fn cross_wired_topic_delivery_is_flagged() {
    // Cross-wire one delivery between topics: restamp a broadcast-1
    // Deliver as broadcast 2. Broadcast 2 now delivers a message it
    // never saw arrive — exactly the confusion a monitor that ignored
    // the id stamps (pooling all topics into one matcher) would wave
    // through, since the pooled multiset is unchanged.
    let mut events = multiplexed_events();
    let i = events
        .iter()
        .position(|e| e.bcast() == Some(1) && matches!(e.kind, EventKind::Deliver { .. }))
        .expect("broadcast 1 has deliveries");
    events[i] = events[i].with_bcast(2);
    let report = check(&events);
    assert!(
        ids(&report).contains(&"deliver-unmatched"),
        "{}",
        report.render_text()
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("in broadcast 2")),
        "diagnosis names the wrong-topic broadcast: {}",
        report.render_text()
    );
}

#[test]
fn fail_fast_stops_at_the_first_violation() {
    let events = mutated(mutate_drop_arrive);
    let cfg = golden_cfg().with_fail_fast();
    let report = MonitorSink::check(&events, &cfg);
    assert_eq!(report.violations.len(), 1, "{}", report.render_text());
}

// ---------------------------------------------------------------------
// Golden violation report: one rep per mutation class, in a fixed
// order, serialized byte-for-byte.

#[test]
fn violation_report_is_byte_stable() {
    let mutations: [fn(&mut Vec<Event>); 6] = [
        mutate_drop_arrive,
        |e| mutate_swap_channel_sends(e),
        mutate_forged_dead_send,
        mutate_double_deliver,
        mutate_drop_colored,
        |e| mutate_time_regression(e),
    ];
    let mut combined = MonitorReport::default();
    for (rep, mutation) in mutations.into_iter().enumerate() {
        combined.absorb(check(&mutated(mutation)), rep as u32);
    }
    assert!(!combined.is_ok());
    let json = format!("{}\n", combined.to_json());
    if std::env::var_os("CT_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_VIOLATIONS_PATH, &json).expect("write golden");
        return;
    }
    assert_eq!(
        json, GOLDEN_VIOLATIONS,
        "violation report diverged from the golden file; if intentional, \
         regenerate with CT_REGEN_GOLDEN=1 and review the diff"
    );
}
