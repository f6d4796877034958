//! Export a recorded event stream as `chrome://tracing` JSON.
//!
//! The output loads in Chrome's tracing UI and in Perfetto: one track
//! (`tid`) per rank, sends and deliveries as `o`-long complete events,
//! arrivals/drops/colorings as instants, phase spans as begin/end pairs
//! on a dedicated track. Each send is additionally linked to its
//! arrival (or drop) with a flow-event pair (`ph:"s"` → `ph:"f"`), the
//! pairing [`CausalIndex`] matched, so message causality renders as
//! arrows in Perfetto. Timestamps use the
//! wall clock when the stream has one (cluster runs) and logical steps
//! otherwise, both mapped to the format's microsecond unit.

use crate::causal::CausalIndex;
use crate::event::{Event, EventKind};
use crate::json::JsonObject;

/// Track id used for phase spans (ranks use their own number).
const PHASE_TID: u64 = u64::MAX >> 1;

fn ts(e: &Event) -> u64 {
    e.wall_us().unwrap_or_else(|| e.time.steps())
}

fn trace_event(e: &Event, o: u64) -> Option<String> {
    let mut obj = JsonObject::new();
    match &e.kind {
        EventKind::SendStart { from, to, payload } => {
            obj.field_str(
                "name",
                &format!("send {} → {to}", Event::payload_tag(*payload)),
            );
            obj.field_str("ph", "X");
            obj.field_u64("ts", ts(e));
            obj.field_u64("dur", o.max(1));
            obj.field_u64("pid", 0);
            obj.field_u64("tid", u64::from(*from));
        }
        EventKind::Deliver { from, to, payload } => {
            obj.field_str(
                "name",
                &format!("recv {} ← {from}", Event::payload_tag(*payload)),
            );
            obj.field_str("ph", "X");
            // Delivery marks the end of the o-long processing window.
            obj.field_u64("ts", ts(e).saturating_sub(o));
            obj.field_u64("dur", o.max(1));
            obj.field_u64("pid", 0);
            obj.field_u64("tid", u64::from(*to));
        }
        EventKind::Arrive { from, to, payload } => {
            obj.field_str(
                "name",
                &format!("arrive {} ← {from}", Event::payload_tag(*payload)),
            );
            obj.field_str("ph", "i");
            obj.field_str("s", "t");
            obj.field_u64("ts", ts(e));
            obj.field_u64("pid", 0);
            obj.field_u64("tid", u64::from(*to));
        }
        EventKind::DropDead { from, to, payload } => {
            obj.field_str(
                "name",
                &format!("drop {} ← {from}", Event::payload_tag(*payload)),
            );
            obj.field_str("ph", "i");
            obj.field_str("s", "t");
            obj.field_u64("ts", ts(e));
            obj.field_u64("pid", 0);
            obj.field_u64("tid", u64::from(*to));
        }
        EventKind::Colored { rank, via } => {
            obj.field_str("name", &format!("colored ({via:?})"));
            obj.field_str("ph", "i");
            obj.field_str("s", "t");
            obj.field_u64("ts", ts(e));
            obj.field_u64("pid", 0);
            obj.field_u64("tid", u64::from(*rank));
        }
        EventKind::PhaseBegin(phase) | EventKind::PhaseEnd(phase) => {
            let begin = matches!(e.kind, EventKind::PhaseBegin(_));
            obj.field_str("name", phase.name());
            obj.field_str("ph", if begin { "B" } else { "E" });
            obj.field_u64("ts", ts(e));
            obj.field_u64("pid", 0);
            obj.field_u64("tid", PHASE_TID);
        }
    }
    Some(obj.finish())
}

/// One half of a flow-event pair: `ph:"s"` at the send, `ph:"f"` at the
/// matching arrive/drop. Perfetto pairs the halves by `(cat, name, id)`
/// and draws an arrow between the enclosing slices.
fn flow_event(payload_name: &str, ph: &str, id: u64, ts: u64, tid: u64) -> String {
    let mut obj = JsonObject::new();
    obj.field_str("name", payload_name);
    obj.field_str("cat", "msg");
    obj.field_str("ph", ph);
    if ph == "f" {
        // Bind the finish to the enclosing slice, not the next one.
        obj.field_str("bp", "e");
    }
    obj.field_u64("id", id);
    obj.field_u64("ts", ts);
    obj.field_u64("pid", 0);
    obj.field_u64("tid", tid);
    obj.finish()
}

/// Render an event stream as a `chrome://tracing` JSON document.
///
/// `o` is the LogP overhead (the duration of send/receive slots); for
/// wall-clocked cluster streams pass the measured per-message overhead
/// in microseconds, or `1` for minimal-width slots.
pub fn chrome_trace(events: &[Event], o: u64) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |json: &str, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(json);
    };
    // Flow ids are assigned at sends, in emission order; an arrival or
    // drop closes the flow of the send the causal index matched it to.
    let index = CausalIndex::build(events);
    let mut flow = vec![0u64; events.len()];
    let mut next_flow_id: u64 = 1;
    for (i, e) in events.iter().enumerate() {
        if let Some(json) = trace_event(e, o) {
            push(&json, &mut first);
        }
        match &e.kind {
            EventKind::SendStart { from, payload, .. } => {
                flow[i] = next_flow_id;
                next_flow_id += 1;
                let name = format!("msg {}", Event::payload_tag(*payload));
                let json = flow_event(&name, "s", flow[i], ts(e), u64::from(*from));
                push(&json, &mut first);
            }
            EventKind::Arrive { to, payload, .. } | EventKind::DropDead { to, payload, .. } => {
                if let Some(s) = index.cause(i).filter(|&s| s < i) {
                    let name = format!("msg {}", Event::payload_tag(*payload));
                    let json = flow_event(&name, "f", flow[s], ts(e), u64::from(*to));
                    push(&json, &mut first);
                }
            }
            _ => {}
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use ct_core::protocol::{ColoredVia, Payload};
    use ct_logp::Time;

    #[test]
    fn send_and_deliver_become_complete_events() {
        let events = vec![
            Event::sim(
                Time::ZERO,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            Event::sim(
                Time::new(4),
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
        ];
        let json = chrome_trace(&events, 1);
        assert!(json.contains(r#""name":"send tree → 1""#), "{json}");
        assert!(json.contains(r#""ph":"X""#), "{json}");
        assert!(json.contains(r#""name":"recv tree ← 0""#), "{json}");
        // Delivery at t=4 with o=1 renders as a slot starting at 3.
        assert!(json.contains(r#""ts":3"#), "{json}");
    }

    #[test]
    fn phases_pair_begin_and_end() {
        let events = vec![
            Event::sim(Time::ZERO, EventKind::PhaseBegin(Phase::Broadcast)),
            Event::sim(Time::new(9), EventKind::PhaseEnd(Phase::Broadcast)),
        ];
        let json = chrome_trace(&events, 1);
        assert!(json.contains(r#""ph":"B""#), "{json}");
        assert!(json.contains(r#""ph":"E""#), "{json}");
    }

    #[test]
    fn wall_clock_wins_over_logical_time() {
        let events = vec![Event::wall(
            Time::new(5),
            777,
            EventKind::Colored {
                rank: 2,
                via: ColoredVia::Dissemination,
            },
        )];
        let json = chrome_trace(&events, 1);
        assert!(json.contains(r#""ts":777"#), "{json}");
    }

    #[test]
    fn sends_link_to_arrivals_with_flow_pairs() {
        let events = vec![
            Event::sim(
                Time::ZERO,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            Event::sim(
                Time::new(1),
                EventKind::SendStart {
                    from: 0,
                    to: 2,
                    payload: Payload::Tree,
                },
            ),
            Event::sim(
                Time::new(3),
                EventKind::Arrive {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            Event::sim(
                Time::new(4),
                EventKind::DropDead {
                    from: 0,
                    to: 2,
                    payload: Payload::Tree,
                },
            ),
        ];
        let json = chrome_trace(&events, 1);
        // Two starts, two finishes, ids pair up FIFO per link.
        assert!(
            json.contains(r#""ph":"s","id":1,"ts":0,"pid":0,"tid":0"#),
            "{json}"
        );
        assert!(
            json.contains(r#""ph":"s","id":2,"ts":1,"pid":0,"tid":0"#),
            "{json}"
        );
        assert!(
            json.contains(r#""ph":"f","bp":"e","id":1,"ts":3,"pid":0,"tid":1"#),
            "{json}"
        );
        assert!(
            json.contains(r#""ph":"f","bp":"e","id":2,"ts":4,"pid":0,"tid":2"#),
            "{json}"
        );
    }

    #[test]
    fn unmatched_arrival_emits_no_flow_finish() {
        let events = vec![Event::sim(
            Time::new(3),
            EventKind::Arrive {
                from: 0,
                to: 1,
                payload: Payload::Tree,
            },
        )];
        let json = chrome_trace(&events, 1);
        assert!(!json.contains(r#""ph":"f""#), "{json}");
    }

    #[test]
    fn document_is_wellformed_bracketwise() {
        let json = chrome_trace(&[], 1);
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with("]}"));
    }
}
