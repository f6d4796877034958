//! Read a JSONL event stream back into [`ct_obs::Event`]s.
//!
//! One [`ct_obs::Event::from_json`] per line, the reader that sits
//! beside the writer [`ct_obs::Event::to_json`]. Also provides the
//! repetition splitter campaigns need — a campaign trace interleaves
//! `rep i` phase spans, and each repetition restarts the logical clock,
//! so analysis must treat them separately.

use ct_logp::Rank;
use ct_obs::{Event, EventKind};

/// A parse failure, with the 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a whole JSONL document (blank lines skipped).
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(Event::from_json(line).map_err(|message| ParseError {
            line: i + 1,
            message,
        })?);
    }
    Ok(events)
}

/// Split a trace into repetitions on `rep <i>` phase spans.
///
/// Campaign traces wrap each repetition in a `rep i` span and restart
/// the logical clock per repetition; a raw single-run trace has no such
/// spans and comes back as one repetition. Events outside any `rep`
/// span (the `campaign` envelope) are dropped.
pub fn split_reps(events: &[Event]) -> Vec<Vec<Event>> {
    let is_rep = |name: &str| name == "rep" || name.starts_with("rep ");
    let has_reps = events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::PhaseBegin { name } if is_rep(name)));
    if !has_reps {
        return vec![events.to_vec()];
    }
    let mut reps = Vec::new();
    let mut current: Option<Vec<Event>> = None;
    for e in events {
        match &e.kind {
            EventKind::PhaseBegin { name } if is_rep(name) => {
                current = Some(Vec::new());
            }
            EventKind::PhaseEnd { name } if is_rep(name) => {
                if let Some(rep) = current.take() {
                    reps.push(rep);
                }
            }
            _ => {
                if let Some(rep) = current.as_mut() {
                    rep.push(e.clone());
                }
            }
        }
    }
    // Unterminated trailing rep (truncated trace): keep what we have.
    if let Some(rep) = current.take() {
        reps.push(rep);
    }
    reps
}

/// The process count implied by a trace: one past the highest rank
/// mentioned by any event (0 for an empty trace).
pub fn infer_p(events: &[Event]) -> u32 {
    let mut max_rank: Option<Rank> = None;
    let mut bump = |r: Rank| max_rank = Some(max_rank.map_or(r, |m: Rank| m.max(r)));
    for e in events {
        match &e.kind {
            EventKind::SendStart { from, to, .. }
            | EventKind::Arrive { from, to, .. }
            | EventKind::Deliver { from, to, .. }
            | EventKind::DropDead { from, to, .. } => {
                bump(*from);
                bump(*to);
            }
            EventKind::Colored { rank, .. } => bump(*rank),
            _ => {}
        }
    }
    max_rank.map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::protocol::{ColoredVia, Payload};
    use ct_logp::Time;

    #[test]
    fn events_round_trip_through_jsonl() {
        let events = vec![
            Event::sim(
                Time::ZERO,
                EventKind::PhaseBegin {
                    name: "broadcast".into(),
                },
            ),
            Event::sim(
                Time::ZERO,
                EventKind::Colored {
                    rank: 0,
                    via: ColoredVia::Root,
                },
            ),
            Event::sim(
                Time::ZERO,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            Event::wall(
                Time::new(4),
                99,
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    payload: Payload::Gossip { round: 3 },
                },
            ),
            Event::sim(
                Time::new(5),
                EventKind::DropDead {
                    from: 0,
                    to: 2,
                    payload: Payload::Correction,
                },
            ),
            Event::sim(
                Time::new(9),
                EventKind::PhaseEnd {
                    name: "broadcast".into(),
                },
            ),
        ];
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let parsed = parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_jsonl("{\"t\":0,\"kind\":\"phase_begin\",\"name\":\"x\"}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unknown_kinds_and_wide_ranks_are_rejected() {
        let err = parse_jsonl(r#"{"t":0,"kind":"warp"}"#).unwrap_err();
        assert!(err.message.contains("unknown kind"), "{err}");
        let wide = r#"{"t":0,"kind":"send","from":4294967296,"to":1,"payload":"tree"}"#;
        let err = parse_jsonl(wide).unwrap_err();
        assert_eq!(err.to_string(), "line 1: from: 4294967296 is out of range");
        let round =
            r#"{"t":0,"kind":"send","from":0,"to":1,"payload":"gossip","round":4294967296}"#;
        assert!(parse_jsonl(round).is_err());
    }

    #[test]
    fn rep_spans_split_the_stream() {
        let mk = |name: &str, begin: bool| {
            Event::sim(
                Time::ZERO,
                if begin {
                    EventKind::PhaseBegin { name: name.into() }
                } else {
                    EventKind::PhaseEnd { name: name.into() }
                },
            )
        };
        let send = Event::sim(
            Time::ZERO,
            EventKind::SendStart {
                from: 0,
                to: 1,
                payload: Payload::Tree,
            },
        );
        let events = vec![
            mk("campaign", true),
            mk("rep 0", true),
            send.clone(),
            mk("rep 0", false),
            mk("rep 1", true),
            send.clone(),
            send.clone(),
            mk("rep 1", false),
            mk("campaign", false),
        ];
        let reps = split_reps(&events);
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].len(), 1);
        assert_eq!(reps[1].len(), 2);
    }

    #[test]
    fn traces_without_rep_spans_are_one_rep() {
        let send = Event::sim(
            Time::ZERO,
            EventKind::SendStart {
                from: 0,
                to: 5,
                payload: Payload::Tree,
            },
        );
        let reps = split_reps(&[send]);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].len(), 1);
        assert_eq!(infer_p(&reps[0]), 6);
    }
}
