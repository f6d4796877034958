//! Read a JSONL event stream back into [`ct_obs::Event`]s.
//!
//! One [`ct_obs::Event::from_json`] per line, the reader that sits
//! beside the writer [`ct_obs::Event::to_json`].

use ct_obs::Event;

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

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::protocol::{ColoredVia, Payload};
    use ct_logp::Time;
    use ct_obs::{EventKind, Phase};

    #[test]
    fn events_round_trip_through_jsonl() {
        let events = vec![
            Event::sim(Time::ZERO, EventKind::PhaseBegin(Phase::Broadcast)),
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
            Event::sim(Time::new(9), EventKind::PhaseEnd(Phase::Broadcast)),
        ];
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let parsed = parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err =
            parse_jsonl("{\"t\":0,\"kind\":\"phase_begin\",\"name\":\"broadcast\"}\nnot json\n")
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
    fn a_rep_infers_p_from_the_highest_rank() {
        let send = Event::sim(
            Time::ZERO,
            EventKind::SendStart {
                from: 0,
                to: 5,
                payload: Payload::Tree,
            },
        );
        let cfg = crate::AnalyzeConfig::new(ct_logp::LogP::PAPER);
        assert_eq!(crate::analyze_rep(&[send], &cfg).p, 6);
    }
}
