//! The shared event schema.
//!
//! Both producers — the discrete-event simulator and the threaded
//! cluster runtime — emit exactly these events, so a simulated run and
//! a cluster run of the same protocol can be diffed line by line. Each
//! event carries the producer's logical [`Time`] (LogP steps in the
//! simulator, microseconds since the run epoch on the cluster) and,
//! when a wall clock exists, wall-clock microseconds.
//!
//! An [`Event`] is a 48-byte `Copy` value that owns no heap memory.
//! [`Event::from_json`] refuses, naming the field, what it cannot hold:
//! a phase outside the closed [`Phase`] set, `"b":0`, or the `w` value
//! reserved for "no wall clock" (`u64::MAX`).

use core::fmt;
use core::num::NonZeroU64;

use ct_core::protocol::{ColoredVia, Payload};
use ct_logp::{Rank, Time};

use crate::json::{JsonObject, Value};

/// The spans producers open and close, written as the JSONL `"name"`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// One whole broadcast, root send to quiescence.
    Broadcast,
}

impl Phase {
    /// The span's JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Broadcast => "broadcast",
        }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// `from` started transmitting to `to` (sender port busy `o`).
    SendStart {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
        /// Message kind.
        payload: Payload,
    },
    /// The message reached `to`'s receive port (after `o + L`).
    Arrive {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
        /// Message kind.
        payload: Payload,
    },
    /// `to` finished processing the message (`on_message` ran).
    Deliver {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
        /// Message kind.
        payload: Payload,
    },
    /// The message was dropped because `to` is dead.
    DropDead {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
        /// Message kind.
        payload: Payload,
    },
    /// `rank` became colored (received the broadcast value).
    Colored {
        /// The newly colored rank.
        rank: Rank,
        /// How it was colored.
        via: ColoredVia,
    },
    /// A span opened.
    PhaseBegin(Phase),
    /// The matching span closed.
    PhaseEnd(Phase),
}

impl EventKind {
    /// The schema's stable kind tag (the `"kind"` JSONL field).
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::SendStart { .. } => "send",
            EventKind::Arrive { .. } => "arrive",
            EventKind::Deliver { .. } => "deliver",
            EventKind::DropDead { .. } => "drop",
            EventKind::Colored { .. } => "colored",
            EventKind::PhaseBegin(_) => "phase_begin",
            EventKind::PhaseEnd(_) => "phase_end",
        }
    }

    /// Causal ordering class for events carrying the same timestamp.
    ///
    /// Cluster workers buffer events independently and the coordinator
    /// merges them by logical time only, so two causally ordered events
    /// stamped in the same microsecond (a send and its arrival, an
    /// arrival and its delivery) can surface in either order. Sorting by
    /// `(time, order_class, original index)` restores an order in which
    /// causes precede effects: span begins first, then sends, then wire
    /// arrivals (including drops at dead ranks), then deliveries, then
    /// coloring, then span ends: [`crate::causal::causal_order`].
    pub fn order_class(&self) -> u8 {
        match self {
            EventKind::PhaseBegin(_) => 0,
            EventKind::SendStart { .. } => 1,
            EventKind::Arrive { .. } | EventKind::DropDead { .. } => 2,
            EventKind::Deliver { .. } => 3,
            EventKind::Colored { .. } => 4,
            EventKind::PhaseEnd(_) => 5,
        }
    }
}

/// The `wall_us` value that means "no wall clock".
const NO_WALL: u64 = u64::MAX;

/// One observability event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Logical time: LogP steps in the simulator, microseconds since
    /// the run epoch on the cluster runtime.
    pub time: Time,
    /// [`Event::wall_us`], or [`NO_WALL`].
    wall_us: u64,
    /// [`Event::bcast`].
    bcast: Option<NonZeroU64>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// A simulator event (no wall clock).
    pub fn sim(time: Time, kind: EventKind) -> Event {
        Event {
            time,
            wall_us: NO_WALL,
            bcast: None,
            kind,
        }
    }

    /// A cluster-runtime event stamped with both clocks; `wall_us` is
    /// below `u64::MAX`.
    pub fn wall(time: Time, wall_us: u64, kind: EventKind) -> Event {
        debug_assert_ne!(wall_us, NO_WALL, "u64::MAX means no wall clock");
        Event {
            time,
            wall_us,
            bcast: None,
            kind,
        }
    }

    /// The same event, labeled as belonging to broadcast `id`, which is
    /// nonzero: ids start at 1.
    pub fn with_bcast(mut self, id: u64) -> Event {
        self.bcast = Some(NonZeroU64::new(id).expect("broadcast ids start at 1"));
        self
    }

    /// Wall-clock microseconds since the run epoch, where a wall clock
    /// exists (cluster runtime). `None` for simulated runs.
    pub fn wall_us(&self) -> Option<u64> {
        (self.wall_us != NO_WALL).then_some(self.wall_us)
    }

    /// Broadcast id, for producers multiplexing several concurrent
    /// broadcasts into one stream (the cluster pub/sub layer). `None`
    /// for single-broadcast streams — the id is then implied by the
    /// enclosing [`Phase::Broadcast`] span, and the serialized form is
    /// unchanged.
    pub fn bcast(&self) -> Option<u64> {
        self.bcast.map(NonZeroU64::get)
    }

    /// The stable payload tag used by the JSONL schema.
    pub fn payload_tag(payload: Payload) -> &'static str {
        match payload {
            Payload::Tree => "tree",
            Payload::Gossip { .. } => "gossip",
            Payload::Correction => "correction",
            Payload::Ack => "ack",
        }
    }

    /// Render as one JSONL line (no trailing newline).
    ///
    /// Field order is fixed — `t`, `w?`, `b?`, `kind`, then
    /// kind-specific fields — so identical event streams are
    /// byte-for-byte identical, which the golden-trace regression tests
    /// rely on.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("t", self.time.steps());
        if let Some(w) = self.wall_us() {
            obj.field_u64("w", w);
        }
        if let Some(b) = self.bcast() {
            obj.field_u64("b", b);
        }
        obj.field_str("kind", self.kind.tag());
        match &self.kind {
            EventKind::SendStart { from, to, payload }
            | EventKind::Arrive { from, to, payload }
            | EventKind::Deliver { from, to, payload }
            | EventKind::DropDead { from, to, payload } => {
                obj.field_u64("from", u64::from(*from));
                obj.field_u64("to", u64::from(*to));
                obj.field_str("payload", Event::payload_tag(*payload));
                if let Payload::Gossip { round } = payload {
                    obj.field_u64("round", u64::from(*round));
                }
            }
            EventKind::Colored { rank, via } => {
                obj.field_u64("rank", u64::from(*rank));
                obj.field_str(
                    "via",
                    match via {
                        ColoredVia::Root => "root",
                        ColoredVia::Dissemination => "dissemination",
                        ColoredVia::Correction => "correction",
                    },
                );
            }
            EventKind::PhaseBegin(phase) | EventKind::PhaseEnd(phase) => {
                obj.field_str("name", phase.name());
            }
        }
        obj.finish()
    }

    /// Read one JSONL line written by [`Event::to_json`]. Ranks and
    /// gossip rounds wider than 32 bits are an error, not a truncation,
    /// and so is a value the record cannot hold: an unknown phase name,
    /// `"b":0` or `"w":18446744073709551615`.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let v = Value::parse(line)?;
        let kind = v.str_field("kind")?;
        let phase = || match v.str_field("name")? {
            "broadcast" => Ok(Phase::Broadcast),
            other => Err(format!("name: unknown phase {other:?}")),
        };
        let message = || -> Result<(Rank, Rank, Payload), String> {
            let payload = match v.str_field("payload")? {
                "tree" => Payload::Tree,
                "gossip" => Payload::Gossip {
                    round: v.int_field("round")?,
                },
                "correction" => Payload::Correction,
                "ack" => Payload::Ack,
                other => return Err(format!("payload: unknown payload {other:?}")),
            };
            Ok((v.int_field("from")?, v.int_field("to")?, payload))
        };
        let kind = match kind {
            "send" | "arrive" | "deliver" | "drop" => {
                let (from, to, payload) = message()?;
                match kind {
                    "send" => EventKind::SendStart { from, to, payload },
                    "arrive" => EventKind::Arrive { from, to, payload },
                    "deliver" => EventKind::Deliver { from, to, payload },
                    _ => EventKind::DropDead { from, to, payload },
                }
            }
            "colored" => EventKind::Colored {
                rank: v.int_field("rank")?,
                via: match v.str_field("via")? {
                    "root" => ColoredVia::Root,
                    "dissemination" => ColoredVia::Dissemination,
                    "correction" => ColoredVia::Correction,
                    other => return Err(format!("via: unknown via {other:?}")),
                },
            },
            "phase_begin" => EventKind::PhaseBegin(phase()?),
            "phase_end" => EventKind::PhaseEnd(phase()?),
            other => return Err(format!("kind: unknown kind {other:?}")),
        };
        let wall_us = match v.opt_int_field("w")? {
            Some(NO_WALL) => return Err(format!("w: {NO_WALL} is reserved for no wall clock")),
            w => w.unwrap_or(NO_WALL),
        };
        Ok(Event {
            time: Time::new(v.int_field("t")?),
            wall_us,
            bcast: v.opt_int_field("b")?,
            kind,
        })
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_field_order_is_stable() {
        let e = Event::sim(
            Time::new(7),
            EventKind::SendStart {
                from: 0,
                to: 3,
                payload: Payload::Tree,
            },
        );
        assert_eq!(
            e.to_json(),
            r#"{"t":7,"kind":"send","from":0,"to":3,"payload":"tree"}"#
        );
    }

    #[test]
    fn gossip_round_and_wall_clock_are_included() {
        let e = Event::wall(
            Time::new(12),
            345,
            EventKind::Deliver {
                from: 1,
                to: 2,
                payload: Payload::Gossip { round: 4 },
            },
        );
        assert_eq!(
            e.to_json(),
            r#"{"t":12,"w":345,"kind":"deliver","from":1,"to":2,"payload":"gossip","round":4}"#
        );
    }

    #[test]
    fn colored_and_phase_events_serialize() {
        let c = Event::sim(
            Time::new(24),
            EventKind::Colored {
                rank: 63,
                via: ColoredVia::Correction,
            },
        );
        assert_eq!(
            c.to_json(),
            r#"{"t":24,"kind":"colored","rank":63,"via":"correction"}"#
        );
        let p = Event::sim(Time::ZERO, EventKind::PhaseBegin(Phase::Broadcast));
        assert_eq!(
            p.to_json(),
            r#"{"t":0,"kind":"phase_begin","name":"broadcast"}"#
        );
    }

    #[test]
    fn bcast_label_serializes_between_clocks_and_kind() {
        let e = Event::wall(
            Time::new(9),
            11,
            EventKind::Colored {
                rank: 4,
                via: ColoredVia::Dissemination,
            },
        )
        .with_bcast(37);
        assert_eq!(
            e.to_json(),
            r#"{"t":9,"w":11,"b":37,"kind":"colored","rank":4,"via":"dissemination"}"#
        );
        // Unlabeled events keep the original schema byte-for-byte.
        let plain = Event::sim(Time::new(9), EventKind::PhaseEnd(Phase::Broadcast));
        assert_eq!(
            plain.to_json(),
            r#"{"t":9,"kind":"phase_end","name":"broadcast"}"#
        );
    }

    #[test]
    fn display_matches_json() {
        let e = Event::sim(Time::new(1), EventKind::PhaseEnd(Phase::Broadcast));
        assert_eq!(e.to_string(), e.to_json());
    }

    #[test]
    fn an_event_is_a_48_byte_copy_value() {
        fn copy<T: Copy>() {}
        copy::<Event>();
        assert_eq!(core::mem::size_of::<EventKind>(), 20);
        assert_eq!(core::mem::size_of::<Event>(), 48);
    }

    #[test]
    fn values_the_record_cannot_hold_are_refused_by_field() {
        for (line, error) in [
            (
                r#"{"t":0,"kind":"phase_begin","name":"rep"}"#,
                r#"name: unknown phase "rep""#,
            ),
            (
                r#"{"t":0,"b":0,"kind":"colored","rank":1,"via":"root"}"#,
                "b: 0 is out of range",
            ),
            (
                r#"{"t":0,"w":18446744073709551615,"kind":"colored","rank":1,"via":"root"}"#,
                "w: 18446744073709551615 is reserved for no wall clock",
            ),
        ] {
            assert_eq!(Event::from_json(line), Err(error.to_owned()), "{line}");
        }
        let edge =
            r#"{"t":0,"w":18446744073709551614,"b":1,"kind":"phase_end","name":"broadcast"}"#;
        let e = Event::from_json(edge).unwrap();
        assert_eq!((e.wall_us(), e.bcast()), (Some(u64::MAX - 1), Some(1)));
        assert_eq!(e.to_json(), edge);
    }
}
