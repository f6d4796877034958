//! Generators of every `ct-obs` schema value, for the writer → reader →
//! writer round trips in `round_trip.rs` and for any later suite that
//! feeds the readers hostile input. Include the file with
//! `#[path = "support/schemas.rs"] mod schemas;`.
//!
//! Each generator covers what its writer can emit: `None` / `null`,
//! empty collections, strings with escapes and control characters, and
//! integers across the full range of their type (0, 2⁵³ + 1, the type's
//! maximum and uniform draws).

#![allow(dead_code)]

use std::collections::BTreeMap;

use ct_core::protocol::{ColoredVia, Payload};
use ct_logp::Time;
use ct_obs::flight::{FlightDump, FlightKind, FlightRecord, ShardTail};
use ct_obs::health::{HealthEvent, Severity};
use ct_obs::json::{JsonObject, Value};
use ct_obs::metrics::Histogram;
use ct_obs::{
    Event, EventKind, Phase, Postmortem, RankStall, SeriesSample, StallReport, TelemetrySnapshot,
};
use proptest::prelude::{Strategy, TestRng};

/// A strategy that draws with a plain generator function:
/// `fn f(e in Draw(schemas::event))`.
pub struct Draw<T>(pub fn(&mut TestRng) -> T);

impl<T> Strategy for Draw<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Any `u64`, with the edges drawn as often as uniform values.
pub fn u64_any(rng: &mut TestRng) -> u64 {
    match rng.gen_range(0..6u32) {
        0 => 0,
        1 => rng.gen_range(1..1_000u64),
        2 => (1 << 53) + 1,
        3 => u64::MAX,
        _ => rng.bits(),
    }
}

/// Any `u32`, edges included.
pub fn u32_any(rng: &mut TestRng) -> u32 {
    match rng.gen_range(0..4u32) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.bits() as u32,
    }
}

/// Any `usize`, edges included.
pub fn usize_any(rng: &mut TestRng) -> usize {
    u64_any(rng) as usize
}

/// `None` or a value of `draw`.
pub fn opt<T>(rng: &mut TestRng, draw: fn(&mut TestRng) -> T) -> Option<T> {
    (rng.bits() & 1 == 1).then(|| draw(rng))
}

/// Up to `max - 1` values of `draw` (often none).
pub fn vec_of<T>(rng: &mut TestRng, max: usize, draw: impl Fn(&mut TestRng) -> T) -> Vec<T> {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| draw(rng)).collect()
}

/// A short string mixing plain text, JSON escapes, control characters
/// and multi-byte characters (possibly empty).
pub fn text(rng: &mut TestRng) -> String {
    const PALETTE: [char; 18] = [
        'a', 'Z', '.', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
        '\u{1f}', '\u{7f}', 'é', '😀',
    ];
    vec_of(rng, 8, |rng| PALETTE[rng.gen_range(0..PALETTE.len())])
        .into_iter()
        .collect()
}

/// A name → count map, as counters and gauges are written.
pub fn u64_map(rng: &mut TestRng) -> BTreeMap<String, u64> {
    vec_of(rng, 5, |rng| (text(rng), u64_any(rng)))
        .into_iter()
        .collect()
}

/// A histogram over the one bucket layout: bucket counts that sum to
/// the total (all zero, and so `null` extremes, a quarter of the time)
/// and arbitrary sum and extremes, read from the JSON its writer emits.
pub fn histogram(rng: &mut TestRng) -> Histogram {
    let layout = Histogram::default();
    let empty = rng.gen_range(0..4u32) == 0;
    // Each count below 2^58, so 22 of them cannot overflow the total.
    let counts: Vec<u64> = layout
        .counts()
        .iter()
        .map(|_| if empty { 0 } else { u64_any(rng) >> 6 })
        .collect();
    let count = counts.iter().sum();
    let extreme = |rng: &mut TestRng| (count > 0).then(|| u64_any(rng));
    let mut obj = JsonObject::new();
    obj.field_u64_array("bounds", layout.bounds());
    obj.field_u64_array("counts", &counts);
    obj.field_u64("count", count);
    obj.field_u64("sum", u64_any(rng));
    obj.field_opt_u64("min", extreme(rng));
    obj.field_opt_u64("max", extreme(rng));
    Histogram::from_value(&Value::parse(&obj.finish()).expect("valid JSON"))
        .expect("a histogram over the layout")
}

/// A telemetry snapshot with arbitrary names and values.
pub fn snapshot(rng: &mut TestRng) -> TelemetrySnapshot {
    TelemetrySnapshot {
        source: text(rng),
        workers: u64_any(rng),
        ranks: u64_any(rng),
        counters: u64_map(rng),
        gauges: u64_map(rng),
        histograms: vec_of(rng, 4, |rng| (text(rng), histogram(rng)))
            .into_iter()
            .collect(),
        per_worker: vec_of(rng, 4, u64_map),
    }
}

fn payload(rng: &mut TestRng) -> Payload {
    match rng.gen_range(0..4u32) {
        0 => Payload::Tree,
        1 => Payload::Gossip {
            round: u32_any(rng),
        },
        2 => Payload::Correction,
        _ => Payload::Ack,
    }
}

/// An event of any kind, on either clock, labeled or not. Its values
/// are the ones the record holds: a phase from the closed set, a
/// nonzero broadcast id and a wall clock below `u64::MAX`, which means
/// "none".
pub fn event(rng: &mut TestRng) -> Event {
    let (from, to) = (u32_any(rng), u32_any(rng));
    let kind = match rng.gen_range(0..7u32) {
        0 => EventKind::SendStart {
            from,
            to,
            payload: payload(rng),
        },
        1 => EventKind::Arrive {
            from,
            to,
            payload: payload(rng),
        },
        2 => EventKind::Deliver {
            from,
            to,
            payload: payload(rng),
        },
        3 => EventKind::DropDead {
            from,
            to,
            payload: payload(rng),
        },
        4 => EventKind::Colored {
            rank: from,
            via: [
                ColoredVia::Root,
                ColoredVia::Dissemination,
                ColoredVia::Correction,
            ][rng.gen_range(0..3usize)],
        },
        5 => EventKind::PhaseBegin(Phase::Broadcast),
        _ => EventKind::PhaseEnd(Phase::Broadcast),
    };
    let time = Time::new(u64_any(rng));
    let mut e = match opt(rng, |rng| u64_any(rng).min(u64::MAX - 1)) {
        Some(w) => Event::wall(time, w, kind),
        None => Event::sim(time, kind),
    };
    if let Some(b) = opt(rng, |rng| u64_any(rng).max(1)) {
        e = e.with_bcast(b);
    }
    e
}

/// A sample window; `dt_ms` is at least 1, as the sampler writes it.
pub fn sample(rng: &mut TestRng) -> SeriesSample {
    SeriesSample {
        source: text(rng),
        seq: u64_any(rng),
        t_ms: u64_any(rng),
        dt_ms: u64_any(rng).max(1),
        workers: u64_any(rng),
        ranks: u64_any(rng),
        counters: u64_map(rng),
        gauges: u64_map(rng),
        worker_busy_us: vec_of(rng, 4, u64_any),
    }
}

/// A health event; its values may repeat a name, as a rule may write.
pub fn health(rng: &mut TestRng) -> HealthEvent {
    HealthEvent {
        rule: text(rng),
        severity: [Severity::Info, Severity::Warning, Severity::Critical][rng.gen_range(0..3usize)],
        seq: u64_any(rng),
        t_ms: u64_any(rng),
        values: vec_of(rng, 4, |rng| (text(rng), u64_any(rng))),
        message: text(rng),
    }
}

/// A flight record; a `u32::MAX` rank is the no-rank sentinel.
pub fn record(rng: &mut TestRng) -> FlightRecord {
    FlightRecord {
        seq: u64_any(rng),
        kind: FlightKind::ALL[rng.gen_range(0..FlightKind::ALL.len())],
        rank: u32_any(rng),
        aux: u64_any(rng),
        step: u64_any(rng),
        wall_us: u64_any(rng),
    }
}

/// A frozen recorder's contents.
pub fn flight(rng: &mut TestRng) -> FlightDump {
    FlightDump {
        cap: u64_any(rng),
        shards: vec_of(rng, 4, |rng| ShardTail {
            shard: usize_any(rng),
            written: u64_any(rng),
            lost: u64_any(rng),
            records: vec_of(rng, 5, record),
        }),
    }
}

/// A watchdog stall report.
pub fn stall(rng: &mut TestRng) -> StallReport {
    StallReport {
        id: u64_any(rng),
        timeout_ms: u64_any(rng),
        p: u32_any(rng),
        live: u32_any(rng),
        colored: u32_any(rng),
        runq_depth: usize_any(rng),
        pending_timers: usize_any(rng),
        coord_in_flight: usize_any(rng),
        now_us: u64_any(rng),
        epoch_us: u64_any(rng),
        ranks: vec_of(rng, 4, |rng| RankStall {
            rank: u32_any(rng),
            scheduled: rng.bits() & 1 == 1,
            mailbox_len: usize_any(rng),
            mailbox_spilled: u64_any(rng),
            last_poll_us: opt(rng, u64_any),
        }),
    }
}

/// A postmortem bundle, each optional part present or not.
pub fn postmortem(rng: &mut TestRng) -> Postmortem {
    Postmortem {
        reason: text(rng),
        p: u32_any(rng),
        stall: opt(rng, stall),
        telemetry: opt(rng, snapshot),
        health: vec_of(rng, 3, health),
        flight: flight(rng),
    }
}
