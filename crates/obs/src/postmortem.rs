//! `ct-postmortem-v1`: the structured dump written when a run dies.
//!
//! A [`Postmortem`] bundles everything the runtime knows at the moment
//! of failure — the watchdog's [`StallReport`] (when the failure *was*
//! a stall), a [`TelemetrySnapshot`] of the counter hub, and the frozen
//! flight-recorder rings ([`FlightDump`]) — plus two derived views
//! computed at render time: the merged time-ordered event tail across
//! all workers and the last-K actions of each rank of interest (the
//! stranded ranks when a stall report is present). The dump is a single
//! deterministic JSON object, read back by [`Postmortem::from_json`] for
//! `ct postmortem` / `ct analyze --view postmortem`, which reconstruct a
//! per-rank causal story: last poll, last mailbox push and who sent it,
//! pending timers.

use std::path::Path;

use crate::flight::{FlightDump, FlightRecord, NO_RANK};
use crate::health::HealthEvent;
use crate::json::{within, JsonObject, Value};
use crate::stall::StallReport;
use crate::TelemetrySnapshot;

/// Schema tag stamped into every dump; bump on incompatible layout
/// changes.
pub const SCHEMA: &str = "ct-postmortem-v1";

/// Merged-tail length bound: the last this-many records across all
/// shards land in the dump's `tail` section.
pub const TAIL_MAX: usize = 256;

/// Per-rank history bound: the last this-many records involving each
/// rank of interest land in its `ranks[].last` section.
pub const RANK_LAST_K: usize = 16;

/// When no stall report narrows the focus, at most this many distinct
/// ranks (those seen in the merged tail) get per-rank sections.
const RANK_FALLBACK_MAX: usize = 32;

/// Everything captured when a run died: see the module docs.
#[derive(Clone, Debug)]
pub struct Postmortem {
    /// Why the dump was taken: `watchdog_stall`, `worker_panic` or
    /// `monitor_violation`.
    pub reason: String,
    /// Total ranks in the run.
    pub p: u32,
    /// The watchdog's diagnosis, when the failure was a stall.
    pub stall: Option<StallReport>,
    /// Counter-hub snapshot at capture time, when a hub was attached.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Precursor timeline: every health event the continuous sampler
    /// fired before the capture (empty without a sampler). On a stall
    /// this is where the `stall_precursor` event shows the wedge was
    /// visible windows before the watchdog expired.
    pub health: Vec<HealthEvent>,
    /// The frozen flight-recorder rings.
    pub flight: FlightDump,
}

impl Postmortem {
    /// The ranks that get per-rank `last` sections: the stall report's
    /// stranded ranks when present, otherwise every rank seen in the
    /// merged tail (ascending, capped).
    pub fn focus_ranks(&self) -> Vec<u32> {
        if let Some(stall) = &self.stall {
            return stall.stranded();
        }
        let mut seen: Vec<u32> = self
            .flight
            .merged_tail(TAIL_MAX)
            .iter()
            .filter(|(_, r)| r.rank != NO_RANK)
            .map(|(_, r)| r.rank)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen.truncate(RANK_FALLBACK_MAX);
        seen
    }

    /// Render the dump as one deterministic JSON object (schema
    /// [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("schema", SCHEMA);
        obj.field_str("reason", &self.reason);
        obj.field_u64("p", u64::from(self.p));
        match &self.stall {
            Some(s) => obj.field_raw("stall", &s.to_json()),
            None => obj.field_null("stall"),
        };
        match &self.telemetry {
            Some(t) => obj.field_raw("telemetry", &t.to_json()),
            None => obj.field_null("telemetry"),
        };
        obj.field_array("health", self.health.iter().map(HealthEvent::to_json));
        obj.field_raw("flight", &self.flight.to_json());
        let tail = self.flight.merged_tail(TAIL_MAX);
        obj.field_array("tail", tail.iter().map(record_json));
        let ranks = self.focus_ranks().into_iter().map(|rank| {
            let mut robj = JsonObject::new();
            robj.field_u64("rank", u64::from(rank));
            let last = self.flight.rank_tail(rank, RANK_LAST_K);
            robj.field_array("last", last.iter().map(record_json));
            robj.finish()
        });
        obj.field_array("ranks", ranks);
        obj.finish()
    }

    /// Read a dump written by [`Postmortem::to_json`]. The `tail` and
    /// `ranks` views are derived from the flight rings, so they are
    /// recomputed rather than read; a dump without `health` (written
    /// before the sampler existed) reads as having none.
    pub fn from_json(text: &str) -> Result<Postmortem, String> {
        let v = Value::parse(text)?;
        let schema = v.str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema: unsupported schema `{schema}`"));
        }
        let nullable = |key: &str| match v.get(key) {
            None | Some(Value::Null) => None,
            Some(x) => Some(x),
        };
        Ok(Postmortem {
            reason: v.str_field("reason")?.to_owned(),
            p: v.int_field("p")?,
            stall: nullable("stall")
                .map(|s| StallReport::from_value(s).map_err(within("stall")))
                .transpose()?,
            telemetry: nullable("telemetry")
                .map(|t| TelemetrySnapshot::from_value(t).map_err(within("telemetry")))
                .transpose()?,
            health: match v.get("health") {
                None => Vec::new(),
                Some(_) => v.items("health", HealthEvent::from_value)?,
            },
            flight: FlightDump::from_value(v.field("flight")?).map_err(within("flight"))?,
        })
    }

    /// Write the dump (plus a trailing newline) to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// One merged-view entry: a flight record led by the shard it came
/// from.
fn record_json((shard, r): &(usize, FlightRecord)) -> String {
    let mut obj = JsonObject::new();
    obj.field_u64("shard", *shard as u64);
    r.write_fields(&mut obj);
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightKind, FlightRecorder};
    use crate::stall::RankStall;

    fn dump() -> FlightDump {
        let rec = FlightRecorder::new(2, 8);
        rec.record(1, FlightKind::IterStart, NO_RANK, 1, 0, 1_000);
        rec.record(0, FlightKind::QuantumStart, 3, 1, 10, 1_010);
        rec.record(0, FlightKind::MailboxPush, 5, 3, 12, 1_012);
        rec.freeze();
        rec.dump()
    }

    fn stall() -> StallReport {
        StallReport {
            id: 1,
            timeout_ms: 200,
            p: 8,
            live: 7,
            colored: 4,
            runq_depth: 0,
            pending_timers: 0,
            coord_in_flight: 0,
            now_us: 201_000,
            epoch_us: 1_000,
            ranks: vec![RankStall {
                rank: 3,
                scheduled: false,
                mailbox_len: 0,
                mailbox_spilled: 0,
                last_poll_us: Some(1_010),
            }],
        }
    }

    #[test]
    fn json_is_schema_tagged_and_deterministic() {
        let pm = Postmortem {
            reason: "watchdog_stall".to_owned(),
            p: 8,
            stall: Some(stall()),
            telemetry: None,
            health: Vec::new(),
            flight: dump(),
        };
        let json = pm.to_json();
        assert!(
            json.starts_with(
                "{\"schema\":\"ct-postmortem-v1\",\"reason\":\"watchdog_stall\",\"p\":8"
            ),
            "{json}"
        );
        assert!(json.contains("\"telemetry\":null"), "{json}");
        assert!(json.contains("\"stall\":{\"id\":1"), "{json}");
        assert!(
            json.contains("\"tail\":[{\"shard\":1,\"seq\":0,\"kind\":\"iter_start\""),
            "{json}"
        );
        assert!(json.contains("\"ranks\":[{\"rank\":3,\"last\":["), "{json}");
        assert_eq!(json, pm.to_json());
    }

    #[test]
    fn focus_follows_the_stall_report_when_present() {
        let pm = Postmortem {
            reason: "watchdog_stall".to_owned(),
            p: 8,
            stall: Some(stall()),
            telemetry: None,
            health: Vec::new(),
            flight: dump(),
        };
        assert_eq!(pm.focus_ranks(), vec![3]);
    }

    #[test]
    fn focus_falls_back_to_tail_ranks_without_a_stall() {
        let pm = Postmortem {
            reason: "worker_panic".to_owned(),
            p: 8,
            stall: None,
            telemetry: None,
            health: Vec::new(),
            flight: dump(),
        };
        assert_eq!(pm.focus_ranks(), vec![3, 5]);
    }

    #[test]
    fn rank_sections_include_pushes_to_the_rank() {
        let pm = Postmortem {
            reason: "watchdog_stall".to_owned(),
            p: 8,
            stall: Some(stall()),
            telemetry: None,
            health: Vec::new(),
            flight: dump(),
        };
        let json = pm.to_json();
        // Rank 3's history includes the push it originated (aux names
        // it as the pusher).
        assert!(
            json.contains("\"kind\":\"mailbox_push\",\"rank\":5,\"aux\":3"),
            "{json}"
        );
    }
}
