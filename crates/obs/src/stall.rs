//! Structured stall diagnostics for the cluster watchdog.
//!
//! Before this module, an iteration that failed to color every live
//! rank within the deadline surfaced as nothing but
//! `completed == false` and a list of uncolored ranks — the lost-wakeup
//! race of PR 5 was only diagnosable by reading scheduler code. The
//! watchdog now assembles a [`StallReport`] at the moment of timeout,
//! *before* teardown clears any state: for every stranded rank it
//! captures the `scheduled` flag, mailbox occupancy and spill count and
//! the time of its last scheduling quantum, plus the global run-queue
//! depth, pending-timer count and the worker posts the coordinator
//! had not read yet. A stuck rank with a non-empty mailbox and `scheduled ==
//! false` is a lost wake-up; `scheduled == true` with an old last-poll
//! stamp is a worker that never got to it; an empty mailbox with no
//! pending timers is a protocol that legitimately has nothing to do
//! (e.g. an orphaned subtree under a dead parent).

use ct_logp::Rank;

use crate::json::{JsonObject, Value};

/// Diagnostic state of one stranded (live but uncolored) rank, captured
/// at watchdog timeout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankStall {
    /// The stranded rank.
    pub rank: Rank,
    /// Whether the rank sat in the run queue / a worker batch.
    pub scheduled: bool,
    /// Messages queued in its mailbox (ring + spill).
    pub mailbox_len: usize,
    /// Lifetime spill count of its mailbox.
    pub mailbox_spilled: u64,
    /// µs timestamp (cluster timeline) of its last mailbox drain — the
    /// start of a quantum, or a refresh point inside a send burst — in
    /// this iteration; `None` if it was never polled.
    pub last_poll_us: Option<u64>,
}

impl RankStall {
    fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("rank", u64::from(self.rank));
        obj.field_bool("scheduled", self.scheduled);
        obj.field_u64("mailbox_len", self.mailbox_len as u64);
        obj.field_u64("mailbox_spilled", self.mailbox_spilled);
        obj.field_opt_u64("last_poll_us", self.last_poll_us);
        obj.finish()
    }

    fn from_value(v: &Value) -> Result<RankStall, String> {
        Ok(RankStall {
            rank: v.int_field("rank")?,
            scheduled: v.bool_field("scheduled")?,
            mailbox_len: v.int_field("mailbox_len")?,
            mailbox_spilled: v.int_field("mailbox_spilled")?,
            last_poll_us: v.opt_int_field("last_poll_us")?,
        })
    }
}

/// What the watchdog saw when a broadcast iteration timed out — the
/// structured replacement for an opaque "not completed" (see module
/// docs). Attached to the `stall` of a cluster broadcast's outcome
/// when its deadline retired it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallReport {
    /// Broadcast iteration id that stalled.
    pub id: u64,
    /// The deadline that expired, in milliseconds.
    pub timeout_ms: u64,
    /// Total ranks.
    pub p: u32,
    /// Live (non-dead) ranks.
    pub live: u32,
    /// Live ranks whose coloring was reported before the deadline.
    pub colored: u32,
    /// Run-queue depth (ranks queued) at report time.
    pub runq_depth: usize,
    /// Pending timers at report time.
    pub pending_timers: usize,
    /// Worker posts to the coordinator's ledger that it had not read
    /// yet at report time.
    pub coord_in_flight: usize,
    /// µs since the iteration epoch at report time (for aging
    /// [`RankStall::last_poll_us`] stamps, which share the cluster
    /// timeline via `epoch_us`).
    pub now_us: u64,
    /// µs since the cluster base at the iteration epoch — subtract from
    /// a `last_poll_us` stamp to place it on the iteration clock.
    pub epoch_us: u64,
    /// Per-rank diagnostics for every stranded rank, ascending.
    pub ranks: Vec<RankStall>,
}

impl StallReport {
    /// Ranks the report names as stranded, ascending.
    pub fn stranded(&self) -> Vec<Rank> {
        self.ranks.iter().map(|r| r.rank).collect()
    }

    /// Render as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("id", self.id);
        obj.field_u64("timeout_ms", self.timeout_ms);
        obj.field_u64("p", u64::from(self.p));
        obj.field_u64("live", u64::from(self.live));
        obj.field_u64("colored", u64::from(self.colored));
        obj.field_u64("runq_depth", self.runq_depth as u64);
        obj.field_u64("pending_timers", self.pending_timers as u64);
        obj.field_u64("coord_in_flight", self.coord_in_flight as u64);
        obj.field_u64("now_us", self.now_us);
        obj.field_u64("epoch_us", self.epoch_us);
        obj.field_array("ranks", self.ranks.iter().map(RankStall::to_json));
        obj.finish()
    }

    /// Read a report written by [`StallReport::to_json`].
    pub fn from_value(v: &Value) -> Result<StallReport, String> {
        Ok(StallReport {
            id: v.int_field("id")?,
            timeout_ms: v.int_field("timeout_ms")?,
            p: v.int_field("p")?,
            live: v.int_field("live")?,
            colored: v.int_field("colored")?,
            runq_depth: v.int_field("runq_depth")?,
            pending_timers: v.int_field("pending_timers")?,
            coord_in_flight: v.int_field("coord_in_flight")?,
            now_us: v.int_field("now_us")?,
            epoch_us: v.int_field("epoch_us")?,
            ranks: v.items("ranks", RankStall::from_value)?,
        })
    }

    /// Render as a human-readable multi-line diagnostic.
    pub fn render_text(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stall: broadcast {} timed out after {} ms ({}/{} live ranks colored, p={})",
            self.id, self.timeout_ms, self.colored, self.live, self.p
        );
        let _ = writeln!(
            out,
            "  run queue: {} | pending timers: {} | coordinator in-flight: {}",
            self.runq_depth, self.pending_timers, self.coord_in_flight
        );
        for r in &self.ranks {
            let age = match r.last_poll_us {
                Some(t) => {
                    let iter_us = t.saturating_sub(self.epoch_us);
                    format!(
                        "last poll at {} µs ({} µs ago)",
                        iter_us,
                        self.now_us.saturating_sub(iter_us)
                    )
                }
                None => "never polled".to_owned(),
            };
            let _ = writeln!(
                out,
                "  rank {:>5}: scheduled={} mailbox={} (spilled {}) {}",
                r.rank, r.scheduled, r.mailbox_len, r.mailbox_spilled, age
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> StallReport {
        StallReport {
            id: 7,
            timeout_ms: 200,
            p: 8,
            live: 7,
            colored: 4,
            runq_depth: 0,
            pending_timers: 1,
            coord_in_flight: 0,
            now_us: 200_500,
            epoch_us: 1_000,
            ranks: vec![
                RankStall {
                    rank: 3,
                    scheduled: false,
                    mailbox_len: 0,
                    mailbox_spilled: 0,
                    last_poll_us: Some(1_012),
                },
                RankStall {
                    rank: 5,
                    scheduled: false,
                    mailbox_len: 2,
                    mailbox_spilled: 1,
                    last_poll_us: None,
                },
            ],
        }
    }

    #[test]
    fn stranded_lists_ranks_in_order() {
        assert_eq!(report().stranded(), vec![3, 5]);
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let json = report().to_json();
        assert!(json.starts_with("{\"id\":7,\"timeout_ms\":200"), "{json}");
        assert!(json.contains("\"ranks\":[{\"rank\":3"), "{json}");
        assert!(json.contains("\"last_poll_us\":null"), "{json}");
        assert_eq!(json, report().to_json());
    }

    #[test]
    fn text_names_every_stranded_rank() {
        let text = report().render_text();
        assert!(
            text.contains("broadcast 7 timed out after 200 ms"),
            "{text}"
        );
        assert!(text.contains("4/7 live ranks colored"), "{text}");
        assert!(text.contains("rank     3"), "{text}");
        assert!(text.contains("never polled"), "{text}");
        assert!(text.contains("mailbox=2 (spilled 1)"), "{text}");
    }
}
