//! The view of `ct-postmortem-v1` dumps (`ct postmortem`,
//! `ct analyze --view postmortem`).
//!
//! The runtime's flight recorder answers *what happened last*; this
//! module turns its frozen dump, read by [`Postmortem::from_json`]
//! beside its writer, into a causal story a human can act on. For every
//! rank the dump focuses on (the stranded ranks, when the failure was a
//! watchdog stall) it reconstructs:
//!
//! * the **last poll** — when the scheduler last ran the rank, on the
//!   iteration clock;
//! * the **last mailbox push** and *who sent it* — or the explicit
//!   absence of one, which is itself the diagnosis for an orphaned
//!   subtree (a dead parent never sends, so nothing ever reaches the
//!   subtree);
//! * **pending timers** — arms with no later fire;
//! * the rank's **last actions**, straight from the rings.
//!
//! Rendering is deterministic for a fixed dump and golden-pinned like
//! the scheduler view. Tails and per-rank histories are taken from the
//! flight rings exactly as the dump's own `tail` and `ranks` views were.

use core::fmt::Write as _;

use ct_obs::flight::{FlightKind, FlightRecord, NO_RANK};
use ct_obs::postmortem::{RANK_LAST_K, TAIL_MAX};
use ct_obs::Postmortem;

/// Render the per-stranded-rank causal reconstruction of a dump read by
/// [`Postmortem::from_json`] (see the module docs). Deterministic for a
/// fixed dump.
pub fn render_text(pm: &Postmortem) -> String {
    let mut out = String::new();
    let retained: usize = pm.flight.shards.iter().map(|s| s.records.len()).sum();
    let _ = writeln!(out, "postmortem: {} (p={})", pm.reason, pm.p);
    let _ = writeln!(
        out,
        "flight recorder: {} shards x cap {}, {} records retained, {} lost to wrap",
        pm.flight.shards.len(),
        pm.flight.cap,
        retained,
        pm.flight.total_lost()
    );
    if let Some(stall) = &pm.stall {
        let _ = writeln!(
            out,
            "stall: broadcast {} timed out after {} ms ({}/{} live ranks colored)",
            stall.id, stall.timeout_ms, stall.colored, stall.live
        );
        let _ = writeln!(
            out,
            "  run queue: {} | pending timers: {} | coordinator in-flight: {}",
            stall.runq_depth, stall.pending_timers, stall.coord_in_flight
        );
    }
    if let Some(t) = &pm.telemetry {
        let _ = writeln!(
            out,
            "telemetry: {} quanta | {} delivered | {} stale quanta | {} rechecks | {} spills",
            t.counter("sched.quanta"),
            t.counter("msgs.delivered"),
            t.counter("sched.stale_quanta"),
            t.counter("sched.lost_wakeup_rechecks"),
            t.counter("mailbox.spills")
        );
    }
    for rank in pm.focus_ranks() {
        render_rank(&mut out, pm, rank);
    }
    let tail = pm.flight.merged_tail(TAIL_MAX);
    let show = tail.len().min(10);
    if show > 0 {
        let _ = writeln!(
            out,
            "tail (last {} of {} merged records):",
            show,
            tail.len()
        );
        for r in &tail[tail.len() - show..] {
            let _ = writeln!(out, "    {}", rec_line(r));
        }
    }
    out
}

fn render_rank(out: &mut String, pm: &Postmortem, r: u32) {
    let last = pm.flight.rank_tail(r, RANK_LAST_K);
    let newest = |kind| {
        last.iter()
            .rev()
            .find(|(_, rec)| rec.kind == kind && rec.rank == r)
    };
    match pm
        .stall
        .as_ref()
        .and_then(|s| s.ranks.iter().find(|sr| sr.rank == r))
    {
        Some(sr) => {
            let _ = writeln!(
                out,
                "rank {:>5}: scheduled={} mailbox={} (spilled {})",
                r, sr.scheduled, sr.mailbox_len, sr.mailbox_spilled
            );
        }
        None => {
            let _ = writeln!(out, "rank {:>5}:", r);
        }
    }
    // Last poll: the newest quantum_start naming this rank.
    match newest(FlightKind::QuantumStart) {
        Some((_, q)) => {
            let _ = writeln!(
                out,
                "  last poll:         {} \u{b5}s into iteration {} (wall {} \u{b5}s)",
                q.step, q.aux, q.wall_us
            );
        }
        None => {
            let _ = writeln!(out, "  last poll:         none recorded");
        }
    }
    // Last mailbox push TO this rank, with pusher identity; its
    // absence is the orphaned-subtree signature.
    match newest(FlightKind::MailboxPush) {
        // A zero broadcast id means a single-broadcast (or simulator)
        // run, where naming it adds nothing.
        Some((_, push)) if push.push_bcast() == 0 => {
            let _ = writeln!(
                out,
                "  last mailbox push: from rank {} at step {} (wall {} \u{b5}s)",
                push.push_peer(),
                push.step,
                push.wall_us
            );
        }
        Some((_, push)) => {
            let _ = writeln!(
                out,
                "  last mailbox push: from rank {} (broadcast {}) at step {} (wall {} \u{b5}s)",
                push.push_peer(),
                push.push_bcast(),
                push.step,
                push.wall_us
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  last mailbox push: none recorded - no message ever reached this rank"
            );
        }
    }
    // Pending timers: arms with no later fire for this rank.
    let last_fire = last
        .iter()
        .rposition(|(_, rec)| rec.kind == FlightKind::TimerFire && rec.rank == r);
    let pending: Vec<&FlightRecord> = last
        .iter()
        .enumerate()
        .filter(|(i, (_, rec))| {
            rec.kind == FlightKind::TimerArm && rec.rank == r && last_fire.is_none_or(|f| *i > f)
        })
        .map(|(_, (_, rec))| rec)
        .collect();
    if pending.is_empty() {
        let _ = writeln!(out, "  pending timers:    none");
    } else {
        for arm in pending {
            let _ = writeln!(
                out,
                "  pending timers:    armed for {} \u{b5}s (at step {})",
                arm.aux, arm.step
            );
        }
    }
    if !last.is_empty() {
        let _ = writeln!(out, "  last actions:");
        for rec in &last {
            let _ = writeln!(out, "    {}", rec_line(rec));
        }
    }
}

/// One merged-view entry as a fixed-width text line.
fn rec_line((shard, r): &(usize, FlightRecord)) -> String {
    let rank = if r.rank == NO_RANK {
        "-".to_owned()
    } else {
        r.rank.to_string()
    };
    format!(
        "[s{} #{:<4}] wall {:>8} \u{b5}s  {:<13} rank {:>5}  aux={} step={}",
        shard,
        r.seq,
        r.wall_us,
        r.kind.name(),
        rank,
        r.aux,
        r.step
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = concat!(
        "{\"schema\":\"ct-postmortem-v1\",\"reason\":\"watchdog_stall\",\"p\":8,",
        "\"stall\":{\"id\":1,\"timeout_ms\":200,\"p\":8,\"live\":7,\"colored\":4,",
        "\"runq_depth\":0,\"pending_timers\":0,\"coord_in_flight\":0,",
        "\"now_us\":201000,\"epoch_us\":1000,",
        "\"ranks\":[{\"rank\":3,\"scheduled\":false,\"mailbox_len\":0,",
        "\"mailbox_spilled\":0,\"last_poll_us\":1010}]},",
        "\"telemetry\":null,",
        "\"flight\":{\"cap\":8,\"shards\":[{\"shard\":0,\"written\":2,\"lost\":0,",
        "\"records\":[",
        "{\"seq\":0,\"kind\":\"quantum_start\",\"rank\":3,\"aux\":1,\"step\":10,\"wall_us\":1010},",
        "{\"seq\":1,\"kind\":\"mailbox_push\",\"rank\":5,\"aux\":3,\"step\":12,\"wall_us\":1012}",
        "]}]},",
        "\"tail\":[",
        "{\"shard\":0,\"seq\":0,\"kind\":\"quantum_start\",\"rank\":3,\"aux\":1,\"step\":10,\"wall_us\":1010},",
        "{\"shard\":0,\"seq\":1,\"kind\":\"mailbox_push\",\"rank\":5,\"aux\":3,\"step\":12,\"wall_us\":1012}",
        "],",
        "\"ranks\":[{\"rank\":3,\"last\":[",
        "{\"shard\":0,\"seq\":0,\"kind\":\"quantum_start\",\"rank\":3,\"aux\":1,\"step\":10,\"wall_us\":1010},",
        "{\"shard\":0,\"seq\":1,\"kind\":\"mailbox_push\",\"rank\":5,\"aux\":3,\"step\":12,\"wall_us\":1012}",
        "]}]}"
    );

    #[test]
    fn parses_and_reconstructs_the_stranded_rank() {
        let pm = Postmortem::from_json(MINIMAL).unwrap();
        assert_eq!(pm.reason, "watchdog_stall");
        assert_eq!(pm.p, 8);
        assert_eq!(pm.flight.shards[0].records.len(), 2);
        assert!(pm.health.is_empty(), "a dump without `health` has none");
        assert_eq!(pm.focus_ranks(), vec![3]);
        let text = render_text(&pm);
        assert!(text.contains("postmortem: watchdog_stall (p=8)"), "{text}");
        assert!(text.contains("rank     3: scheduled=false"), "{text}");
        assert!(
            text.contains("last poll:         10 \u{b5}s into iteration 1"),
            "{text}"
        );
        // No push ever reached rank 3 - the orphaned-subtree signature.
        assert!(text.contains("last mailbox push: none recorded"), "{text}");
        assert!(text.contains("pending timers:    none"), "{text}");
        assert_eq!(text, render_text(&Postmortem::from_json(MINIMAL).unwrap()));
    }

    #[test]
    fn rejects_wrong_schema() {
        let err = Postmortem::from_json("{\"schema\":\"nope\"}").unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn rejects_malformed_records() {
        let bad = MINIMAL.replace("\"kind\":\"quantum_start\",", "");
        let err = Postmortem::from_json(&bad).unwrap_err();
        assert_eq!(err, "flight.shards[0].records[0].kind: missing");
    }
}
