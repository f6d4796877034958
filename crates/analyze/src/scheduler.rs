//! Scheduler-telemetry summaries (`ct analyze --view scheduler`).
//!
//! Renders a `ct-telemetry-v1` snapshot — the JSON written by `ct stats`
//! or attached to bench manifests, read back by
//! [`TelemetrySnapshot::from_json`] beside its writer — as a compact
//! scheduler health report: quantum and batch-size distributions,
//! mailbox spill counts, lost-wakeup recheck counts and the simulator's
//! per-repetition distributions.

use core::fmt::Write as _;

use ct_obs::TelemetrySnapshot;

fn dist_line(snap: &TelemetrySnapshot, name: &str) -> String {
    match snap.histograms.get(name) {
        Some(h) if h.count() > 0 => {
            let mean = h.sum() as f64 / h.count() as f64;
            format!(
                "n={} mean={:.1} p50={:.1} p95={:.1} max={}",
                h.count(),
                mean,
                h.p50().unwrap_or(0.0),
                h.p95().unwrap_or(0.0),
                h.max().unwrap_or(0),
            )
        }
        _ => "n=0".to_owned(),
    }
}

/// Render the scheduler health report. The cluster section appears
/// only when the snapshot saw scheduler quanta, the sim section
/// only when it saw simulator repetitions.
pub fn render_text(snap: &TelemetrySnapshot) -> String {
    let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scheduler summary (source={}, workers={}, ranks={})",
        snap.source, snap.workers, snap.ranks
    );
    if snap.counter("sched.quanta") > 0 {
        let _ = writeln!(
            out,
            "  quanta: {} ({} stale) | batches: {} | wakes: {} | lost-wakeup rechecks: {}",
            snap.counter("sched.quanta"),
            snap.counter("sched.stale_quanta"),
            snap.counter("sched.batches"),
            snap.counter("sched.wakes"),
            snap.counter("sched.lost_wakeup_rechecks"),
        );
        let _ = writeln!(out, "  quantum µs: {}", dist_line(snap, "sched.quantum_us"));
        let _ = writeln!(out, "  batch size: {}", dist_line(snap, "sched.batch_size"));
        let _ = writeln!(
            out,
            "  run-queue depth: {}",
            dist_line(snap, "sched.runq_depth")
        );
        let _ = writeln!(
            out,
            "  messages: sent {} delivered {} stale-dropped {}",
            snap.counter("msgs.sent"),
            snap.counter("msgs.delivered"),
            snap.counter("msgs.stale_dropped"),
        );
        let _ = writeln!(
            out,
            "  mailbox: pushes {} spills {} hwm {} | drained/quantum: {}",
            snap.counter("mailbox.pushes"),
            snap.counter("mailbox.spills"),
            gauge("mailbox.hwm"),
            dist_line(snap, "mailbox.drained"),
        );
        let _ = writeln!(
            out,
            "  timers: arms {} fires {} cascades {} (pending {})",
            snap.counter("timer.arms"),
            snap.counter("timer.fires"),
            snap.counter("timer.cascades"),
            gauge("timers.pending"),
        );
        let _ = writeln!(
            out,
            "  coordinator: batches {} colored {} | batch size: {}",
            snap.counter("coord.batches"),
            snap.counter("coord.colored"),
            dist_line(snap, "coord.batch_size"),
        );
    }
    if snap.counter("sim.reps") > 0 {
        let _ = writeln!(
            out,
            "  sim: reps {} ({} incomplete) | events {} | sends {}",
            snap.counter("sim.reps"),
            snap.counter("sim.incomplete"),
            snap.counter("sim.events"),
            snap.counter("sim.sends"),
        );
        let _ = writeln!(out, "  rep events: {}", dist_line(snap, "sim.rep_events"));
        let _ = writeln!(out, "  rep sends: {}", dist_line(snap, "sim.rep_sends"));
        let _ = writeln!(
            out,
            "  rep quiescence: {}",
            dist_line(snap, "sim.rep_quiescence")
        );
    }
    if snap.counter("sched.quanta") == 0 && snap.counter("sim.reps") == 0 {
        let _ = writeln!(out, "  (no scheduler or simulator activity recorded)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_obs::telemetry::TelemetryHub;

    fn sim_snapshot() -> TelemetrySnapshot {
        let hub = TelemetryHub::new(1, 8);
        hub.record_sim_rep(100, 30, 40, true);
        hub.record_sim_rep(120, 31, 44, false);
        hub.snapshot().with_source("sim")
    }

    #[test]
    fn render_gates_sections_on_activity() {
        let text = render_text(&sim_snapshot());
        assert!(
            text.contains("scheduler summary (source=sim, workers=1, ranks=8)"),
            "{text}"
        );
        assert!(text.contains("sim: reps 2 (1 incomplete)"), "{text}");
        assert!(!text.contains("quanta:"), "{text}");
        assert!(!text.contains("no scheduler or simulator"), "{text}");
    }
}
