//! Time-series summaries (`ct analyze --view series`).
//!
//! Renders a `ct-series-v1` JSONL export (written by `ct serve`,
//! `ct stats --series` or the `/series.jsonl` endpoint, read back by
//! [`SeriesExport::from_jsonl`] beside its writer) as a compact trend
//! report: window cadence, per-counter totals with mean and peak rates,
//! gauge peaks and the health-event timeline.

use core::fmt::Write as _;

use ct_obs::health::Severity;
use ct_obs::SeriesExport;

/// Total of a counter across every window.
fn total(export: &SeriesExport, name: &str) -> u64 {
    export.samples.iter().map(|s| s.delta(name)).sum()
}

/// Milliseconds covered by the windows.
fn span_ms(export: &SeriesExport) -> u64 {
    export.samples.iter().map(|s| s.dt_ms).sum()
}

fn rate_line(export: &SeriesExport, name: &str) -> Option<String> {
    let total = total(export, name);
    if total == 0 {
        return None;
    }
    let span_s = span_ms(export) as f64 / 1_000.0;
    let mean = total as f64 / span_s;
    let peak = export
        .samples
        .iter()
        .map(|s| s.rate(name))
        .fold(0.0f64, f64::max);
    Some(format!(
        "  {name}: total {total} | mean {mean:.1}/s peak {peak:.1}/s"
    ))
}

/// Render the trend report: cadence, every counter with a nonzero
/// total (catalogue order), gauge peaks and the health timeline.
pub fn render_text(export: &SeriesExport) -> String {
    let mut out = String::new();
    if export.samples.is_empty() {
        let _ = writeln!(out, "series summary: no sample windows recorded");
    } else {
        let first = &export.samples[0];
        let span_s = span_ms(export) as f64 / 1_000.0;
        let _ = writeln!(
            out,
            "series summary (source={}, windows={}, span={:.2}s)",
            first.source,
            export.samples.len(),
            span_s
        );
        let dt_min = export.samples.iter().map(|s| s.dt_ms).min().unwrap_or(0);
        let dt_max = export.samples.iter().map(|s| s.dt_ms).max().unwrap_or(0);
        let dt_mean = span_ms(export) as f64 / export.samples.len() as f64;
        let _ = writeln!(
            out,
            "  cadence: dt mean {:.0} ms (min {}, max {}) | workers={} ranks={}",
            dt_mean, dt_min, dt_max, first.workers, first.ranks
        );
        let mut any = false;
        for name in first.counters.keys() {
            if let Some(line) = rate_line(export, name) {
                let _ = writeln!(out, "{line}");
                any = true;
            }
        }
        if !any {
            let _ = writeln!(out, "  (no counter activity recorded)");
        }
        let mut peaks: Vec<String> = Vec::new();
        for name in first.gauges.keys() {
            let peak = export
                .samples
                .iter()
                .map(|s| s.gauge(name))
                .max()
                .unwrap_or(0);
            if peak > 0 {
                peaks.push(format!("{name} peak {peak}"));
            }
        }
        if !peaks.is_empty() {
            let _ = writeln!(out, "  gauges: {}", peaks.join(" | "));
        }
    }
    if export.health.is_empty() {
        let _ = writeln!(out, "health: no events");
    } else {
        let count = |sev| export.health.iter().filter(|e| e.severity == sev).count();
        let _ = writeln!(
            out,
            "health: {} events ({} critical, {} warning, {} info)",
            export.health.len(),
            count(Severity::Critical),
            count(Severity::Warning),
            count(Severity::Info),
        );
        for e in &export.health {
            let _ = writeln!(
                out,
                "  [{:>8} ms] {:<8} {}: {}",
                e.t_ms,
                e.severity.name().to_uppercase(),
                e.rule,
                e.message
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_obs::health::HealthEvent;
    use ct_obs::series::SeriesStore;
    use ct_obs::telemetry::{Counter, TelemetryHub};

    /// A deterministic two-window export built through the real
    /// producer step (no wall clock involved), with one health event.
    fn export() -> SeriesExport {
        let hub = TelemetryHub::new(1, 8);
        let store = SeriesStore::new(16);
        store.sample(hub.snapshot().with_source("cluster"), 0);
        for seq in 0..2u64 {
            hub.add(0, Counter::MsgsDelivered, 10 * (seq + 1));
            hub.add(0, Counter::SchedQuanta, 4);
            store.sample(hub.snapshot().with_source("cluster"), (seq + 1) * 100);
        }
        let e = HealthEvent {
            rule: "stall_precursor".to_owned(),
            severity: Severity::Critical,
            seq: 1,
            t_ms: 200,
            values: vec![("iter.live".to_owned(), 7)],
            message: "broadcast wedged".to_owned(),
        };
        SeriesExport {
            samples: store.samples(),
            health: vec![e],
        }
    }

    #[test]
    fn renders_a_real_export() {
        let s = export();
        assert_eq!(total(&s, "msgs.delivered"), 30);
        assert_eq!(total(&s, "sched.quanta"), 8);
        assert_eq!(span_ms(&s), 200);
        let text = render_text(&s);
        assert!(text.contains("source=cluster, windows=2"), "{text}");
        assert!(text.contains("msgs.delivered: total 30"), "{text}");
        assert!(text.contains("CRITICAL stall_precursor"), "{text}");
    }

    #[test]
    fn empty_export_renders() {
        let text = render_text(&SeriesExport::default());
        assert!(text.contains("no sample windows"), "{text}");
        assert!(text.contains("health: no events"), "{text}");
    }
}
