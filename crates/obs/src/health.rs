//! Health rules over telemetry sample windows.
//!
//! A [`HealthEngine`] is fed one [`SeriesSample`](crate::series::SeriesSample)
//! per window by [`SeriesStore::sample`](crate::series::SeriesStore::sample),
//! the one producer step, and evaluates a fixed set of anomaly rules
//! against the window's deltas and gauges. Each rule that crosses its
//! boundary produces a structured [`HealthEvent`] — rule id, severity,
//! the window that fired it, the offending values and a human sentence
//! — exactly once per episode: the event fires on the rising edge,
//! stays *active* while the condition holds, and re-arms when the
//! condition clears.
//!
//! Four rules, each with a fixed threshold: `stall_precursor`,
//! `mailbox_spill_spike`, `runq_saturation` and
//! `worker_busy_imbalance`. Each is one row of a table — id, severity,
//! how many anomalous windows in a row it takes, and a check that
//! reports the offending values and the sentence — and one loop runs
//! that edge protocol for all four. The flagship is `stall_precursor`:
//! an installed iteration whose uncolored live ranks see zero
//! deliveries and zero coloring progress for K consecutive windows.
//! With K=3 and a 250 ms sample interval it fires less than a second
//! into a wedged broadcast — minutes before a production-scale
//! watchdog (default 30 s) would.
//!
//! Events ride the `health` of each cluster broadcast's outcome (those
//! fired between its admission and its retirement), are appended to
//! `ct-postmortem-v1` dumps as a precursor timeline, interleave into
//! the `ct-series-v1` JSONL export, and are stamped into campaign
//! manifests.

use crate::json::{JsonObject, Value};
use crate::series::SeriesSample;

/// How bad a fired rule is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a look; the run is still making progress.
    Info,
    /// Degradation that will hurt at scale or under load.
    Warning,
    /// The run is (or is about to be) wedged.
    Critical,
}

impl Severity {
    /// Stable lowercase name used in JSON and text renderings.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Parse the stable name back; `None` for anything else.
    pub fn parse(name: &str) -> Option<Severity> {
        match name {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

/// One fired health rule: what, when, how bad, and the numbers that
/// tripped it.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// Stable rule id (`stall_precursor`, `mailbox_spill_spike`, ...).
    pub rule: String,
    /// How bad it is.
    pub severity: Severity,
    /// Sample-window sequence number that fired the rule.
    pub seq: u64,
    /// Sampler-clock milliseconds (monotonic, since sampler start) of
    /// the firing window.
    pub t_ms: u64,
    /// The offending values, in rule-defined order.
    pub values: Vec<(String, u64)>,
    /// One human sentence describing the anomaly.
    pub message: String,
}

impl HealthEvent {
    /// Render as one deterministic JSON object. The line is tagged
    /// `"schema":"ct-series-v1","kind":"health"` so it can interleave
    /// with samples in the same JSONL export.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("schema", crate::series::SCHEMA);
        obj.field_str("kind", "health");
        obj.field_str("rule", &self.rule);
        obj.field_str("severity", self.severity.name());
        obj.field_u64("seq", self.seq);
        obj.field_u64("t_ms", self.t_ms);
        obj.field_u64_map("values", self.values.iter().map(|(k, v)| (k, v)));
        obj.field_str("message", &self.message);
        obj.finish()
    }

    /// Read an event written by [`HealthEvent::to_json`] (its `schema`
    /// and `kind` tags are the caller's to check).
    pub fn from_value(v: &Value) -> Result<HealthEvent, String> {
        let severity = v.str_field("severity")?;
        Ok(HealthEvent {
            rule: v.str_field("rule")?.to_owned(),
            severity: Severity::parse(severity)
                .ok_or_else(|| format!("severity: unknown severity {severity:?}"))?,
            seq: v.int_field("seq")?,
            t_ms: v.int_field("t_ms")?,
            values: v.u64_map("values")?,
            message: v.str_field("message")?.to_owned(),
        })
    }
}

/// Thresholds of the rules. Deliberately conservative: quiet on every
/// healthy workload in the test suite, loud within a second of a
/// genuine wedge.
///
/// `stall_precursor`: consecutive zero-progress windows (with an
/// iteration installed and uncolored live ranks present) before firing.
const STALL_WINDOWS: u32 = 3;
/// `mailbox_spill_spike`: spills per second above which the window is
/// anomalous.
const SPILL_RATE: f64 = 1_000.0;
/// `runq_saturation`: consecutive windows with run-queue depth at or
/// above the rank count before firing.
const RUNQ_WINDOWS: u32 = 3;
/// `worker_busy_imbalance`: max/mean busy-time ratio above which the
/// window is anomalous. Max/mean is bounded by the worker count, so
/// the rule needs four or more workers to fire.
const IMBALANCE_RATIO: f64 = 3.0;
/// `worker_busy_imbalance`: minimum total busy µs in the window before
/// imbalance is judged at all (idle windows are noise).
const IMBALANCE_MIN_BUSY_US: u64 = 10_000;

/// A check's report on an anomalous window: the offending values, in order, and the sentence.
type Finding = (Vec<(&'static str, u64)>, String);

/// One health rule: it fires once `check` finds `windows` anomalous windows in a row.
struct Rule {
    id: &'static str,
    severity: Severity,
    windows: u32,
    check: fn(&SeriesSample) -> Option<Finding>,
}

/// The rules, in evaluation order.
const RULES: [Rule; 4] = [
    Rule {
        id: "stall_precursor",
        severity: Severity::Critical,
        windows: STALL_WINDOWS,
        check: stall,
    },
    Rule {
        id: "mailbox_spill_spike",
        severity: Severity::Warning,
        windows: 1,
        check: spill_spike,
    },
    Rule {
        id: "runq_saturation",
        severity: Severity::Warning,
        windows: RUNQ_WINDOWS,
        check: runq_saturation,
    },
    Rule {
        id: "worker_busy_imbalance",
        severity: Severity::Info,
        windows: 1,
        check: busy_imbalance,
    },
];

/// `stall_precursor`: installed iteration(s) with uncolored live ranks and zero delivery
/// and coloring progress. `iter.active` is a count (several broadcasts may be in flight
/// under pub/sub); any installed iteration arms the rule.
fn stall(s: &SeriesSample) -> Option<Finding> {
    let live = s.gauge("iter.live");
    let colored = s.gauge("iter.colored");
    let wedged = s.gauge("iter.active") >= 1
        && colored < live
        && s.delta("msgs.delivered") == 0
        && s.delta("coord.colored") == 0;
    wedged.then(|| {
        let k = STALL_WINDOWS;
        let span_ms = u64::from(k) * s.dt_ms;
        (
            vec![
                ("iter.colored", colored),
                ("iter.live", live),
                ("windows", u64::from(k)),
            ],
            format!(
                "broadcast wedged: {colored}/{live} live ranks colored with zero \
                 deliveries for {k} consecutive windows (~{span_ms} ms) — \
                 stall likely before the watchdog fires"
            ),
        )
    })
}

/// `mailbox_spill_spike`: ring overflow rate above threshold.
fn spill_spike(s: &SeriesSample) -> Option<Finding> {
    let spill_rate = s.rate("mailbox.spills");
    (spill_rate > SPILL_RATE).then(|| {
        (
            vec![
                ("mailbox.spills", s.delta("mailbox.spills")),
                ("rate_per_s", spill_rate as u64),
            ],
            format!(
                "mailbox rings overflowing into the spill heap at \
                 {spill_rate:.0}/s — raise CT_MAILBOX_CAP or reduce fan-in"
            ),
        )
    })
}

/// `runq_saturation`: run queue at or beyond the rank count: workers cannot keep up.
fn runq_saturation(s: &SeriesSample) -> Option<Finding> {
    let depth = s.gauge("runq.depth");
    (s.ranks > 0 && depth >= s.ranks).then(|| {
        (
            vec![("runq.depth", depth), ("ranks", s.ranks)],
            format!(
                "run queue saturated: depth {depth} >= {} ranks across \
                 {} consecutive windows — workers cannot keep up",
                s.ranks, RUNQ_WINDOWS
            ),
        )
    })
}

/// `worker_busy_imbalance`: one worker doing several times the pool's mean busy time.
fn busy_imbalance(s: &SeriesSample) -> Option<Finding> {
    let total_busy: u64 = s.worker_busy_us.iter().sum();
    let workers = s.worker_busy_us.len() as u64;
    if workers < 2 || total_busy < IMBALANCE_MIN_BUSY_US {
        return None;
    }
    let max_busy = s.worker_busy_us.iter().copied().max().unwrap_or(0);
    let mean_busy = total_busy / workers;
    let imbalanced = mean_busy > 0 && (max_busy as f64) / (mean_busy as f64) > IMBALANCE_RATIO;
    imbalanced.then(|| {
        (
            vec![
                ("max_busy_us", max_busy),
                ("mean_busy_us", mean_busy),
                ("workers", workers),
            ],
            format!(
                "worker busy-time imbalance: hottest worker {max_busy} µs vs \
                 pool mean {mean_busy} µs this window — check shard affinity"
            ),
        )
    })
}

/// Per-window rule evaluator with rising-edge/active/re-arm state; see
/// the module docs.
#[derive(Clone, Debug, Default)]
pub struct HealthEngine {
    /// Per rule, in [`RULES`] order: consecutive anomalous windows.
    streaks: [u32; RULES.len()],
    active: Vec<HealthEvent>,
}

impl HealthEngine {
    /// An engine with no history.
    pub fn new() -> HealthEngine {
        HealthEngine::default()
    }

    /// Events currently active (fired and not yet cleared).
    pub fn active(&self) -> &[HealthEvent] {
        &self.active
    }

    /// Evaluate every rule against one sample window; returns the
    /// events that fired on this window (rising edges only).
    pub fn observe(&mut self, s: &SeriesSample) -> Vec<HealthEvent> {
        let mut fired = Vec::new();
        for (rule, streak) in RULES.iter().zip(&mut self.streaks) {
            let finding = (rule.check)(s);
            *streak = if finding.is_some() { *streak + 1 } else { 0 };
            match finding {
                Some(_) if self.active.iter().any(|e| e.rule == rule.id) => {}
                Some((values, message)) if *streak >= rule.windows => {
                    let e = HealthEvent {
                        rule: rule.id.to_owned(),
                        severity: rule.severity,
                        seq: s.seq,
                        t_ms: s.t_ms,
                        values: values.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
                        message,
                    };
                    self.active.push(e.clone());
                    fired.push(e);
                }
                _ => self.active.retain(|e| e.rule != rule.id),
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A synthetic window with every counter/gauge zeroed and one
    /// worker; tests mutate just what a rule reads.
    fn window(seq: u64) -> SeriesSample {
        SeriesSample {
            source: "test".to_owned(),
            seq,
            t_ms: seq * 100,
            dt_ms: 100,
            workers: 1,
            ranks: 8,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            worker_busy_us: vec![0],
        }
    }

    fn wedged(seq: u64) -> SeriesSample {
        let mut s = window(seq);
        s.gauges.insert("iter.active".to_owned(), 1);
        s.gauges.insert("iter.live".to_owned(), 7);
        s.gauges.insert("iter.colored".to_owned(), 4);
        s
    }

    #[test]
    fn stall_precursor_fires_after_k_windows_and_only_once() {
        let mut eng = HealthEngine::new();
        assert!(eng.observe(&wedged(0)).is_empty());
        assert!(eng.observe(&wedged(1)).is_empty());
        let fired = eng.observe(&wedged(2));
        assert_eq!(fired.len(), 1);
        let e = &fired[0];
        assert_eq!(e.rule, "stall_precursor");
        assert_eq!(e.severity, Severity::Critical);
        assert_eq!(e.seq, 2);
        assert!(e.message.contains("4/7"), "{}", e.message);
        // Still wedged: active, but no re-fire.
        assert!(eng.observe(&wedged(3)).is_empty());
        assert_eq!(eng.active().len(), 1);
    }

    #[test]
    fn stall_precursor_covers_concurrent_broadcasts() {
        // Under pub/sub iter.active is a topic count; a wedge with
        // several iterations installed must still fire.
        let mut eng = HealthEngine::new();
        let multi = |seq| {
            let mut s = window(seq);
            s.gauges.insert("iter.active".to_owned(), 4);
            s.gauges.insert("iter.live".to_owned(), 28);
            s.gauges.insert("iter.colored".to_owned(), 13);
            s
        };
        assert!(eng.observe(&multi(0)).is_empty());
        assert!(eng.observe(&multi(1)).is_empty());
        let fired = eng.observe(&multi(2));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "stall_precursor");
        assert!(fired[0].message.contains("13/28"), "{}", fired[0].message);
    }

    #[test]
    fn stall_precursor_resets_on_any_progress() {
        let mut eng = HealthEngine::new();
        eng.observe(&wedged(0));
        eng.observe(&wedged(1));
        // One delivery breaks the streak...
        let mut progressing = wedged(2);
        progressing.counters.insert("msgs.delivered".to_owned(), 1);
        assert!(eng.observe(&progressing).is_empty());
        // ...so two more wedged windows are still below K.
        assert!(eng.observe(&wedged(3)).is_empty());
        assert!(eng.observe(&wedged(4)).is_empty());
        assert_eq!(eng.observe(&wedged(5)).len(), 1);
    }

    #[test]
    fn stall_precursor_ignores_idle_and_completed_iterations() {
        let mut eng = HealthEngine::new();
        // No iteration installed.
        for seq in 0..6 {
            assert!(eng.observe(&window(seq)).is_empty());
        }
        // Iteration installed but fully colored.
        let mut done = window(6);
        done.gauges.insert("iter.active".to_owned(), 1);
        done.gauges.insert("iter.live".to_owned(), 7);
        done.gauges.insert("iter.colored".to_owned(), 7);
        for _ in 0..6 {
            assert!(eng.observe(&done).is_empty());
        }
    }

    #[test]
    fn stall_precursor_rearms_after_clearing() {
        let mut eng = HealthEngine::new();
        for seq in 0..3 {
            eng.observe(&wedged(seq));
        }
        assert_eq!(eng.active().len(), 1);
        // Iteration completes: active clears...
        assert!(eng.observe(&window(3)).is_empty());
        assert!(eng.active().is_empty());
        // ...and a fresh wedge fires a fresh event.
        eng.observe(&wedged(4));
        eng.observe(&wedged(5));
        assert_eq!(eng.observe(&wedged(6)).len(), 1);
    }

    #[test]
    fn spill_spike_boundary() {
        let mut eng = HealthEngine::new();
        // 100 spills in 100 ms = 1000/s: at the threshold, not over.
        let mut at = window(0);
        at.counters.insert("mailbox.spills".to_owned(), 100);
        assert!(eng.observe(&at).is_empty());
        // 101 spills in 100 ms = 1010/s: over.
        let mut over = window(1);
        over.counters.insert("mailbox.spills".to_owned(), 101);
        let fired = eng.observe(&over);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "mailbox_spill_spike");
        assert_eq!(fired[0].severity, Severity::Warning);
        // Quiet window clears it; the next spike re-fires.
        assert!(eng.observe(&window(2)).is_empty());
        assert!(eng.active().is_empty());
        let mut again = window(3);
        again.counters.insert("mailbox.spills".to_owned(), 500);
        assert_eq!(eng.observe(&again).len(), 1);
    }

    #[test]
    fn runq_saturation_needs_consecutive_windows() {
        let mut eng = HealthEngine::new();
        let mut deep = window(0);
        deep.gauges.insert("runq.depth".to_owned(), 8);
        assert!(eng.observe(&deep).is_empty());
        // A drained window resets the streak.
        assert!(eng.observe(&window(1)).is_empty());
        let mut fired = Vec::new();
        for seq in 2..5 {
            let mut s = window(seq);
            s.gauges.insert("runq.depth".to_owned(), 9);
            fired.extend(eng.observe(&s));
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "runq_saturation");
        // Depth below the rank count never counts.
        let mut eng2 = HealthEngine::new();
        for seq in 0..6 {
            let mut s = window(seq);
            s.gauges.insert("runq.depth".to_owned(), 7);
            assert!(eng2.observe(&s).is_empty());
        }
    }

    #[test]
    fn imbalance_boundary_and_idle_guard() {
        let mut eng = HealthEngine::new();
        // Idle pool (below min busy): ratio is ignored.
        let mut idle = window(0);
        idle.worker_busy_us = vec![900, 0, 0, 0];
        assert!(eng.observe(&idle).is_empty());
        // Busy but balanced: max/mean = 3.0 exactly is not over.
        let mut at = window(1);
        at.worker_busy_us = vec![30_000, 10_000, 0, 0];
        assert!(eng.observe(&at).is_empty());
        // One hot worker beyond 3x the mean fires once.
        let mut over = window(2);
        over.worker_busy_us = vec![50_000, 1_000, 1_000, 1_000];
        let fired = eng.observe(&over);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "worker_busy_imbalance");
        assert_eq!(fired[0].severity, Severity::Info);
    }

    #[test]
    fn event_json_is_deterministic_and_tagged() {
        let e = HealthEvent {
            rule: "stall_precursor".to_owned(),
            severity: Severity::Critical,
            seq: 7,
            t_ms: 1750,
            values: vec![("iter.colored".to_owned(), 4), ("iter.live".to_owned(), 7)],
            message: "broadcast wedged".to_owned(),
        };
        assert_eq!(
            e.to_json(),
            "{\"schema\":\"ct-series-v1\",\"kind\":\"health\",\
             \"rule\":\"stall_precursor\",\"severity\":\"critical\",\
             \"seq\":7,\"t_ms\":1750,\
             \"values\":{\"iter.colored\":4,\"iter.live\":7},\
             \"message\":\"broadcast wedged\"}"
        );
        assert_eq!(e.to_json(), e.to_json());
    }
}
