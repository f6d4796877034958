//! Continuous telemetry: timestamped snapshot deltas in a bounded ring.
//!
//! The hub ([`crate::TelemetryHub`]) and the flight recorder observe
//! two instants — a snapshot at run end, the last few thousand records
//! after a crash. Long-lived runs degrade as a *trajectory*: spill
//! rates climbing, delivery rates flatlining minutes before the
//! watchdog fires. This module adds the time axis.
//!
//! A [`Sampler`] is a background thread that polls a hub at a fixed
//! interval (`ClusterConfig::sample(Duration)` /
//! `SimulationBuilder::sample`, `CT_SAMPLE_MS` override) and turns each
//! pair of consecutive snapshots into a [`SeriesSample`] — the
//! per-window counter *deltas* plus point-in-time gauges, stamped with
//! a monotonic clock so NTP steps can never produce negative rates.
//! Samples land in a fixed-capacity [`SeriesRing`] (oldest-first
//! overwrite with a loss counter, same contract as the flight
//! recorder's shard rings) inside a shared [`SeriesStore`], and every
//! window is also fed through a [`HealthEngine`](crate::health) whose
//! fired events accumulate alongside.
//!
//! The store exports one byte-stable JSONL shape for sim and cluster
//! sources — schema tag [`SCHEMA`], `"kind":"sample"` and
//! `"kind":"health"` lines interleaved in time order — consumed by
//! `ct monitor`, `ct analyze --view series` and the `/series.jsonl`
//! HTTP endpoint.
//!
//! Same `Option` discipline as the hub and recorder: no sampler
//! configured means no thread, no atomically-read hub, and
//! byte-identical traces and outcomes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::health::{HealthConfig, HealthEngine, HealthEvent};
use crate::json::{JsonObject, Value};
use crate::telemetry::{Counter, TelemetryHub, TelemetrySnapshot};

/// Schema tag stamped into every exported line; bump on any
/// incompatible change to the JSONL layout.
pub const SCHEMA: &str = "ct-series-v1";

/// Default sampler interval in milliseconds (see [`default_sample_ms`]).
pub const DEFAULT_SAMPLE_MS: u64 = 250;

/// Default ring capacity in windows: 600 windows at the default 250 ms
/// interval is 2.5 minutes of history.
pub const DEFAULT_SERIES_CAP: usize = 600;

/// Sampler interval override: `CT_SAMPLE_MS` when set to a positive
/// integer, else [`DEFAULT_SAMPLE_MS`].
pub fn default_sample_ms() -> u64 {
    parse_sample_ms(std::env::var("CT_SAMPLE_MS").ok().as_deref())
}

/// [`default_sample_ms`] with the raw env value passed in, factored out
/// so tests can cover the parse without mutating the environment.
pub fn parse_sample_ms(raw: Option<&str>) -> u64 {
    raw.and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(DEFAULT_SAMPLE_MS)
}

/// One sample window: the counter deltas between two consecutive hub
/// snapshots plus the later snapshot's gauges, stamped with a
/// monotonic timestamp.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSample {
    /// Where the snapshots came from (`"sim"` or `"cluster"`).
    pub source: String,
    /// Window sequence number, starting at 0.
    pub seq: u64,
    /// Monotonic milliseconds since the sampler started, at window end.
    pub t_ms: u64,
    /// Window length in milliseconds (always >= 1).
    pub dt_ms: u64,
    /// Worker shards feeding the hub.
    pub workers: u64,
    /// Ranks in the run.
    pub ranks: u64,
    /// Per-window counter deltas, full catalogue (zeros included).
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges from the window-end snapshot.
    pub gauges: BTreeMap<String, u64>,
    /// Per-worker `sched.busy_us` deltas this window (one entry per
    /// shard) — the basis of utilization bars and the imbalance rule.
    pub worker_busy_us: Vec<u64>,
}

impl SeriesSample {
    /// The delta window between two snapshots of the *same* hub.
    /// Counters are clamped to zero on decrease (snapshots of a live
    /// hub are monotone; clamping keeps a torn read from producing
    /// nonsense); gauges are taken from `next`; `dt_ms` is clamped to
    /// at least 1 so rates are always finite.
    pub fn between(
        prev: &TelemetrySnapshot,
        next: &TelemetrySnapshot,
        seq: u64,
        t_ms: u64,
        dt_ms: u64,
    ) -> SeriesSample {
        let mut counters = BTreeMap::new();
        for c in Counter::ALL {
            let name = c.name();
            let a = prev.counters.get(name).copied().unwrap_or(0);
            let b = next.counters.get(name).copied().unwrap_or(0);
            counters.insert(name.to_owned(), b.saturating_sub(a));
        }
        let busy = Counter::SchedBusyUs.name();
        let worker_busy_us = next
            .per_worker
            .iter()
            .enumerate()
            .map(|(w, shard)| {
                let b: u64 = shard.get(busy).copied().unwrap_or(0);
                let a: u64 = prev
                    .per_worker
                    .get(w)
                    .and_then(|s| s.get(busy))
                    .copied()
                    .unwrap_or(0);
                b.saturating_sub(a)
            })
            .collect();
        SeriesSample {
            source: next.source.clone(),
            seq,
            t_ms,
            dt_ms: dt_ms.max(1),
            workers: next.workers,
            ranks: next.ranks,
            counters,
            gauges: next.gauges.clone(),
            worker_busy_us,
        }
    }

    /// This window's delta for a dotted counter name (0 if absent).
    pub fn delta(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// This window's per-second rate for a dotted counter name.
    pub fn rate(&self, name: &str) -> f64 {
        self.delta(name) as f64 * 1_000.0 / self.dt_ms as f64
    }

    /// Window-end value of a gauge (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Render as one deterministic JSON line, tagged
    /// `"schema":"ct-series-v1","kind":"sample"`.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("schema", SCHEMA);
        obj.field_str("kind", "sample");
        obj.field_str("source", &self.source);
        obj.field_u64("seq", self.seq);
        obj.field_u64("t_ms", self.t_ms);
        obj.field_u64("dt_ms", self.dt_ms);
        obj.field_u64("workers", self.workers);
        obj.field_u64("ranks", self.ranks);
        obj.field_u64_map("counters", &self.counters);
        obj.field_u64_map("gauges", &self.gauges);
        obj.field_u64_array("worker_busy_us", &self.worker_busy_us);
        obj.finish()
    }

    /// Read a window written by [`SeriesSample::to_json`] (its `schema`
    /// and `kind` tags are the caller's to check).
    pub fn from_value(v: &Value) -> Result<SeriesSample, String> {
        let dt_ms = v.int_field("dt_ms")?;
        if dt_ms == 0 {
            return Err("dt_ms must be at least 1".to_owned());
        }
        Ok(SeriesSample {
            source: v.str_field("source")?.to_owned(),
            seq: v.int_field("seq")?,
            t_ms: v.int_field("t_ms")?,
            dt_ms,
            workers: v.int_field("workers")?,
            ranks: v.int_field("ranks")?,
            counters: v.u64_map("counters")?,
            gauges: v.u64_map("gauges")?,
            worker_busy_us: v.u64_array("worker_busy_us")?,
        })
    }
}

/// A whole `ct-series-v1` export: the sample windows, oldest first, and
/// the health events, in firing order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesExport {
    /// The sample windows, oldest first.
    pub samples: Vec<SeriesSample>,
    /// The health events, in firing order.
    pub health: Vec<HealthEvent>,
}

impl SeriesExport {
    /// Render as JSONL: one `"kind":"sample"` or `"kind":"health"` line
    /// per record, merged in time order (health after samples at equal
    /// `t_ms`), trailing newline included. Empty string when there is
    /// nothing to export.
    pub fn to_jsonl(&self) -> String {
        let mut lines: Vec<(u64, u8, String)> = Vec::new();
        lines.extend(self.samples.iter().map(|s| (s.t_ms, 0, s.to_json())));
        lines.extend(self.health.iter().map(|e| (e.t_ms, 1, e.to_json())));
        lines.sort_by_key(|a| (a.0, a.1));
        lines.into_iter().map(|(_, _, line)| line + "\n").collect()
    }

    /// Read an export written by [`SeriesExport::to_jsonl`]. Every line
    /// must carry the schema tag and a known `kind`, sample sequence
    /// numbers must increase strictly, timestamps must be monotone,
    /// every sample must name the same source and span at least a
    /// millisecond, so a drifted producer fails here. An export with no
    /// lines is valid (a run shorter than one window).
    pub fn from_jsonl(text: &str) -> Result<SeriesExport, String> {
        let mut export = SeriesExport::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            export
                .push_line(line)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        Ok(export)
    }

    fn push_line(&mut self, line: &str) -> Result<(), String> {
        let v = Value::parse(line)?;
        let schema = v.str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "schema: unsupported series schema {schema:?} (want {SCHEMA:?})"
            ));
        }
        match v.str_field("kind")? {
            "sample" => {
                let s = SeriesSample::from_value(&v)?;
                if let Some(prev) = self.samples.last() {
                    if s.seq <= prev.seq {
                        return Err(format!(
                            "seq: sample seq {} does not increase past {}",
                            s.seq, prev.seq
                        ));
                    }
                    if s.t_ms < prev.t_ms {
                        return Err(format!(
                            "t_ms: sample t_ms {} precedes {}",
                            s.t_ms, prev.t_ms
                        ));
                    }
                    if s.source != prev.source {
                        return Err(format!(
                            "source: {:?} does not match {:?}",
                            s.source, prev.source
                        ));
                    }
                }
                self.samples.push(s);
            }
            "health" => self.health.push(HealthEvent::from_value(&v)?),
            other => return Err(format!("kind: unknown kind {other:?}")),
        }
        Ok(())
    }
}

/// Fixed-capacity ring of sample windows: oldest-first overwrite with
/// a loss counter, so a reader can tell exactly how much history fell
/// off the back.
#[derive(Debug)]
pub struct SeriesRing {
    cap: usize,
    samples: VecDeque<SeriesSample>,
    dropped: u64,
}

impl SeriesRing {
    /// A ring retaining at most `cap` (>= 1) windows.
    pub fn new(cap: usize) -> SeriesRing {
        let cap = cap.max(1);
        SeriesRing {
            cap,
            samples: VecDeque::with_capacity(cap),
            dropped: 0,
        }
    }

    /// Append one window, evicting the oldest when full.
    pub fn push(&mut self, s: SeriesSample) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(s);
    }

    /// Windows currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no window has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum windows retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Windows evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained windows, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &SeriesSample> {
        self.samples.iter()
    }
}

/// Shared sink a [`Sampler`] fills and consumers read: the sample ring,
/// the full health-event log, and the set of currently active events.
/// Every method takes one short mutex hold; the producer side is a
/// background thread touching it a few times per second.
#[derive(Debug)]
pub struct SeriesStore {
    ring: Mutex<SeriesRing>,
    events: Mutex<Vec<HealthEvent>>,
    active: Mutex<Vec<HealthEvent>>,
}

impl SeriesStore {
    /// A store whose ring retains `cap` windows.
    pub fn new(cap: usize) -> SeriesStore {
        SeriesStore {
            ring: Mutex::new(SeriesRing::new(cap)),
            events: Mutex::new(Vec::new()),
            active: Mutex::new(Vec::new()),
        }
    }

    /// Append one sample window.
    pub fn push_sample(&self, s: SeriesSample) {
        self.ring.lock().unwrap().push(s);
    }

    /// Append newly fired events and replace the active set.
    pub fn record_events(&self, fired: Vec<HealthEvent>, active: Vec<HealthEvent>) {
        if !fired.is_empty() {
            self.events.lock().unwrap().extend(fired);
        }
        *self.active.lock().unwrap() = active;
    }

    /// The retained sample windows, oldest first.
    pub fn samples(&self) -> Vec<SeriesSample> {
        self.ring.lock().unwrap().samples().cloned().collect()
    }

    /// The retained windows numbered `seq` or later, oldest first — what
    /// a reader that has seen every window before `seq` still lacks.
    pub fn samples_since(&self, seq: u64) -> Vec<SeriesSample> {
        let ring = self.ring.lock().unwrap();
        ring.samples().filter(|s| s.seq >= seq).cloned().collect()
    }

    /// Windows evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped()
    }

    /// Every health event fired since the store was created.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Total events fired so far; use as a mark for
    /// [`SeriesStore::events_from`].
    pub fn events_len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Events fired at or after a mark previously taken with
    /// [`SeriesStore::events_len`].
    pub fn events_from(&self, mark: usize) -> Vec<HealthEvent> {
        let events = self.events.lock().unwrap();
        events.get(mark..).unwrap_or(&[]).to_vec()
    }

    /// Events whose condition currently holds.
    pub fn active(&self) -> Vec<HealthEvent> {
        self.active.lock().unwrap().clone()
    }

    /// Active events of critical severity (drives the `/health`
    /// endpoint's non-200 status).
    pub fn active_critical(&self) -> Vec<HealthEvent> {
        self.active
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.severity == crate::health::Severity::Critical)
            .cloned()
            .collect()
    }

    /// Export the retained windows and the full health log
    /// ([`SeriesExport::to_jsonl`]).
    pub fn export_jsonl(&self) -> String {
        SeriesExport {
            samples: self.samples(),
            health: self.events(),
        }
        .to_jsonl()
    }
}

/// Background thread polling a [`TelemetryHub`] into a [`SeriesStore`];
/// see the module docs. Dropping the sampler stops and joins the
/// thread.
#[derive(Debug)]
pub struct Sampler {
    store: Arc<SeriesStore>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawn a sampler polling `hub` every `interval` (clamped to at
    /// least 1 ms), tagging snapshots with `source`, retaining `cap`
    /// windows and evaluating `rules` per window.
    pub fn spawn(
        hub: Arc<TelemetryHub>,
        source: &str,
        interval: Duration,
        cap: usize,
        rules: HealthConfig,
    ) -> Sampler {
        let store = Arc::new(SeriesStore::new(cap));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_store = Arc::clone(&store);
        let thread_stop = Arc::clone(&stop);
        let source = source.to_owned();
        let interval = interval.max(Duration::from_millis(1));
        let thread = std::thread::Builder::new()
            .name("ct-sampler".to_owned())
            .spawn(move || {
                let started = Instant::now();
                let mut engine = HealthEngine::new(rules);
                let mut prev = hub.snapshot().with_source(&source);
                let mut prev_ms = 0u64;
                let mut seq = 0u64;
                while !thread_stop.load(Ordering::Acquire) {
                    // Sleep in short slices so stop() returns promptly
                    // even with second-scale intervals.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !thread_stop.load(Ordering::Acquire) {
                        let slice = (interval - slept).min(Duration::from_millis(25));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let t_ms = started.elapsed().as_millis() as u64;
                    let next = hub.snapshot().with_source(&source);
                    let sample = SeriesSample::between(
                        &prev,
                        &next,
                        seq,
                        t_ms,
                        t_ms.saturating_sub(prev_ms),
                    );
                    let fired = engine.observe(&sample);
                    thread_store.push_sample(sample);
                    thread_store.record_events(fired, engine.active().to_vec());
                    prev = next;
                    prev_ms = t_ms;
                    seq += 1;
                }
            })
            .expect("spawn sampler thread");
        Sampler {
            store,
            stop,
            thread: Some(thread),
        }
    }

    /// The shared store the sampler fills.
    pub fn store(&self) -> Arc<SeriesStore> {
        Arc::clone(&self.store)
    }

    /// Signal the thread to stop and join it (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Dist;

    fn sample(seq: u64) -> SeriesSample {
        SeriesSample {
            source: "test".to_owned(),
            seq,
            t_ms: seq * 100,
            dt_ms: 100,
            workers: 1,
            ranks: 4,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            worker_busy_us: vec![seq],
        }
    }

    #[test]
    fn sample_ms_parsing() {
        assert_eq!(parse_sample_ms(None), DEFAULT_SAMPLE_MS);
        assert_eq!(parse_sample_ms(Some("50")), 50);
        assert_eq!(parse_sample_ms(Some(" 125 ")), 125);
        assert_eq!(parse_sample_ms(Some("0")), DEFAULT_SAMPLE_MS);
        assert_eq!(parse_sample_ms(Some("-5")), DEFAULT_SAMPLE_MS);
        assert_eq!(parse_sample_ms(Some("soon")), DEFAULT_SAMPLE_MS);
    }

    #[test]
    fn between_computes_window_deltas_and_busy_split() {
        let hub = TelemetryHub::new(2, 4);
        hub.add(0, Counter::MsgsDelivered, 3);
        hub.add(0, Counter::SchedBusyUs, 100);
        hub.add(1, Counter::SchedBusyUs, 10);
        let prev = hub.snapshot().with_source("cluster");
        hub.add(0, Counter::MsgsDelivered, 5);
        hub.add(1, Counter::SchedBusyUs, 40);
        hub.set_runq_depth(2);
        let next = hub.snapshot().with_source("cluster");
        let s = SeriesSample::between(&prev, &next, 3, 1000, 250);
        assert_eq!(s.seq, 3);
        assert_eq!(s.delta("msgs.delivered"), 5);
        assert_eq!(s.delta("sched.busy_us"), 40);
        assert_eq!(s.delta("msgs.sent"), 0);
        assert_eq!(s.gauge("runq.depth"), 2);
        assert_eq!(s.worker_busy_us, vec![0, 40]);
        assert_eq!(s.rate("msgs.delivered"), 20.0);
        // The full catalogue is present even at zero.
        assert_eq!(s.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn sample_json_is_deterministic_and_tagged() {
        let mut s = sample(2);
        s.counters.insert("msgs.delivered".to_owned(), 7);
        s.gauges.insert("runq.depth".to_owned(), 1);
        let json = s.to_json();
        assert!(
            json.starts_with(
                "{\"schema\":\"ct-series-v1\",\"kind\":\"sample\",\"source\":\"test\",\
                 \"seq\":2,\"t_ms\":200,\"dt_ms\":100,\"workers\":1,\"ranks\":4"
            ),
            "{json}"
        );
        assert!(
            json.contains("\"counters\":{\"msgs.delivered\":7}"),
            "{json}"
        );
        assert!(json.ends_with("\"worker_busy_us\":[2]}"), "{json}");
        assert_eq!(json, s.to_json());
    }

    #[test]
    fn reader_rejects_drifted_exports() {
        let reject = |jsonl: &str| SeriesExport::from_jsonl(jsonl).unwrap_err();
        let err = reject("{\"schema\":\"ct-series-v0\",\"kind\":\"sample\"}");
        assert!(err.contains("unsupported series schema"), "{err}");
        let err = reject("\n{\"schema\":\"ct-series-v1\",\"kind\":\"gap\"}");
        assert_eq!(err, "line 2: kind: unknown kind \"gap\"");
        let (a, b) = (sample(1).to_json(), sample(2).to_json());
        assert!(reject(&format!("{b}\n{a}\n")).contains("does not increase"));
        let zero = a.replacen("\"dt_ms\":100", "\"dt_ms\":0", 1);
        assert_eq!(reject(&zero), "line 1: dt_ms must be at least 1");
        assert_eq!(
            SeriesExport::from_jsonl(""),
            Ok(SeriesExport::default()),
            "a run shorter than one window exports nothing"
        );
    }

    #[test]
    fn ring_overwrites_oldest_first_and_counts_drops() {
        let mut ring = SeriesRing::new(3);
        for seq in 0..5 {
            ring.push(sample(seq));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.samples().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn store_merges_samples_and_events_in_time_order() {
        let store = SeriesStore::new(16);
        store.push_sample(sample(0));
        store.push_sample(sample(1));
        let e = HealthEvent {
            rule: "stall_precursor".to_owned(),
            severity: crate::health::Severity::Critical,
            seq: 1,
            t_ms: 100,
            values: vec![],
            message: "wedged".to_owned(),
        };
        store.record_events(vec![e.clone()], vec![e]);
        let jsonl = store.export_jsonl();
        let kinds: Vec<&str> = jsonl
            .lines()
            .map(|l| {
                if l.contains("\"kind\":\"sample\"") {
                    "sample"
                } else {
                    "health"
                }
            })
            .collect();
        // The t_ms=100 health line lands after the t_ms=100 sample.
        assert_eq!(kinds, vec!["sample", "sample", "health"]);
        assert!(jsonl.ends_with('\n'));
        assert_eq!(store.active_critical().len(), 1);
        assert_eq!(store.events_from(0).len(), 1);
        assert_eq!(store.events_from(1).len(), 0);
        assert_eq!(store.samples_since(1), vec![sample(1)]);
        assert_eq!(store.samples_since(2), vec![]);
    }

    #[test]
    fn sampler_observes_a_live_hub_and_stops_cleanly() {
        let hub = Arc::new(TelemetryHub::new(1, 4));
        let mut sampler = Sampler::spawn(
            Arc::clone(&hub),
            "cluster",
            Duration::from_millis(5),
            64,
            HealthConfig::default(),
        );
        for i in 0..20 {
            hub.add(0, Counter::MsgsDelivered, 2);
            hub.observe(0, Dist::QuantumUs, i);
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        let store = sampler.store();
        let samples = store.samples();
        assert!(!samples.is_empty(), "sampler recorded at least one window");
        let delivered: u64 = samples.iter().map(|s| s.delta("msgs.delivered")).sum();
        assert!(delivered > 0 && delivered <= 40, "deltas sum within totals");
        // Monotone stamps, positive windows.
        for w in samples.windows(2) {
            assert!(w[1].seq == w[0].seq + 1);
            assert!(w[1].t_ms >= w[0].t_ms);
        }
        assert!(samples.iter().all(|s| s.dt_ms >= 1));
        // Stopping twice is fine.
        sampler.stop();
    }
}
