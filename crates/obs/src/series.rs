//! Continuous telemetry: timestamped snapshot deltas in a bounded store.
//!
//! The hub ([`crate::TelemetryHub`]) and the flight recorder observe
//! two instants — a snapshot at run end, the last few thousand records
//! after a crash. Long-lived runs degrade as a *trajectory*: spill
//! rates climbing, delivery rates flatlining minutes before the
//! watchdog fires. This module adds the time axis.
//!
//! [`SeriesStore::sample`] is the one producer step: it takes a hub
//! snapshot and its monotonic timestamp, and turns it and the previous
//! one into a [`SeriesSample`] — the per-window counter *deltas* plus
//! point-in-time gauges — feeds that window to the store's
//! [`HealthEngine`](crate::health::HealthEngine), logs the events that
//! fire, and keeps the newest windows up to a capacity, counting the
//! ones it evicts. Everything the store knows sits behind one lock, so
//! a reader never sees a window without the events it fired.
//!
//! A [`Sampler`] is a background thread that calls that step at a
//! fixed interval (the cluster runtime's `ClusterConfig::sample(Duration)`,
//! `CT_SAMPLE_MS` override); replay tools call it with synthetic
//! timestamps.
//!
//! The store exports one byte-stable JSONL shape — schema tag
//! [`SCHEMA`], `"kind":"sample"` and `"kind":"health"` lines
//! interleaved in time order — consumed by `ct monitor`, `ct analyze
//! --view series` and the `/series.jsonl` HTTP endpoint.
//!
//! Same `Option` discipline as the hub and recorder: no sampler
//! configured means no thread, no atomically-read hub, and
//! byte-identical traces and outcomes.

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::health::{HealthEngine, HealthEvent, Severity};
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

/// Sampler interval: `CT_SAMPLE_MS` when set to a positive integer,
/// else [`DEFAULT_SAMPLE_MS`].
pub fn default_sample_ms() -> u64 {
    crate::manifest::env_positive("CT_SAMPLE_MS", DEFAULT_SAMPLE_MS)
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

/// Shared sink a [`Sampler`] fills and consumers read; see the module
/// docs. Every method takes the one lock for a short hold; the
/// producer side is a background thread touching it a few times per
/// second.
#[derive(Debug)]
pub struct SeriesStore {
    /// Most windows retained (>= 1).
    cap: usize,
    series: Mutex<Series>,
}

/// What a [`SeriesStore`] knows, under its one lock.
#[derive(Debug, Default)]
struct Series {
    /// The newest windows, oldest first.
    windows: VecDeque<SeriesSample>,
    /// Windows evicted so far.
    dropped: u64,
    /// Every health event fired, in firing order.
    events: Vec<HealthEvent>,
    engine: HealthEngine,
    /// The latest snapshot and its `t_ms`: where the next window starts.
    prev: Option<(TelemetrySnapshot, u64)>,
}

impl SeriesStore {
    /// A store retaining the newest `cap` (>= 1) windows.
    pub fn new(cap: usize) -> SeriesStore {
        SeriesStore {
            cap: cap.max(1),
            series: Mutex::new(Series::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Series> {
        self.series.lock().expect("no producer step panicked")
    }

    /// The producer step. The first call only records `next` as the
    /// starting snapshot; each later one closes the window since the
    /// previous call ([`SeriesSample::between`], numbered from 0, `t_ms`
    /// on the caller's monotonic clock), runs the health rules on it,
    /// logs what fires and evicts the oldest window past the capacity.
    pub fn sample(&self, next: TelemetrySnapshot, t_ms: u64) {
        let s = &mut *self.lock();
        if let Some((prev, prev_ms)) = &s.prev {
            let seq = s.dropped + s.windows.len() as u64;
            let dt_ms = t_ms.saturating_sub(*prev_ms);
            let window = SeriesSample::between(prev, &next, seq, t_ms, dt_ms);
            s.events.extend(s.engine.observe(&window));
            if s.windows.len() == self.cap {
                s.windows.pop_front();
                s.dropped += 1;
            }
            s.windows.push_back(window);
        }
        s.prev = Some((next, t_ms));
    }

    /// The retained sample windows, oldest first.
    pub fn samples(&self) -> Vec<SeriesSample> {
        self.lock().windows.iter().cloned().collect()
    }

    /// The retained windows numbered `seq` or later, oldest first — what
    /// a reader that has seen every window before `seq` still lacks.
    pub fn samples_since(&self, seq: u64) -> Vec<SeriesSample> {
        let s = self.lock();
        s.windows.iter().filter(|w| w.seq >= seq).cloned().collect()
    }

    /// Windows evicted so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Every health event fired since the store was created.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.lock().events.clone()
    }

    /// Total events fired so far; use as a mark for
    /// [`SeriesStore::events_from`].
    pub fn events_len(&self) -> usize {
        self.lock().events.len()
    }

    /// Events fired at or after a mark previously taken with
    /// [`SeriesStore::events_len`].
    pub fn events_from(&self, mark: usize) -> Vec<HealthEvent> {
        self.lock().events.get(mark..).unwrap_or(&[]).to_vec()
    }

    /// Events whose condition currently holds.
    pub fn active(&self) -> Vec<HealthEvent> {
        self.lock().engine.active().to_vec()
    }

    /// Active events of critical severity (drives the `/health`
    /// endpoint's non-200 status).
    pub fn active_critical(&self) -> Vec<HealthEvent> {
        let mut active = self.active();
        active.retain(|e| e.severity == Severity::Critical);
        active
    }

    /// Export the retained windows and the full health log
    /// ([`SeriesExport::to_jsonl`]).
    pub fn export_jsonl(&self) -> String {
        let s = self.lock();
        SeriesExport {
            samples: s.windows.iter().cloned().collect(),
            health: s.events.clone(),
        }
        .to_jsonl()
    }
}

/// Background thread feeding a [`TelemetryHub`]'s snapshots into a
/// [`SeriesStore`]; see the module docs. Dropping the sampler stops and
/// joins the thread.
#[derive(Debug)]
pub struct Sampler {
    store: Arc<SeriesStore>,
    /// Never sent on: dropping it wakes the thread's wait to exit.
    stop: Option<mpsc::Sender<Infallible>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawn a sampler polling `hub` every `interval` (clamped to at
    /// least 1 ms), tagging snapshots with `source`, retaining `cap`
    /// windows and evaluating the health rules per window. The starting
    /// snapshot is taken here, at `t_ms` 0 of the sampler's clock.
    pub fn spawn(hub: Arc<TelemetryHub>, source: &str, interval: Duration, cap: usize) -> Sampler {
        let store = Arc::new(SeriesStore::new(cap));
        let started = Instant::now();
        store.sample(hub.snapshot().with_source(source), 0);
        let (stop, stopped) = mpsc::channel();
        let thread_store = Arc::clone(&store);
        let source = source.to_owned();
        let interval = interval.max(Duration::from_millis(1));
        let thread = std::thread::Builder::new()
            .name("ct-sampler".to_owned())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let t_ms = started.elapsed().as_millis() as u64;
                    thread_store.sample(hub.snapshot().with_source(&source), t_ms);
                }
            })
            .expect("spawn sampler thread");
        Sampler {
            store,
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// The shared store the sampler fills.
    pub fn store(&self) -> Arc<SeriesStore> {
        Arc::clone(&self.store)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
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
    fn the_store_logs_what_each_window_fires_and_keeps_the_newest() {
        let hub = TelemetryHub::new(1, 8);
        hub.set_iter_active(1);
        hub.set_iter_progress(7, 4);
        let snap = || hub.snapshot().with_source("test");
        let store = SeriesStore::new(2);
        store.sample(snap(), 0);
        assert!(
            store.samples().is_empty(),
            "the first call starts the clock"
        );
        for t_ms in [100, 200, 300] {
            store.sample(snap(), t_ms);
        }
        let windows: Vec<(u64, u64, u64)> = store
            .samples()
            .iter()
            .map(|w| (w.seq, w.t_ms, w.dt_ms))
            .collect();
        assert_eq!(windows, [(1, 200, 100), (2, 300, 100)]);
        assert_eq!(store.dropped(), 1);
        // Three wedged windows fire the stall precursor in the third.
        let events = store.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].rule.as_str(), events[0].seq),
            ("stall_precursor", 2)
        );
        assert_eq!(store.active_critical(), events);
        let jsonl = store.export_jsonl();
        let kinds: Vec<bool> = jsonl
            .lines()
            .map(|l| l.contains("\"kind\":\"health\""))
            .collect();
        // The t_ms=300 health line lands after the t_ms=300 sample.
        assert_eq!(kinds, [false, false, true]);
        assert!(jsonl.ends_with('\n'));
        assert_eq!(store.events_from(1), vec![]);
        assert_eq!(store.samples_since(2).len(), 1);
        // One delivery clears the rule; the log keeps the event.
        hub.add(0, Counter::MsgsDelivered, 1);
        store.sample(snap(), 400);
        assert!(store.active().is_empty());
        assert_eq!(store.events_len(), 1);
    }

    #[test]
    fn sampler_observes_a_live_hub_and_stops_cleanly() {
        let hub = Arc::new(TelemetryHub::new(1, 4));
        let sampler = Sampler::spawn(Arc::clone(&hub), "cluster", Duration::from_millis(5), 64);
        for i in 0..20 {
            hub.add(0, Counter::MsgsDelivered, 2);
            hub.observe(0, Dist::QuantumUs, i);
            std::thread::sleep(Duration::from_millis(5));
        }
        let store = sampler.store();
        drop(sampler);
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
        // Dropped means stopped: no window lands afterwards.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(store.samples().len(), samples.len());
    }

    #[test]
    fn dropping_a_sampler_does_not_wait_out_its_interval() {
        let hub = Arc::new(TelemetryHub::new(1, 4));
        let sampler = Sampler::spawn(hub, "cluster", Duration::from_secs(600), 4);
        let started = Instant::now();
        drop(sampler);
        assert!(started.elapsed() < Duration::from_secs(60));
    }
}
