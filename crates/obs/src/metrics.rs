//! A lightweight metrics registry: named counters and fixed-bucket
//! histograms, mergeable across runs. No external dependencies, no
//! interior mutability — producers own a registry (or a
//! [`crate::MetricsSink`]) and merge at join points.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::json::{JsonObject, Value};

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v ≤ bounds[i]` (and `> bounds[i-1]`);
/// one implicit overflow bucket catches everything above the last
/// bound. Exact `count`, `sum`, `min` and `max` are kept alongside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given strictly increasing upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        let counts = vec![0; bounds.len() + 1];
        Histogram::from_parts(bounds.to_vec(), counts, 0, 0, u64::MAX, 0)
    }

    /// Reassemble a histogram from raw parts — the counterpart of the
    /// accessors, used to snapshot atomic histograms
    /// ([`crate::telemetry::TelemetryHub`]). An empty histogram
    /// (`count == 0`) normalizes `min`/`max` to the empty sentinels
    /// regardless of what was passed.
    ///
    /// # Panics
    /// If `bounds` is invalid (empty or not strictly increasing),
    /// `counts` is not one longer than `bounds`, or the per-bucket
    /// counts do not sum to `count`.
    pub fn from_parts(
        bounds: Vec<u64>,
        counts: Vec<u64>,
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Histogram {
        if let Err(e) = check_buckets(&bounds, &counts, count) {
            panic!("histogram {e}");
        }
        let (min, max) = if count == 0 {
            (u64::MAX, 0)
        } else {
            (min, max)
        };
        Histogram {
            bounds,
            counts,
            count,
            sum,
            min,
            max,
        }
    }

    /// Read a histogram written by [`Histogram::to_json`], checking
    /// what [`Histogram::from_parts`] asserts, and that `min`/`max` are
    /// `null` exactly when it is empty.
    pub fn from_value(v: &Value) -> Result<Histogram, String> {
        let bounds = v.u64_array("bounds")?;
        let counts = v.u64_array("counts")?;
        let count = v.int_field("count")?;
        check_buckets(&bounds, &counts, count)?;
        let (min, max) = match (v.opt_int_field("min")?, v.opt_int_field("max")?) {
            (Some(min), Some(max)) if count > 0 => (min, max),
            (None, None) if count == 0 => (u64::MAX, 0),
            _ => return Err("min: min and max must be null exactly when count is 0".to_owned()),
        };
        Ok(Histogram {
            bounds,
            counts,
            count,
            sum: v.int_field("sum")?,
            min,
            max,
        })
    }

    /// The default latency buckets: powers of two from 1 to 2²⁰ —
    /// covers both LogP steps (tens to thousands) and microseconds
    /// (up to ~1 s) with relative resolution ≤ 2×.
    pub fn latency_default() -> Histogram {
        let bounds: Vec<u64> = (0..=20).map(|i| 1u64 << i).collect();
        Histogram::with_bounds(&bounds)
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let idx = self.bucket_index(v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The bucket index `v` falls into (`bounds.len()` = overflow).
    pub fn bucket_index(&self, v: u64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }

    /// The configured upper bounds (overflow bucket excluded).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Bucket-interpolated `q`-quantile estimate (`0 ≤ q ≤ 1`), `None`
    /// when empty.
    ///
    /// The target rank `q · count` is located in the cumulative bucket
    /// counts, then interpolated linearly between the bucket's bounds.
    /// The estimate is clamped to the exact observed `[min, max]`, so
    /// `quantile(0.0)` is the minimum and `quantile(1.0)` the maximum;
    /// the overflow bucket (which has no upper bound) interpolates
    /// between the last bound and the observed `max`.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                // Bucket `i` spans (lo, hi]: lo is the previous bound
                // (or 0), hi the own bound (overflow has none → max).
                let lo = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let hi = match self.bounds.get(i) {
                    Some(&b) => b as f64,
                    None => self.max as f64,
                };
                let within = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                let est = lo + (hi - lo) * within;
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
            cum = next;
        }
        Some(self.max as f64)
    }

    /// Median estimate (bucket-interpolated).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (bucket-interpolated).
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (bucket-interpolated).
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Merge another histogram with identical bounds into this one.
    ///
    /// # Panics
    /// If the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different buckets"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forget every observation; the bounds (and both allocations) stay.
    /// What a producer that tallies locally calls after handing the
    /// tally over ([`crate::telemetry::TelemetryHub::merge_dist`]).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64_array("bounds", &self.bounds);
        obj.field_u64_array("counts", &self.counts);
        obj.field_u64("count", self.count);
        obj.field_u64("sum", self.sum);
        obj.field_opt_u64("min", self.min());
        obj.field_opt_u64("max", self.max());
        obj.finish()
    }
}

/// The bucket layout both [`Histogram::from_parts`] and
/// [`Histogram::from_value`] require.
fn check_buckets(bounds: &[u64], counts: &[u64], count: u64) -> Result<(), String> {
    if bounds.is_empty() || bounds.windows(2).any(|w| w[0] >= w[1]) {
        return Err("bounds: must be non-empty and strictly increasing".to_owned());
    }
    if counts.len() != bounds.len() + 1 {
        return Err(format!(
            "counts: needs {} buckets (one per bound plus overflow), got {}",
            bounds.len() + 1,
            counts.len()
        ));
    }
    if counts.iter().try_fold(0u64, |a, &c| a.checked_add(c)) != Some(count) {
        return Err("counts: bucket counts do not sum to count".to_owned());
    }
    Ok(())
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::latency_default()
    }
}

/// Counter and histogram names used by [`MetricsRegistry::record_event`].
pub mod names {
    /// Tree dissemination sends.
    pub const MSGS_TREE: &str = "msgs.tree";
    /// Gossip dissemination sends.
    pub const MSGS_GOSSIP: &str = "msgs.gossip";
    /// Ring-correction sends.
    pub const MSGS_CORRECTION: &str = "msgs.correction";
    /// Acknowledgment sends.
    pub const MSGS_ACK: &str = "msgs.ack";
    /// Messages dropped at dead receivers.
    pub const MSGS_DROPPED: &str = "msgs.dropped";
    /// Deliveries processed.
    pub const DELIVERIES: &str = "deliveries";
    /// Processes colored.
    pub const COLORED: &str = "colored";
    /// Histogram of per-rank coloring times.
    pub const COLORING_TIME: &str = "coloring_time";
}

/// Named counters plus named fixed-bucket histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Record `v` into a histogram, creating it with
    /// [`Histogram::latency_default`] buckets when absent.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(Histogram::latency_default)
            .record(v);
    }

    /// Pre-register a histogram with custom bounds (replacing any
    /// existing data under that name).
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) {
        self.histograms
            .insert(name.to_owned(), Histogram::with_bounds(bounds));
    }

    /// Look up a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, name-sorted.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fold another registry into this one (counters add; histograms
    /// merge bucket-wise and must agree on bounds).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Update from one observability event — the standard accounting
    /// used by [`crate::MetricsSink`]: sends counted per payload kind
    /// (matching the simulator's per-run message totals), drops and
    /// deliveries counted, coloring times recorded into the
    /// [`names::COLORING_TIME`] histogram.
    pub fn record_event(&mut self, event: &Event) {
        use ct_core::protocol::Payload;
        match &event.kind {
            EventKind::SendStart { payload, .. } => self.inc(match payload {
                Payload::Tree => names::MSGS_TREE,
                Payload::Gossip { .. } => names::MSGS_GOSSIP,
                Payload::Correction => names::MSGS_CORRECTION,
                Payload::Ack => names::MSGS_ACK,
            }),
            EventKind::DropDead { .. } => self.inc(names::MSGS_DROPPED),
            EventKind::Deliver { .. } => self.inc(names::DELIVERIES),
            EventKind::Colored { .. } => {
                self.inc(names::COLORED);
                self.observe(names::COLORING_TIME, event.time.steps());
            }
            EventKind::Arrive { .. }
            | EventKind::PhaseBegin { .. }
            | EventKind::PhaseEnd { .. } => {}
        }
    }

    /// Total messages sent, i.e. the sum of the four `msgs.*` send
    /// counters (the simulator's `MessageCounts::total`).
    pub fn messages_total(&self) -> u64 {
        self.counter(names::MSGS_TREE)
            + self.counter(names::MSGS_GOSSIP)
            + self.counter(names::MSGS_CORRECTION)
            + self.counter(names::MSGS_ACK)
    }

    /// Render as a JSON object `{"counters":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut histograms = JsonObject::new();
        for (name, h) in &self.histograms {
            histograms.field_raw(name, &h.to_json());
        }
        let mut obj = JsonObject::new();
        obj.field_u64_map("counters", &self.counters);
        obj.field_raw("histograms", &histograms.finish());
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::with_bounds(&[10, 20, 40]);
        assert_eq!(h.bucket_index(0), 0);
        assert_eq!(h.bucket_index(10), 0); // v ≤ 10 → first bucket
        assert_eq!(h.bucket_index(11), 1);
        assert_eq!(h.bucket_index(20), 1);
        assert_eq!(h.bucket_index(40), 2);
        assert_eq!(h.bucket_index(41), 3); // overflow
    }

    #[test]
    fn record_updates_aggregates() {
        let mut h = Histogram::with_bounds(&[10, 20]);
        for v in [5, 10, 15, 100] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 130);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 32.5).abs() < 1e-12);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::with_bounds(&[10, 20]);
        let mut b = Histogram::with_bounds(&[10, 20]);
        a.record(5);
        b.record(15);
        b.record(25);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(25));
    }

    #[test]
    fn reset_leaves_an_empty_histogram_with_the_same_bounds() {
        let mut h = Histogram::with_bounds(&[10, 20]);
        h.record(5);
        h.record(25);
        h.reset();
        assert_eq!(h, Histogram::with_bounds(&[10, 20]));
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn merge_rejects_mismatched_buckets() {
        let mut a = Histogram::with_bounds(&[10]);
        a.merge(&Histogram::with_bounds(&[20]));
    }

    #[test]
    fn counters_add_and_merge() {
        let mut a = MetricsRegistry::new();
        a.inc("x");
        a.add("x", 2);
        let mut b = MetricsRegistry::new();
        b.add("x", 4);
        b.inc("y");
        b.observe("h", 3);
        a.merge(&b);
        assert_eq!(a.counter("x"), 7);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.counter("absent"), 0);
        assert_eq!(a.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::with_bounds(&[10, 20, 40]);
        // 10 observations spread evenly through the (0, 10] bucket.
        for v in 1..=10 {
            h.record(v);
        }
        // quantile(0.5) → rank 5 of 10 in a bucket spanning (0, 10].
        assert!((h.quantile(0.5).unwrap() - 5.0).abs() < 1e-9);
        // Edges clamp to the exact extrema.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn quantiles_cross_buckets_and_overflow() {
        let mut h = Histogram::with_bounds(&[10, 20]);
        for v in [5, 15, 18, 100] {
            h.record(v);
        }
        // p50 target rank 2 falls at the end of the second bucket's
        // first observation region: between 10 and 20.
        let p50 = h.p50().unwrap();
        assert!((10.0..=20.0).contains(&p50), "{p50}");
        // p99 lands in the overflow bucket: between the last bound and
        // the observed maximum.
        let p99 = h.p99().unwrap();
        assert!((20.0..=100.0).contains(&p99), "{p99}");
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn quantile_of_single_observation_is_that_value() {
        let mut h = Histogram::latency_default();
        h.record(37);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(37.0), "q={q}");
        }
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let h = Histogram::latency_default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Histogram::latency_default();
        for v in [1, 3, 3, 7, 12, 18, 40, 41, 100, 5000] {
            h.record(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let est: Vec<f64> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
        for w in est.windows(2) {
            assert!(w[0] <= w[1], "{est:?}");
        }
        assert_eq!(est[0], 1.0);
        assert_eq!(est[est.len() - 1], 5000.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_rejects_out_of_range() {
        let _ = Histogram::latency_default().quantile(1.5);
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = Histogram::latency_default();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        let json = h.to_json();
        assert!(json.contains("\"min\":null"), "{json}");
    }

    #[test]
    fn registry_json_is_sorted_and_complete() {
        let mut r = MetricsRegistry::new();
        r.inc("b");
        r.inc("a");
        r.observe("lat", 2);
        let json = r.to_json();
        let a = json.find("\"a\"").unwrap();
        let b = json.find("\"b\"").unwrap();
        assert!(a < b, "{json}");
        assert!(json.contains("\"histograms\""), "{json}");
    }
}
