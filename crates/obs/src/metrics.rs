//! The one histogram layout every producer shares: fixed power-of-two
//! buckets, mergeable across runs and worker shards. The hub's atomic
//! shards ([`crate::telemetry::TelemetryHub`]) store the same layout.

use crate::json::{JsonObject, Value};

/// Upper bounds of the buckets: powers of two from 1 to 2²⁰ — covers
/// both LogP steps (tens to thousands) and microseconds (up to ~1 s)
/// with relative resolution ≤ 2×.
const BOUNDS: [u64; 21] = {
    let mut b = [0; 21];
    let mut i = 0;
    while i < b.len() {
        b[i] = 1 << i;
        i += 1;
    }
    b
};

/// Buckets: one per bound plus the overflow bucket.
pub(crate) const BUCKETS: usize = BOUNDS.len() + 1;

/// The bucket `v` falls into (`BUCKETS - 1` = overflow).
pub(crate) fn bucket(v: u64) -> usize {
    BOUNDS.partition_point(|&b| b < v)
}

/// A histogram over `u64` observations with the fixed power-of-two
/// buckets.
///
/// Bucket `i` counts observations `v ≤ 2^i` (and `> 2^(i-1)`); one
/// overflow bucket catches everything above 2²⁰. Exact `count`, `sum`,
/// `min` and `max` are kept alongside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn latency_default() -> Histogram {
        Histogram::from_buckets([0; BUCKETS], 0, u64::MAX, 0)
    }

    /// Reassemble a histogram from its buckets — how the hub snapshots
    /// its atomic shards. The count is the sum of the buckets, and an
    /// empty histogram normalizes `min`/`max` to the empty sentinels
    /// whatever was passed.
    pub(crate) fn from_buckets(counts: [u64; BUCKETS], sum: u64, min: u64, max: u64) -> Histogram {
        let count = counts.iter().sum();
        let (min, max) = if count == 0 {
            (u64::MAX, 0)
        } else {
            (min, max)
        };
        Histogram {
            counts,
            count,
            sum,
            min,
            max,
        }
    }

    /// Read a histogram written by [`Histogram::to_json`]: the bounds
    /// must be this layout's, the bucket counts must sum to `count`, and
    /// `min`/`max` must be `null` exactly when it is empty.
    pub fn from_value(v: &Value) -> Result<Histogram, String> {
        if v.u64_array("bounds")? != BOUNDS {
            return Err("bounds: must be the powers of two from 1 to 2^20".to_owned());
        }
        let counts: [u64; BUCKETS] = v.u64_array("counts")?.try_into().map_err(|c: Vec<u64>| {
            format!(
                "counts: needs {BUCKETS} buckets (one per bound plus overflow), got {}",
                c.len()
            )
        })?;
        let count = v.int_field("count")?;
        if counts.iter().try_fold(0u64, |a, &c| a.checked_add(c)) != Some(count) {
            return Err("counts: bucket counts do not sum to count".to_owned());
        }
        let (min, max) = match (v.opt_int_field("min")?, v.opt_int_field("max")?) {
            (Some(min), Some(max)) if count > 0 => (min, max),
            (None, None) if count == 0 => (u64::MAX, 0),
            _ => return Err("min: min and max must be null exactly when count is 0".to_owned()),
        };
        Ok(Histogram {
            counts,
            count,
            sum: v.int_field("sum")?,
            min,
            max,
        })
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The bucket upper bounds (overflow bucket excluded).
    pub fn bounds(&self) -> &'static [u64] {
        &BOUNDS
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
                let lo = if i == 0 { 0.0 } else { BOUNDS[i - 1] as f64 };
                let hi = match BOUNDS.get(i) {
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

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forget every observation. What a producer that tallies locally
    /// calls after handing the tally over
    /// ([`crate::telemetry::TelemetryHub::merge_dist`]).
    pub fn reset(&mut self) {
        *self = Histogram::latency_default();
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64_array("bounds", &BOUNDS);
        obj.field_u64_array("counts", &self.counts);
        obj.field_u64("count", self.count);
        obj.field_u64("sum", self.sum);
        obj.field_opt_u64("min", self.min());
        obj.field_opt_u64("max", self.max());
        obj.finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::latency_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_powers_of_two() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0); // v ≤ 1 → first bucket
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(5), 3);
        assert_eq!(bucket(1 << 20), 20);
        assert_eq!(bucket((1 << 20) + 1), BUCKETS - 1); // overflow
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn record_updates_aggregates() {
        let h = of(&[1, 2, 3, 4_000_000]);
        assert_eq!(&h.counts()[..3], &[1, 1, 1]);
        assert_eq!(h.counts()[BUCKETS - 1], 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 4_000_006);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(4_000_000));
        assert!((h.mean().unwrap() - 1_000_001.5).abs() < 1e-9);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = of(&[1]);
        a.merge(&of(&[2, 3]));
        assert_eq!(a, of(&[1, 2, 3]));
        assert_eq!(&a.counts()[..3], &[1, 1, 1]);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(3));
    }

    #[test]
    fn reset_leaves_an_empty_histogram() {
        let mut h = of(&[5, 25]);
        h.reset();
        assert_eq!(h, Histogram::default());
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 16 observations spread evenly through the (16, 32] bucket.
        let h = of(&(17..=32).collect::<Vec<_>>());
        // quantile(0.5) → rank 8 of 16 in a bucket spanning (16, 32].
        assert!((h.quantile(0.5).unwrap() - 24.0).abs() < 1e-9);
        // Edges clamp to the exact extrema.
        assert_eq!(h.quantile(0.0), Some(17.0));
        assert_eq!(h.quantile(1.0), Some(32.0));
    }

    #[test]
    fn quantiles_cross_buckets_and_overflow() {
        let h = of(&[5, 15, 18, 4_000_000]);
        // p50 target rank 2 falls in the (8, 16] bucket.
        let p50 = h.p50().unwrap();
        assert!((8.0..=16.0).contains(&p50), "{p50}");
        // p99 lands in the overflow bucket: between the last bound and
        // the observed maximum.
        let p99 = h.p99().unwrap();
        assert!(((1 << 20) as f64..=4_000_000.0).contains(&p99), "{p99}");
        assert_eq!(h.quantile(1.0), Some(4_000_000.0));
    }

    #[test]
    fn quantile_of_single_observation_is_that_value() {
        let h = of(&[37]);
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
        let h = of(&[1, 3, 3, 7, 12, 18, 40, 41, 100, 5000]);
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
    fn reader_rejects_any_other_layout() {
        let json = of(&[3, 9]).to_json();
        let read = |text: &str| Histogram::from_value(&Value::parse(text).unwrap());
        assert_eq!(read(&json), Ok(of(&[3, 9])));
        let err = read(
            r#"{"bounds":[1,2,3],"counts":[0,0,0,0],"count":0,"sum":0,"min":null,"max":null}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("bounds: "), "{err}");
        let short = json.replacen("\"counts\":[0,0,1,", "\"counts\":[0,1,", 1);
        assert_ne!(json, short, "fixture must contain the counts to cut");
        let err = read(&short).unwrap_err();
        assert!(err.starts_with("counts: needs 22 buckets"), "{err}");
    }
}
