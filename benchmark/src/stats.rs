//! Order statistics and the digest of the simulated statistics.

/// Value at quantile `q` (0..=1) of an ascending-sorted slice, linearly
/// interpolated between ranks — the definition numpy and Python's
/// `statistics.quantiles(method="inclusive")` share.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and count of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        Summary {
            median: quantile_sorted(&sorted, 0.5),
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
            n: sorted.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// 64-bit FNV-1a over a stream of `u64` words: the digest of the
/// simulated statistics. Not cryptographic; it only has to change when
/// any word does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 0.25), 1.75);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p90_leaves_a_tenth_of_the_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p90 = quantile_sorted(&v, 0.9);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 100);
    }

    #[test]
    fn summary_is_order_independent() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn the_median_over_windows_ignores_a_disturbed_minority() {
        // Seven windows at 100 ops/s, three hit by a noisy neighbour.
        let rates = [
            100.0, 100.0, 10.0, 100.0, 100.0, 35.0, 100.0, 100.0, 60.0, 100.0,
        ];
        assert_eq!(median(&rates), 100.0);
    }

    #[test]
    fn digest_depends_on_every_word_and_on_order() {
        let mut a = Digest::new();
        a.word(1);
        a.word(2);
        let mut b = Digest::new();
        b.word(2);
        b.word(1);
        let mut c = Digest::new();
        c.word(1);
        c.word(2);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
        assert_eq!(a.hex().len(), 16);
    }
}
