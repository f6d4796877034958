//! LogP parameter sets.
//!
//! The paper's communication model (§2.2) is LogP restricted to the
//! small-message regime: `g ≤ o` always holds and `g` is effectively
//! ignored — a process can process messages in direct succession, one
//! send (and, overlapped, one receive) every `o` steps.

use core::fmt;
use std::str::FromStr;

use crate::time::Time;

/// The LogP parameters `(L, o, g)` used by analysis, simulation and the
/// tree builders. `P` (the process count) is carried separately by each
/// topology/experiment, matching the paper's presentation.
///
/// Invariants enforced by [`LogP::new`]:
/// * `L ≥ 1`, `o ≥ 1` (the paper assumes `{o, L} ∈ ℤ⁺`),
/// * `L, o ≤ LogP::MAX_STEPS`, so that no run's clock reaches the
///   saturating `Time::NEVER` sentinel,
/// * `1 ≤ g ≤ o` (small-message assumption, §2.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LogP {
    l: u64,
    o: u64,
    g: u64,
}

/// Error returned by [`LogP::new`] / [`LogP::from_str`] for parameter
/// combinations outside the paper's model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogPError {
    /// `L` must be a positive integer.
    ZeroLatency,
    /// `o` must be a positive integer.
    ZeroOverhead,
    /// `L` or `o` exceeds [`LogP::MAX_STEPS`].
    TooLarge {
        /// `"L"` or `"o"`.
        param: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The small-message assumption requires `1 ≤ g ≤ o`.
    GapOutOfRange {
        /// The offending gap value.
        g: u64,
        /// The overhead it must not exceed.
        o: u64,
    },
    /// A `"L=..,o=..[,g=..]"` string could not be parsed.
    Parse(String),
}

impl fmt::Display for LogPError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogPError::ZeroLatency => write!(f, "LogP latency L must be ≥ 1"),
            LogPError::ZeroOverhead => write!(f, "LogP overhead o must be ≥ 1"),
            LogPError::TooLarge { param, value } => write!(
                f,
                "LogP {param}={value} exceeds the limit of {} steps",
                LogP::MAX_STEPS
            ),
            LogPError::GapOutOfRange { g, o } => {
                write!(
                    f,
                    "LogP gap g={g} violates small-message assumption 1 ≤ g ≤ o={o}"
                )
            }
            LogPError::Parse(s) => write!(f, "cannot parse LogP parameters from {s:?}"),
        }
    }
}

impl std::error::Error for LogPError {}

impl LogP {
    /// The configuration used throughout the paper's evaluation (§4):
    /// `L = 2, o = 1`, "which corresponds to the range of LogP parameters
    /// measured on real systems".
    pub const PAPER: LogP = LogP { l: 2, o: 1, g: 1 };

    /// The `L = o = 1` toy system of Figure 5, which makes the order-3
    /// Lamé tree latency-optimal (`2o + L = 3 = k`).
    pub const FIG5: LogP = LogP { l: 1, o: 1, g: 1 };

    /// The largest `L` and `o`, in steps. The port and wire delays a
    /// simulated step schedules then stay below 2³³ steps, so within the
    /// simulator's default cap of 2·10⁹ events they cannot carry a run's
    /// clock to the saturating `Time::NEVER`.
    pub const MAX_STEPS: u64 = u32::MAX as u64;

    /// Construct a validated parameter set with `g = min(o, g)` supplied
    /// explicitly.
    pub fn new(l: u64, o: u64, g: u64) -> Result<Self, LogPError> {
        if l == 0 {
            return Err(LogPError::ZeroLatency);
        }
        if o == 0 {
            return Err(LogPError::ZeroOverhead);
        }
        for (param, value) in [("L", l), ("o", o)] {
            if value > Self::MAX_STEPS {
                return Err(LogPError::TooLarge { param, value });
            }
        }
        if g == 0 || g > o {
            return Err(LogPError::GapOutOfRange { g, o });
        }
        Ok(LogP { l, o, g })
    }

    /// Construct with the gap pinned to 1 step (its value is irrelevant
    /// under the small-message assumption as long as `g ≤ o`).
    pub fn with_lo(l: u64, o: u64) -> Result<Self, LogPError> {
        Self::new(l, o, 1)
    }

    /// Wire latency `L`.
    #[inline]
    pub const fn l(&self) -> u64 {
        self.l
    }

    /// Per-message CPU overhead `o` (paid on both sides).
    #[inline]
    pub const fn o(&self) -> u64 {
        self.o
    }

    /// Inter-message gap `g` (`≤ o`, ignored by the protocols).
    #[inline]
    pub const fn g(&self) -> u64 {
        self.g
    }

    /// Wire latency as a [`Time`] duration.
    #[inline]
    pub const fn latency(&self) -> Time {
        Time::new(self.l)
    }

    /// Overhead as a [`Time`] duration.
    #[inline]
    pub const fn overhead(&self) -> Time {
        Time::new(self.o)
    }

    /// End-to-end transit time of one message, send-start to
    /// processing-complete: `2o + L`.
    #[inline]
    pub const fn transit(&self) -> Time {
        Time::new(2 * self.o + self.l)
    }

    /// Same as [`LogP::transit`], as a raw step count. This is the `k`
    /// for which an order-`k` Lamé tree is latency-optimal (§3.2.3).
    #[inline]
    pub const fn transit_steps(&self) -> u64 {
        2 * self.o + self.l
    }

    /// `⌊L/o⌋`, the quantity appearing in Lemma 2 and Corollary 1.
    #[inline]
    pub const fn l_over_o(&self) -> u64 {
        self.l / self.o
    }
}

impl Default for LogP {
    fn default() -> Self {
        LogP::PAPER
    }
}

impl fmt::Display for LogP {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L={},o={},g={}", self.l, self.o, self.g)
    }
}

impl FromStr for LogP {
    type Err = LogPError;

    /// Parses `"L=2,o=1"` or `"L=2,o=1,g=1"` (keys case-insensitive, any
    /// order, whitespace tolerated).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut l = None;
        let mut o = None;
        let mut g = None;
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| LogPError::Parse(s.to_owned()))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| LogPError::Parse(s.to_owned()))?;
            match key.trim().to_ascii_lowercase().as_str() {
                "l" => l = Some(value),
                "o" => o = Some(value),
                "g" => g = Some(value),
                _ => return Err(LogPError::Parse(s.to_owned())),
            }
        }
        let l = l.ok_or_else(|| LogPError::Parse(s.to_owned()))?;
        let o = o.ok_or_else(|| LogPError::Parse(s.to_owned()))?;
        LogP::new(l, o, g.unwrap_or(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_evaluation_setup() {
        let p = LogP::PAPER;
        assert_eq!(p.l(), 2);
        assert_eq!(p.o(), 1);
        assert_eq!(p.transit_steps(), 4);
        assert_eq!(p.l_over_o(), 2);
    }

    #[test]
    fn fig5_preset_is_lame3_optimal() {
        // 2o + L = 3, the k of Figure 5's Lamé tree.
        assert_eq!(LogP::FIG5.transit_steps(), 3);
    }

    #[test]
    fn validation_rejects_degenerate_params() {
        assert_eq!(LogP::new(0, 1, 1), Err(LogPError::ZeroLatency));
        assert_eq!(LogP::new(1, 0, 1), Err(LogPError::ZeroOverhead));
        assert_eq!(
            LogP::new(1, 2, 3),
            Err(LogPError::GapOutOfRange { g: 3, o: 2 })
        );
        assert_eq!(
            LogP::new(1, 2, 0),
            Err(LogPError::GapOutOfRange { g: 0, o: 2 })
        );
    }

    #[test]
    fn validation_rejects_l_or_o_beyond_the_step_limit() {
        let max = LogP::MAX_STEPS;
        assert!(LogP::new(max, max, 1).is_ok());
        assert_eq!(
            LogP::new(max + 1, 1, 1),
            Err(LogPError::TooLarge {
                param: "L",
                value: max + 1
            })
        );
        assert_eq!(
            LogP::new(1, u64::MAX, 1),
            Err(LogPError::TooLarge {
                param: "o",
                value: u64::MAX
            })
        );
        let err = "L=18446744073709551615,o=1".parse::<LogP>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "LogP L=18446744073709551615 exceeds the limit of 4294967295 steps"
        );
    }

    #[test]
    fn accepts_g_up_to_o() {
        let p = LogP::new(4, 3, 3).unwrap();
        assert_eq!(p.g(), 3);
        assert_eq!(p.transit_steps(), 10);
    }

    #[test]
    fn parse_roundtrip() {
        let p: LogP = "L=2,o=1".parse().unwrap();
        assert_eq!(p, LogP::PAPER);
        let p: LogP = " o = 3 , g = 2 , L = 5 ".parse().unwrap();
        assert_eq!((p.l(), p.o(), p.g()), (5, 3, 2));
        let shown = p.to_string();
        let back: LogP = shown.parse().unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<LogP>().is_err());
        assert!("L=2".parse::<LogP>().is_err());
        assert!("L=2,o=x".parse::<LogP>().is_err());
        assert!("L=2,o=1,q=3".parse::<LogP>().is_err());
        assert!("L=0,o=1".parse::<LogP>().is_err());
    }

    #[test]
    fn transit_time_is_two_o_plus_l() {
        for l in 1..6u64 {
            for o in 1..6u64 {
                let p = LogP::new(l, o, 1).unwrap();
                assert_eq!(p.transit(), Time::new(2 * o + l));
            }
        }
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(LogP::default(), LogP::PAPER);
    }
}
