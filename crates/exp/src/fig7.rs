//! Figure 7: fault-free quiescence latency vs process count.
//!
//! `P = 2¹⁰ … 2¹⁹` in the paper. Three tree shapes (binomial, Lamé,
//! optimal; the 4-ary curve is omitted for readability, as in the
//! paper) each appear twice: with acknowledgments (the traditional
//! fault-tolerance baseline — solid lines) and as Corrected Trees with
//! synchronized checked correction (dashed). Checked Corrected Gossip
//! with a per-`P` latency-tuned gossip time completes the picture with
//! its 5%/95% ribbon.
//!
//! Expected shape: ack-trees pay the double traversal, corrected trees
//! add a constant 8 steps, gossip sits near (sometimes below) the tree
//! curves at the cost of many more messages — "a latency reduction of
//! 50%" for Corrected Trees vs acknowledgments (abstract).

use ct_core::tree::TreeKind;
use ct_logp::LogP;

use crate::campaign::{Campaign, CampaignError};
use crate::csv::{fmt_f64, CsvTable};
use crate::stats::Summary;
use crate::tuning;
use crate::variants::Variant;

/// Configuration for the Figure 7 sweep.
#[derive(Clone, Debug)]
pub struct Fig7Config {
    /// Process counts (paper: `(10..=19).map(|n| 1 << n)`).
    pub process_counts: Vec<u32>,
    /// Repetitions for gossip points.
    pub gossip_reps: u32,
    /// Repetitions used when tuning the gossip time.
    pub tuning_reps: u32,
    /// Base seed.
    pub seed0: u64,
}

impl Fig7Config {
    /// Laptop-scale defaults: `P = 2¹⁰ … 2¹⁴`.
    pub fn quick() -> Fig7Config {
        Fig7Config {
            process_counts: (10..=14).map(|n| 1 << n).collect(),
            gossip_reps: 6,
            tuning_reps: 3,
            seed0: 1,
        }
    }

    /// The paper's full sweep `2¹⁰ … 2¹⁹`.
    pub fn paper() -> Fig7Config {
        Fig7Config {
            process_counts: (10..=19).map(|n| 1 << n).collect(),
            gossip_reps: 10,
            tuning_reps: 3,
            seed0: 1,
        }
    }
}

/// One point of one series.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Series name (`binomial (ack.)`, `lame2 (corr.)`, `gossip`, …).
    pub series: String,
    /// Process count.
    pub p: u32,
    /// Quiescence latency distribution (singleton for deterministic
    /// trees).
    pub quiescence: Summary,
}

/// The tree shapes plotted in Figure 7.
fn fig7_trees() -> [TreeKind; 3] {
    [TreeKind::BINOMIAL, TreeKind::LAME2, TreeKind::OPTIMAL]
}

/// Run the sweep.
pub fn run(cfg: &Fig7Config) -> Result<Vec<Fig7Row>, CampaignError> {
    let logp = LogP::PAPER;
    let mut rows = Vec::new();
    for &p in &cfg.process_counts {
        for kind in fig7_trees() {
            for (suffix, variant, reps) in [
                ("ack.", Variant::ack_tree(kind), 1u32),
                ("corr.", Variant::tree_checked_sync(kind), 1),
            ] {
                let records = Campaign::new(variant, p, logp)
                    .with_reps(reps)
                    .with_seed(cfg.seed0)
                    .run(1)?;
                rows.push(Fig7Row {
                    series: format!("{} ({suffix})", kind.label()),
                    p,
                    quiescence: Summary::of_u64(records.iter().map(|r| r.quiescence)),
                });
            }
        }
        // Checked gossip, latency-tuned per P (§4.1).
        let lo = logp.transit_steps();
        let log2p = (32 - p.leading_zeros()) as u64;
        let hi = logp.transit_steps() * (log2p + 8);
        let g = tuning::min_latency_gossip_time(p, logp, lo, hi, 2, cfg.tuning_reps, cfg.seed0)?;
        let records = Campaign::new(
            Variant::gossip(g, ct_core::correction::CorrectionKind::Checked),
            p,
            logp,
        )
        .with_reps(cfg.gossip_reps)
        .with_seed(cfg.seed0)
        .run(1)?;
        rows.push(Fig7Row {
            series: "gossip".into(),
            p,
            quiescence: Summary::of_u64(records.iter().map(|r| r.quiescence)),
        });
    }
    Ok(rows)
}

/// Render as CSV.
pub fn to_csv(rows: &[Fig7Row]) -> CsvTable {
    let mut t = CsvTable::new(["series", "p", "mean", "p05", "p95"]);
    for r in rows {
        t.row([
            r.series.clone(),
            r.p.to_string(),
            fmt_f64(r.quiescence.mean),
            fmt_f64(r.quiescence.p05),
            fmt_f64(r.quiescence.p95),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig7Config {
        Fig7Config {
            process_counts: vec![1 << 8, 1 << 10],
            gossip_reps: 3,
            tuning_reps: 2,
            seed0: 4,
        }
    }

    #[test]
    fn corrected_trees_beat_acknowledged_trees() {
        let rows = run(&tiny()).unwrap();
        for &p in &[1u32 << 8, 1 << 10] {
            for kind in [
                "binomial/interleaved",
                "lame2/interleaved",
                "optimal/interleaved",
            ] {
                let get = |suffix: &str| {
                    rows.iter()
                        .find(|r| r.p == p && r.series == format!("{kind} ({suffix})"))
                        .unwrap()
                        .quiescence
                        .mean
                };
                assert!(
                    get("corr.") < get("ack."),
                    "{kind} at P={p}: corrected must be faster than acked"
                );
            }
        }
    }

    #[test]
    fn latency_grows_with_p() {
        let rows = run(&tiny()).unwrap();
        let q = |p: u32, series: &str| {
            rows.iter()
                .find(|r| r.p == p && r.series == series)
                .unwrap()
                .quiescence
                .mean
        };
        for series in ["binomial/interleaved (corr.)", "optimal/interleaved (ack.)"] {
            assert!(q(1 << 10, series) > q(1 << 8, series), "{series}");
        }
    }

    #[test]
    fn optimal_is_fastest_corrected_tree() {
        let rows = run(&tiny()).unwrap();
        let q = |series: &str| {
            rows.iter()
                .find(|r| r.p == 1 << 10 && r.series == series)
                .unwrap()
                .quiescence
                .mean
        };
        assert!(q("optimal/interleaved (corr.)") <= q("binomial/interleaved (corr.)"));
        assert!(q("optimal/interleaved (corr.)") <= q("lame2/interleaved (corr.)"));
    }

    #[test]
    fn series_count() {
        let rows = run(&tiny()).unwrap();
        // Per P: 3 trees × 2 + gossip = 7.
        assert_eq!(rows.len(), 14);
        assert_eq!(to_csv(&rows).len(), 14);
    }
}
