//! Figure 1b: expected correction time, in-order vs interleaved
//! binomial trees.
//!
//! 64K processes, synchronized checked correction, exactly 1, 2 or 5
//! uniformly random failed processes. The in-order tree's correction
//! time grows with the number of faults (a failed subtree is one big
//! contiguous gap); the interleaved tree's stays near the fault-free
//! 8 steps (vertical line at ≈10.5 in the paper). Whiskers are the
//! 10%/90% quantiles.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::BroadcastSpec;
use ct_core::tree::{Ordering, TreeKind};
use ct_logp::LogP;

use crate::campaign::{Campaign, CampaignError, FaultSpec};
use crate::csv::{fmt_f64, CsvTable};
use crate::stats::Summary;
use crate::variants::Variant;

/// Configuration for the Figure 1b campaign.
#[derive(Clone, Debug)]
pub struct Fig1bConfig {
    /// Process count (paper: 2¹⁶).
    pub p: u32,
    /// Fault counts per row (paper: 1, 2, 5).
    pub fault_counts: Vec<u32>,
    /// Repetitions per row.
    pub reps: u32,
    /// Base seed.
    pub seed0: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Fig1bConfig {
    /// Laptop-scale defaults (`P = 2¹⁴`, 60 reps).
    pub fn quick() -> Fig1bConfig {
        Fig1bConfig {
            p: 1 << 14,
            fault_counts: vec![1, 2, 5],
            reps: 60,
            seed0: 1,
            threads: ct_runtime::default_threads(),
        }
    }

    /// The paper's `P = 2¹⁶`, at 1000 reps per row.
    pub fn paper() -> Fig1bConfig {
        Fig1bConfig {
            p: 1 << 16,
            reps: 1000,
            ..Fig1bConfig::quick()
        }
    }
}

/// One row of the figure.
#[derive(Clone, Debug)]
pub struct Fig1bRow {
    /// `in-order` or `interleaved`.
    pub ordering: Ordering,
    /// Number of failed processes.
    pub faults: u32,
    /// Distribution of correction times (steps).
    pub correction_time: Summary,
}

/// Run the campaign.
pub fn run(cfg: &Fig1bConfig) -> Result<Vec<Fig1bRow>, CampaignError> {
    let mut rows = Vec::new();
    for ordering in [Ordering::InOrder, Ordering::Interleaved] {
        for &faults in &cfg.fault_counts {
            let spec = BroadcastSpec::corrected_tree_sync(
                TreeKind::Binomial { order: ordering },
                CorrectionKind::Checked,
            );
            let records = Campaign::new(Variant::Tree(spec), cfg.p, LogP::PAPER)
                .with_faults(FaultSpec::Count(faults))
                .with_reps(cfg.reps)
                .with_seed(cfg.seed0)
                .run(cfg.threads)?;
            let lscc: Vec<u64> = records
                .iter()
                .map(|r| r.lscc.expect("synchronized correction"))
                .collect();
            rows.push(Fig1bRow {
                ordering,
                faults,
                correction_time: Summary::of_u64(lscc),
            });
        }
    }
    Ok(rows)
}

/// Render rows as the figure's CSV.
pub fn to_csv(rows: &[Fig1bRow]) -> CsvTable {
    let mut t = CsvTable::new([
        "ordering", "faults", "mean", "p10", "p90", "min", "max", "reps",
    ]);
    for r in rows {
        t.row([
            r.ordering.to_string(),
            r.faults.to_string(),
            fmt_f64(r.correction_time.mean),
            fmt_f64(r.correction_time.p10),
            fmt_f64(r.correction_time.p90),
            fmt_f64(r.correction_time.min),
            fmt_f64(r.correction_time.max),
            r.correction_time.n.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig1bConfig {
        Fig1bConfig {
            p: 1 << 10,
            fault_counts: vec![1, 5],
            reps: 12,
            seed0: 3,
            threads: 2,
        }
    }

    #[test]
    fn interleaved_correction_time_beats_in_order() {
        let rows = run(&tiny()).unwrap();
        assert_eq!(rows.len(), 4);
        for &faults in &[1u32, 5] {
            let in_order = rows
                .iter()
                .find(|r| r.ordering == Ordering::InOrder && r.faults == faults)
                .unwrap();
            let interleaved = rows
                .iter()
                .find(|r| r.ordering == Ordering::Interleaved && r.faults == faults)
                .unwrap();
            assert!(
                interleaved.correction_time.mean <= in_order.correction_time.mean,
                "faults={faults}: interleaved {} vs in-order {}",
                interleaved.correction_time.mean,
                in_order.correction_time.mean
            );
        }
    }

    #[test]
    fn in_order_degrades_with_more_faults() {
        let rows = run(&tiny()).unwrap();
        let mean = |f: u32| {
            rows.iter()
                .find(|r| r.ordering == Ordering::InOrder && r.faults == f)
                .unwrap()
                .correction_time
                .mean
        };
        assert!(mean(5) >= mean(1));
    }

    #[test]
    fn csv_shape() {
        let rows = run(&tiny()).unwrap();
        let csv = to_csv(&rows);
        assert_eq!(csv.len(), 4);
        assert!(csv.to_csv().starts_with("ordering,faults,mean"));
    }
}
