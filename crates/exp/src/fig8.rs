//! Figure 8: average quiescence latency vs fault rate.
//!
//! Aggregates the [`crate::resilience`] grid. Expected shape (§4.3):
//! tree latencies degrade ≈12–14% from 0.01% to 4% faults while gossip
//! degrades only ≈4%; binomial shows the largest latency *variance*
//! growth because its failures orphan more descendants.

use crate::csv::{fmt_f64, CsvTable};
use crate::resilience::ResilienceCell;
use crate::stats::Summary;

/// One point: a variant at a fault rate.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Variant label.
    pub series: String,
    /// Fault rate (fraction).
    pub rate: f64,
    /// Quiescence latency distribution.
    pub quiescence: Summary,
}

/// Aggregate grid cells into figure rows.
pub fn from_cells(cells: &[ResilienceCell]) -> Vec<Fig8Row> {
    cells
        .iter()
        .map(|cell| Fig8Row {
            series: cell.label.clone(),
            rate: cell.rate,
            quiescence: Summary::of_u64(cell.records.iter().map(|r| r.quiescence)),
        })
        .collect()
}

/// Render as CSV.
pub fn to_csv(rows: &[Fig8Row]) -> CsvTable {
    let mut t = CsvTable::new(["series", "fault_rate", "mean", "p05", "p95", "std_dev"]);
    for r in rows {
        t.row([
            r.series.clone(),
            format!("{}", r.rate),
            fmt_f64(r.quiescence.mean),
            fmt_f64(r.quiescence.p05),
            fmt_f64(r.quiescence.p95),
            fmt_f64(r.quiescence.std_dev),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{run_grid, ResilienceConfig};
    use ct_logp::LogP;

    fn cells() -> Vec<ResilienceCell> {
        run_grid(&ResilienceConfig {
            p: 512,
            logp: LogP::PAPER,
            rates: vec![0.001, 0.04],
            reps: 8,
            seed0: 7,
            threads: ct_runtime::default_threads(),
            gossip_time: 26,
            include_gossip: true,
        })
        .unwrap()
    }

    #[test]
    fn tree_latency_degrades_with_fault_rate() {
        let rows = from_cells(&cells());
        let mean = |series: &str, rate: f64| {
            rows.iter()
                .find(|r| r.series == series && (r.rate - rate).abs() < 1e-12)
                .unwrap()
                .quiescence
                .mean
        };
        for series in [
            "binomial/interleaved",
            "lame2/interleaved",
            "optimal/interleaved",
        ] {
            assert!(
                mean(series, 0.04) > mean(series, 0.001),
                "{series} must slow down under more faults"
            );
        }
    }

    #[test]
    fn csv_includes_gossip_series() {
        let rows = from_cells(&cells());
        assert!(rows.iter().any(|r| r.series == "gossip"));
        assert_eq!(to_csv(&rows).len(), rows.len());
    }
}
