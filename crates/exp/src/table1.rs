//! Table 1: cost of correction under faults.
//!
//! Per fault rate, the 99%, 99.9% and max percentiles of both the
//! maximum gap `g_max` and the correction time `L_SCC`, aggregated over
//! **all tree types** (the table's caption). Fault-free reference:
//! `g_max = 0`, `L_SCC = 8`.

use crate::csv::{fmt_f64, CsvTable};
use crate::resilience::ResilienceCell;
use crate::stats::percentile;

/// One table row (one fault rate).
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Fault rate (fraction, e.g. 0.01 = 1%).
    pub rate: f64,
    /// `g_max` at the 99th percentile.
    pub gmax_p99: f64,
    /// `g_max` at the 99.9th percentile.
    pub gmax_p999: f64,
    /// Largest observed `g_max`.
    pub gmax_max: f64,
    /// `L_SCC` at the 99th percentile.
    pub lscc_p99: f64,
    /// `L_SCC` at the 99.9th percentile.
    pub lscc_p999: f64,
    /// Largest observed `L_SCC`.
    pub lscc_max: f64,
    /// Sample size aggregated across tree types.
    pub samples: usize,
}

/// Aggregate grid cells (tree cells only) into the table.
pub fn from_cells(cells: &[ResilienceCell]) -> Vec<Table1Row> {
    let mut rates: Vec<f64> = cells.iter().filter(|c| c.is_tree).map(|c| c.rate).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    rates.dedup();
    rates
        .into_iter()
        .map(|rate| {
            let mut gmax: Vec<f64> = Vec::new();
            let mut lscc: Vec<f64> = Vec::new();
            for cell in cells
                .iter()
                .filter(|c| c.is_tree && (c.rate - rate).abs() < 1e-15)
            {
                for rec in &cell.records {
                    gmax.push(rec.g_max as f64);
                    lscc.push(rec.lscc.expect("synchronized grid") as f64);
                }
            }
            Table1Row {
                rate,
                gmax_p99: percentile(&gmax, 0.99),
                gmax_p999: percentile(&gmax, 0.999),
                gmax_max: percentile(&gmax, 1.0),
                lscc_p99: percentile(&lscc, 0.99),
                lscc_p999: percentile(&lscc, 0.999),
                lscc_max: percentile(&lscc, 1.0),
                samples: gmax.len(),
            }
        })
        .collect()
}

/// Render as CSV (the paper's column layout).
pub fn to_csv(rows: &[Table1Row]) -> CsvTable {
    let mut t = CsvTable::new([
        "fault_rate_pct",
        "gmax_p99",
        "gmax_p999",
        "gmax_max",
        "lscc_p99",
        "lscc_p999",
        "lscc_max",
        "samples",
    ]);
    for r in rows {
        t.row([
            fmt_f64(r.rate * 100.0),
            fmt_f64(r.gmax_p99),
            fmt_f64(r.gmax_p999),
            fmt_f64(r.gmax_max),
            fmt_f64(r.lscc_p99),
            fmt_f64(r.lscc_p999),
            fmt_f64(r.lscc_max),
            r.samples.to_string(),
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
            p: 1024,
            logp: LogP::PAPER,
            rates: vec![0.001, 0.04],
            reps: 10,
            seed0: 13,
            threads: ct_runtime::default_threads(),
            gossip_time: 24,
            include_gossip: true,
        })
        .unwrap()
    }

    #[test]
    fn rows_aggregate_over_all_trees_per_rate() {
        let rows = from_cells(&cells());
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // 4 trees × 10 reps.
            assert_eq!(r.samples, 40);
            assert!(r.gmax_p99 <= r.gmax_p999);
            assert!(r.gmax_p999 <= r.gmax_max);
            assert!(r.lscc_p99 <= r.lscc_p999);
            assert!(r.lscc_p999 <= r.lscc_max);
            // Under faults the correction always exceeds the fault-free 8.
            assert!(r.lscc_max >= 8.0);
        }
    }

    #[test]
    fn costs_grow_with_fault_rate() {
        let rows = from_cells(&cells());
        assert!(rows[1].gmax_max >= rows[0].gmax_max);
        assert!(rows[1].lscc_p99 >= rows[0].lscc_p99);
    }

    #[test]
    fn csv_reports_rates_in_percent() {
        let rows = from_cells(&cells());
        let csv = to_csv(&rows).to_csv();
        assert!(csv.contains("\n0.1000,"), "{csv}");
        assert!(csv.contains("\n4,"), "{csv}");
    }
}
