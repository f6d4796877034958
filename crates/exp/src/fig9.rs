//! Figure 9: average messages per process vs fault rate.
//!
//! Aggregates the [`crate::resilience`] grid. Expected shape (§4.3):
//! the message count *drops* as the fault rate rises — dead processes
//! send nothing and uncolored processes do not participate in
//! correction — while Corrected Trees stay well below Corrected Gossip
//! throughout.

use crate::csv::{fmt_f64, CsvTable};
use crate::resilience::ResilienceCell;
use crate::stats::Summary;

/// One point: a variant at a fault rate.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Variant label.
    pub series: String,
    /// Fault rate (fraction).
    pub rate: f64,
    /// Messages-per-process distribution.
    pub messages_per_process: Summary,
}

/// Aggregate grid cells into figure rows.
pub fn from_cells(cells: &[ResilienceCell]) -> Vec<Fig9Row> {
    cells
        .iter()
        .map(|cell| Fig9Row {
            series: cell.label.clone(),
            rate: cell.rate,
            messages_per_process: Summary::of(
                &cell
                    .records
                    .iter()
                    .map(|r| r.messages_per_process)
                    .collect::<Vec<f64>>(),
            ),
        })
        .collect()
}

/// Render as CSV.
pub fn to_csv(rows: &[Fig9Row]) -> CsvTable {
    let mut t = CsvTable::new(["series", "fault_rate", "mean", "p05", "p95"]);
    for r in rows {
        t.row([
            r.series.clone(),
            format!("{}", r.rate),
            fmt_f64(r.messages_per_process.mean),
            fmt_f64(r.messages_per_process.p05),
            fmt_f64(r.messages_per_process.p95),
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
            seed0: 9,
            threads: ct_runtime::default_threads(),
            gossip_time: 26,
            include_gossip: true,
        })
        .unwrap()
    }

    #[test]
    fn messages_drop_with_fault_rate() {
        let rows = from_cells(&cells());
        let mean = |series: &str, rate: f64| {
            rows.iter()
                .find(|r| r.series == series && (r.rate - rate).abs() < 1e-12)
                .unwrap()
                .messages_per_process
                .mean
        };
        for series in ["binomial/interleaved", "4-ary/interleaved"] {
            assert!(
                mean(series, 0.04) < mean(series, 0.001),
                "{series}: message count must drop under faults"
            );
        }
    }

    #[test]
    fn trees_send_fewer_messages_than_gossip_at_every_rate() {
        let rows = from_cells(&cells());
        for rate in [0.001, 0.04] {
            let gossip = rows
                .iter()
                .find(|r| r.series == "gossip" && (r.rate - rate).abs() < 1e-12)
                .unwrap()
                .messages_per_process
                .mean;
            for r in rows
                .iter()
                .filter(|r| r.series != "gossip" && (r.rate - rate).abs() < 1e-12)
            {
                assert!(
                    r.messages_per_process.mean < gossip,
                    "{} at {rate}: {} vs gossip {}",
                    r.series,
                    r.messages_per_process.mean,
                    gossip
                );
            }
        }
    }
}
