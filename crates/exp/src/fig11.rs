//! Figure 11: cluster broadcast latency vs rank count.
//!
//! The paper validates its prototype against Cray MPI's binomial
//! broadcast (with and without shared memory) and Corrected Gossip on
//! Piz Daint (1152–36864 ranks). On the thread-cluster substitute the
//! comparison becomes:
//!
//! * `binomial (native)` — plain binomial broadcast, standing in for
//!   the vendor implementation;
//! * `binomial (ours)` — the generic Corrected-Trees code path with one
//!   correction message (`d = 1`), the cheapest fault-tolerant setting;
//! * `gossip` — round-limited Corrected Gossip with opportunistic
//!   correction, as in the paper's prototype.
//!
//! Expected shape: the generic implementation tracks the native one
//! closely; gossip is consistently slower ("the performance of
//! Corrected Gossip turned out to be consistently worse than trees").

use ct_core::correction::CorrectionKind;
use ct_core::protocol::BroadcastSpec;
use ct_core::tree::TreeKind;
use ct_gossip::GossipSpec;
use ct_logp::LogP;
use ct_runtime::{harness, BenchConfig, BenchResult, ClusterError};

use crate::csv::{fmt_f64, CsvTable};

/// Configuration for the Figure 11 sweep.
#[derive(Clone, Debug)]
pub struct Fig11Config {
    /// Rank counts to sweep.
    pub process_counts: Vec<u32>,
    /// Warmup iterations per point.
    pub warmup: u32,
    /// Measured iterations per point.
    pub iterations: u32,
    /// Gossip rounds (paper: empirically selected; scale with log P).
    pub gossip_rounds: u32,
    /// Base seed.
    pub seed: u64,
}

impl Fig11Config {
    /// Laptop-scale defaults. The top counts were capped at 64 while
    /// the cluster spawned one OS thread per rank; the M:N scheduler
    /// makes 128/256 routine on a development machine.
    pub fn quick() -> Fig11Config {
        Fig11Config {
            process_counts: vec![4, 8, 16, 32, 64, 128, 256],
            warmup: 3,
            iterations: 10,
            gossip_rounds: 12,
            seed: 1,
        }
    }

    /// The larger sweep `P = 8 … 512`, at 30 iterations per point (the
    /// paper ran 1152–36864 ranks on Piz Daint).
    pub fn paper() -> Fig11Config {
        Fig11Config {
            process_counts: vec![8, 16, 32, 64, 128, 256, 512],
            iterations: 30,
            ..Fig11Config::quick()
        }
    }
}

/// One point of one series of a cluster figure (fig11 and fig12).
#[derive(Clone, Debug)]
pub struct ClusterRow {
    /// Series name.
    pub series: String,
    /// Rank count.
    pub p: u32,
    /// Benchmark statistics.
    pub result: BenchResult,
}

/// Run the sweep.
pub fn run(cfg: &Fig11Config) -> Result<Vec<ClusterRow>, ClusterError> {
    let logp = LogP::PAPER;
    let mut rows = Vec::new();
    for &p in &cfg.process_counts {
        let bench = BenchConfig::new(p).with_iterations(cfg.warmup, cfg.iterations);

        let native = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
        rows.push(ClusterRow {
            series: "binomial (native)".into(),
            p,
            result: harness::run_bench(&native, logp, &bench)?,
        });

        let ours = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 1 },
        );
        rows.push(ClusterRow {
            series: "binomial (ours)".into(),
            p,
            result: harness::run_bench(&ours, logp, &bench)?,
        });

        let gossip = GossipSpec::round_limited(
            cfg.gossip_rounds,
            CorrectionKind::Opportunistic { distance: 4 },
        );
        rows.push(ClusterRow {
            series: "gossip".into(),
            p,
            result: harness::run_bench(&gossip, logp, &bench)?,
        });
    }
    Ok(rows)
}

/// Render a cluster figure (fig11 or fig12) as CSV.
pub fn to_csv(rows: &[ClusterRow]) -> CsvTable {
    let mut t = CsvTable::new([
        "series",
        "p",
        "median_us",
        "p25_us",
        "p75_us",
        "incomplete",
        "mean_messages",
    ]);
    for r in rows {
        t.row([
            r.series.clone(),
            r.p.to_string(),
            fmt_f64(r.result.median_us),
            fmt_f64(r.result.p25_us),
            fmt_f64(r.result.p75_us),
            r.result.incomplete.to_string(),
            fmt_f64(r.result.mean_messages),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_series_and_completes() {
        let cfg = Fig11Config {
            process_counts: vec![4, 16],
            warmup: 1,
            iterations: 4,
            gossip_rounds: 8,
            seed: 2,
        };
        let rows = run(&cfg).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.result.incomplete, 0, "{} at P={}", r.series, r.p);
            assert!(r.result.median_us > 0.0);
        }
        assert_eq!(to_csv(&rows).len(), 6);
    }
}
