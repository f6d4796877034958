//! Figure 12: cluster latency of Corrected-Tree variants.
//!
//! The paper's second cluster experiment sweeps its own implementation:
//! binomial trees with `d ∈ {0, 1, 2}` correction messages, a Lamé tree
//! (`k = 4`, `d = 0`), and binomial `d = 2` with 72 emulated process
//! failures. Expected shape: "a single correction message introduced
//! slight performance overhead and the second one added even more, but
//! granted fault tolerance in return"; Lamé shows "almost no
//! performance improvement" over binomial; and emulated faults cause
//! "no change in the latency" for `d = 2`.
//!
//! The fault count scales with the cluster: the paper killed 72 of
//! 36864 ranks (≈0.2%); we kill `max(1, p/512)` ranks by default.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::BroadcastSpec;
use ct_core::tree::{Ordering, TreeKind};
use ct_logp::LogP;
use ct_runtime::{harness, BenchConfig, ClusterError};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

pub use crate::fig11::{to_csv, ClusterRow};

/// Configuration for the Figure 12 sweep.
#[derive(Clone, Debug)]
pub struct Fig12Config {
    /// Rank counts to sweep.
    pub process_counts: Vec<u32>,
    /// Warmup iterations per point.
    pub warmup: u32,
    /// Measured iterations per point.
    pub iterations: u32,
    /// Base seed (drives the random fault placement).
    pub seed: u64,
}

impl Fig12Config {
    /// Laptop-scale defaults. The top counts were capped at 64 while
    /// the cluster spawned one OS thread per rank; the M:N scheduler
    /// makes 128/256 routine on a development machine.
    pub fn quick() -> Fig12Config {
        Fig12Config {
            process_counts: vec![8, 16, 32, 64, 128, 256],
            warmup: 3,
            iterations: 10,
            seed: 1,
        }
    }

    /// The larger sweep `P = 8 … 512`, at 30 iterations per point.
    pub fn paper() -> Fig12Config {
        Fig12Config {
            process_counts: vec![8, 16, 32, 64, 128, 256, 512],
            iterations: 30,
            ..Fig12Config::quick()
        }
    }
}

fn corrected(d: u32) -> BroadcastSpec {
    if d == 0 {
        BroadcastSpec::plain_tree(TreeKind::BINOMIAL)
    } else {
        BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: d },
        )
    }
}

/// Random non-root ranks to kill for the faulty series.
pub fn fault_ranks(p: u32, seed: u64) -> Vec<u32> {
    let n = (p / 512).max(1).min(p - 1);
    let mut rng = StdRng::seed_from_u64(seed);
    sample(&mut rng, (p - 1) as usize, n as usize)
        .into_iter()
        .map(|i| i as u32 + 1)
        .collect()
}

/// Run the sweep.
pub fn run(cfg: &Fig12Config) -> Result<Vec<ClusterRow>, ClusterError> {
    let logp = LogP::PAPER;
    let mut rows = Vec::new();
    for &p in &cfg.process_counts {
        let bench = BenchConfig::new(p).with_iterations(cfg.warmup, cfg.iterations);
        for d in [0u32, 1, 2] {
            rows.push(ClusterRow {
                series: format!("binomial (d={d})"),
                p,
                result: harness::run_bench(&corrected(d), logp, &bench)?,
            });
        }
        let lame4 = BroadcastSpec::plain_tree(TreeKind::Lame {
            k: 4,
            order: Ordering::Interleaved,
        });
        rows.push(ClusterRow {
            series: "lame4 (d=0)".into(),
            p,
            result: harness::run_bench(&lame4, logp, &bench)?,
        });
        // Binomial d=2 with emulated failures (must stay fault-tolerant:
        // with d=2 only isolated failures are guaranteed coverable, so
        // this mirrors the paper's sparse random failures).
        let faulty_bench = BenchConfig::new(p)
            .with_iterations(cfg.warmup, cfg.iterations)
            .with_dead_ranks(&fault_ranks(p, cfg.seed));
        rows.push(ClusterRow {
            series: "binomial (d=2, with faults)".into(),
            p,
            result: harness::run_bench(&corrected(2), logp, &faulty_bench)?,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_ranks_scale_and_exclude_root() {
        let ranks = fault_ranks(1024, 7);
        assert_eq!(ranks.len(), 2);
        assert!(ranks.iter().all(|&r| (1..1024).contains(&r)));
        let small = fault_ranks(8, 7);
        assert_eq!(small.len(), 1);
    }

    #[test]
    fn sweep_produces_all_series_and_completes() {
        let cfg = Fig12Config {
            process_counts: vec![16],
            warmup: 1,
            iterations: 4,
            seed: 3,
        };
        let rows = run(&cfg).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.result.median_us > 0.0, "{}", r.series);
            // All series complete: the faulty one uses d=2 against a
            // single isolated failure.
            assert_eq!(r.result.incomplete, 0, "{}", r.series);
        }
    }
}
