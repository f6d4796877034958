//! OSU-style latency benchmark (§4.4).
//!
//! The paper used the `osu_bcast` benchmark: "repeatedly executes
//! MPI_Bcast and measures its runtime across all the processes". This
//! harness does the same against [`Cluster`]: a warmup phase, then `N`
//! measured broadcasts, reporting the median and 25%/75% percentiles of
//! per-iteration latency — the statistics plotted in Figures 11 and 12.

use std::time::Duration;

use ct_core::protocol::ProtocolFactory;
use ct_logp::{LogP, Rank};

use crate::cluster::{Cluster, ClusterConfig, ClusterError};

/// Benchmark configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Number of ranks.
    pub p: u32,
    /// Unmeasured warmup iterations (default 5).
    pub warmup: u32,
    /// Measured iterations (default 20).
    pub iterations: u32,
    /// Ranks emulated as crashed for every iteration.
    pub dead_ranks: Vec<Rank>,
    /// Per-iteration completion deadline.
    pub timeout: Duration,
    /// Base seed; iteration `i` uses `seed + i`.
    pub seed: u64,
}

impl BenchConfig {
    /// Fault-free defaults for `p` ranks.
    pub fn new(p: u32) -> BenchConfig {
        BenchConfig {
            p,
            warmup: 5,
            iterations: 20,
            dead_ranks: Vec::new(),
            timeout: Duration::from_secs(30),
            seed: 0,
        }
    }

    /// Emulate these ranks as crashed (must not include rank 0).
    pub fn with_dead_ranks(mut self, ranks: &[Rank]) -> BenchConfig {
        assert!(!ranks.contains(&0), "the root must stay alive");
        self.dead_ranks = ranks.to_vec();
        self
    }

    /// Set warmup/measured iteration counts.
    pub fn with_iterations(mut self, warmup: u32, iterations: u32) -> BenchConfig {
        assert!(iterations >= 1);
        self.warmup = warmup;
        self.iterations = iterations;
        self
    }
}

/// Aggregated benchmark result.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Protocol label.
    pub label: String,
    /// Rank count.
    pub p: u32,
    /// Per-iteration latencies (measured iterations only, completed or
    /// not), in microseconds.
    pub latencies_us: Vec<f64>,
    /// Median latency (µs).
    pub median_us: f64,
    /// 25% percentile (µs).
    pub p25_us: f64,
    /// 75% percentile (µs).
    pub p75_us: f64,
    /// Iterations that missed the completion deadline.
    pub incomplete: u32,
    /// Mean messages per iteration.
    pub mean_messages: f64,
}

/// Run the benchmark for one protocol variant on a fresh cluster.
pub fn run_bench(
    factory: &dyn ProtocolFactory,
    logp: LogP,
    config: &BenchConfig,
) -> Result<BenchResult, ClusterError> {
    let cfg = ClusterConfig::new().timeout(config.timeout);
    let mut cluster = Cluster::with_config(config.p, logp, cfg);
    let mut dead = vec![false; config.p as usize];
    for &r in &config.dead_ranks {
        dead[r as usize] = true;
    }

    for i in 0..config.warmup {
        let _ = cluster.run_broadcast(factory, &dead, config.seed.wrapping_add(i as u64))?;
    }

    let mut latencies_us = Vec::with_capacity(config.iterations as usize);
    let mut incomplete = 0u32;
    let mut total_messages = 0u64;
    for i in 0..config.iterations {
        let seed = config.seed.wrapping_add((config.warmup + i) as u64);
        let report = cluster.run_broadcast(factory, &dead, seed)?;
        latencies_us.push(report.latency.as_secs_f64() * 1e6);
        if !report.completed {
            incomplete += 1;
        }
        total_messages += report.messages;
    }

    let mut sorted = latencies_us.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let q = |p: f64| {
        let idx = ((p * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        sorted[idx]
    };
    Ok(BenchResult {
        label: factory.label(),
        p: config.p,
        median_us: q(0.5),
        p25_us: q(0.25),
        p75_us: q(0.75),
        latencies_us,
        incomplete,
        mean_messages: total_messages as f64 / config.iterations as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::correction::CorrectionKind;
    use ct_core::protocol::BroadcastSpec;
    use ct_core::tree::TreeKind;

    #[test]
    fn bench_produces_consistent_statistics() {
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 2 },
        );
        let config = BenchConfig::new(16).with_iterations(2, 8);
        let result = run_bench(&spec, LogP::PAPER, &config).unwrap();
        assert_eq!(result.latencies_us.len(), 8);
        assert_eq!(result.incomplete, 0);
        assert!(result.p25_us <= result.median_us);
        assert!(result.median_us <= result.p75_us);
        assert!(result.median_us > 0.0);
        assert!(result.mean_messages >= 15.0);
    }

    #[test]
    fn bench_with_emulated_failures_still_completes() {
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 4 },
        );
        let config = BenchConfig::new(32)
            .with_iterations(1, 5)
            .with_dead_ranks(&[3, 17]);
        let result = run_bench(&spec, LogP::PAPER, &config).unwrap();
        assert_eq!(result.incomplete, 0, "correction must heal the crashes");
    }

    #[test]
    #[should_panic(expected = "root")]
    fn dead_root_is_rejected() {
        let _ = BenchConfig::new(8).with_dead_ranks(&[0]);
    }
}
