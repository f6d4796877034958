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

use std::time::Duration;

use ct_core::correction::CorrectionKind;
use ct_core::protocol::gossip::GossipSpec;
use ct_core::protocol::{BroadcastSpec, ProtocolFactory};
use ct_core::tree::TreeKind;
use ct_logp::{LogP, Rank};
use ct_runtime::{Cluster, ClusterConfig, ClusterError};

use crate::csv::{fmt_f64, CsvTable};
use crate::stats::percentile;

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

/// One point of one series of a cluster figure (fig11 and fig12): the
/// numbers its CSV row prints.
#[derive(Clone, Debug)]
pub struct ClusterRow {
    /// Series name.
    pub series: String,
    /// Rank count.
    pub p: u32,
    /// Median latency of the measured broadcasts (µs).
    pub median_us: f64,
    /// 25% percentile (µs).
    pub p25_us: f64,
    /// 75% percentile (µs).
    pub p75_us: f64,
    /// Measured broadcasts that missed the watchdog deadline.
    pub incomplete: u32,
    /// Mean messages per measured broadcast.
    pub mean_messages: f64,
}

/// The deadline every figure broadcast runs under, whatever
/// `CT_WATCHDOG_MS` says.
const WATCHDOG: Duration = Duration::from_secs(30);

impl ClusterRow {
    /// Measure `factory` the `osu_bcast` way (§4.4) on a fresh cluster
    /// of `p` ranks: `warmup` unmeasured broadcasts, then `iterations`
    /// measured ones, broadcast `i` built with seed `i`, the ranks in
    /// `dead` crashed throughout. Latencies count completed or not.
    pub fn measure(
        series: impl Into<String>,
        factory: &dyn ProtocolFactory,
        p: u32,
        dead: &[Rank],
        (warmup, iterations): (u32, u32),
    ) -> Result<ClusterRow, ClusterError> {
        assert!(!dead.contains(&0), "the root must stay alive");
        let mut mask = vec![false; p as usize];
        for &r in dead {
            mask[r as usize] = true;
        }
        let cfg = ClusterConfig::new().timeout(WATCHDOG);
        let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
        let mut latencies_us = Vec::with_capacity(iterations as usize);
        let (mut incomplete, mut messages) = (0, 0);
        for seed in 0..u64::from(warmup + iterations) {
            let outcome = cluster.run_broadcast(factory, &mask, seed)?;
            if seed >= u64::from(warmup) {
                latencies_us.push(outcome.latency.as_secs_f64() * 1e6);
                incomplete += u32::from(!outcome.completed);
                messages += outcome.messages;
            }
        }
        Ok(ClusterRow {
            series: series.into(),
            p,
            median_us: percentile(&latencies_us, 0.5),
            p25_us: percentile(&latencies_us, 0.25),
            p75_us: percentile(&latencies_us, 0.75),
            incomplete,
            mean_messages: messages as f64 / f64::from(iterations),
        })
    }
}

/// Run the sweep.
pub fn run(cfg: &Fig11Config) -> Result<Vec<ClusterRow>, ClusterError> {
    let native = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let ours = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 1 },
    );
    let gossip = GossipSpec::round_limited(
        cfg.gossip_rounds,
        CorrectionKind::Opportunistic { distance: 4 },
    );
    let series: [(&str, &dyn ProtocolFactory); 3] = [
        ("binomial (native)", &native),
        ("binomial (ours)", &ours),
        ("gossip", &gossip),
    ];
    let mut rows = Vec::new();
    for &p in &cfg.process_counts {
        for (name, factory) in series {
            let counts = (cfg.warmup, cfg.iterations);
            rows.push(ClusterRow::measure(name, factory, p, &[], counts)?);
        }
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
            fmt_f64(r.median_us),
            fmt_f64(r.p25_us),
            fmt_f64(r.p75_us),
            r.incomplete.to_string(),
            fmt_f64(r.mean_messages),
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
            assert_eq!(r.incomplete, 0, "{} at P={}", r.series, r.p);
            assert!(r.p25_us <= r.median_us && r.median_us <= r.p75_us);
            assert!(r.median_us > 0.0);
        }
        assert_eq!(to_csv(&rows).len(), 6);
    }
}
