//! Ablation: the correction-algorithm trade-off space (§3.1/§3.3).
//!
//! The paper picks optimized opportunistic correction as its default and
//! leaves delayed correction unevaluated ("the appropriate delay is
//! application-specific"). This campaign fills in the whole grid: for a
//! fixed tree, sweep every correction algorithm (and for delayed, a
//! range of delays) under a range of fault counts, recording latency,
//! messages and liveness — the quantitative basis for the paper's
//! qualitative trade-off table:
//!
//! * opportunistic — cheapest bounded-coverage correction;
//! * optimized opportunistic — same guarantee, fewer messages;
//! * checked — unconditional coverage, `M_SCC` messages;
//! * failure-proof — coverage even under mid-correction failures, paid
//!   in acknowledgments;
//! * delayed — near-minimal messages fault-free, latency spikes under
//!   faults growing with the configured delay.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::BroadcastSpec;
use ct_core::tree::TreeKind;
use ct_logp::LogP;

use crate::campaign::{Campaign, CampaignError, FaultSpec};
use crate::csv::{fmt_f64, CsvTable};
use crate::variants::Variant;

/// Configuration of the ablation grid.
#[derive(Clone, Debug)]
pub struct AblationConfig {
    /// Process count.
    pub p: u32,
    /// Tree under test.
    pub tree: TreeKind,
    /// Fault counts to sweep.
    pub fault_counts: Vec<u32>,
    /// Delays (steps) for delayed correction.
    pub delays: Vec<u64>,
    /// Opportunistic distances.
    pub distances: Vec<u32>,
    /// Repetitions per cell.
    pub reps: u32,
    /// Base seed.
    pub seed0: u64,
    /// Worker threads.
    pub threads: usize,
}

impl AblationConfig {
    /// Laptop-scale defaults.
    pub fn quick() -> AblationConfig {
        AblationConfig {
            p: 1 << 12,
            tree: TreeKind::BINOMIAL,
            fault_counts: vec![0, 1, 8, 64],
            delays: vec![8, 16, 32],
            distances: vec![1, 4],
            reps: 20,
            seed0: 1,
            threads: ct_runtime::default_threads(),
        }
    }
}

/// One grid cell result.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Correction configuration label.
    pub correction: String,
    /// Injected fault count.
    pub faults: u32,
    /// Mean quiescence latency (steps).
    pub mean_quiescence: f64,
    /// Mean messages per process.
    pub mean_messages_per_process: f64,
    /// Fraction of runs with all live processes colored.
    pub liveness_rate: f64,
}

/// Correction kinds swept by the ablation for a given config.
pub fn correction_grid(cfg: &AblationConfig) -> Vec<CorrectionKind> {
    let mut kinds = vec![CorrectionKind::None];
    for &d in &cfg.distances {
        kinds.push(CorrectionKind::Opportunistic { distance: d });
        kinds.push(CorrectionKind::OpportunisticOptimized { distance: d });
    }
    kinds.push(CorrectionKind::Checked);
    kinds.push(CorrectionKind::FailureProof);
    for &delay in &cfg.delays {
        kinds.push(CorrectionKind::Delayed { delay });
    }
    kinds
}

/// Run the grid. All corrections run synchronized so their latencies
/// are directly comparable (the dissemination part is identical).
pub fn run(cfg: &AblationConfig) -> Result<Vec<AblationRow>, CampaignError> {
    let logp = LogP::PAPER;
    let mut rows = Vec::new();
    for kind in correction_grid(cfg) {
        for &faults in &cfg.fault_counts {
            let spec = if kind.is_none() {
                BroadcastSpec::plain_tree(cfg.tree)
            } else {
                BroadcastSpec::corrected_tree_sync(cfg.tree, kind)
            };
            let records = Campaign::new(Variant::Tree(spec), cfg.p, logp)
                .with_faults(if faults == 0 {
                    FaultSpec::None
                } else {
                    FaultSpec::Count(faults)
                })
                .with_reps(cfg.reps)
                .with_seed(cfg.seed0)
                .run(cfg.threads)?;
            let n = records.len() as f64;
            rows.push(AblationRow {
                correction: kind.to_string(),
                faults,
                mean_quiescence: records.iter().map(|r| r.quiescence as f64).sum::<f64>() / n,
                mean_messages_per_process: records
                    .iter()
                    .map(|r| r.messages_per_process)
                    .sum::<f64>()
                    / n,
                liveness_rate: records.iter().filter(|r| r.all_live_colored).count() as f64 / n,
            });
        }
    }
    Ok(rows)
}

/// Render as CSV.
pub fn to_csv(rows: &[AblationRow]) -> CsvTable {
    let mut t = CsvTable::new([
        "correction",
        "faults",
        "mean_quiescence",
        "mean_msgs_per_process",
        "liveness_rate",
    ]);
    for r in rows {
        t.row([
            r.correction.clone(),
            r.faults.to_string(),
            fmt_f64(r.mean_quiescence),
            fmt_f64(r.mean_messages_per_process),
            fmt_f64(r.liveness_rate),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationConfig {
        AblationConfig {
            p: 256,
            tree: TreeKind::BINOMIAL,
            fault_counts: vec![0, 4],
            delays: vec![12],
            distances: vec![2],
            reps: 5,
            seed0: 11,
            threads: 2,
        }
    }

    fn find<'a>(rows: &'a [AblationRow], corr: &str, faults: u32) -> &'a AblationRow {
        rows.iter()
            .find(|r| r.correction == corr && r.faults == faults)
            .unwrap_or_else(|| panic!("missing cell {corr}/{faults}"))
    }

    #[test]
    fn grid_covers_expected_cells() {
        let cfg = tiny();
        let rows = run(&cfg).unwrap();
        // kinds: none, opp(2), opp-opt(2), checked, failure-proof,
        // delayed(12) = 6; × 2 fault counts.
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn fault_free_message_ordering_matches_the_tradeoff() {
        let rows = run(&tiny()).unwrap();
        let none = find(&rows, "none", 0).mean_messages_per_process;
        let delayed = find(&rows, "delayed(12)", 0).mean_messages_per_process;
        let checked = find(&rows, "checked", 0).mean_messages_per_process;
        let fp = find(&rows, "failure-proof", 0).mean_messages_per_process;
        assert!(none < delayed, "plain tree is the floor");
        assert!(delayed < checked, "delayed is the cheapest correction");
        assert!(checked <= fp, "failure-proof pays at least checked's cost");
    }

    #[test]
    fn only_plain_tree_loses_liveness_under_faults() {
        let rows = run(&tiny()).unwrap();
        assert!(find(&rows, "none", 4).liveness_rate < 1.0);
        for corr in ["checked", "failure-proof", "delayed(12)"] {
            assert_eq!(find(&rows, corr, 4).liveness_rate, 1.0, "{corr}");
        }
    }

    #[test]
    fn delayed_correction_pays_latency_under_faults() {
        let rows = run(&tiny()).unwrap();
        let ff = find(&rows, "delayed(12)", 0).mean_quiescence;
        let faulty = find(&rows, "delayed(12)", 4).mean_quiescence;
        assert!(
            faulty > ff,
            "faults must trigger the probe delay: {ff} vs {faulty}"
        );
    }
}
