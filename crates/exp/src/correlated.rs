//! Correlated failures and random numbering (§2.1) — extension
//! experiment.
//!
//! The paper's analysis assumes independent failures and §2.1 sketches
//! two escapes for the real world, where whole nodes die at once:
//! number tree nodes randomly, or keep correlated processes far apart
//! on the ring. This campaign quantifies the first: fail whole aligned
//! blocks of `node_size` consecutive ranks and compare
//!
//! * **linear** numbering — the block is one contiguous ring gap of at
//!   least `node_size`, so checked correction pays Lemma 3's price for
//!   a large `g_max`, against
//! * **shuffled** numbering — the same physical block scatters across
//!   the virtual ring into (mostly) unit gaps, restoring the
//!   independent-failure behavior of Figures 8–10.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, ColoredVia, Relabeling};
use ct_core::tree::{ring, TreeKind};
use ct_logp::LogP;
use ct_sim::{FaultPlan, Simulation};

use crate::campaign::CampaignError;
use crate::csv::{fmt_f64, CsvTable};
use crate::stats::Summary;

/// Configuration of the correlated-failure campaign.
#[derive(Clone, Debug)]
pub struct CorrelatedConfig {
    /// Process count.
    pub p: u32,
    /// Ranks per physical node.
    pub node_size: u32,
    /// Numbers of simultaneously crashing nodes to sweep.
    pub node_counts: Vec<u32>,
    /// Repetitions per cell.
    pub reps: u32,
    /// Base seed.
    pub seed0: u64,
}

impl CorrelatedConfig {
    /// Laptop-scale defaults: 4096 processes on 36-rank nodes (the
    /// paper's Piz Daint nodes ran 72 ranks; half that keeps several
    /// hundred nodes at quick scale).
    pub fn quick() -> CorrelatedConfig {
        CorrelatedConfig {
            p: 1 << 12,
            node_size: 36,
            node_counts: vec![1, 2, 4],
            reps: 30,
            seed0: 1,
        }
    }
}

/// One cell: a numbering × node-failure count.
#[derive(Clone, Debug)]
pub struct CorrelatedRow {
    /// `linear` or `shuffled`.
    pub numbering: String,
    /// Crashed nodes per run.
    pub nodes: u32,
    /// Failed processes per run.
    pub faults: u32,
    /// Maximum gap on the *correction ring* (virtual numbering).
    pub g_max: Summary,
    /// Correction time (synchronized checked), steps.
    pub lscc: Summary,
}

/// Run the campaign with synchronized checked correction on the
/// interleaved binomial tree.
pub fn run(cfg: &CorrelatedConfig) -> Result<Vec<CorrelatedRow>, CampaignError> {
    let logp = LogP::PAPER;
    let tree = TreeKind::BINOMIAL.build(cfg.p, &logp).expect("valid tree");
    let start = tree.dissemination_deadline(&logp);
    let mut rows = Vec::new();
    for shuffled in [false, true] {
        for &nodes in &cfg.node_counts {
            let mut gmaxes = Vec::with_capacity(cfg.reps as usize);
            let mut lsccs = Vec::with_capacity(cfg.reps as usize);
            let mut faults = 0u32;
            for rep in 0..cfg.reps {
                let seed = cfg.seed0 + rep as u64;
                let mut spec =
                    BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked);
                if shuffled {
                    spec = spec.with_shuffle(0xC0FFEE);
                }
                let plan = FaultPlan::node_blocks(cfg.p, cfg.node_size, nodes, seed, 0)
                    .map_err(|e| CampaignError::Faults(e.to_string()))?;
                faults = plan.count();
                let out = Simulation::builder(cfg.p, logp)
                    .faults(plan)
                    .seed(seed)
                    .build()
                    .run(&spec)
                    .map_err(CampaignError::Sim)?;
                assert!(out.all_live_colored(), "checked correction heals all");
                // Gap analysis lives on the correction ring — the
                // *virtual* numbering when shuffled.
                let phys_diss: Vec<bool> = out
                    .colored_via
                    .iter()
                    .map(|v| matches!(v, Some(ColoredVia::Root) | Some(ColoredVia::Dissemination)))
                    .collect();
                let virt_diss = if shuffled {
                    let map = Relabeling::random(cfg.p, 0, 0xC0FFEEu64.wrapping_add(seed));
                    (0..cfg.p)
                        .map(|v| phys_diss[map.physical(v) as usize])
                        .collect()
                } else {
                    phys_diss
                };
                gmaxes.push(ring::max_gap(&virt_diss) as u64);
                lsccs.push(out.quiescence.since(start).steps());
            }
            rows.push(CorrelatedRow {
                numbering: if shuffled { "shuffled" } else { "linear" }.into(),
                nodes,
                faults,
                g_max: Summary::of_u64(gmaxes),
                lscc: Summary::of_u64(lsccs),
            });
        }
    }
    Ok(rows)
}

/// Render as CSV.
pub fn to_csv(rows: &[CorrelatedRow]) -> CsvTable {
    let mut t = CsvTable::new([
        "numbering",
        "nodes",
        "faults",
        "gmax_mean",
        "gmax_max",
        "lscc_mean",
        "lscc_p95",
        "lscc_max",
    ]);
    for r in rows {
        t.row([
            r.numbering.clone(),
            r.nodes.to_string(),
            r.faults.to_string(),
            fmt_f64(r.g_max.mean),
            fmt_f64(r.g_max.max),
            fmt_f64(r.lscc.mean),
            fmt_f64(r.lscc.p95),
            fmt_f64(r.lscc.max),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CorrelatedConfig {
        CorrelatedConfig {
            p: 512,
            node_size: 16,
            node_counts: vec![1, 2],
            reps: 6,
            seed0: 5,
        }
    }

    #[test]
    fn linear_numbering_suffers_node_sized_gaps() {
        let rows = run(&tiny()).unwrap();
        let linear1 = rows
            .iter()
            .find(|r| r.numbering == "linear" && r.nodes == 1)
            .unwrap();
        // A whole node of 16 consecutive ranks is one gap ≥ 16.
        assert!(linear1.g_max.min >= 16.0, "{:?}", linear1.g_max);
        assert_eq!(linear1.faults, 16);
    }

    #[test]
    fn shuffling_restores_small_gaps_and_fast_correction() {
        let rows = run(&tiny()).unwrap();
        for nodes in [1u32, 2] {
            let get = |numbering: &str| {
                rows.iter()
                    .find(|r| r.numbering == numbering && r.nodes == nodes)
                    .unwrap()
            };
            let (lin, shuf) = (get("linear"), get("shuffled"));
            assert!(
                shuf.g_max.mean < lin.g_max.mean / 2.0,
                "nodes={nodes}: shuffled g_max {} vs linear {}",
                shuf.g_max.mean,
                lin.g_max.mean
            );
            assert!(
                shuf.lscc.mean <= lin.lscc.mean,
                "nodes={nodes}: shuffled correction must not be slower"
            );
        }
    }

    #[test]
    fn csv_shape() {
        let rows = run(&tiny()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(to_csv(&rows).len(), 4);
    }
}
