//! Figure 6: average number of messages per process, failure-free.
//!
//! Grouped by correction type — opportunistic with `d ∈ {1, 2, 4}`
//! (trees use the optimized overlapped variant of §3.3) and checked
//! (synchronized) — across the four paper trees and Corrected Gossip.
//! The paper's reference lines sit at 1 message/process (plain tree
//! minimum) and 2 (tree + acknowledgment).
//!
//! Expected shape: trees are independent of `P` and land well below
//! gossip; checked trees send `1 + M_SCC = 6` per process at the paper's
//! parameters; gossip pays its redundant dissemination on top of the
//! same correction.

use ct_core::correction::CorrectionKind;
use ct_logp::LogP;

use crate::campaign::{Campaign, CampaignError};
use crate::csv::{fmt_f64, CsvTable};
use crate::tuning;
use crate::variants::Variant;
use ct_core::protocol::ProtocolFactory as _;

/// Configuration for the Figure 6 campaign.
#[derive(Clone, Debug)]
pub struct Fig6Config {
    /// Process count (paper: 2¹⁶).
    pub p: u32,
    /// Opportunistic correction distances to sweep (paper: 1, 2, 4).
    pub distances: Vec<u32>,
    /// Repetitions for the (stochastic) gossip variants.
    pub gossip_reps: u32,
    /// Repetitions used when *tuning* gossip times.
    pub tuning_reps: u32,
    /// Base seed.
    pub seed0: u64,
}

impl Fig6Config {
    /// Laptop-scale defaults (`P = 2¹²`).
    pub fn quick() -> Fig6Config {
        Fig6Config {
            p: 1 << 12,
            distances: vec![1, 2, 4],
            gossip_reps: 10,
            tuning_reps: 5,
            seed0: 1,
        }
    }

    /// The paper's `P = 2¹⁶`, at 20 reps per gossip bar.
    pub fn paper() -> Fig6Config {
        Fig6Config {
            p: 1 << 16,
            gossip_reps: 20,
            ..Fig6Config::quick()
        }
    }
}

/// One bar of the figure.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Correction-type group, e.g. `opportunistic(d=2)` or `checked`.
    pub group: String,
    /// Variant label within the group.
    pub variant: String,
    /// Mean messages per process.
    pub messages_per_process: f64,
}

/// Run the campaign.
pub fn run(cfg: &Fig6Config) -> Result<Vec<Fig6Row>, CampaignError> {
    let logp = LogP::PAPER;
    let mut rows = Vec::new();

    let push = |group: &str, variant: &Variant, reps: u32, rows: &mut Vec<Fig6Row>| {
        let records = Campaign::new(*variant, cfg.p, logp)
            .with_reps(reps)
            .with_seed(cfg.seed0)
            .run(1)?;
        let mean =
            records.iter().map(|r| r.messages_per_process).sum::<f64>() / records.len() as f64;
        rows.push(Fig6Row {
            group: group.to_owned(),
            variant: variant.label(),
            messages_per_process: mean,
        });
        Ok::<(), CampaignError>(())
    };

    for &d in &cfg.distances {
        let group = format!("opportunistic(d={d})");
        for kind in Variant::paper_trees() {
            push(&group, &Variant::tree_opportunistic(kind, d), 1, &mut rows)?;
        }
        // Gossip with the smallest fully-coloring gossip time (§4.1).
        let log2p = (32 - cfg.p.leading_zeros()) as u64;
        let cap = logp.transit_steps() * (log2p + 16);
        let g =
            tuning::min_full_coloring_gossip_time(cfg.p, logp, d, cfg.tuning_reps, cfg.seed0, cap)?;
        push(
            &group,
            &Variant::gossip(g, CorrectionKind::Opportunistic { distance: d }),
            cfg.gossip_reps,
            &mut rows,
        )?;
    }

    // Checked group: synchronized checked trees + latency-tuned gossip.
    for kind in Variant::paper_trees() {
        push("checked", &Variant::tree_checked_sync(kind), 1, &mut rows)?;
    }
    let lo = logp.transit_steps();
    let hi = lo * (2 + (32 - cfg.p.leading_zeros() as u64));
    let g = tuning::min_latency_gossip_time(cfg.p, logp, lo, hi, 2, cfg.tuning_reps, cfg.seed0)?;
    push(
        "checked",
        &Variant::gossip(g, CorrectionKind::Checked),
        cfg.gossip_reps,
        &mut rows,
    )?;

    Ok(rows)
}

/// Render rows as the figure's CSV.
pub fn to_csv(rows: &[Fig6Row]) -> CsvTable {
    let mut t = CsvTable::new(["group", "variant", "messages_per_process"]);
    for r in rows {
        t.row([
            r.group.clone(),
            r.variant.clone(),
            fmt_f64(r.messages_per_process),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::bounds::m_scc;

    fn tiny() -> Fig6Config {
        Fig6Config {
            p: 256,
            distances: vec![1, 4],
            gossip_reps: 3,
            tuning_reps: 3,
            seed0: 2,
        }
    }

    #[test]
    fn checked_trees_send_one_plus_mscc() {
        let rows = run(&tiny()).unwrap();
        let logp = LogP::PAPER;
        // §4.1: every process sends its tree message(s) (P-1 total ≈ 1
        // per process) plus M_SCC = 5 correction messages.
        for r in rows
            .iter()
            .filter(|r| r.group == "checked" && !r.variant.starts_with("gossip"))
        {
            let expected = (256.0 - 1.0) / 256.0 + m_scc(&logp) as f64;
            assert!(
                (r.messages_per_process - expected).abs() < 1e-9,
                "{}: {} vs {}",
                r.variant,
                r.messages_per_process,
                expected
            );
        }
    }

    fn assert_gossip_exceeds_trees(rows: &[Fig6Row], groups: &[&str]) {
        for group in groups {
            let (mut tree_max, mut gossip) = (0.0f64, None);
            for r in rows.iter().filter(|r| &r.group == group) {
                if r.variant.starts_with("gossip") {
                    gossip = Some(r.messages_per_process);
                } else {
                    tree_max = tree_max.max(r.messages_per_process);
                }
            }
            let gossip = gossip.expect("each group has a gossip bar");
            assert!(
                gossip > tree_max,
                "{group}: gossip {gossip} ≤ trees {tree_max}"
            );
        }
    }

    #[test]
    fn gossip_sends_more_than_trees_at_small_scale_for_tight_budgets() {
        // At tiny P the d=4 group can favor gossip (coloring only has to
        // land within distance 4 of everyone); the paper's full-scale
        // relation for that group is covered by the ignored test below.
        let rows = run(&tiny()).unwrap();
        assert_gossip_exceeds_trees(&rows, &["opportunistic(d=1)", "checked"]);
    }

    #[test]
    #[ignore = "paper-scale check (~minutes); run with --ignored"]
    fn gossip_sends_more_than_trees_in_every_group_at_scale() {
        let cfg = Fig6Config {
            p: 1 << 14,
            distances: vec![1, 2, 4],
            gossip_reps: 3,
            tuning_reps: 3,
            seed0: 2,
        };
        let rows = run(&cfg).unwrap();
        assert_gossip_exceeds_trees(
            &rows,
            &[
                "opportunistic(d=1)",
                "opportunistic(d=2)",
                "opportunistic(d=4)",
                "checked",
            ],
        );
    }

    #[test]
    fn opportunistic_trees_scale_with_distance() {
        let rows = run(&tiny()).unwrap();
        let tree_mean = |group: &str| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.group == group && !r.variant.starts_with("gossip"))
                .map(|r| r.messages_per_process)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(tree_mean("opportunistic(d=4)") > tree_mean("opportunistic(d=1)"));
    }

    #[test]
    fn csv_has_all_rows() {
        let rows = run(&tiny()).unwrap();
        // 2 distances × 5 variants + 5 checked variants.
        assert_eq!(rows.len(), 15);
        assert_eq!(to_csv(&rows).len(), 15);
    }
}
