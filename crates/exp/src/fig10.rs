//! Figure 10: (maximum gap, correction time) scatter with Lemma 3
//! bounds.
//!
//! Every tree repetition of the [`crate::resilience`] grid contributes
//! one `(g_max, L_SCC)` point; the Lemma-3 lower and upper lines must
//! sandwich all of them ("upper and lower bounds … surround the data
//! points obtained from simulation tightly"). Points coming from
//! binomial trees are flagged, since "most large gaps happened only for
//! binomial trees".

use ct_core::bounds::lscc_bounds;
use ct_core::tree::TreeKind;
use ct_logp::LogP;

use crate::csv::CsvTable;
use crate::resilience::ResilienceCell;

/// One scatter point (deduplicated).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig10Point {
    /// Maximum gap after dissemination.
    pub g_max: u32,
    /// Correction time in steps.
    pub lscc: u64,
    /// Did any binomial-tree run produce this pair?
    pub from_binomial: bool,
    /// Lemma 3 lower bound for this `g_max`.
    pub lower: u64,
    /// Lemma 3 upper bound for this `g_max`.
    pub upper: u64,
}

/// Extract the unique `(g_max, L_SCC)` pairs from tree cells.
pub fn from_cells(cells: &[ResilienceCell], logp: &LogP) -> Vec<Fig10Point> {
    let mut points: Vec<Fig10Point> = Vec::new();
    for cell in cells.iter().filter(|c| c.is_tree) {
        let is_binomial = matches!(cell.tree, Some(TreeKind::Binomial { .. }));
        for rec in &cell.records {
            let lscc = rec
                .lscc
                .expect("resilience grid uses synchronized correction");
            match points
                .iter_mut()
                .find(|pt| pt.g_max == rec.g_max && pt.lscc == lscc)
            {
                Some(pt) => pt.from_binomial |= is_binomial,
                None => {
                    let (lo, hi) = lscc_bounds(rec.g_max, logp);
                    points.push(Fig10Point {
                        g_max: rec.g_max,
                        lscc,
                        from_binomial: is_binomial,
                        lower: lo.steps(),
                        upper: hi.steps(),
                    });
                }
            }
        }
    }
    points.sort_by_key(|pt| (pt.g_max, pt.lscc));
    points
}

/// Fraction of points respecting the Lemma-3 bounds (should be 1.0).
pub fn bounds_conformance(points: &[Fig10Point]) -> f64 {
    if points.is_empty() {
        return 1.0;
    }
    let ok = points
        .iter()
        .filter(|pt| pt.lscc >= pt.lower && pt.lscc <= pt.upper)
        .count();
    ok as f64 / points.len() as f64
}

/// Render as CSV.
pub fn to_csv(points: &[Fig10Point]) -> CsvTable {
    let mut t = CsvTable::new([
        "g_max",
        "correction_time",
        "tree",
        "lower_bound",
        "upper_bound",
    ]);
    for pt in points {
        t.row([
            pt.g_max.to_string(),
            pt.lscc.to_string(),
            if pt.from_binomial {
                "binomial".into()
            } else {
                "any".to_string()
            },
            pt.lower.to_string(),
            pt.upper.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{run_grid, ResilienceConfig};

    #[test]
    fn all_points_respect_lemma3_bounds() {
        let logp = LogP::PAPER;
        let cells = run_grid(&ResilienceConfig {
            p: 1024,
            logp,
            rates: vec![0.01, 0.04],
            reps: 10,
            seed0: 21,
            threads: ct_runtime::default_threads(),
            gossip_time: 24,
            include_gossip: false,
        })
        .unwrap();
        let points = from_cells(&cells, &logp);
        assert!(!points.is_empty());
        assert_eq!(bounds_conformance(&points), 1.0, "{points:?}");
    }

    #[test]
    fn points_are_unique_and_sorted() {
        let logp = LogP::PAPER;
        let cells = run_grid(&ResilienceConfig {
            p: 512,
            logp,
            rates: vec![0.02],
            reps: 8,
            seed0: 3,
            threads: ct_runtime::default_threads(),
            gossip_time: 24,
            include_gossip: false,
        })
        .unwrap();
        let points = from_cells(&cells, &logp);
        for w in points.windows(2) {
            assert!((w[0].g_max, w[0].lscc) < (w[1].g_max, w[1].lscc));
        }
    }
}
