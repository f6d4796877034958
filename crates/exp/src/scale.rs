//! The `P = 2²⁰` scaling study (ROADMAP item 3).
//!
//! The paper validates its §4.2 closed forms by simulation at
//! `P = 2¹⁶`; the analytical bounds matter most exactly where
//! simulation gets expensive. This module sweeps process counts up to
//! `P = 2²⁰`, measuring latency and message counts per correction
//! variant and *asserting* the synchronized-checked-correction cells
//! against the closed forms:
//!
//! * fault-free quiescence equals Lemma 2 (discrete-model form,
//!   [`lff_scc_discrete`]) exactly,
//! * fault-free total messages equal `(P-1) + M_SCC·P` (tree edges plus
//!   Corollary 1's per-process correction messages,
//!   [`m_scc_discrete`]),
//! * faulty correction time lands inside the Lemma 3 gap bounds
//!   ([`lscc_bounds`]) for the observed `g_max`.
//!
//! Overlapped opportunistic cells have no closed form; they contribute
//! the latency/message series (and their uncolored counts) without
//! lemma assertions. Fault plans at scale are drawn by the chunked
//! parallel generator ([`crate::FaultSpec::ChunkedCount`]) so plan
//! construction never dominates a repetition.
//!
//! Consumed by `ct fig fig_scale`, which renders the report as a
//! table/CSV and exits 1 on any violation.

use std::time::Instant;

use ct_core::bounds::{lff_scc, lff_scc_discrete, lscc_bounds, m_scc_discrete};
use ct_core::protocol::ProtocolFactory;
use ct_core::tree::TreeKind;
use ct_logp::LogP;

use crate::campaign::{Campaign, CampaignError, FaultSpec, RunRecord};
use crate::csv::CsvTable;
use crate::variants::Variant;

/// Sweep configuration. Process counts are `2^min_exp, 2^(min_exp +
/// step_exp), …, 2^max_exp`; each `P` runs a fault-free and a
/// chunked-fault cell per correction variant.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Smallest process-count exponent (`P = 2^min_exp`).
    pub min_exp: u32,
    /// Largest process-count exponent.
    pub max_exp: u32,
    /// Exponent stride between sweep points.
    pub step_exp: u32,
    /// Repetitions per cell.
    pub reps: u32,
    /// Fault fraction of the faulty cells (`max(1, ⌊rate·P⌋)` failures,
    /// drawn via [`FaultSpec::ChunkedCount`]).
    pub rate: f64,
    /// Base seed (repetition `i` of every cell uses `seed0 + i`).
    pub seed0: u64,
    /// Machine model.
    pub logp: LogP,
    /// Tree shape under test.
    pub tree: TreeKind,
    /// Worker threads for the repetitions of one cell (results are
    /// thread-count independent).
    pub threads: usize,
}

impl ScaleConfig {
    /// The full study: `P ∈ {2¹², 2¹⁴, 2¹⁶, 2¹⁸, 2²⁰}`, two
    /// repetitions per cell.
    pub fn paper() -> ScaleConfig {
        ScaleConfig {
            min_exp: 12,
            max_exp: 20,
            step_exp: 2,
            reps: 2,
            rate: 0.01,
            seed0: 1,
            logp: LogP::PAPER,
            tree: TreeKind::BINOMIAL,
            threads: ct_runtime::default_threads(),
        }
    }

    /// CI-friendly run: capped at `P = 2¹⁶`, same assertions.
    pub fn quick() -> ScaleConfig {
        ScaleConfig {
            max_exp: 16,
            ..ScaleConfig::paper()
        }
    }

    /// The swept process counts, ascending (always includes
    /// `2^max_exp`).
    pub fn process_counts(&self) -> Vec<u32> {
        assert!(self.min_exp <= self.max_exp && self.max_exp < 31);
        let step = self.step_exp.max(1);
        let mut ps: Vec<u32> = (self.min_exp..=self.max_exp)
            .step_by(step as usize)
            .map(|e| 1u32 << e)
            .collect();
        if *ps.last().expect("non-empty sweep") != 1u32 << self.max_exp {
            ps.push(1u32 << self.max_exp);
        }
        ps
    }

    /// Failures per repetition of a faulty cell at process count `p`.
    pub fn faults_at(&self, p: u32) -> u32 {
        (((p as f64) * self.rate) as u32).clamp(1, p - 1)
    }
}

/// One `(P, variant, fault regime)` cell: its records plus the wall
/// clock and event total of the timed pass.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Process count.
    pub p: u32,
    /// Variant label (as in run manifests).
    pub variant: String,
    /// Does synchronized checked correction's analysis apply?
    pub checked_sync: bool,
    /// Failures per repetition (0 for the fault-free cell).
    pub faults: u32,
    /// Per-repetition measurements.
    pub records: Vec<RunRecord>,
    /// Wall-clock nanoseconds over all repetitions of the cell.
    pub wall_ns: u64,
    /// Simulator events processed over all repetitions.
    pub events: u64,
}

impl ScaleCell {
    /// Wall nanoseconds per simulator event.
    pub fn ns_per_event(&self) -> f64 {
        self.wall_ns as f64 / self.events.max(1) as f64
    }

    /// Mean quiescence latency in steps.
    pub fn quiescence_mean(&self) -> f64 {
        let n = self.records.len().max(1) as f64;
        self.records
            .iter()
            .map(|r| r.quiescence as f64)
            .sum::<f64>()
            / n
    }

    /// Mean correction time (synchronized variants only).
    pub fn lscc_mean(&self) -> Option<f64> {
        let times: Vec<u64> = self.records.iter().filter_map(|r| r.lscc).collect();
        if times.is_empty() {
            return None;
        }
        Some(times.iter().sum::<u64>() as f64 / times.len() as f64)
    }

    /// Mean messages per process.
    pub fn messages_per_process_mean(&self) -> f64 {
        let n = self.records.len().max(1) as f64;
        self.records
            .iter()
            .map(|r| r.messages_per_process)
            .sum::<f64>()
            / n
    }

    /// Largest ring gap over all repetitions.
    pub fn g_max(&self) -> u32 {
        self.records.iter().map(|r| r.g_max).max().unwrap_or(0)
    }

    /// Mean live-but-uncolored count.
    pub fn uncolored_mean(&self) -> f64 {
        let n = self.records.len().max(1) as f64;
        self.records
            .iter()
            .map(|r| f64::from(r.uncolored))
            .sum::<f64>()
            / n
    }
}

/// The whole sweep plus every closed-form violation found. An empty
/// [`ScaleReport::violations`] is the study's pass verdict.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// All cells, in sweep order (ascending `P`, fault-free before
    /// faulty, checked-sync before opportunistic).
    pub cells: Vec<ScaleCell>,
    /// Human-readable descriptions of every repetition that escaped its
    /// variant's closed forms.
    pub violations: Vec<String>,
}

/// Run the sweep. Each cell is a seeded [`Campaign`]; repetitions fan
/// out over `cfg.threads` with thread-count-independent results, and
/// checked-sync cells are asserted against Lemmas 2–3 and Corollary 1
/// as they complete.
pub fn run_scale(cfg: &ScaleConfig) -> Result<ScaleReport, CampaignError> {
    let mut cells = Vec::new();
    let mut violations = Vec::new();
    for p in cfg.process_counts() {
        let faults = cfg.faults_at(p);
        let variants: [(Variant, bool); 2] = [
            (Variant::tree_checked_sync(cfg.tree), true),
            (Variant::tree_opportunistic(cfg.tree, 4), false),
        ];
        for (variant, checked_sync) in variants {
            for spec in [FaultSpec::None, FaultSpec::ChunkedCount(faults)] {
                let cell_faults = match spec {
                    FaultSpec::None => 0,
                    _ => faults,
                };
                let campaign = Campaign::new(variant, p, cfg.logp)
                    .with_faults(spec)
                    .with_reps(cfg.reps)
                    .with_seed(cfg.seed0);
                let start = Instant::now();
                let records = campaign.run(cfg.threads)?;
                let wall_ns = start.elapsed().as_nanos() as u64;
                let cell = ScaleCell {
                    p,
                    variant: campaign.variant.label(),
                    checked_sync,
                    faults: cell_faults,
                    events: records.iter().map(|r| r.events).sum(),
                    records,
                    wall_ns,
                };
                check_cell(&cell, &cfg.logp, &mut violations);
                cells.push(cell);
            }
        }
    }
    Ok(ScaleReport { cells, violations })
}

/// Assert one cell against its variant's closed forms, appending a
/// description per escaping repetition.
///
/// Checked-sync cells carry the §4.2 analysis; the Lemma 3 bounds are
/// anchored at the discrete-model fault-free latency, which exceeds
/// Lemma 2's `4o + L + ⌊L/o⌋·o` by `(⌈L/o⌉ - ⌊L/o⌋)·o` (zero for every
/// configuration the paper evaluates). Opportunistic cells have no
/// closed form and only report.
fn check_cell(cell: &ScaleCell, logp: &LogP, violations: &mut Vec<String>) {
    if !cell.checked_sync {
        return;
    }
    let tag = |rec: &RunRecord| {
        format!(
            "p={} variant={} faults={} seed={}",
            cell.p, cell.variant, cell.faults, rec.seed
        )
    };
    // The discrete receive-port model's Lemma 2 / Corollary 1 values.
    let lff = lff_scc_discrete(logp).steps();
    let m = m_scc_discrete(logp);
    let discrete_shift = lff - lff_scc(logp).steps();
    for rec in &cell.records {
        if !rec.all_live_colored {
            violations.push(format!(
                "{}: {} live processes left uncolored under checked correction",
                tag(rec),
                rec.uncolored
            ));
        }
        let Some(lscc) = rec.lscc else {
            violations.push(format!("{}: synchronized cell without L_SCC", tag(rec)));
            continue;
        };
        if cell.faults == 0 {
            if rec.g_max != 0 {
                violations.push(format!("{}: fault-free g_max = {}", tag(rec), rec.g_max));
            }
            if lscc != lff {
                violations.push(format!(
                    "{}: fault-free L_SCC = {lscc}, Lemma 2 says exactly {lff}",
                    tag(rec)
                ));
            }
            let expected = u64::from(cell.p - 1) + m * u64::from(cell.p);
            if rec.messages != expected {
                violations.push(format!(
                    "{}: fault-free messages = {}, (P-1) + M_SCC·P = {expected}",
                    tag(rec),
                    rec.messages
                ));
            }
        } else {
            let (lo, hi) = lscc_bounds(rec.g_max, logp);
            let (lo, hi) = (lo.steps() + discrete_shift, hi.steps() + discrete_shift);
            if lscc < lo || lscc > hi {
                violations.push(format!(
                    "{}: L_SCC = {lscc} outside Lemma 3 bounds [{lo}, {hi}] at g_max = {}",
                    tag(rec),
                    rec.g_max
                ));
            }
        }
    }
}

impl ScaleReport {
    /// Render the sweep as CSV (the `fig_scale` series).
    pub fn to_csv(&self) -> CsvTable {
        let mut t = CsvTable::new([
            "p",
            "variant",
            "faults",
            "reps",
            "quiescence_mean",
            "lscc_mean",
            "g_max",
            "messages_per_process",
            "uncolored_mean",
            "ns_per_event",
        ]);
        for c in &self.cells {
            t.row([
                c.p.to_string(),
                c.variant.clone(),
                c.faults.to_string(),
                c.records.len().to_string(),
                format!("{:.1}", c.quiescence_mean()),
                c.lscc_mean()
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "-".to_owned()),
                c.g_max().to_string(),
                format!("{:.3}", c.messages_per_process_mean()),
                format!("{:.2}", c.uncolored_mean()),
                format!("{:.2}", c.ns_per_event()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            min_exp: 6,
            max_exp: 8,
            step_exp: 1,
            reps: 2,
            rate: 0.02,
            seed0: 11,
            logp: LogP::PAPER,
            tree: TreeKind::BINOMIAL,
            threads: 2,
        }
    }

    #[test]
    fn sweep_points_always_include_the_cap() {
        assert_eq!(
            ScaleConfig::paper().process_counts(),
            vec![1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
        );
        let odd = ScaleConfig {
            min_exp: 6,
            max_exp: 9,
            step_exp: 2,
            ..ScaleConfig::paper()
        };
        assert_eq!(odd.process_counts(), vec![64, 256, 512]);
        assert_eq!(ScaleConfig::quick().max_exp, 16);
    }

    #[test]
    fn tiny_sweep_respects_every_closed_form() {
        let report = run_scale(&tiny()).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // 3 process counts × 2 variants × {fault-free, faulty}.
        assert_eq!(report.cells.len(), 12);
        for cell in &report.cells {
            assert_eq!(cell.records.len(), 2);
            assert!(cell.events > 0);
            assert!(cell.ns_per_event() > 0.0);
        }
        // The CSV mirrors the cells one row each.
        let csv = report.to_csv().to_csv();
        assert_eq!(csv.lines().count(), 1 + report.cells.len());
        // Fault-free checked cells hit Lemma 2 / Corollary 1 exactly.
        let ff = report
            .cells
            .iter()
            .find(|c| c.checked_sync && c.faults == 0 && c.p == 256)
            .unwrap();
        assert_eq!(ff.lscc_mean(), Some(8.0));
        let expected = 255.0 + 5.0 * 256.0;
        for r in &ff.records {
            assert_eq!(r.messages as f64, expected);
        }
    }

    #[test]
    fn violations_are_reported_not_panicked() {
        // Forge a record that breaks Lemma 2 and check it is described.
        let cfg = tiny();
        let mut report = run_scale(&ScaleConfig {
            max_exp: 6,
            reps: 1,
            ..cfg
        })
        .unwrap();
        assert!(report.violations.is_empty());
        let cell = report
            .cells
            .iter_mut()
            .find(|c| c.checked_sync && c.faults == 0)
            .unwrap();
        cell.records[0].lscc = Some(999);
        let mut violations = Vec::new();
        check_cell(cell, &LogP::PAPER, &mut violations);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("Lemma 2"), "{}", violations[0]);
    }
}
