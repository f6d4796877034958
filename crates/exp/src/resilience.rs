//! The fault-rate sweep of §4.3.
//!
//! One campaign grid underlies Figures 8, 9, 10 and Table 1: the four
//! paper trees with synchronized checked correction, plus checked
//! Corrected Gossip, each run at fault rates 0.01%–4% on `P` processes
//! ("we simulated 10⁵ broadcasts of every type on 64K processes" —
//! repetitions and `P` are configurable here). Each repetition records
//! quiescence latency, message counts, the post-dissemination maximum
//! gap and the correction time `L_SCC`.

use ct_analyze::WasteReport;
use ct_core::correction::CorrectionKind;
use ct_core::tree::TreeKind;
use ct_logp::LogP;
use ct_obs::json::JsonObject;
use ct_obs::MonitorReport;

use crate::campaign::{Campaign, CampaignError, FaultSpec, RunRecord};
use crate::perf::analyze_campaign;
use crate::tuning;
use crate::variants::Variant;

/// The paper's fault rates (fractions): 0.01%, 0.1%, 1%, 2%, 4%.
pub const PAPER_FAULT_RATES: [f64; 5] = [0.0001, 0.001, 0.01, 0.02, 0.04];

/// Configuration of the resilience grid.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Process count (paper: 2¹⁶).
    pub p: u32,
    /// Machine model.
    pub logp: LogP,
    /// Fault rates to sweep.
    pub rates: Vec<f64>,
    /// Repetitions per cell (paper: 10⁵).
    pub reps: u32,
    /// Base seed.
    pub seed0: u64,
    /// Worker threads for repetitions.
    pub threads: usize,
    /// Gossip time for the checked-gossip competitor (pre-tuned for the
    /// chosen `p`; see [`crate::tuning`]).
    pub gossip_time: u64,
    /// Include the gossip competitor at all.
    pub include_gossip: bool,
}

impl ResilienceConfig {
    /// Laptop-scale defaults: `P = 4096`, 50 reps.
    pub fn quick() -> ResilienceConfig {
        ResilienceConfig {
            p: 1 << 12,
            logp: LogP::PAPER,
            rates: PAPER_FAULT_RATES.to_vec(),
            reps: 50,
            seed0: 1,
            threads: ct_runtime::default_threads(),
            gossip_time: 30,
            include_gossip: true,
        }
    }

    /// The paper's `P = 2¹⁶`, at 1000 reps per cell (the paper ran
    /// 10⁵).
    pub fn paper() -> ResilienceConfig {
        ResilienceConfig {
            p: 1 << 16,
            reps: 1000,
            ..ResilienceConfig::quick()
        }
    }

    /// Set `gossip_time` to the latency-minimizing one for this `P`
    /// (§4.1), scanned in steps of 2 over `[Lₒ, Lₒ·(⌊log₂P⌋ + 9)]`
    /// with `Lₒ` the transit time.
    pub fn tune_gossip_time(&mut self) -> Result<(), CampaignError> {
        let lo = self.logp.transit_steps();
        let log2p = u64::from(32 - self.p.leading_zeros());
        self.gossip_time = tuning::min_latency_gossip_time(
            self.p,
            self.logp,
            lo,
            lo * (log2p + 8),
            2,
            3,
            self.seed0,
        )?;
        Ok(())
    }
}

/// One grid cell's results.
#[derive(Clone, Debug)]
pub struct ResilienceCell {
    /// Variant label.
    pub label: String,
    /// Is this one of the tree variants (vs gossip)?
    pub is_tree: bool,
    /// Tree kind when `is_tree`.
    pub tree: Option<TreeKind>,
    /// Fault rate of this cell.
    pub rate: f64,
    /// All repetition records.
    pub records: Vec<RunRecord>,
}

/// Run the full grid.
pub fn run_grid(cfg: &ResilienceConfig) -> Result<Vec<ResilienceCell>, CampaignError> {
    let mut cells = Vec::new();
    for &rate in &cfg.rates {
        for kind in Variant::paper_trees() {
            let variant = Variant::tree_checked_sync(kind);
            let records = Campaign::new(variant, cfg.p, cfg.logp)
                .with_faults(FaultSpec::Rate(rate))
                .with_reps(cfg.reps)
                .with_seed(cfg.seed0)
                .run(cfg.threads)?;
            cells.push(ResilienceCell {
                label: kind.label(),
                is_tree: true,
                tree: Some(kind),
                rate,
                records,
            });
        }
        if cfg.include_gossip {
            let variant = Variant::gossip(cfg.gossip_time, CorrectionKind::Checked);
            let records = Campaign::new(variant, cfg.p, cfg.logp)
                .with_faults(FaultSpec::Rate(rate))
                .with_reps(cfg.reps)
                .with_seed(cfg.seed0)
                .run(cfg.threads)?;
            cells.push(ResilienceCell {
                label: "gossip".into(),
                is_tree: false,
                tree: None,
                rate,
                records,
            });
        }
    }
    Ok(cells)
}

/// Waste accounting and monitor attestation for one representative
/// resilience cell, attached verbatim to figure manifests.
#[derive(Clone, Debug)]
pub struct WasteProbe {
    /// Process count the probe ran at (clamped — see [`waste_probe`]).
    pub p: u32,
    /// Repetitions the probe ran.
    pub reps: u32,
    /// Fault rate of the probed cell.
    pub rate: f64,
    /// Aggregate waste over all probe repetitions.
    pub waste: WasteReport,
    /// Invariant-monitor verdict over all probe repetitions.
    pub monitor: MonitorReport,
}

impl WasteProbe {
    /// Render the manifest block:
    /// `{"p":…,"reps":…,"rate":…,"violations":…,"waste":{…}}`.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("p", u64::from(self.p));
        obj.field_u64("reps", u64::from(self.reps));
        obj.field_f64("rate", self.rate);
        obj.field_u64("violations", self.monitor.violations.len() as u64);
        obj.field_raw("waste", &self.waste.to_json());
        obj.finish()
    }
}

/// Probe one cell of the resilience grid (binomial tree, checked sync
/// correction, the given fault rate) under the invariant monitor and
/// the waste accounting of [`analyze_campaign`]. Event capture
/// allocates per repetition, so the probe clamps to a tractable size
/// (`P ≤ 4096`, 5 repetitions) — the same spirit as
/// [`crate::perf::analysis_campaign`] — rather than replaying the full
/// grid.
pub fn waste_probe(cfg: &ResilienceConfig, rate: f64) -> Result<WasteProbe, CampaignError> {
    let p = cfg.p.clamp(2, 4096);
    let reps = cfg.reps.clamp(1, 5);
    let campaign = Campaign::new(Variant::tree_checked_sync(TreeKind::BINOMIAL), p, cfg.logp)
        .with_faults(FaultSpec::Rate(rate))
        .with_reps(reps)
        .with_seed(cfg.seed0);
    let analysis = analyze_campaign(&campaign)?;
    Ok(WasteProbe {
        p,
        reps,
        rate,
        waste: analysis.waste,
        monitor: analysis.monitor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ResilienceConfig {
        ResilienceConfig {
            p: 256,
            logp: LogP::PAPER,
            rates: vec![0.01, 0.04],
            reps: 4,
            seed0: 5,
            threads: 2,
            gossip_time: 22,
            include_gossip: true,
        }
    }

    #[test]
    fn grid_covers_all_cells() {
        let cells = run_grid(&tiny()).unwrap();
        // 2 rates × (4 trees + gossip).
        assert_eq!(cells.len(), 10);
        for cell in &cells {
            assert_eq!(cell.records.len(), 4);
            assert!(
                cell.records.iter().all(|r| r.all_live_colored),
                "checked correction colors everything: {} @ {}",
                cell.label,
                cell.rate
            );
        }
    }

    #[test]
    fn waste_probe_attests_and_accounts() {
        let probe = waste_probe(&tiny(), 0.04).unwrap();
        assert!(probe.monitor.is_ok(), "{}", probe.monitor.render_text());
        assert!(probe.waste.sends > 0);
        let json = probe.to_json();
        assert!(json.contains(r#""violations":0"#), "{json}");
        assert!(json.contains(r#""waste":{"sends":"#), "{json}");
    }

    #[test]
    fn higher_fault_rate_means_more_faults() {
        let cells = run_grid(&tiny()).unwrap();
        let mean_faults = |rate: f64| -> f64 {
            let cell = cells
                .iter()
                .find(|c| c.is_tree && (c.rate - rate).abs() < 1e-12)
                .unwrap();
            cell.records.iter().map(|r| r.faults as f64).sum::<f64>() / cell.records.len() as f64
        };
        assert!(mean_faults(0.04) > mean_faults(0.01));
    }
}
