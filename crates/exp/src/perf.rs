//! Campaign-level trace analysis.
//!
//! Bridges [`Campaign`] to `ct-analyze`: every repetition is run with
//! an event sink, its causal DAG analyzed, and the per-repetition
//! results aggregated into the *analysis block* that `ct fig` attaches
//! to every figure manifest ([`with_analysis`] over the figure's
//! [`analysis_campaign`]).

use ct_analyze::{analyze_rep_indexed, AnalysisSummary, AnalyzeConfig, RepAnalysis, WasteReport};
use std::sync::Arc;

use ct_logp::LogP;
use ct_obs::health::{HealthEngine, HealthEvent};
use ct_obs::json::JsonObject;
use ct_obs::metrics::Histogram;
use ct_obs::series::SeriesSample;
use ct_obs::telemetry::{TelemetryHub, TelemetrySnapshot};
use ct_obs::{CausalIndex, MonitorConfig, MonitorReport, MonitorSink, RunManifest, VecSink};
use ct_sim::RunArena;

use crate::campaign::{Campaign, CampaignError, FaultSpec, RunRecord};
use crate::variants::Variant;

/// A campaign's records plus the per-repetition causal analyses.
#[derive(Clone, Debug)]
pub struct CampaignAnalysis {
    /// The usual campaign measurements, one per repetition.
    pub records: Vec<RunRecord>,
    /// The causal-DAG analysis of each repetition's trace.
    pub reps: Vec<RepAnalysis>,
    /// Streaming invariant-monitor verdict over every repetition (the
    /// `violations: 0` attestation figure manifests carry).
    pub monitor: MonitorReport,
    /// Aggregate waste accounting over every repetition.
    pub waste: WasteReport,
    /// Runtime-telemetry snapshot over every repetition (source
    /// `"sim"`): rep counts, event/send totals, per-rep distributions.
    pub telemetry: TelemetrySnapshot,
    /// Health events from replaying each repetition's counter deltas
    /// through the [`HealthEngine`] as one synthetic one-second window
    /// per repetition (deterministic — no wall clock involved). Empty
    /// for a healthy campaign; anomalies land in the manifest's
    /// `health` block.
    pub health: Vec<HealthEvent>,
}

/// Run every repetition of `campaign` under an event sink and analyze
/// each trace — causal DAG, invariant monitor and waste accounting in
/// one pass. Costs one traced (allocating) simulation per
/// repetition — meant for analysis passes, not for the hot path of
/// large campaigns.
pub fn analyze_campaign(campaign: &Campaign) -> Result<CampaignAnalysis, CampaignError> {
    let mut cfg = AnalyzeConfig::new(campaign.logp).with_p(campaign.p);
    if let Some(start) = campaign.variant.sync_start(campaign.p, &campaign.logp) {
        cfg = cfg.with_sync_start(start.steps());
    }
    let hub = Arc::new(TelemetryHub::new(1, campaign.p as usize));
    let campaign = campaign.clone().with_telemetry(Arc::clone(&hub));
    let campaign = &campaign;
    let mut records = Vec::with_capacity(campaign.reps as usize);
    let mut reps = Vec::with_capacity(campaign.reps as usize);
    let mut monitor = MonitorReport::default();
    let mut waste = WasteReport::default();
    let mut engine = HealthEngine::new();
    let mut health = Vec::new();
    let mut prev_snap = hub.snapshot().with_source("sim");
    let mut arena = RunArena::new();
    for i in 0..campaign.reps {
        let plan = campaign.fault_plan(i)?;
        let mut sink = VecSink::new();
        let record = campaign.run_one(i, &mut sink, &mut arena)?;
        let events = &sink.events;
        let index = CausalIndex::build(events);
        reps.push(analyze_rep_indexed(events, &index, &cfg));
        let mcfg = MonitorConfig::new()
            .with_p(campaign.p)
            .with_logp(campaign.logp)
            .with_failed(plan.mask().to_vec());
        monitor.absorb(MonitorSink::check_indexed(events, &index, &mcfg), i);
        for &b in index.bcasts() {
            waste.add(&WasteReport::from_index(events, &index, plan.mask(), b));
        }
        records.push(record);
        let next_snap = hub.snapshot().with_source("sim");
        let t_ms = (u64::from(i) + 1) * 1_000;
        health.extend(engine.observe(&SeriesSample::between(
            &prev_snap,
            &next_snap,
            u64::from(i),
            t_ms,
            1_000,
        )));
        prev_snap = next_snap;
    }
    Ok(CampaignAnalysis {
        records,
        reps,
        monitor,
        waste,
        telemetry: hub.snapshot().with_source("sim"),
        health,
    })
}

/// The small fixed-seed campaign a figure analyzes for its manifest's
/// analysis block: the figure's representative variant and fault
/// regime, capped at 64 processes and 5 repetitions so the causal-DAG
/// pass stays negligible next to the campaign itself.
pub fn analysis_campaign(variant: Variant, p: u32, seed0: u64, faults: FaultSpec) -> Campaign {
    Campaign::new(variant, p.clamp(2, 64), LogP::PAPER)
        .with_faults(faults)
        .with_reps(5)
        .with_seed(seed0)
}

/// Attach the causal-analysis block for `campaign` to `manifest` under
/// the `analysis` key (critical-path attribution, phase split,
/// completion percentiles — see `ct-analyze`), plus the campaign's
/// runtime-telemetry snapshot under `telemetry` (per-rep event/send
/// distributions, `ct-telemetry-v1`). Analysis failures are reported
/// but never fail the figure run.
pub fn with_analysis(manifest: RunManifest, campaign: &Campaign) -> RunManifest {
    match analyze_campaign(campaign) {
        Ok(ca) => manifest
            .with_extra_json("analysis", ca.analysis_json())
            .with_extra_json("telemetry", ca.telemetry.to_json()),
        Err(e) => {
            eprintln!("[analysis block skipped: {e:?}]");
            manifest
        }
    }
}

impl CampaignAnalysis {
    /// Aggregate the per-repetition analyses.
    pub fn summary(&self) -> AnalysisSummary {
        AnalysisSummary::from_reps(&self.reps)
    }

    /// Completion times folded into the default latency histogram
    /// (power-of-two buckets) for percentile estimation.
    pub fn completion_histogram(&self) -> Histogram {
        let mut h = Histogram::latency_default();
        for r in &self.reps {
            h.record(r.completion);
        }
        h
    }

    /// The JSON analysis block every figure embeds in its run manifest:
    /// the aggregate summary, interpolated completion percentiles, the
    /// invariant-monitor attestation, the waste accounting and the
    /// per-repetition health verdicts.
    pub fn analysis_json(&self) -> String {
        let h = self.completion_histogram();
        let mut obj = JsonObject::new();
        obj.field_raw("summary", &self.summary().to_json());
        let mut pct = JsonObject::new();
        pct.field_f64("p50", h.p50().unwrap_or(0.0));
        pct.field_f64("p95", h.p95().unwrap_or(0.0));
        pct.field_f64("p99", h.p99().unwrap_or(0.0));
        obj.field_raw("completion_percentiles", &pct.finish());
        let mut mon = JsonObject::new();
        mon.field_u64("violations", self.monitor.violations.len() as u64);
        mon.field_u64("events", self.monitor.events);
        mon.field_u64("reps", u64::from(self.monitor.reps));
        obj.field_raw("monitor", &mon.finish());
        obj.field_raw("waste", &self.waste.to_json());
        obj.field_array("health", self.health.iter().map(HealthEvent::to_json));
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::tree::TreeKind;

    fn small_campaign() -> Campaign {
        Campaign::new(
            Variant::tree_opportunistic(TreeKind::BINOMIAL, 2),
            16,
            LogP::PAPER,
        )
        .with_reps(3)
        .with_seed(7)
    }

    #[test]
    fn fault_free_critical_path_matches_quiescence() {
        let ca = analyze_campaign(&small_campaign()).unwrap();
        for (record, rep) in ca.records.iter().zip(&ca.reps) {
            assert_eq!(rep.completion, record.quiescence);
            assert_eq!(rep.critpath.len, record.quiescence);
            assert!(rep.critpath.attribution_is_exact());
        }
    }

    #[test]
    fn faulty_runs_still_attribute_exactly() {
        let c = small_campaign().with_faults(FaultSpec::Count(3));
        let ca = analyze_campaign(&c).unwrap();
        for (record, rep) in ca.records.iter().zip(&ca.reps) {
            assert_eq!(rep.critpath.len, record.quiescence);
            assert!(rep.critpath.attribution_is_exact());
        }
        let json = ca.analysis_json();
        assert!(json.starts_with(r#"{"summary":{"#), "{json}");
    }

    /// The analysis block must attest zero monitor violations and carry
    /// non-trivial waste accounting on a faulty corrected campaign.
    #[test]
    fn analysis_block_carries_attestation_and_waste() {
        let c = small_campaign().with_faults(FaultSpec::Count(2));
        let ca = analyze_campaign(&c).unwrap();
        assert!(ca.monitor.is_ok(), "{}", ca.monitor.render_text());
        assert_eq!(ca.monitor.reps, 3);
        assert!(ca.waste.sends > 0);
        assert!(
            ca.waste.dead_sends_dissemination + ca.waste.dead_sends_correction > 0,
            "2 dead ranks per rep must attract some sends: {:?}",
            ca.waste
        );
        let json = ca.analysis_json();
        assert!(json.contains(r#""monitor":{"violations":0,"#), "{json}");
        assert!(json.contains(r#""waste":{"sends":"#), "{json}");
        // A healthy sim campaign trips no health rules, but the block
        // must still be stamped so manifests are self-describing.
        assert!(ca.health.is_empty(), "{:?}", ca.health);
        assert!(json.ends_with(r#""health":[]}"#), "{json}");
    }

    #[test]
    fn synchronized_variant_gets_bounds_checked() {
        let c = Campaign::new(
            Variant::tree_checked_sync(TreeKind::BINOMIAL),
            16,
            LogP::PAPER,
        )
        .with_reps(2);
        let ca = analyze_campaign(&c).unwrap();
        for rep in &ca.reps {
            let b = rep.bounds.expect("sync variant has bounds");
            assert_eq!(b.g_max, 0);
            assert!(!b.violated(), "fault-free run violated Lemma 3: {b:?}");
        }
    }

    /// The analysis pass records one telemetry repetition per campaign
    /// repetition, and its totals agree with the records themselves.
    #[test]
    fn analysis_telemetry_matches_records() {
        let c = small_campaign().with_faults(FaultSpec::Count(2));
        let ca = analyze_campaign(&c).unwrap();
        assert_eq!(ca.telemetry.source, "sim");
        assert_eq!(ca.telemetry.counter("sim.reps"), 3);
        assert_eq!(
            ca.telemetry.counter("sim.events"),
            ca.records.iter().map(|r| r.events).sum::<u64>()
        );
        assert_eq!(
            ca.telemetry.counter("sim.sends"),
            ca.records.iter().map(|r| r.messages).sum::<u64>()
        );
        let h = ca.telemetry.histograms.get("sim.rep_quiescence").unwrap();
        assert_eq!(h.count(), 3);
    }
}
