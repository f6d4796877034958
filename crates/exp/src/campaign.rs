//! Seeded Monte-Carlo campaigns.
//!
//! A [`Campaign`] runs one protocol variant `reps` times with seeds
//! `seed0, seed0+1, …` — fault placement and gossip randomness both
//! derive from the per-run seed, so any row of any figure can be
//! regenerated exactly ("we keep the random generator seed of every
//! experiment", §4). Repetitions are embarrassingly parallel and can be
//! spread over OS threads.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use ct_core::protocol::ColoredVia;
use ct_core::tree::ring;
use ct_logp::{LogP, Rank};
use ct_obs::telemetry::TelemetryHub;
use ct_obs::{EventSink, NullSink};
use ct_sim::{FaultPlan, RunArena, SimError, Simulation};

use crate::variants::Variant;

/// How failures are drawn for each repetition.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// No failures.
    None,
    /// Exactly `n` uniformly random failures per run (Figure 1b).
    Count(u32),
    /// Exactly `n` failures per run, drawn by the chunked parallel
    /// generator ([`FaultPlan::random_count_chunked`]). Same exact-count
    /// guarantee as [`FaultSpec::Count`] under a different (stratified)
    /// distribution; plan construction scales to `P = 2²⁰` without
    /// dominating a repetition. The draw depends only on `(p, n, seed)`,
    /// never on thread count.
    ChunkedCount(u32),
    /// A fraction of all processes fails per run (Figures 8–10, Table 1).
    Rate(f64),
    /// A fixed set of ranks fails in every run.
    Ranks(Vec<Rank>),
}

impl FaultSpec {
    fn plan(&self, p: u32, seed: u64) -> Result<FaultPlan, String> {
        match self {
            FaultSpec::None => Ok(FaultPlan::none(p)),
            FaultSpec::Count(n) => FaultPlan::random_count(p, *n, seed).map_err(|e| e.to_string()),
            FaultSpec::ChunkedCount(n) => {
                FaultPlan::random_count_chunked(p, *n, seed).map_err(|e| e.to_string())
            }
            FaultSpec::Rate(r) => FaultPlan::random_rate(p, *r, seed).map_err(|e| e.to_string()),
            FaultSpec::Ranks(ranks) => FaultPlan::from_ranks(p, ranks).map_err(|e| e.to_string()),
        }
    }
}

/// One repetition's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Seed of this repetition.
    pub seed: u64,
    /// Number of failed processes.
    pub faults: u32,
    /// Quiescence latency in steps.
    pub quiescence: u64,
    /// Coloring latency in steps.
    pub coloring: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Messages per process (over all `P`).
    pub messages_per_process: f64,
    /// Did every live process get colored?
    pub all_live_colored: bool,
    /// Live processes left uncolored.
    pub uncolored: u32,
    /// Maximum ring gap after dissemination (dead processes count as
    /// uncolored).
    pub g_max: u32,
    /// Correction time `quiescence − sync_start`, for variants with
    /// synchronized correction.
    pub lscc: Option<u64>,
    /// Simulator events processed by this repetition (the denominator
    /// of the tracked events/sec throughput metric).
    pub events: u64,
}

/// A configured experiment cell: one variant, one fault regime.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Protocol under test.
    pub variant: Variant,
    /// Process count.
    pub p: u32,
    /// Machine model.
    pub logp: LogP,
    /// Fault regime.
    pub faults: FaultSpec,
    /// Repetitions.
    pub reps: u32,
    /// First seed; repetition `i` uses `seed0 + i`.
    pub seed0: u64,
    /// Per-repetition telemetry hub, attached to every simulation this
    /// campaign builds (default off — results are identical either way).
    telemetry: Option<Arc<TelemetryHub>>,
}

impl Campaign {
    /// Fault-free single-variant campaign.
    pub fn new(variant: Variant, p: u32, logp: LogP) -> Campaign {
        Campaign {
            variant,
            p,
            logp,
            faults: FaultSpec::None,
            reps: 1,
            seed0: 1,
            telemetry: None,
        }
    }

    /// Set the fault regime.
    pub fn with_faults(mut self, faults: FaultSpec) -> Campaign {
        self.faults = faults;
        self
    }

    /// Set repetitions.
    pub fn with_reps(mut self, reps: u32) -> Campaign {
        assert!(reps >= 1);
        self.reps = reps;
        self
    }

    /// Set the base seed.
    pub fn with_seed(mut self, seed0: u64) -> Campaign {
        self.seed0 = seed0;
        self
    }

    /// Record per-repetition counters (events, sends, quiescence,
    /// completion) into `hub`. Recording happens once per finished
    /// repetition — the hot path and every [`RunRecord`] are
    /// bit-identical with telemetry on or off.
    pub fn with_telemetry(mut self, hub: Arc<TelemetryHub>) -> Campaign {
        self.telemetry = Some(hub);
        self
    }

    /// The fault plan repetition `rep` runs under (derived from
    /// `seed0 + rep`, exactly as the run itself draws it). Exposed so
    /// the invariant monitor and the waste accounting can be configured
    /// with the per-repetition fault mask.
    pub fn fault_plan(&self, rep: u32) -> Result<FaultPlan, CampaignError> {
        self.faults
            .plan(self.p, self.seed0 + rep as u64)
            .map_err(CampaignError::Faults)
    }

    /// Execute one repetition, streaming its protocol events into `sink`
    /// ([`NullSink`] when unobserved; the engine wraps the run in a
    /// `broadcast` phase span). All per-run storage comes from `arena`:
    /// reusing one arena across repetitions avoids rebuilding the engine
    /// per run, and results are bit-identical to a fresh arena.
    pub fn run_one(
        &self,
        rep: u32,
        sink: &mut dyn EventSink,
        arena: &mut RunArena,
    ) -> Result<RunRecord, CampaignError> {
        let seed = self.seed0 + rep as u64;
        let plan = self.fault_plan(rep)?;
        let faults = plan.count();
        let mut builder = Simulation::builder(self.p, self.logp)
            .faults(plan)
            .seed(seed);
        if let Some(hub) = &self.telemetry {
            builder = builder.telemetry(Arc::clone(hub));
        }
        let sim = builder.build();
        let out = sim
            .run_with_sink_reusable(&self.variant, sink, arena)
            .map_err(CampaignError::Sim)?;
        let diss_mask: Vec<bool> = out
            .colored_via
            .iter()
            .map(|v| matches!(v, Some(ColoredVia::Root) | Some(ColoredVia::Dissemination)))
            .collect();
        let g_max = ring::max_gap(&diss_mask);
        let lscc = self
            .variant
            .sync_start(self.p, &self.logp)
            .map(|start| out.quiescence.since(start).steps());
        Ok(RunRecord {
            seed,
            faults,
            quiescence: out.quiescence.steps(),
            coloring: out.coloring_latency.steps(),
            messages: out.messages.total(),
            messages_per_process: out.messages_per_process(),
            all_live_colored: out.all_live_colored(),
            uncolored: out.uncolored_live().len() as u32,
            g_max,
            lscc,
            events: out.events,
        })
    }

    /// Execute all repetitions, unobserved, across `threads` OS threads
    /// (`threads <= 1`: sequentially). Each repetition is seeded
    /// independently, so the records are identical for every thread
    /// count; only wall-clock time changes.
    ///
    /// Each worker owns a run arena and claims repetition indices from a
    /// shared counter; results land in per-repetition once-cells — no
    /// lock around the result vector — so output order is exactly the
    /// sequential order.
    pub fn run(&self, threads: usize) -> Result<Vec<RunRecord>, CampaignError> {
        let threads = threads.min(self.reps as usize);
        if threads <= 1 {
            let mut arena = RunArena::new();
            return (0..self.reps)
                .map(|i| self.run_one(i, &mut NullSink, &mut arena))
                .collect();
        }
        let slots: Vec<OnceLock<Result<RunRecord, CampaignError>>> =
            (0..self.reps).map(|_| OnceLock::new()).collect();
        let next = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut arena = RunArena::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= self.reps {
                            break;
                        }
                        let result = self.run_one(i, &mut NullSink, &mut arena);
                        let fresh = slots[i as usize].set(result).is_ok();
                        debug_assert!(fresh, "repetition filled twice");
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every repetition filled"))
            .collect()
    }
}

/// Campaign-level errors.
#[derive(Debug)]
pub enum CampaignError {
    /// Fault plan construction failed.
    Faults(String),
    /// Simulation failed.
    Sim(SimError),
}

impl core::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CampaignError::Faults(s) => write!(f, "fault plan: {s}"),
            CampaignError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::tree::TreeKind;
    use ct_obs::{EventKind, MonitorConfig, MonitorSink, VecSink};

    #[test]
    fn fault_free_checked_campaign_matches_lemma2() {
        let c = Campaign::new(
            Variant::tree_checked_sync(TreeKind::BINOMIAL),
            256,
            LogP::PAPER,
        )
        .with_reps(3);
        let records = c.run(1).unwrap();
        assert_eq!(records.len(), 3);
        for r in &records {
            assert!(r.all_live_colored);
            assert_eq!(r.g_max, 0);
            assert_eq!(r.lscc, Some(8));
            assert_eq!(r.faults, 0);
        }
    }

    #[test]
    fn fault_count_spec_is_exact_per_run() {
        let c = Campaign::new(
            Variant::tree_checked_sync(TreeKind::BINOMIAL),
            512,
            LogP::PAPER,
        )
        .with_faults(FaultSpec::Count(5))
        .with_reps(4);
        for r in c.run(1).unwrap() {
            assert_eq!(r.faults, 5);
            assert!(r.all_live_colored, "checked correction heals everything");
            assert!(r.g_max >= 1);
            assert!(r.lscc.unwrap() >= 8);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let c = Campaign::new(
            Variant::tree_opportunistic(TreeKind::LAME2, 4),
            256,
            LogP::PAPER,
        )
        .with_faults(FaultSpec::Rate(0.01))
        .with_reps(8);
        let seq = c.run(1).unwrap();
        let par = c.run(4).unwrap();
        assert_eq!(seq, par);
    }

    /// Per-payload send counts, folded purely from the event stream,
    /// must reproduce the engine's own `MessageCounts` on a
    /// Figure-6-style campaign (corrected tree, random faults).
    #[test]
    fn metered_campaign_counters_match_message_counts() {
        use ct_core::protocol::Payload;

        let reps = 5u32;
        let c = Campaign::new(
            Variant::tree_opportunistic(TreeKind::BINOMIAL, 2),
            256,
            LogP::PAPER,
        )
        .with_faults(FaultSpec::Count(3))
        .with_reps(reps);
        // One sink records the whole campaign, one arena serves it.
        let mut sink = VecSink::new();
        let mut arena = RunArena::new();
        let records: Vec<RunRecord> = (0..reps)
            .map(|i| c.run_one(i, &mut sink, &mut arena).unwrap())
            .collect();
        // [tree, gossip, correction, ack] sends, then colored ranks.
        let mut sends = [0u64; 4];
        let mut colored = 0u64;
        for e in &sink.events {
            match e.kind {
                EventKind::SendStart { payload, .. } => {
                    sends[match payload {
                        Payload::Tree => 0,
                        Payload::Gossip { .. } => 1,
                        Payload::Correction => 2,
                        Payload::Ack => 3,
                    }] += 1;
                }
                EventKind::Colored { .. } => colored += 1,
                _ => {}
            }
        }

        // Recompute the campaign's aggregate MessageCounts straight
        // from the simulator, without any sink in the loop.
        let mut counts = [0u64; 4];
        for i in 0..reps {
            let seed = c.seed0 + u64::from(i);
            let plan = FaultPlan::random_count(c.p, 3, seed).unwrap();
            let out = Simulation::builder(c.p, c.logp)
                .faults(plan)
                .seed(seed)
                .build()
                .run(&c.variant)
                .unwrap();
            let m = out.messages;
            for (n, v) in counts
                .iter_mut()
                .zip([m.tree, m.gossip, m.correction, m.ack])
            {
                *n += v;
            }
        }

        assert_eq!(sends, counts);
        assert_eq!(
            sends.iter().sum::<u64>(),
            records.iter().map(|r| r.messages).sum::<u64>()
        );
        // One Colored event per rank that got colored (dead ranks and
        // stragglers never do).
        let colored_expected: u64 = records
            .iter()
            .map(|r| u64::from(c.p - r.faults - r.uncolored))
            .sum();
        assert_eq!(colored, colored_expected);
    }

    /// Every repetition of a faulty corrected campaign must pass the
    /// streaming invariant monitor, each under its own monitor
    /// configured with that repetition's exact fault mask (random fault
    /// regimes draw a different mask per seed).
    #[test]
    fn checked_campaign_has_no_violations() {
        let c = Campaign::new(
            Variant::tree_opportunistic(TreeKind::BINOMIAL, 2),
            128,
            LogP::PAPER,
        )
        .with_faults(FaultSpec::Count(3))
        .with_reps(4);
        let mut arena = RunArena::new();
        let mut records = Vec::new();
        for i in 0..c.reps {
            let cfg = MonitorConfig::new()
                .with_p(c.p)
                .with_logp(c.logp)
                .with_failed(c.fault_plan(i).unwrap().mask().to_vec());
            let mut monitor = MonitorSink::new(cfg);
            records.push(c.run_one(i, &mut monitor, &mut arena).unwrap());
            let report = monitor.finish();
            assert_eq!(report.reps, 1, "rep {i}");
            assert!(report.is_ok(), "rep {i}: {}", report.render_text());
        }
        // Checking never perturbs results.
        assert_eq!(records, c.run(1).unwrap());
    }

    #[test]
    fn fault_plan_accessor_matches_run_draw() {
        let c = Campaign::new(
            Variant::tree_checked_sync(TreeKind::BINOMIAL),
            64,
            LogP::PAPER,
        )
        .with_faults(FaultSpec::Count(4))
        .with_reps(2);
        for i in 0..2 {
            let plan = c.fault_plan(i).unwrap();
            let record = c.run_one(i, &mut NullSink, &mut RunArena::new()).unwrap();
            assert_eq!(plan.count(), record.faults);
        }
    }

    #[test]
    fn chunked_count_spec_is_exact_and_heals() {
        let c = Campaign::new(
            Variant::tree_checked_sync(TreeKind::BINOMIAL),
            512,
            LogP::PAPER,
        )
        .with_faults(FaultSpec::ChunkedCount(5))
        .with_reps(3);
        for (i, r) in c.run(1).unwrap().into_iter().enumerate() {
            assert_eq!(r.faults, 5);
            assert!(r.all_live_colored);
            // The plan accessor and the run itself draw the same mask.
            assert_eq!(c.fault_plan(i as u32).unwrap().count(), 5);
        }
    }

    #[test]
    fn fixed_rank_faults_apply_every_run() {
        let c = Campaign::new(
            Variant::tree_checked_sync(TreeKind::BINOMIAL),
            64,
            LogP::PAPER,
        )
        .with_faults(FaultSpec::Ranks(vec![1, 2]))
        .with_reps(2);
        for r in c.run(1).unwrap() {
            assert_eq!(r.faults, 2);
        }
    }
}
