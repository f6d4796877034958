//! Per-repetition and whole-trace analysis summaries.
//!
//! [`analyze_rep`] turns one repetition's events into a
//! [`RepAnalysis`]: critical path with cost attribution
//! ([`crate::critical`]), dissemination/correction phase split,
//! per-rank busy/idle utilization, and — for synchronized-correction
//! runs — the observed correction time checked against the Lemma 3
//! bounds from `ct-analysis`. A trace is one repetition.
//! [`AnalysisSummary`] aggregates repetitions into the JSON-renderable
//! block that `ct analyze` prints and campaigns attach to their
//! manifests.

use ct_analysis::lscc_bounds;
use ct_core::protocol::{ColoredVia, Payload};
use ct_core::tree::ring;
use ct_logp::{LogP, Rank};
use ct_obs::json::{fmt_f64, JsonObject};
use ct_obs::{CausalIndex, Event, EventKind};

use crate::critical::CriticalPath;
use crate::dag::{CausalDag, NodeKind};

/// Analyzer configuration.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeConfig {
    /// LogP parameters of the producing run (for `o`/`L` attribution
    /// and the analytical bounds).
    pub logp: LogP,
    /// Process count; inferred from the trace when `None`.
    pub p: Option<u32>,
    /// Synchronized-correction start time, when the protocol has one —
    /// enables the Lemma 3 bounds check.
    pub sync_start: Option<u64>,
}

impl AnalyzeConfig {
    /// Paper-parameter config with everything inferred.
    pub fn new(logp: LogP) -> AnalyzeConfig {
        AnalyzeConfig {
            logp,
            p: None,
            sync_start: None,
        }
    }

    /// Set the process count explicitly.
    pub fn with_p(mut self, p: u32) -> Self {
        self.p = Some(p);
        self
    }

    /// Set the synchronized-correction start time.
    pub fn with_sync_start(mut self, t: u64) -> Self {
        self.sync_start = Some(t);
        self
    }
}

/// Observed correction time vs the Lemma 3 bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundsCheck {
    /// Maximum dissemination gap (input to Lemma 3).
    pub g_max: u32,
    /// The synchronized correction start used.
    pub sync_start: u64,
    /// Observed correction time: `completion − sync_start`.
    pub observed: u64,
    /// Lemma 3 lower bound.
    pub lower: u64,
    /// Lemma 3 upper bound.
    pub upper: u64,
}

impl BoundsCheck {
    /// Slack to the upper bound (negative = violation above).
    pub fn slack(&self) -> i64 {
        self.upper as i64 - self.observed as i64
    }

    /// Is the observation outside `[lower, upper]`?
    pub fn violated(&self) -> bool {
        self.observed < self.lower || self.observed > self.upper
    }
}

/// Per-rank busy time (sender + receiver port occupancy, unioned).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Utilization {
    /// Busy steps per rank.
    pub busy: Vec<u64>,
    /// The completion time the fractions are relative to.
    pub completion: u64,
}

impl Utilization {
    /// Busy fraction of one rank (0 when the run is empty).
    pub fn busy_frac(&self, rank: usize) -> f64 {
        if self.completion == 0 {
            return 0.0;
        }
        self.busy[rank] as f64 / self.completion as f64
    }

    /// Mean busy fraction over all ranks.
    pub fn mean_frac(&self) -> f64 {
        if self.busy.is_empty() {
            return 0.0;
        }
        (0..self.busy.len()).map(|r| self.busy_frac(r)).sum::<f64>() / self.busy.len() as f64
    }

    /// `(rank, fraction)` of the busiest rank (`None` when empty).
    pub fn busiest(&self) -> Option<(Rank, f64)> {
        (0..self.busy.len())
            .max_by_key(|&r| self.busy[r])
            .map(|r| (r as Rank, self.busy_frac(r)))
    }
}

/// Message counts by payload kind, recounted from the trace's sends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MessageBreakdown {
    /// Tree dissemination sends.
    pub tree: u64,
    /// Gossip dissemination sends.
    pub gossip: u64,
    /// Ring correction sends.
    pub correction: u64,
    /// Acknowledgment sends.
    pub ack: u64,
}

impl MessageBreakdown {
    /// Total sends.
    pub fn total(&self) -> u64 {
        self.tree + self.gossip + self.correction + self.ack
    }
}

/// Dissemination-phase vs correction-phase timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSplit {
    /// Last coloring via root/dissemination (the tree phase's reach).
    pub diss_end: u64,
    /// First correction-payload send (`None` if no correction ran).
    pub corr_start: Option<u64>,
    /// `completion − corr_start` (0 if no correction ran).
    pub corr_steps: u64,
}

/// Everything the analyzer extracts from one repetition.
#[derive(Clone, Debug)]
pub struct RepAnalysis {
    /// Process count (configured or inferred).
    pub p: u32,
    /// Completion (quiescence) time of the repetition.
    pub completion: u64,
    /// The critical path with cost attribution.
    pub critpath: CriticalPath,
    /// Send counts by payload.
    pub messages: MessageBreakdown,
    /// Dissemination/correction phase timing.
    pub phase: PhaseSplit,
    /// Per-rank busy/idle accounting.
    pub utilization: Utilization,
    /// Lemma 3 check (synchronized-correction runs only).
    pub bounds: Option<BoundsCheck>,
}

/// Analyze one repetition's events.
pub fn analyze_rep(events: &[Event], cfg: &AnalyzeConfig) -> RepAnalysis {
    analyze_rep_indexed(events, &CausalIndex::build(events), cfg)
}

/// [`analyze_rep`] over a trace already indexed.
pub fn analyze_rep_indexed(
    events: &[Event],
    index: &CausalIndex,
    cfg: &AnalyzeConfig,
) -> RepAnalysis {
    let p = cfg.p.unwrap_or(index.p());
    let o = cfg.logp.o();
    let dag = CausalDag::from_index(events, index, o);
    let critpath = CriticalPath::extract(&dag);
    let completion = dag.completion;

    let mut messages = MessageBreakdown::default();
    let mut diss_end = 0u64;
    let mut corr_start: Option<u64> = None;
    let mut diss_colored = vec![false; p as usize];
    for e in events {
        match &e.kind {
            EventKind::SendStart { payload, .. } => {
                match payload {
                    Payload::Tree => messages.tree += 1,
                    Payload::Gossip { .. } => messages.gossip += 1,
                    Payload::Correction => messages.correction += 1,
                    Payload::Ack => messages.ack += 1,
                }
                if matches!(payload, Payload::Correction) {
                    let t = e.time.steps();
                    corr_start = Some(corr_start.map_or(t, |c| c.min(t)));
                }
            }
            EventKind::Colored { rank, via } => {
                if matches!(via, ColoredVia::Root | ColoredVia::Dissemination) {
                    diss_end = diss_end.max(e.time.steps());
                    if (*rank as usize) < diss_colored.len() {
                        diss_colored[*rank as usize] = true;
                    }
                }
            }
            _ => {}
        }
    }
    let phase = PhaseSplit {
        diss_end,
        corr_start,
        corr_steps: corr_start.map_or(0, |c| completion.saturating_sub(c)),
    };

    // Busy time: union of send slots [t, t+o] and receive-processing
    // slots [t−o, t] per rank, interval-merged.
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p as usize];
    for n in &dag.nodes {
        let (rank, span) = match n.kind {
            NodeKind::Send => (n.from, (n.t, n.t + o)),
            NodeKind::Deliver => (n.to, (n.t.saturating_sub(o), n.t)),
            _ => continue,
        };
        if (rank as usize) < intervals.len() {
            intervals[rank as usize].push(span);
        }
    }
    let busy = intervals
        .into_iter()
        .map(|mut iv| {
            iv.sort_unstable();
            let mut total = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (s, e) in iv {
                match cur {
                    Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        total += ce - cs;
                        cur = Some((s, e));
                    }
                    None => cur = Some((s, e)),
                }
            }
            if let Some((cs, ce)) = cur {
                total += ce - cs;
            }
            total
        })
        .collect();
    let utilization = Utilization { busy, completion };

    let bounds = cfg.sync_start.map(|sync_start| {
        let g_max = ring::max_gap(&diss_colored);
        let (lower, upper) = lscc_bounds(g_max, &cfg.logp);
        BoundsCheck {
            g_max,
            sync_start,
            observed: completion.saturating_sub(sync_start),
            lower: lower.steps(),
            upper: upper.steps(),
        }
    });

    RepAnalysis {
        p,
        completion,
        critpath,
        messages,
        phase,
        utilization,
        bounds,
    }
}

/// Aggregated, JSON-renderable summary of repetition analyses.
#[derive(Clone, Debug)]
pub struct AnalysisSummary {
    /// Process count (max over reps).
    pub p: u32,
    /// Number of repetitions analyzed.
    pub reps: u32,
    /// Min / mean / max completion over reps.
    pub completion: (u64, f64, u64),
    /// Mean critical-path length.
    pub critpath_len_mean: f64,
    /// Mean wire hops on the critical path.
    pub hops_mean: f64,
    /// Fraction of critical-path steps in `o` / `L` / idle.
    pub cost_fracs: (f64, f64, f64),
    /// Fraction of critical-path steps on dissemination payloads.
    pub diss_frac: f64,
    /// Total sends by payload, summed over reps.
    pub messages: MessageBreakdown,
    /// Mean dissemination-phase end and correction-phase length.
    pub phase_means: (f64, f64),
    /// Mean and max per-rank busy fraction (mean over reps).
    pub busy_fracs: (f64, f64),
    /// Bounds checks: `(checked, violations, min slack)` — zero/zero
    /// and `None` slack when no repetition had a synchronized start.
    pub bounds: (u32, u32, Option<i64>),
}

impl AnalysisSummary {
    /// Aggregate repetition analyses.
    pub fn from_reps(reps: &[RepAnalysis]) -> AnalysisSummary {
        let n = reps.len().max(1) as f64;
        let mut completion = (u64::MAX, 0.0, 0u64);
        let mut len_mean = 0.0;
        let mut hops_mean = 0.0;
        let mut steps = (0u64, 0u64, 0u64);
        let mut diss_steps = 0u64;
        let mut total_len = 0u64;
        let mut messages = MessageBreakdown::default();
        let mut phase = (0.0, 0.0);
        let mut busy = (0.0, 0.0f64);
        let mut bounds = (0u32, 0u32, None::<i64>);
        let mut p = 0u32;
        for r in reps {
            p = p.max(r.p);
            completion.0 = completion.0.min(r.completion);
            completion.1 += r.completion as f64 / n;
            completion.2 = completion.2.max(r.completion);
            len_mean += r.critpath.len as f64 / n;
            hops_mean += f64::from(r.critpath.hops) / n;
            steps.0 += r.critpath.o_steps;
            steps.1 += r.critpath.l_steps;
            steps.2 += r.critpath.idle_steps;
            diss_steps += r.critpath.diss_steps;
            total_len += r.critpath.len;
            messages.tree += r.messages.tree;
            messages.gossip += r.messages.gossip;
            messages.correction += r.messages.correction;
            messages.ack += r.messages.ack;
            phase.0 += r.phase.diss_end as f64 / n;
            phase.1 += r.phase.corr_steps as f64 / n;
            busy.0 += r.utilization.mean_frac() / n;
            busy.1 = busy.1.max(r.utilization.busiest().map_or(0.0, |(_, f)| f));
            if let Some(b) = &r.bounds {
                bounds.0 += 1;
                if b.violated() {
                    bounds.1 += 1;
                }
                bounds.2 = Some(bounds.2.map_or(b.slack(), |s: i64| s.min(b.slack())));
            }
        }
        if completion.0 == u64::MAX {
            completion.0 = 0;
        }
        let frac = |part: u64| {
            if total_len == 0 {
                0.0
            } else {
                part as f64 / total_len as f64
            }
        };
        AnalysisSummary {
            p,
            reps: reps.len() as u32,
            completion,
            critpath_len_mean: len_mean,
            hops_mean,
            cost_fracs: (frac(steps.0), frac(steps.1), frac(steps.2)),
            diss_frac: frac(diss_steps),
            messages,
            phase_means: phase,
            busy_fracs: busy,
            bounds,
        }
    }

    /// Render as a JSON object with a fixed field order (byte-stable
    /// for identical traces — the golden summary test relies on it).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("p", u64::from(self.p));
        obj.field_u64("reps", u64::from(self.reps));
        let mut comp = JsonObject::new();
        comp.field_u64("min", self.completion.0);
        comp.field_f64("mean", self.completion.1);
        comp.field_u64("max", self.completion.2);
        obj.field_raw("completion", &comp.finish());
        let mut cp = JsonObject::new();
        cp.field_f64("len_mean", self.critpath_len_mean);
        cp.field_f64("hops_mean", self.hops_mean);
        cp.field_f64("o_frac", self.cost_fracs.0);
        cp.field_f64("l_frac", self.cost_fracs.1);
        cp.field_f64("idle_frac", self.cost_fracs.2);
        cp.field_f64("diss_frac", self.diss_frac);
        obj.field_raw("critpath", &cp.finish());
        let mut msgs = JsonObject::new();
        msgs.field_u64("tree", self.messages.tree);
        msgs.field_u64("gossip", self.messages.gossip);
        msgs.field_u64("correction", self.messages.correction);
        msgs.field_u64("ack", self.messages.ack);
        obj.field_raw("messages", &msgs.finish());
        let mut ph = JsonObject::new();
        ph.field_f64("diss_end_mean", self.phase_means.0);
        ph.field_f64("corr_steps_mean", self.phase_means.1);
        obj.field_raw("phase", &ph.finish());
        let mut util = JsonObject::new();
        util.field_f64("busy_frac_mean", self.busy_fracs.0);
        util.field_f64("busy_frac_max", self.busy_fracs.1);
        obj.field_raw("utilization", &util.finish());
        if self.bounds.0 > 0 {
            let mut b = JsonObject::new();
            b.field_u64("checked", u64::from(self.bounds.0));
            b.field_u64("violations", u64::from(self.bounds.1));
            match self.bounds.2 {
                Some(s) => b.field_raw("slack_min", &s.to_string()),
                None => b.field_null("slack_min"),
            };
            obj.field_raw("bounds", &b.finish());
        } else {
            obj.field_null("bounds");
        }
        obj.finish()
    }

    /// Render as human-readable text (the `ct analyze` summary view).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        push(&mut out, format!("processes            {}", self.p));
        push(&mut out, format!("repetitions          {}", self.reps));
        push(
            &mut out,
            format!(
                "completion           min {}  mean {}  max {}",
                self.completion.0,
                fmt_f64(self.completion.1),
                self.completion.2
            ),
        );
        push(
            &mut out,
            format!(
                "critical path        len {} over {} hops (mean)",
                fmt_f64(self.critpath_len_mean),
                fmt_f64(self.hops_mean)
            ),
        );
        push(
            &mut out,
            format!(
                "  cost attribution   o {:.1}%  L {:.1}%  idle {:.1}%",
                100.0 * self.cost_fracs.0,
                100.0 * self.cost_fracs.1,
                100.0 * self.cost_fracs.2
            ),
        );
        push(
            &mut out,
            format!(
                "  phase attribution  dissemination {:.1}%  correction {:.1}%",
                100.0 * self.diss_frac,
                100.0 * (1.0 - self.diss_frac)
            ),
        );
        push(
            &mut out,
            format!(
                "messages             {} (tree {}, gossip {}, correction {}, ack {})",
                self.messages.total(),
                self.messages.tree,
                self.messages.gossip,
                self.messages.correction,
                self.messages.ack
            ),
        );
        push(
            &mut out,
            format!(
                "phases               dissemination ends {} (mean)  correction {} steps (mean)",
                fmt_f64(self.phase_means.0),
                fmt_f64(self.phase_means.1)
            ),
        );
        push(
            &mut out,
            format!(
                "utilization          busy {:.1}% mean  {:.1}% peak",
                100.0 * self.busy_fracs.0,
                100.0 * self.busy_fracs.1
            ),
        );
        match self.bounds {
            (0, _, _) => push(
                &mut out,
                "bounds               n/a (no synchronized correction)".to_owned(),
            ),
            (checked, violations, slack) => push(
                &mut out,
                format!(
                    "bounds               {checked} checked, {violations} violations, min slack {}",
                    slack.map_or("n/a".to_owned(), |s| s.to_string())
                ),
            ),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_logp::Time;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::sim(Time::new(t), kind)
    }

    fn one_hop() -> Vec<Event> {
        let pl = Payload::Tree;
        vec![
            ev(
                0,
                EventKind::Colored {
                    rank: 0,
                    via: ColoredVia::Root,
                },
            ),
            ev(
                0,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: pl,
                },
            ),
            ev(
                3,
                EventKind::Arrive {
                    from: 0,
                    to: 1,
                    payload: pl,
                },
            ),
            ev(
                4,
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    payload: pl,
                },
            ),
            ev(
                4,
                EventKind::Colored {
                    rank: 1,
                    via: ColoredVia::Dissemination,
                },
            ),
        ]
    }

    #[test]
    fn one_hop_rep_analysis() {
        let cfg = AnalyzeConfig::new(LogP::PAPER);
        let r = analyze_rep(&one_hop(), &cfg);
        assert_eq!(r.p, 2);
        assert_eq!(r.completion, 4);
        assert_eq!(r.critpath.len, 4);
        assert_eq!(r.messages.total(), 1);
        assert_eq!(r.phase.diss_end, 4);
        assert_eq!(r.phase.corr_start, None);
        // Rank 0 busy [0,1] (send), rank 1 busy [3,4] (recv).
        assert_eq!(r.utilization.busy, vec![1, 1]);
        assert!((r.utilization.mean_frac() - 0.25).abs() < 1e-12);
        assert!(r.bounds.is_none());
    }

    #[test]
    fn bounds_check_fault_free_is_exact() {
        // Fault-free: g_max = 0, bounds collapse to Lemma 2's 8 steps.
        let mut events = one_hop();
        events.push(ev(
            4,
            EventKind::SendStart {
                from: 1,
                to: 0,
                payload: Payload::Correction,
            },
        ));
        // Both ranks dissemination-colored → no gap.
        let cfg = AnalyzeConfig::new(LogP::PAPER).with_sync_start(4);
        let r = analyze_rep(&events, &cfg);
        let b = r.bounds.unwrap();
        assert_eq!(b.g_max, 0);
        assert_eq!(b.lower, 8);
        assert_eq!(b.upper, 8);
        // Observed correction time 5−4 = 1, far inside: flagged as a
        // "violation" of the exact fault-free equality — the run ended
        // before a full checked correction, which is worth surfacing.
        assert_eq!(b.observed, 1);
        assert!(b.violated());
        assert_eq!(b.slack(), 7);
    }

    #[test]
    fn summary_aggregates_and_renders() {
        let rep = analyze_rep(&one_hop(), &AnalyzeConfig::new(LogP::PAPER));
        let s = AnalysisSummary::from_reps(&[rep]);
        assert_eq!(s.p, 2);
        assert_eq!(s.reps, 1);
        assert_eq!(s.completion, (4, 4.0, 4));
        assert!((s.cost_fracs.0 - 0.5).abs() < 1e-12);
        assert!((s.cost_fracs.1 - 0.5).abs() < 1e-12);
        assert_eq!(s.diss_frac, 1.0);
        let json = s.to_json();
        assert!(
            json.starts_with(r#"{"p":2,"reps":1,"completion":{"min":4,"#),
            "{json}"
        );
        assert!(json.contains(r#""bounds":null"#), "{json}");
        let text = s.render_text();
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("dissemination 100.0%"), "{text}");
    }

    #[test]
    fn empty_trace_summary_is_zeroed() {
        let rep = analyze_rep(&[], &AnalyzeConfig::new(LogP::PAPER));
        let s = AnalysisSummary::from_reps(&[rep]);
        assert_eq!(s.completion, (0, 0.0, 0));
        assert_eq!(s.critpath_len_mean, 0.0);
        let _ = s.to_json();
    }
}
