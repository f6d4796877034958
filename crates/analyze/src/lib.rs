//! Trace analysis for corrected-tree broadcasts.
//!
//! `ct-analyze` consumes the JSONL event schema emitted by `ct-obs`
//! sinks (from simulator runs, thread-cluster runs, or campaign
//! traces) and answers *why* a run took as long as it did:
//!
//! - [`trace`] parses event streams back from JSONL and splits
//!   campaign traces into repetitions;
//! - [`dag`] reconstructs the causal DAG — send→arrive wire edges,
//!   arrive→deliver port edges, per-rank occupancy edges;
//! - [`critical`] extracts the critical path by backward
//!   latest-predecessor chaining and attributes every step of it to
//!   LogP cost classes (`o`, `L`, idle) and protocol phases
//!   (dissemination vs correction);
//! - [`summary`] aggregates per-repetition analyses — phase split,
//!   per-rank utilization, message breakdown — and checks observed
//!   correction times against the Lemma 3 bounds from `ct-analysis`;
//! - [`forensics`] joins a trace with the tree topology and fault mask
//!   into per-failure impact reports (orphaned subtrees, rescue
//!   provenance, added latency) and a run-level [`WasteReport`];
//! - [`scheduler`] parses `ct-telemetry-v1` runtime snapshots (from
//!   `ct stats` or figure manifests) and renders scheduler health
//!   summaries (`ct analyze --view scheduler`);
//! - [`postmortem`] parses `ct-postmortem-v1` flight-recorder dumps
//!   and renders per-stranded-rank causal reconstructions
//!   (`ct postmortem`, `ct analyze --view postmortem`);
//! - [`series`] parses `ct-series-v1` time-series exports (from
//!   `ct serve`, `ct stats --series` or the `/series.jsonl` endpoint)
//!   and renders rate/health trend summaries
//!   (`ct analyze --view series`).
//!
//! The crate is pure consumer-side: it never runs protocols itself,
//! so it depends only on the model/schema crates and stays reusable
//! against traces from any producer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
pub mod dag;
pub mod forensics;
pub mod postmortem;
pub mod scheduler;
pub mod series;
pub mod summary;
pub mod trace;
pub mod value;

pub use critical::{CostClass, CriticalPath, Segment};
pub use dag::{CausalDag, EdgeKind, Node, NodeKind};
pub use forensics::{analyze_forensics, FailureImpact, ForensicsReport, OrphanRescue, WasteReport};
pub use postmortem::PostmortemReport;
pub use scheduler::SchedulerSummary;
pub use series::SeriesSummary;
pub use summary::{
    analyze_rep, analyze_trace, AnalysisSummary, AnalyzeConfig, BoundsCheck, MessageBreakdown,
    PhaseSplit, RepAnalysis, SpanStat, TraceAnalysis, Utilization,
};
pub use trace::{infer_p, parse_event, parse_jsonl, split_reps, ParseError};
pub use value::Value;
