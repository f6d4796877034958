//! Trace analysis for corrected-tree broadcasts.
//!
//! `ct-analyze` consumes the JSONL event schema emitted by `ct-obs`
//! sinks (from simulator or cluster runs) and answers *why* a run took
//! as long as it did:
//!
//! - [`trace`] parses event streams back from JSONL; a trace is one
//!   repetition;
//! - [`critical`] extracts the critical path: one forward walk picks
//!   each message event's binding in-edge from the matches of the
//!   trace's [`ct_obs::CausalIndex`] and its rank's previous send and
//!   delivery, and a backward walk from the completion event
//!   attributes every step of the path to LogP cost classes (`o`, `L`,
//!   idle) and protocol phases (dissemination vs correction);
//! - [`summary`] aggregates per-repetition analyses — phase split,
//!   per-rank utilization, message breakdown — and checks observed
//!   correction times against the Lemma 3 bounds from `ct_core::bounds`;
//! - [`forensics`] joins a trace with the tree topology and fault mask
//!   into per-failure impact reports (orphaned subtrees, rescue
//!   provenance, added latency) and a run-level [`WasteReport`];
//! - [`scheduler`] renders `ct-telemetry-v1` runtime snapshots (from
//!   `ct stats` or figure manifests) as scheduler health summaries
//!   (`ct analyze --view scheduler`);
//! - [`postmortem`] renders `ct-postmortem-v1` flight-recorder dumps as
//!   per-stranded-rank causal reconstructions (`ct postmortem`,
//!   `ct analyze --view postmortem`);
//! - [`series`] renders `ct-series-v1` time-series exports (from
//!   `ct serve`, `ct stats --series` or the `/series.jsonl` endpoint)
//!   as rate/health trend summaries (`ct analyze --view series`).
//!
//! The crate is pure consumer-side: it never runs protocols itself,
//! so it depends only on the model/schema crates and stays reusable
//! against traces from any producer. It reads no schema itself: each
//! schema's reader sits next to its writer in `ct-obs`
//! ([`ct_obs::json`]), and the three views above render what those
//! readers return.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
pub mod forensics;
pub mod postmortem;
pub mod scheduler;
pub mod series;
pub mod summary;
pub mod trace;

pub use critical::{CostClass, CriticalPath, Segment};
pub use ct_obs::json::Value;
pub use forensics::{analyze_forensics, FailureImpact, ForensicsReport, OrphanRescue, WasteReport};
pub use summary::{
    analyze_rep, analyze_rep_indexed, AnalysisSummary, AnalyzeConfig, BoundsCheck,
    MessageBreakdown, PhaseSplit, RepAnalysis, Utilization,
};
pub use trace::{parse_jsonl, ParseError};
