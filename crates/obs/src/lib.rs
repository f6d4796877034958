//! # ct-obs — unified observability layer
//!
//! One event schema, one metric store and one run-manifest format
//! shared by the LogP simulator (`ct-sim`) and the threaded cluster
//! runtime (`ct-runtime`), so that a simulated broadcast and a real one
//! can be compared event-by-event and every campaign CSV carries its
//! full provenance.
//!
//! The layer is opt-in and zero-overhead when disabled: producers hoist
//! a single [`EventSink::enabled`] check out of their hot loops and the
//! default [`NullSink`] makes every run behave exactly like the
//! pre-instrumentation code path.
//!
//! * [`event`] — the [`Event`] schema (protocol events, coloring,
//!   phase spans) stamped with logical [`ct_logp::Time`] and, on the
//!   cluster runtime, wall-clock microseconds.
//! * [`sink`] — the [`EventSink`] trait plus [`NullSink`], [`VecSink`]
//!   and the streaming [`JsonlSink`].
//! * [`causal`] — [`CausalIndex`], one pass over a trace that matches
//!   each arrival to its send and each delivery to its arrival, in the
//!   one causal order, and records each rank's first coloring — what
//!   the monitor, the chrome export and `ct-analyze` read.
//! * [`monitor`] — [`MonitorSink`], a protocol checker that validates
//!   a run's event stream, as a sink or recorded, against the paper's
//!   invariants (§2.1 reliability/no-duplicates, §4.3 fail-stop, LogP
//!   wire timing) and reports structured [`monitor::Violation`] records.
//! * [`metrics`] — [`Histogram`], the one bucket layout (powers of two
//!   up to 2²⁰) every distribution uses, mergeable across runs.
//! * [`manifest`] — [`RunManifest`], written as
//!   `results/<name>.meta.json` next to every campaign CSV.
//! * [`chrome`] — export a recorded event stream as a
//!   `chrome://tracing` / Perfetto JSON document.
//! * [`telemetry`] — [`TelemetryHub`], the sharded store of live
//!   scheduler/runtime counters behind `ct top`, `ct stats` and the
//!   `telemetry` manifest block, fed one [`telemetry::Tally`] at a time.
//! * [`flight`] — [`FlightRecorder`], the always-on black box: bounded
//!   per-worker rings of recent scheduler/mailbox/timer events, frozen
//!   and dumped into `ct-postmortem-v1` bundles on stall or panic.
//! * [`series`] — [`SeriesStore`], the `ct-series-v1` time series:
//!   one producer step turns each hub snapshot into a per-window delta
//!   and runs the health rules on it, and a [`Sampler`] thread takes
//!   that step behind `ct serve`, `ct monitor` and `ct top`.
//! * [`health`] — per-window anomaly rules (stall precursor, spill
//!   spike, run-queue saturation, busy imbalance) producing structured
//!   [`HealthEvent`]s.
//! * [`stall`] — [`StallReport`], what the cluster watchdog saw when a
//!   broadcast timed out.
//! * [`postmortem`] — [`Postmortem`], the `ct-postmortem-v1` dump that
//!   bundles a stall report, a telemetry snapshot, the health timeline
//!   and the frozen flight rings.
//! * [`http`] — [`HttpServer`], a minimal hand-rolled HTTP/1.1 server
//!   exposing `/metrics`, `/series.jsonl` and `/health` to a real
//!   Prometheus scraper.
//! * [`json`] — the one JSON module: the writer every schema above
//!   renders with and the [`json::Value`] reader its `from_value` /
//!   `from_json` reads back with, next to the writer (deterministic
//!   field order, bounded nesting, exact integers, no serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod chrome;
pub mod event;
pub mod flight;
pub mod health;
pub mod http;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod monitor;
pub mod postmortem;
pub mod series;
pub mod sink;
pub mod stall;
pub mod telemetry;

pub use causal::{causal_order, infer_p, CausalIndex};
pub use chrome::chrome_trace;
pub use event::{Event, EventKind, Phase};
pub use flight::{FlightDump, FlightKind, FlightRecord, FlightRecorder};
pub use health::{HealthEvent, Severity};
pub use http::{monitor_handler, HttpServer, Response};
pub use manifest::{default_threads, RunManifest};
pub use metrics::Histogram;
pub use monitor::{Invariant, MonitorConfig, MonitorReport, MonitorSink, Violation};
pub use postmortem::Postmortem;
pub use series::{Sampler, SeriesExport, SeriesSample, SeriesStore};
pub use sink::{EventSink, JsonlSink, NullSink, VecSink};
pub use stall::{RankStall, StallReport};
pub use telemetry::{TelemetryHub, TelemetrySnapshot};
