//! # ct-runtime — in-process message-passing cluster
//!
//! The stand-in for the paper's MPI prototype on Piz Daint (§4.4, their
//! `dying-tree`). A fixed pool of worker threads M:N-schedules all P
//! rank state machines ([`cluster::default_threads`]-sized, `CT_THREADS`
//! override); each rank owns a bounded mailbox (fixed-capacity ring,
//! heap spill only under overload) and ranks become runnable on message
//! arrival or via a shared timer wheel, so P=4096 needs no 4096 OS
//! threads. Crash failures are emulated ("faults were emulated as crash
//! failures and deadlocks without noticeable differences", §4.4 — a dead
//! rank here simply discards all traffic and sends nothing).
//!
//! The same protocol state machines that run under the LogP simulator
//! run here unmodified, driven by wall-clock time (microseconds since
//! broadcast start) instead of LogP steps. As on the real cluster,
//! globally synchronized correction is impractical ("problematic due to
//! limited clock synchronisation precision"), so cluster experiments use
//! overlapped correction and round-limited gossip — exactly the paper's
//! prototype scope.
//!
//! [`harness`] layers an OSU-benchmark-style measurement loop on top:
//! repeated broadcasts with warmup, reporting per-iteration latency from
//! the root's start until every live rank holds the payload.
//!
//! What the watchdog reports on a stall ([`StallReport`]) and the dump
//! written when a run dies ([`Postmortem`]) are `ct-obs` types, re-exported
//! here: their readers sit next to their writers there, so a consumer
//! such as `ct-analyze` reads them without depending on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod cluster;
pub mod harness;
mod inbox;
mod mailbox;
pub mod pubsub;
mod timer;

pub use cluster::{
    default_flight_cap, default_threads, Cluster, ClusterConfig, ClusterError, RunReport,
};
pub use ct_obs::{Postmortem, RankStall, StallReport};
pub use harness::{BenchConfig, BenchResult};
pub use pubsub::{BroadcastOutcome, PubsubOptions, PubsubReport, Topic, TopicTable};
