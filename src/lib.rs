//! # corrected-trees — facade crate
//!
//! Reproduction of *Corrected Trees for Reliable Group Communication*
//! (Küttler et al., PPoPP 2019): a two-phase fault-tolerant broadcast
//! (tree dissemination + ring correction), with a LogP discrete-event
//! simulator, the Corrected Gossip baseline, analytical bounds, an
//! in-process message-passing cluster runtime and the experiment
//! campaigns behind every figure.
//!
//! This crate re-exports the workspace members under stable names:
//!
//! * [`logp`] — the LogP machine model ([`ct_logp`]),
//! * [`core`] — trees, correction algorithms, broadcast protocols,
//! * [`sim`] — the discrete-event simulator with fault injection,
//! * [`gossip`] — the Corrected Gossip baseline,
//! * [`analysis`] — Lemma 2/3 bounds and statistics,
//! * [`exp`] — the experiment campaigns behind every paper figure,
//! * [`runtime`] — the thread-based cluster runtime (MPI stand-in),
//! * [`obs`] — the shared observability layer: event sinks, the
//!   telemetry hub and its histogram, and run manifests,
//! * [`analyze`] — trace analysis: causal DAGs, critical paths with
//!   LogP cost attribution, and failure forensics.
//!
//! ## Quickstart
//!
//! ```
//! use corrected_trees::prelude::*;
//!
//! // 64 processes, paper parameters (L=2, o=1), interleaved binomial
//! // dissemination followed by optimized opportunistic correction (d=4).
//! let spec = BroadcastSpec::corrected_tree(
//!     TreeKind::Binomial { order: Ordering::Interleaved },
//!     CorrectionKind::OpportunisticOptimized { distance: 4 },
//! );
//! let outcome = Simulation::builder(64, LogP::PAPER)
//!     .seed(7)
//!     .build()
//!     .run(&spec)
//!     .expect("valid configuration");
//! assert!(outcome.all_live_colored());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ct_analysis as analysis;
pub use ct_analyze as analyze;
pub use ct_core as core;
pub use ct_exp as exp;
pub use ct_gossip as gossip;
pub use ct_logp as logp;
pub use ct_obs as obs;
pub use ct_runtime as runtime;
pub use ct_sim as sim;

/// One-stop imports for the common workflow: pick a topology, pick a
/// correction algorithm, run broadcasts in the simulator or on the
/// cluster runtime.
pub mod prelude {
    pub use ct_core::correction::CorrectionKind;
    pub use ct_core::protocol::BroadcastSpec;
    pub use ct_core::tree::{Ordering, Topology, TreeKind};
    pub use ct_logp::{LogP, Rank, Time};
    pub use ct_sim::{FaultPlan, Simulation};
}
