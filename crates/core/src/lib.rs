//! # ct-core — Corrected Trees
//!
//! The paper's primary contribution (Küttler et al., PPoPP'19): reliable
//! low-latency broadcast built from two phases,
//!
//! 1. **dissemination** over a tree ([`tree`]) — fast but fault-agnostic;
//! 2. **correction** over a ring ([`correction`]) — colors every live
//!    process the tree missed.
//!
//! The key insight is a *renumbering* one: if the tree is **interleaved**
//! (Definition 1, [`tree::interleaving`]), any process failure leaves only
//! small, scattered gaps of unreached processes on the correction ring, so
//! correction stays cheap regardless of where the fault hits.
//!
//! [`protocol`] assembles trees and correction algorithms into complete,
//! transport-agnostic broadcast state machines (Corrected Gossip's
//! included, [`protocol::gossip`]) that are driven identically by the
//! `ct-sim` LogP simulator and the `ct-runtime` thread cluster; [`bounds`]
//! is §4.2's closed form of synchronized checked correction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod correction;
pub mod protocol;
pub mod reduce;
pub mod tree;

pub use correction::CorrectionKind;
pub use protocol::BroadcastSpec;
pub use tree::{Topology, Tree, TreeKind};
