//! # ct-sim — LogP discrete-event simulator
//!
//! The reproduction of the paper's custom simulator ("we developed a
//! discrete event simulator to study collective operations with
//! LogP-like models", §4; their flogsim). Unlike static simulators such
//! as LogGOPSim, it supports *dynamic* communication — gossip targets
//! and checked-correction probes depend on what arrived — and fault
//! injection (§5).
//!
//! Timing model (§2.2): a send decided at `t` occupies the sender port
//! for `o`; the message travels `L`; the receiver port processes
//! arrivals FIFO, `o` each, overlapping with its own sends; failed
//! processes silently drop arrivals and never send; the sender cannot
//! tell the difference. `g ≤ o` is ignored (small messages).
//!
//! Every run is driven by a seed and is bit-reproducible ("all our
//! simulations are fully reproducible as we keep the random generator
//! seed of every experiment", §4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub(crate) mod bits;
pub mod engine;
pub mod faults;
pub mod metrics;
pub(crate) mod queue;
pub(crate) mod recvpool;
pub(crate) mod shard;
pub mod trace;

pub use arena::RunArena;
pub use engine::{SimError, Simulation, SimulationBuilder};
pub use faults::FaultPlan;
pub use metrics::{MessageCounts, Outcome};
pub use trace::ascii_timeline;
