//! # ct-testkit — what the workspace's integration tests share
//!
//! A dev-dependency only. Integration tests may use it, never a
//! `#[cfg(test)]` module inside `ct-core`: that build links a second
//! copy of `ct-core`, whose types do not unify with the first.
//!
//! * [`boxes`] — the cluster's placed boxes as a [`Population`], driven
//!   exactly as the simulator's by-value machines;
//! * [`lockstep`] — the two stores of one broadcast, driven side by side;
//! * [`delivery`] — clock-free drivers that choose the delivery order;
//! * [`pump`] — the allocation contract's FIFO driver and its laps;
//! * [`counting_alloc`] — a per-thread allocation counter;
//! * [`scripted`] — boxed test machines of any type in one store.
//!
//! [`Population`]: ct_core::protocol::Population

#![deny(unsafe_code)]

pub mod boxes;
pub mod counting_alloc;
pub mod delivery;
pub mod lockstep;
pub mod pump;
pub mod scripted;
