//! A re-export of `ct_core::protocol::gossip`. `benchmark/` is this
//! crate's only dependent; ROADMAP item 21 deletes it.

#![forbid(unsafe_code)]

pub use ct_core::protocol::gossip::*;
