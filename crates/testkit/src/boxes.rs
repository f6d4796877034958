//! The cluster's form of a broadcast as a [`Population`]: the boxes a
//! blueprint placed, one per physical rank, so that a test drives them
//! exactly as it drives the simulator's by-value machines.

use ct_core::protocol::{
    BuildCtx, ColoredVia, Payload, Population, Process, ProtocolFactory, SendPoll,
};
use ct_logp::{Rank, Time};

/// `P` placed boxes, by physical rank.
pub struct Boxes(pub Vec<Box<dyn Process>>);

impl Boxes {
    /// The boxes `factory` places for a broadcast of `ctx`, freshly.
    pub fn build(factory: &dyn ProtocolFactory, ctx: &BuildCtx) -> Boxes {
        let mut procs = Vec::new();
        factory.build_into(ctx, &mut procs).expect("valid factory");
        Boxes(procs)
    }
}

impl Population for Boxes {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn on_message(&mut self, rank: Rank, from: Rank, payload: Payload, now: Time) {
        self.0[rank as usize].on_message(from, payload, now);
    }

    fn poll_send(&mut self, rank: Rank, now: Time) -> SendPoll {
        self.0[rank as usize].poll_send(now)
    }

    fn colored_at(&self, rank: Rank) -> Option<Time> {
        self.0[rank as usize].colored_at()
    }

    fn colored_via(&self, rank: Rank) -> Option<ColoredVia> {
        self.0[rank as usize].colored_via()
    }
}
