//! Scripted test protocols: machines of several types, one box per
//! rank, in the one store every protocol uses. Each broadcast's script
//! builds the machine of each rank, and a rewind builds it afresh.

use std::sync::Arc;

use ct_core::protocol::{ColoredVia, Machine, Payload, Plan, Process, Relabeling, SendPoll};
use ct_logp::{Rank, Time};

/// A scripted machine of any type, boxed.
pub struct Scripted(Box<dyn Process>);

/// What the ranks of a scripted broadcast share: `script(r)` is the
/// machine of rank `r`.
pub type Script = Arc<dyn Fn(Rank) -> Box<dyn Process> + Send + Sync>;

/// The plan of `p` scripted ranks under the linear numbering.
pub fn scripted(
    p: u32,
    script: impl Fn(Rank) -> Box<dyn Process> + Send + Sync + 'static,
) -> Plan<Scripted> {
    let shared: Script = Arc::new(script);
    let map = Relabeling::rotation(p, 0);
    Plan { shared, map }
}

impl Machine for Scripted {
    type Shared = Script;

    fn new(rank: Rank, script: &Script) -> Self {
        Scripted(script(rank))
    }

    fn on_message(&mut self, _: &Script, from: Rank, payload: Payload, now: Time) {
        self.0.on_message(from, payload, now);
    }

    fn poll_send(&mut self, _: &Script, now: Time) -> SendPoll {
        self.0.poll_send(now)
    }

    fn colored_at(&self) -> Option<Time> {
        self.0.colored_at()
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.0.colored_via()
    }
}
