//! Fig 11's gossip under the clock-free drivers of
//! `crates/core/tests/support/delivery.rs`: round-limited to 12 rounds,
//! `Opportunistic{4}` correction, fault-free, P = 64.
//!
//! The round counter is a logical clock: a rank counts a round per send
//! and raises its count to the highest round it hears. In a burst, a
//! rank spends all its remaining rounds before it hears anything, and
//! the rank it woke starts from the round of the message it got, so the
//! late rounds reach ranks that send little or nothing. Gossip colors
//! fewer ranks, and opportunistic correction, which covers only ±4
//! around each gossip-colored rank, leaves a wider gap uncovered. The
//! uniform order interleaves hearing and sending and strands nobody.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BuildCtx, Population, ProtocolFactory};
use ct_gossip::GossipSpec;
use ct_logp::LogP;

#[path = "../../core/tests/support/delivery.rs"]
mod delivery;
use delivery::stranded;

const P: u32 = 64;

/// Run fig 11's gossip, seeded by `seed`, to quiescence in the order
/// `seed` draws from `order`; the live ranks it leaves uncolored.
fn stranded_by(order: fn(&mut dyn Population, &[bool], u64), seed: u64) -> Vec<u32> {
    let spec = GossipSpec::round_limited(12, CorrectionKind::Opportunistic { distance: 4 });
    let ctx = BuildCtx {
        p: P,
        logp: LogP::PAPER,
        seed,
    };
    let mut slot = None;
    spec.populate(&ctx, &mut slot).expect("valid spec");
    let mut procs = slot.expect("populated");
    let dead = vec![false; P as usize];
    order(&mut *procs, &dead, seed);
    stranded(&*procs, &dead)
}

/// The first burst order, of seeds counted up from 0, that strands a
/// rank. (Over seeds 0–299 the burst order stranded 6.)
#[test]
fn a_burst_order_strands_round_limited_gossip() {
    for seed in 0..26 {
        assert_eq!(stranded_by(delivery::burst, seed), [], "seed {seed}");
    }
    assert_eq!(stranded_by(delivery::burst, 26), [59]);
}

#[test]
fn the_uniform_order_strands_no_round_limited_gossip() {
    for seed in 0..300 {
        assert_eq!(stranded_by(delivery::uniform, seed), [], "seed {seed}");
    }
}
