//! Gossip's rows of the allocation contract
//! (`crates/core/tests/allocations.rs`): once the slots exist,
//! re-initialising them for the next round-limited, checked gossip
//! broadcast and running it to quiescence — crash faults and the
//! correction that heals them included — allocates nothing by value,
//! and only the blueprint's `Arc` for the boxes: `GossipSpec` keeps the
//! provided `build_into`, which resolves through `blueprint`.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::ProtocolFactory;
use ct_gossip::GossipSpec;

#[path = "../../core/tests/support/boxes.rs"]
mod boxes;
#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;
#[path = "../../core/tests/support/pump.rs"]
mod pump;

#[test]
fn a_checked_gossip_broadcast_allocates_only_its_blueprint_once_the_slots_exist() {
    for p in [64u32, 256] {
        let gossip = GossipSpec::round_limited(12, CorrectionKind::Checked);
        let mut dead = vec![false; p as usize];
        for r in [1, 2, 3, p / 2, p / 2 + 1] {
            dead[r as usize] = true;
        }
        // (factory, allocations allowed per lap: boxes, by value)
        let rows: [(&dyn ProtocolFactory, [u64; 2]); 2] = [
            (&gossip, [1, 0]),
            (
                &GossipSpec::round_limited(8, CorrectionKind::Checked),
                [1, 0],
            ),
        ];
        pump::assert_laps(p, &rows, &dead);
    }
}
