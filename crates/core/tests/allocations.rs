//! The allocation contract of admission and the protocol machines.
//!
//! Once a set of slots exists, re-initialising it for the next
//! broadcast — boxes through `BroadcastSpec::build_into` or one rank at
//! a time through its blueprint's `place`, as the cluster's ranks do,
//! or the simulator's by-value population through
//! `BroadcastSpec::populate` — and running a checked or failure-proof
//! corrected-tree broadcast on it to quiescence — crash faults and the
//! correction that heals them included — or a fault-free ack-tree one,
//! allocates nothing when the numbering is linear or rotated, and only
//! the two tables of the new numbering when it is shuffled, whichever
//! of the three the slots ran under before. (Gossip's rows are in
//! `mod gossip`.)
//!
//! Heap allocations are counted per thread by the test kit's `Counting`
//! allocator, which this binary installs (CI runs this file with
//! `--test-threads=1` all the same).

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, BuildCtx, Population, Process, ProtocolFactory};
use ct_core::tree::TreeKind;
use ct_logp::LogP;

use ct_testkit::boxes::Boxes;
use ct_testkit::counting_alloc::{allocations, Counting};
use ct_testkit::pump::{assert_laps, Pump};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Crash faults in two blocks (never a root), so that correction has
/// gaps to heal and ranks end in every kind of state.
fn two_blocks(p: u32) -> Vec<bool> {
    let mut dead = vec![false; p as usize];
    for r in [1, 2, 3, p / 2, p / 2 + 1] {
        dead[r as usize] = true;
    }
    dead
}

#[test]
fn admission_and_a_checked_broadcast_allocate_nothing_once_the_slots_exist() {
    for p in [64u32, 256] {
        let checked = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let sync = BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let failure_proof =
            BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::FailureProof);
        // (spec, allocations allowed per lap: boxes, by value)
        let rows: [(&dyn ProtocolFactory, [u64; 2]); 6] = [
            (&checked, [0; 2]),
            (&checked.with_root(p / 3), [0; 2]),
            (&sync.with_root(p - 1), [0; 2]),
            // The numbering's two tables and the `Arc` that shares them.
            (&checked.with_shuffle(0xBEEF), [3; 2]),
            (&sync, [0; 2]),
            // Ranks colored by correction acknowledge their probers into
            // reply queues that the first lap grew.
            (&failure_proof, [0; 2]),
        ];
        assert_laps(p, &rows, &two_blocks(p));
    }
}

#[test]
fn an_ack_tree_broadcast_allocates_nothing_once_the_slots_exist() {
    // Fault-free: a crashed rank stalls the ack wave, which nothing heals.
    for p in [64u32, 256] {
        let acked = BroadcastSpec::ack_tree(TreeKind::BINOMIAL);
        let rows: [(&dyn ProtocolFactory, [u64; 2]); 3] = [
            (&acked, [0; 2]),
            (&acked.with_root(p / 3), [0; 2]),
            // The numbering's two tables and the `Arc` that shares them.
            (&acked.with_shuffle(0xBEEF), [3; 2]),
        ];
        assert_laps(p, &rows, &vec![false; p as usize]);
    }
}

#[test]
fn placing_a_rank_over_its_previous_machine_allocates_nothing() {
    let p = 256u32;
    let checked = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
    let sync = BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked);
    // Linear and rotated numberings, handing their machines to one
    // another.
    let specs = [
        checked,
        checked.with_root(p / 3),
        sync.with_root(p - 1),
        sync,
    ];
    let dead = two_blocks(p);
    // The cluster's form: every rank places its machine over the one it
    // held, from a blueprint resolved at admission, outside the count.
    let mut placed = Boxes(Vec::new());
    let mut held: Vec<Box<dyn Process>> = Vec::with_capacity(p as usize);
    let mut pump = Pump::default();
    for lap in 0..3u64 {
        for (i, spec) in specs.iter().enumerate() {
            let ctx = BuildCtx {
                p,
                logp: LogP::PAPER,
                seed: lap,
            };
            let plan = spec.blueprint(&ctx).unwrap();
            let before = allocations();
            held.extend(placed.0.drain(..).rev());
            for rank in 0..p {
                placed.0.push(plan.place(rank, held.pop()));
            }
            let sent = pump.run(&mut placed, &dead);
            let allocated = allocations() - before;
            assert!(sent >= u64::from(p) - 1, "{spec}: {sent} messages");
            let colored = (0..p).filter(|&r| placed.colored_at(r).is_some()).count();
            assert_eq!(colored, p as usize - 5, "{spec}: healed");
            // The first lap builds the machines and grows the buffers.
            if lap > 0 {
                assert_eq!(allocated, 0, "lap {lap} spec {i} ({spec})");
            }
        }
    }
}

mod gossip {
    //! Gossip's rows of the allocation contract: once the slots exist,
    //! re-initialising them for the next round-limited, checked gossip
    //! broadcast and running it to quiescence — crash faults and the
    //! correction that heals them included — allocates nothing by value,
    //! and only the blueprint's `Arc` for the boxes: `GossipSpec` keeps the
    //! provided `build_into`, which resolves through `blueprint`.

    use ct_core::correction::CorrectionKind;
    use ct_core::protocol::gossip::GossipSpec;
    use ct_core::protocol::ProtocolFactory;
    use ct_testkit::pump;

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
}
