//! Overlapped correction under an arbitrary FIFO delivery order.
//!
//! The test kit's `delivery` drivers choose the order themselves:
//! the uniform one can reach any order a cluster's mailboxes may
//! produce, the burst one is the cluster's own (a rank hears all its
//! mail, then sends until it has nothing to send).
//!
//! Under that freedom, overlapped opportunistic correction can leave a
//! live rank uncolored. A rank colored by correction before its tree
//! message arrives still forwards along the tree (§3.3), but when the
//! tree message comes it is masked as a duplicate, so the rank never
//! begins correction itself. If every rank within the correction
//! distance of a dead subtree's orphan was colored that way, nobody
//! covers the orphan. Under LogP's timing the tree wins these races and
//! the simulator colors every plan; on a real clock it sometimes loses.
//! Checked correction stops a side only on a message from a rank it
//! already sent to, so no order strands a rank; that is why the benchmark's workloads with
//! faults, the pub/sub one included, run `Checked`.
//! (`mod gossip` pins gossip's orders.)

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, BuildCtx, ColoredVia, Population, ProtocolFactory};
use ct_core::tree::TreeKind;
use ct_logp::{LogP, Rank};

use ct_testkit::delivery::{self, stranded};

/// The plan of the rotated-root cluster broadcast: P = 32, binomial
/// tree rooted at physical 19, physical rank 0 dead.
const P: u32 = 32;
const ROOT: Rank = 19;
const DEAD: Rank = 0;

/// Run one broadcast to quiescence in the order `seed` draws from
/// `order`, and return its machines and the crashed ranks.
fn drive(
    order: fn(&mut dyn Population, &[bool], u64),
    correction: CorrectionKind,
    seed: u64,
) -> (Box<dyn Population>, Vec<bool>) {
    let spec = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, correction).with_root(ROOT);
    let ctx = BuildCtx {
        p: P,
        logp: LogP::PAPER,
        seed: 0,
    };
    let mut slot = None;
    spec.populate(&ctx, &mut slot).expect("valid spec");
    let mut procs = slot.expect("populated");
    let dead: Vec<bool> = (0..P).map(|r| r == DEAD).collect();
    order(&mut *procs, &dead, seed);
    (procs, dead)
}

/// The first order, of seeds counted up from 0, that strands a rank
/// under each opportunistic kind. Plain opportunistic correction
/// strands too, so the §3.3 optimization is not the cause. (Over seeds
/// 0–3999 the two kinds stranded 76 and 63 orders, every time rank 16
/// alone with all four neighbours colored by correction.)
#[test]
fn overlapped_opportunistic_correction_strands_a_live_rank_under_some_fifo_order() {
    for (correction, seed) in [
        (CorrectionKind::OpportunisticOptimized { distance: 2 }, 0),
        (CorrectionKind::Opportunistic { distance: 2 }, 67),
    ] {
        let (procs, dead) = drive(delivery::uniform, correction, seed);
        // Physical 16 is a leaf whose only tree parent is the dead rank.
        assert_eq!(stranded(&*procs, &dead), [16], "{correction:?}");
        for r in [14, 15, 17, 18] {
            let via = procs.colored_via(r);
            assert_eq!(
                via,
                Some(ColoredVia::Correction),
                "{correction:?}: rank {r}"
            );
        }
    }
}

#[test]
fn checked_correction_colors_every_live_rank_under_any_fifo_order() {
    for seed in 0..500 {
        let (procs, dead) = drive(delivery::uniform, CorrectionKind::Checked, seed);
        assert_eq!(stranded(&*procs, &dead), [], "seed {seed}");
        let (procs, dead) = drive(delivery::burst, CorrectionKind::Checked, seed);
        assert_eq!(stranded(&*procs, &dead), [], "burst seed {seed}");
    }
}

/// The cluster's own order strands the same rank the same way, and far
/// more often: the first burst order, of seeds counted up from 0, that
/// strands a rank under the optimized kind. (Over seeds 0–299 the burst
/// order stranded 37 orders and the uniform order 3, every time rank 16
/// alone.)
#[test]
fn a_burst_order_strands_the_same_live_rank() {
    let correction = CorrectionKind::OpportunisticOptimized { distance: 2 };
    let (procs, dead) = drive(delivery::burst, correction, 0);
    assert_eq!(stranded(&*procs, &dead), []);
    let (procs, dead) = drive(delivery::burst, correction, 1);
    assert_eq!(stranded(&*procs, &dead), [16]);
    for r in [14, 15, 17, 18] {
        assert_eq!(
            procs.colored_via(r),
            Some(ColoredVia::Correction),
            "rank {r}"
        );
    }
}

mod gossip {
    //! Fig 11's gossip under the clock-free drivers: round-limited to 12
    //! rounds, `Opportunistic{4}` correction, fault-free, P = 64.
    //!
    //! The round counter is a logical clock: a rank counts a round per send
    //! and raises its count to the highest round it hears. In a burst, a
    //! rank spends all its remaining rounds before it hears anything, and
    //! the rank it woke starts from the round of the message it got, so the
    //! late rounds reach ranks that send little or nothing. Gossip colors
    //! fewer ranks, and opportunistic correction, which covers only ±4
    //! around each gossip-colored rank, leaves a wider gap uncovered. The
    //! uniform order interleaves hearing and sending and strands nobody.
    //! Checked correction, in place of `Opportunistic{4}`, probes on until
    //! it hears each side, so no burst order strands it.

    use ct_core::correction::CorrectionKind;
    use ct_core::protocol::gossip::GossipSpec;
    use ct_core::protocol::{BuildCtx, Population, ProtocolFactory};
    use ct_logp::LogP;
    use ct_testkit::delivery::{self, stranded};

    const P: u32 = 64;

    const FIG11: CorrectionKind = CorrectionKind::Opportunistic { distance: 4 };

    /// Run fig 11's gossip with `correction`, seeded by `seed`, to
    /// quiescence in the order `seed` draws from `order`; the live ranks
    /// it leaves uncolored.
    fn stranded_by(
        order: fn(&mut dyn Population, &[bool], u64),
        correction: CorrectionKind,
        seed: u64,
    ) -> Vec<u32> {
        let spec = GossipSpec::round_limited(12, correction);
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
            assert_eq!(stranded_by(delivery::burst, FIG11, seed), [], "seed {seed}");
        }
        assert_eq!(stranded_by(delivery::burst, FIG11, 26), [59]);
    }

    #[test]
    fn no_burst_order_strands_checked_gossip() {
        for seed in 0..300 {
            let stranded = stranded_by(delivery::burst, CorrectionKind::Checked, seed);
            assert_eq!(stranded, [], "seed {seed}");
        }
    }

    #[test]
    fn the_uniform_order_strands_no_round_limited_gossip() {
        for seed in 0..300 {
            assert_eq!(
                stranded_by(delivery::uniform, FIG11, seed),
                [],
                "seed {seed}"
            );
        }
    }
}
