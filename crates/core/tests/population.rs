//! `ProtocolFactory::populate` and `ProtocolFactory::build_into` are
//! two forms of one broadcast: the population a `BroadcastSpec` keeps by
//! value (one relabeling for all ranks) must answer every call exactly
//! as the vector of placed, individually relabelled boxes does —
//! freshly built and rewound over whatever another spec left in the
//! slot, for corrected trees under every correction kind, numbering,
//! root and start mode, and for ack trees under every numbering and
//! root. (`mod gossip` does the same for round-limited gossip.)

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, BuildCtx, Population, ProtocolFactory};
use ct_core::tree::TreeKind;
use ct_logp::LogP;
use proptest::prelude::*;

use ct_testkit::boxes::Boxes;
use ct_testkit::lockstep::lockstep;

fn kinds() -> [CorrectionKind; 7] {
    [
        CorrectionKind::None,
        CorrectionKind::Opportunistic { distance: 2 },
        CorrectionKind::OpportunisticOptimized { distance: 4 },
        CorrectionKind::Checked,
        CorrectionKind::checked_paced(&LogP::PAPER, 50),
        CorrectionKind::FailureProof,
        CorrectionKind::Delayed { delay: 6 },
    ]
}

/// One broadcast to compare the two forms on.
#[derive(Clone, Copy, Debug)]
struct Case {
    p: u32,
    /// Reduced modulo `p`.
    root: u32,
    shuffle: Option<u64>,
    kind: usize,
    sync: bool,
    /// An ack tree (binomial when `sync`, Lamé otherwise; `kind` unused).
    acked: bool,
    /// Bit `r` kills physical rank `r` (never the root).
    dead: u64,
}

impl Case {
    fn spec(&self) -> BroadcastSpec {
        let kind = kinds()[self.kind];
        let spec = match (self.acked, self.sync) {
            (true, true) => BroadcastSpec::ack_tree(TreeKind::BINOMIAL),
            (true, false) => BroadcastSpec::ack_tree(TreeKind::LAME2),
            (false, true) => BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, kind),
            (false, false) => BroadcastSpec::corrected_tree(TreeKind::LAME2, kind),
        };
        let spec = spec.with_root(self.root % self.p);
        match self.shuffle {
            Some(seed) => spec.with_shuffle(seed),
            None => spec,
        }
    }

    fn ctx(&self) -> BuildCtx {
        BuildCtx {
            p: self.p,
            logp: LogP::PAPER,
            seed: 11,
        }
    }

    fn dead(&self) -> Vec<bool> {
        (0..self.p)
            .map(|r| r != self.root % self.p && self.dead >> r & 1 == 1)
            .collect()
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    let p = prop_oneof![Just(1u32), Just(2u32), Just(3u32), 4u32..65];
    let shuffle = prop_oneof![Just(None), any::<u64>().prop_map(Some)];
    // About one case in five is an ack tree.
    let acked = (0u8..5).prop_map(|x| x == 0);
    (
        (p, any::<u32>(), shuffle),
        (0usize..7, any::<bool>(), any::<u64>()),
        acked,
    )
        .prop_map(|((p, root, shuffle), (kind, sync, dead), acked)| Case {
            p,
            root,
            shuffle,
            kind,
            sync,
            acked,
            // About one rank in four is dead.
            dead: dead & dead.rotate_left(17),
        })
}

/// `populate` into `slot` — whatever it holds — against freshly placed
/// boxes.
fn populated_equals_built(case: &Case, slot: &mut Option<Box<dyn Population>>) {
    let (spec, ctx) = (case.spec(), case.ctx());
    spec.populate(&ctx, slot).unwrap();
    let by_value = slot.as_deref_mut().expect("populated");
    let mut boxed = Boxes::build(&spec, &ctx);
    let dead = case.dead();
    let sends = lockstep(case, &mut boxed, by_value, &dead);
    // Not vacuous: every rank hears the tree when none is dead, and
    // the root sends to its first child whatever happens.
    let all = case.p as usize - 1;
    let least = if dead.contains(&true) {
        all.min(1)
    } else {
        all
    };
    assert!(sends >= least, "{case:?}: {sends} sends");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A fresh population, and one rewound over the leftovers of an
    /// unrelated broadcast (other `P`, root, numbering, kind, mode,
    /// protocol), both equal the placed boxes.
    #[test]
    fn populate_answers_like_build(previous in arb_case(), case in arb_case()) {
        let mut slot = None;
        populated_equals_built(&previous, &mut slot);
        populated_equals_built(&case, &mut slot);
    }
}

#[test]
fn populate_answers_like_build_on_the_smallest_rings() {
    // The ack tree ignores the correction kind: one row of it.
    let protocols = (0..kinds().len()).map(|kind| (kind, false));
    for p in 1..=3u32 {
        for root in 0..p {
            for (kind, acked) in protocols.clone().chain([(0, true)]) {
                for (sync, shuffle) in [
                    (false, None),
                    (true, None),
                    (false, Some(5)),
                    (true, Some(6)),
                ] {
                    for dead in [0, 0b110] {
                        let case = Case {
                            p,
                            root,
                            shuffle,
                            kind,
                            sync,
                            acked,
                            dead,
                        };
                        let mut slot = None;
                        populated_equals_built(&case, &mut slot);
                        // ... and rewound over itself, dirty.
                        populated_equals_built(&case, &mut slot);
                    }
                }
            }
        }
    }
}

mod gossip {
    //! Round-limited gossip in the engines' two stores: the machines
    //! `GossipSpec::populate` keeps by value must answer every call exactly
    //! as the boxes `build_into` places do — freshly built and rewound over
    //! whatever another broadcast left in the slot. (Time-limited gossip
    //! sends until its deadline, which a clock-free driver never reaches.)

    use ct_core::correction::CorrectionKind;
    use ct_core::protocol::gossip::GossipSpec;
    use ct_core::protocol::{BroadcastSpec, BuildCtx, Population, ProtocolFactory};
    use ct_core::tree::TreeKind;
    use ct_logp::LogP;
    use ct_testkit::boxes::Boxes;
    use ct_testkit::lockstep::lockstep;
    use proptest::prelude::*;

    fn kinds() -> [CorrectionKind; 6] {
        [
            CorrectionKind::None,
            CorrectionKind::Opportunistic { distance: 2 },
            CorrectionKind::OpportunisticOptimized { distance: 4 },
            CorrectionKind::Checked,
            CorrectionKind::FailureProof,
            CorrectionKind::Delayed { delay: 6 },
        ]
    }

    /// One gossip broadcast to compare the two forms on.
    #[derive(Clone, Copy, Debug)]
    struct Case {
        p: u32,
        rounds: u32,
        kind: usize,
        seed: u64,
        /// Bit `r` kills rank `r` (never the root, rank 0).
        dead: u64,
    }

    impl Case {
        fn spec(&self) -> GossipSpec {
            GossipSpec::round_limited(self.rounds, kinds()[self.kind])
        }

        fn ctx(&self) -> BuildCtx {
            BuildCtx {
                p: self.p,
                logp: LogP::PAPER,
                seed: self.seed,
            }
        }

        fn dead(&self) -> Vec<bool> {
            (0..self.p)
                .map(|r| r != 0 && self.dead >> r & 1 == 1)
                .collect()
        }
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        let p = prop_oneof![Just(1u32), Just(2u32), Just(3u32), 4u32..65];
        ((p, 1u32..16, 0usize..6), (any::<u64>(), any::<u64>())).prop_map(
            |((p, rounds, kind), (seed, dead))| Case {
                p,
                rounds,
                kind,
                seed,
                // About one rank in four is dead.
                dead: dead & dead.rotate_left(17),
            },
        )
    }

    /// `populate` into `slot` — whatever it holds — against freshly placed
    /// boxes.
    fn populated_equals_built(case: &Case, slot: &mut Option<Box<dyn Population>>) {
        let (spec, ctx) = (case.spec(), case.ctx());
        spec.populate(&ctx, slot).unwrap();
        let by_value = slot.as_deref_mut().expect("populated");
        let mut boxed = Boxes::build(&spec, &ctx);
        let sends = lockstep(case, &mut boxed, by_value, &case.dead());
        // Not vacuous: the root gossips whenever it has someone to tell.
        assert!(
            sends >= (case.p as usize).min(2) - 1,
            "{case:?}: {sends} sends"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A fresh population, one rewound over the leftovers of another
        /// gossip broadcast (other `P`, rounds, correction, seed), and one
        /// that replaces a corrected tree's, all equal the placed boxes.
        #[test]
        fn populate_answers_like_build_into(previous in arb_case(), case in arb_case()) {
            let mut slot = None;
            populated_equals_built(&previous, &mut slot);
            populated_equals_built(&case, &mut slot);
            let tree = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
            tree.populate(&previous.ctx(), &mut slot).unwrap();
            populated_equals_built(&case, &mut slot);
        }
    }
}
