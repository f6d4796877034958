//! Round-limited gossip in the engines' two stores: the machines
//! `GossipSpec::populate` keeps by value must answer every call exactly
//! as the boxes `build_into` places do — freshly built and rewound over
//! whatever another broadcast left in the slot. (Time-limited gossip
//! sends until its deadline, which a clock-free driver never reaches.)

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, BuildCtx, Population, ProtocolFactory};
use ct_core::tree::TreeKind;
use ct_gossip::GossipSpec;
use ct_logp::LogP;
use proptest::prelude::*;

#[path = "../../core/tests/support/boxes.rs"]
mod boxes;
#[path = "../../core/tests/support/lockstep.rs"]
mod lockstep;
use boxes::Boxes;
use lockstep::lockstep;

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
