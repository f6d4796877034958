//! `ProtocolFactory::populate` and `ProtocolFactory::build` are two
//! forms of one broadcast: the population a `BroadcastSpec` keeps by
//! value (one relabeling for all ranks) must answer every call exactly
//! as the vector of boxed, individually relabelled machines does —
//! freshly built and rewound over whatever another spec left in the
//! slot, for every correction kind, numbering, root and start mode.

use std::collections::VecDeque;

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, BuildCtx, Payload, Population, ProtocolFactory, SendPoll};
use ct_core::tree::TreeKind;
use ct_logp::{LogP, Rank, Time};
use proptest::prelude::*;

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
    /// Bit `r` kills physical rank `r` (never the root).
    dead: u64,
}

impl Case {
    fn spec(&self) -> BroadcastSpec {
        let kind = kinds()[self.kind];
        let spec = if self.sync {
            BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, kind)
        } else {
            BroadcastSpec::corrected_tree(TreeKind::LAME2, kind)
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
    (
        (p, any::<u32>(), shuffle),
        (0usize..7, any::<bool>(), any::<u64>()),
    )
        .prop_map(|((p, root, shuffle), (kind, sync, dead))| Case {
            p,
            root,
            shuffle,
            kind,
            sync,
            // About one rank in four is dead.
            dead: dead & dead.rotate_left(17),
        })
}

enum Item {
    Poll(Rank),
    Deliver {
        to: Rank,
        from: Rank,
        payload: Payload,
    },
}

/// Drive `boxed` and `by_value` through one FIFO interleaving of polls
/// and deliveries (time jumps to the earliest parked `WaitUntil` when
/// nothing is in flight), the script being what `boxed` answers, and
/// require the same answer from both at every step. Returns the number
/// of sends.
fn lockstep(
    case: &Case,
    boxed: &mut dyn Population,
    by_value: &mut dyn Population,
    dead: &[bool],
) -> usize {
    assert_eq!(boxed.len(), case.p as usize, "{case:?}");
    assert_eq!(by_value.len(), case.p as usize, "{case:?}");
    let coloring = |pop: &dyn Population, r| (pop.colored_at(r), pop.colored_via(r));
    let mut now = Time::ZERO;
    let mut queue: VecDeque<Item> = (0..case.p)
        .filter(|&r| !dead[r as usize])
        .map(Item::Poll)
        .collect();
    let mut parked: Vec<(Time, Rank)> = Vec::new();
    let mut sends = 0;
    loop {
        let touched = match queue.pop_front() {
            Some(Item::Poll(r)) => {
                let poll = boxed.poll_send(r, now);
                assert_eq!(
                    by_value.poll_send(r, now),
                    poll,
                    "{case:?}: poll {r} at {now}"
                );
                match poll {
                    SendPoll::Now { to, payload } => {
                        sends += 1;
                        if !dead[to as usize] {
                            let from = r;
                            queue.push_back(Item::Deliver { to, from, payload });
                        }
                        queue.push_back(Item::Poll(r));
                    }
                    SendPoll::WaitUntil(t) => parked.push((t, r)),
                    SendPoll::Idle | SendPoll::Done => {}
                }
                r
            }
            Some(Item::Deliver { to, from, payload }) => {
                boxed.on_message(to, from, payload, now);
                by_value.on_message(to, from, payload, now);
                queue.push_back(Item::Poll(to));
                to
            }
            None => match parked.iter().map(|&(t, _)| t).min() {
                Some(next) => {
                    now = now.max(next);
                    parked.retain(|&(t, r)| {
                        if t <= now {
                            queue.push_back(Item::Poll(r));
                        }
                        t > now
                    });
                    continue;
                }
                None => break,
            },
        };
        assert_eq!(
            coloring(by_value, touched),
            coloring(boxed, touched),
            "{case:?}: coloring of {touched} at {now}"
        );
    }
    for r in 0..case.p {
        assert_eq!(coloring(by_value, r), coloring(boxed, r), "{case:?}: {r}");
    }
    sends
}

/// `populate` into `slot` — whatever it holds — against a fresh `build`.
fn populated_equals_built(case: &Case, slot: &mut Option<Box<dyn Population>>) {
    let (spec, ctx) = (case.spec(), case.ctx());
    spec.populate(&ctx, slot).unwrap();
    let by_value = slot.as_deref_mut().expect("populated");
    let mut boxed = spec.build(&ctx).unwrap();
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
    /// unrelated broadcast (other `P`, root, numbering, kind, mode),
    /// both equal the built vector.
    #[test]
    fn populate_answers_like_build(previous in arb_case(), case in arb_case()) {
        let mut slot = None;
        populated_equals_built(&previous, &mut slot);
        populated_equals_built(&case, &mut slot);
    }
}

#[test]
fn populate_answers_like_build_on_the_smallest_rings() {
    for p in 1..=3u32 {
        for root in 0..p {
            for kind in 0..kinds().len() {
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
