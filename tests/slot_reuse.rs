//! A factory's `blueprint` (the machine the cluster places on one
//! rank), `build_into` (the same over a vector of boxes) and `populate`
//! (the simulator's by-value population) re-initialise the previous
//! broadcast's machines in place. Whatever state they were left in —
//! and whatever root or numbering they ran under — the rebuilt set must
//! behave exactly like a fresh one: same message trace under a
//! deterministic FIFO pump, for every correction kind.

use std::any::Any;
use std::collections::VecDeque;

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::gossip::{GossipProcess, GossipSpec};
use corrected_trees::core::protocol::{
    AckTreeProcess, BroadcastSpec, BuildCtx, CorrectedTreeProcess, Payload, Placed, Population,
    Process, ProtocolFactory, SendPoll,
};
use corrected_trees::core::tree::{Ordering, TreeKind};
use corrected_trees::logp::{LogP, Rank, Time};
use corrected_trees::sim::FaultPlan;
use ct_testkit::boxes::Boxes;

const P: u32 = 64;

fn ctx(seed: u64) -> BuildCtx {
    BuildCtx {
        p: P,
        logp: LogP::PAPER,
        seed,
    }
}

enum Item {
    Poll(Rank),
    Deliver {
        to: Rank,
        from: Rank,
        payload: Payload,
    },
}

/// Drive `procs` with one global FIFO of polls and deliveries (time
/// jumps to the earliest parked `WaitUntil` when nothing is in flight);
/// returns every send as `(now, from, to, payload)` plus the coloring.
#[allow(clippy::type_complexity)]
fn pump(
    procs: &mut dyn Population,
    dead: &[bool],
) -> (Vec<(Time, Rank, Rank, Payload)>, Vec<Option<Time>>) {
    let mut now = Time::ZERO;
    let ranks = 0..procs.len() as Rank;
    let mut queue: VecDeque<Item> = ranks
        .clone()
        .filter(|&r| !dead[r as usize])
        .map(Item::Poll)
        .collect();
    let mut parked: Vec<(Time, Rank)> = Vec::new();
    let mut trace = Vec::new();
    loop {
        match queue.pop_front() {
            Some(Item::Poll(r)) => match procs.poll_send(r, now) {
                SendPoll::Now { to, payload } => {
                    trace.push((now, r, to, payload));
                    if !dead[to as usize] {
                        let from = r;
                        queue.push_back(Item::Deliver { to, from, payload });
                    }
                    queue.push_back(Item::Poll(r));
                }
                SendPoll::WaitUntil(t) => parked.push((t, r)),
                SendPoll::Idle | SendPoll::Done => {}
            },
            Some(Item::Deliver { to, from, payload }) => {
                procs.on_message(to, from, payload, now);
                queue.push_back(Item::Poll(to));
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
                }
                None => break,
            },
        }
    }
    (trace, ranks.map(|r| procs.colored_at(r)).collect())
}

fn kinds() -> Vec<CorrectionKind> {
    vec![
        CorrectionKind::None,
        CorrectionKind::Opportunistic { distance: 2 },
        CorrectionKind::OpportunisticOptimized { distance: 4 },
        CorrectionKind::Checked,
        CorrectionKind::checked_paced(&LogP::PAPER, 50),
        CorrectionKind::FailureProof,
        CorrectionKind::Delayed { delay: 6 },
    ]
}

fn specs() -> Vec<BroadcastSpec> {
    kinds()
        .into_iter()
        .flat_map(|kind| {
            // Linear, rotated and shuffled numberings hand their slots
            // to one another.
            [
                BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, kind),
                BroadcastSpec::corrected_tree_sync(TreeKind::LAME2, kind).with_root(19),
                BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, kind).with_shuffle(0xBEEF),
                BroadcastSpec::corrected_tree_sync(TreeKind::LAME2, kind),
            ]
        })
        .collect()
}

/// Addresses of the boxed machines: equal before and after a
/// `build_into` means the slots were reused, not reallocated.
fn addresses(procs: &[Box<dyn Process>]) -> Vec<*const ()> {
    procs
        .iter()
        .map(|b| &**b as *const dyn Process as *const ())
        .collect()
}

#[test]
fn build_into_over_dirty_machines_matches_a_fresh_build_for_every_correction() {
    let dirtying = FaultPlan::from_ranks(P, &[1, 2, 33, 34, 35]).unwrap();
    let plans = [
        FaultPlan::none(P),
        FaultPlan::from_ranks(P, &[5, 17, 40]).unwrap(),
    ];
    let specs = specs();
    for (i, spec) in specs.iter().enumerate() {
        // Dirty the slots with a *different* spec's broadcast (the one
        // before it in the list), under faults so that machines are left
        // in every kind of state: uncolored, correction-colored,
        // mid-correction, done.
        let previous = &specs[(i + specs.len() - 1) % specs.len()];
        let mut procs = Boxes::build(previous, &ctx(0));
        pump(&mut procs, dirtying.mask());
        for (j, plan) in plans.iter().enumerate() {
            let before = addresses(&procs.0);
            spec.build_into(&ctx(j as u64), &mut procs.0).unwrap();
            assert_eq!(addresses(&procs.0), before, "{spec}: slots reallocated");
            let reused = pump(&mut procs, plan.mask());
            let mut fresh = Boxes::build(spec, &ctx(j as u64));
            assert_eq!(reused, pump(&mut fresh, plan.mask()), "{spec} plan {j}");
            assert!(!reused.0.is_empty());
        }
    }
}

/// Place every rank of `factory`'s broadcast over the machine `procs`
/// held for it, as the cluster's ranks do one at a time.
fn place_each(factory: &dyn ProtocolFactory, ctx: &BuildCtx, procs: Boxes) -> Boxes {
    let plan = factory.blueprint(ctx).unwrap();
    Boxes(
        (0..)
            .zip(procs.0)
            .map(|(r, old)| plan.place(r, Some(old)))
            .collect(),
    )
}

#[test]
fn placing_over_a_dirty_machine_replays_a_fresh_build_for_every_correction() {
    let dirtying = FaultPlan::from_ranks(P, &[1, 2, 33, 34, 35]).unwrap();
    let plan = FaultPlan::from_ranks(P, &[5, 17, 40]).unwrap();
    let specs = specs();
    for (i, spec) in specs.iter().enumerate() {
        // Left dirty by a different spec's broadcast, as in the test
        // above: whatever root, numbering and correction it ran under.
        let previous = &specs[(i + 1) % specs.len()];
        let mut procs = Boxes::build(previous, &ctx(0));
        pump(&mut procs, dirtying.mask());
        let before = addresses(&procs.0);
        let mut placed = place_each(spec, &ctx(7), procs);
        assert_eq!(
            addresses(&placed.0),
            before,
            "{spec}: a machine was rebuilt"
        );
        let mut fresh = Boxes::build(spec, &ctx(7));
        let replayed = pump(&mut placed, plan.mask());
        assert_eq!(replayed, pump(&mut fresh, plan.mask()), "{spec}");
        assert!(!replayed.0.is_empty());
    }
}

/// What a placed machine is: an ack-tree, a gossip or a corrected-tree
/// rank.
fn machine_kind(m: &dyn Process) -> &'static str {
    let any: &dyn Any = m;
    if any.is::<Placed<AckTreeProcess>>() {
        "ack tree"
    } else if any.is::<Placed<GossipProcess>>() {
        "gossip"
    } else if any.is::<Placed<CorrectedTreeProcess>>() {
        "corrected tree"
    } else {
        "other"
    }
}

#[test]
fn placing_over_a_foreign_machine_replaces_it() {
    let checked = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
    let gossip = GossipSpec::round_limited(8, CorrectionKind::Checked);
    let acked = BroadcastSpec::ack_tree(TreeKind::BINOMIAL).with_root(19);
    let plan = FaultPlan::from_ranks(P, &[9, 10]).unwrap();
    // Each protocol's machines under the others'.
    let steps: [(&dyn ProtocolFactory, &dyn ProtocolFactory, &str); 4] = [
        (&gossip, &checked, "corrected tree"),
        (&acked, &checked, "corrected tree"),
        (&checked, &acked, "ack tree"),
        (&acked, &gossip, "gossip"),
    ];
    for (previous, next, kind) in steps {
        let label = format!("{} → {}", previous.label(), next.label());
        let mut procs = Boxes::build(previous, &ctx(1));
        pump(&mut procs, plan.mask());
        assert!(
            procs.0.iter().all(|m| machine_kind(&**m) != kind),
            "{label}"
        );
        let mut placed = place_each(next, &ctx(2), procs);
        assert!(
            placed.0.iter().all(|m| machine_kind(&**m) == kind),
            "{label}"
        );
        let mut fresh = Boxes::build(next, &ctx(2));
        let replayed = pump(&mut placed, plan.mask());
        assert_eq!(replayed, pump(&mut fresh, plan.mask()), "{label}");
    }
}

#[test]
fn build_into_falls_back_to_build_when_slots_cannot_be_reused() {
    let checked = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
    let plan = FaultPlan::from_ranks(P, &[9, 10]).unwrap();
    let fallbacks = [
        BroadcastSpec::ack_tree(TreeKind::BINOMIAL),
        BroadcastSpec::ack_tree(TreeKind::BINOMIAL).with_root(19),
    ];
    for spec in &fallbacks {
        // From corrected-tree machines to an acked set and back.
        let mut procs = Boxes::build(&checked, &ctx(1));
        pump(&mut procs, plan.mask());
        spec.build_into(&ctx(2), &mut procs.0).unwrap();
        let mut fresh = Boxes::build(spec, &ctx(2));
        let dead = vec![false; P as usize];
        assert_eq!(pump(&mut procs, &dead), pump(&mut fresh, &dead), "{spec}");

        checked.build_into(&ctx(3), &mut procs.0).unwrap();
        let mut fresh = Boxes::build(&checked, &ctx(3));
        assert_eq!(
            pump(&mut procs, plan.mask()),
            pump(&mut fresh, plan.mask()),
            "{spec} → checked"
        );
    }

    // A vector of the wrong length is rebuilt, an invalid spec empties it.
    let Boxes(mut procs) = Boxes::build(&checked, &BuildCtx { p: 16, ..ctx(0) });
    checked.build_into(&ctx(0), &mut procs).unwrap();
    assert_eq!(procs.len(), P as usize);
    assert!(checked
        .with_root(P)
        .build_into(&ctx(0), &mut procs)
        .is_err());
    assert!(procs.is_empty());
    // ... on the in-place path too (P reusable machines, unbuildable tree).
    let Boxes(mut procs) = Boxes::build(&checked, &ctx(0));
    let zero_ary = BroadcastSpec::plain_tree(TreeKind::Kary {
        k: 0,
        order: Ordering::Interleaved,
    });
    assert!(zero_ary.build_into(&ctx(0), &mut procs).is_err());
    assert!(procs.is_empty());
}

/// Address of the store a population slot holds.
fn store(slot: &Option<Box<dyn Population>>) -> *const () {
    slot.as_deref().expect("populated") as *const dyn Population as *const ()
}

#[test]
fn a_population_slot_handed_from_spec_to_spec_equals_a_fresh_one_at_every_step() {
    // The by-value element is the bare per-rank machine: no relabeling
    // and no copy of the broadcast's shared part per rank. (Gossip's
    // machine was 128 bytes with its own `P` and spec, and is 96
    // without; the cluster's corrected-tree box, machine plus both
    // copies, is 120 bytes.)
    let element = std::mem::size_of::<CorrectedTreeProcess>();
    assert!(element <= 64, "by-value element is {element} bytes");
    let element = std::mem::size_of::<GossipProcess>();
    assert!(element <= 96, "by-value gossip element is {element} bytes");
    let placed = std::mem::size_of::<Placed<CorrectedTreeProcess>>();
    assert!(placed <= 120, "the cluster's tree box is {placed} bytes");

    let plain = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
    let failure_proof =
        BroadcastSpec::corrected_tree_sync(TreeKind::LAME2, CorrectionKind::FailureProof);
    let acked = BroadcastSpec::ack_tree(TreeKind::BINOMIAL);
    // Round-limited: the pump holds time still while messages fly.
    let gossip = GossipSpec::round_limited(8, CorrectionKind::Checked);
    // (factory, P, does it rewind the store the previous step left?)
    let steps: [(&dyn ProtocolFactory, u32, bool); 12] = [
        (&plain, P, false),
        (&plain.with_root(19), P, true),
        (&plain.with_shuffle(0xBEEF), P, true),
        (&failure_proof, P, true),
        (&failure_proof, 48, true),
        (&plain, 80, true),
        // Another protocol's machines replace the store ...
        (&gossip, 80, false),
        // ... which rewinds for that protocol alone.
        (&gossip, P, true),
        (&plain, P, false),
        (&acked.with_root(19), P, false),
        (&acked.with_shuffle(0xBEEF), 48, true),
        (&gossip, P, false),
    ];
    let mut slot: Option<Box<dyn Population>> = None;
    for (i, &(factory, p, rewinds)) in steps.iter().enumerate() {
        let ctx = BuildCtx { p, ..ctx(i as u64) };
        let dead = FaultPlan::from_ranks(p, &[1, 2, 33, 34, 35]).unwrap();
        let label = factory.label();

        let before = slot.as_ref().map(|_| store(&slot));
        factory.populate(&ctx, &mut slot).unwrap();
        let reused = before == Some(store(&slot));
        assert_eq!(reused, rewinds, "step {i} ({label}, P={p})");

        let mut fresh = None;
        factory.populate(&ctx, &mut fresh).unwrap();
        // The pump leaves the slot dirty for the next step: machines
        // uncolored, correction-colored, mid-correction and done.
        let handed_on = pump(slot.as_deref_mut().unwrap(), dead.mask());
        assert_eq!(
            handed_on,
            pump(fresh.as_deref_mut().unwrap(), dead.mask()),
            "step {i} ({label}, P={p})"
        );
        assert!(handed_on.0.len() >= p as usize - 1);
    }

    // A spec that does not build leaves nothing of its own to run.
    assert!(plain.with_root(P).populate(&ctx(0), &mut slot).is_err());
    plain.populate(&ctx(0), &mut slot).unwrap();
    let mut fresh = Boxes::build(&plain, &ctx(0));
    let dead = vec![false; P as usize];
    assert_eq!(
        pump(slot.as_deref_mut().unwrap(), &dead),
        pump(&mut fresh, &dead)
    );
}
