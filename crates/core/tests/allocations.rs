//! The allocation contract of admission and the protocol machines.
//!
//! Once a set of slots exists, re-initialising it for the next
//! broadcast — boxes through `BroadcastSpec::build_into` or one rank at
//! a time through its blueprint's `place`, as the cluster's ranks do,
//! or the simulator's by-value population through
//! `BroadcastSpec::populate` — and running a checked or failure-proof
//! corrected-tree broadcast on it to quiescence — crash faults and the
//! correction that heals them included — allocates nothing when the
//! numbering is linear or rotated, and only the two tables of the new
//! numbering when it is shuffled, whichever of the three the slots ran
//! under before.
//!
//! Heap allocations are counted by the per-thread `#[global_allocator]`
//! of `support/counting_alloc.rs` (CI runs this file with
//! `--test-threads=1` all the same).

use std::collections::VecDeque;

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{
    BroadcastSpec, BuildCtx, Payload, Population, Process, ProtocolFactory, SendPoll,
};
use ct_core::tree::TreeKind;
use ct_logp::{LogP, Rank, Time};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

enum Item {
    Poll(Rank),
    Deliver {
        to: Rank,
        from: Rank,
        payload: Payload,
    },
}

/// A deterministic FIFO driver whose own buffers are reused from lap
/// to lap. Returns the number of messages sent.
#[derive(Default)]
struct Pump {
    queue: VecDeque<Item>,
    parked: Vec<(Time, Rank)>,
}

impl Pump {
    fn run(&mut self, procs: &mut dyn Population, dead: &[bool]) -> u64 {
        let mut now = Time::ZERO;
        let mut sent = 0;
        let live = (0..procs.len() as Rank).filter(|&r| !dead[r as usize]);
        self.queue.extend(live.map(Item::Poll));
        loop {
            match self.queue.pop_front() {
                Some(Item::Poll(r)) => match procs.poll_send(r, now) {
                    SendPoll::Now { to, payload } => {
                        sent += 1;
                        if !dead[to as usize] {
                            let from = r;
                            self.queue.push_back(Item::Deliver { to, from, payload });
                        }
                        self.queue.push_back(Item::Poll(r));
                    }
                    SendPoll::WaitUntil(t) => self.parked.push((t, r)),
                    SendPoll::Idle | SendPoll::Done => {}
                },
                Some(Item::Deliver { to, from, payload }) => {
                    procs.on_message(to, from, payload, now);
                    self.queue.push_back(Item::Poll(to));
                }
                None => match self.parked.iter().map(|&(t, _)| t).min() {
                    Some(next) => {
                        now = now.max(next);
                        let queue = &mut self.queue;
                        self.parked.retain(|&(t, r)| {
                            if t <= now {
                                queue.push_back(Item::Poll(r));
                            }
                            t > now
                        });
                    }
                    None => return sent,
                },
            }
        }
    }
}

#[test]
fn admission_and_a_checked_broadcast_allocate_nothing_once_the_slots_exist() {
    for p in [64u32, 256] {
        let checked = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let sync = BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let failure_proof =
            BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::FailureProof);
        // (spec, allocations allowed per lap)
        let specs = [
            (checked, 0),
            (checked.with_root(p / 3), 0),
            (sync.with_root(p - 1), 0),
            // The numbering's two tables and the `Arc` that shares them.
            (checked.with_shuffle(0xBEEF), 3),
            (sync, 0),
            // Ranks colored by correction acknowledge their probers into
            // reply queues that the first lap grew.
            (failure_proof, 0),
        ];
        // Crash faults in two blocks (never a root), so that correction
        // has gaps to heal and ranks end in every kind of state.
        let mut dead = vec![false; p as usize];
        for r in [1, 2, 3, p / 2, p / 2 + 1] {
            dead[r as usize] = true;
        }
        let ctx = |seed| BuildCtx {
            p,
            logp: LogP::PAPER,
            seed,
        };
        // Both forms of the slots, each re-initialised lap after lap.
        let mut boxed: Vec<Box<dyn Process>> = Vec::new();
        let mut slot: Option<Box<dyn Population>> = None;
        let mut pump = Pump::default();
        for lap in 0..3u64 {
            for (i, (spec, allowed)) in specs.iter().enumerate() {
                for by_value in [false, true] {
                    let before = allocations();
                    let procs: &mut dyn Population = if by_value {
                        spec.populate(&ctx(lap), &mut slot).unwrap();
                        slot.as_deref_mut().expect("populated")
                    } else {
                        spec.build_into(&ctx(lap), &mut boxed).unwrap();
                        &mut boxed
                    };
                    let sent = pump.run(procs, &dead);
                    let allocated = allocations() - before;
                    assert!(sent >= u64::from(p) - 1, "{spec}: {sent} messages");
                    let colored = (0..p).filter(|&r| procs.colored_at(r).is_some()).count();
                    assert_eq!(colored, p as usize - 5, "{spec}: healed");
                    // The first lap builds the slots and grows the buffers.
                    if lap > 0 {
                        assert!(
                            allocated <= *allowed,
                            "P={p} lap {lap} spec {i} ({spec}, by value: {by_value}): \
                             {allocated} allocations"
                        );
                    }
                }
            }
        }
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
    let mut dead = vec![false; p as usize];
    for r in [1, 2, 3, p / 2, p / 2 + 1] {
        dead[r as usize] = true;
    }
    // The cluster's form: every rank places its machine over the one it
    // held, from a blueprint resolved at admission, outside the count.
    let mut placed: Vec<Box<dyn Process>> = Vec::new();
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
            held.extend(placed.drain(..).rev());
            for rank in 0..p {
                placed.push(plan.place(rank, held.pop()));
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
