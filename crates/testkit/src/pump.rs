//! The allocation contract's driver: a deterministic FIFO pump whose
//! own buffers are reused from lap to lap, and the laps themselves. A
//! test binary that runs the laps installs
//! [`Counting`](crate::counting_alloc::Counting) as its global
//! allocator.

use std::collections::VecDeque;

use ct_core::protocol::{BuildCtx, Payload, Population, ProtocolFactory, SendPoll};
use ct_logp::{LogP, Rank, Time};

use crate::boxes::Boxes;
use crate::counting_alloc::allocations;

enum Item {
    Poll(Rank),
    Deliver {
        to: Rank,
        from: Rank,
        payload: Payload,
    },
}

/// A deterministic FIFO driver whose own buffers are reused from lap
/// to lap.
#[derive(Default)]
pub struct Pump {
    queue: VecDeque<Item>,
    parked: Vec<(Time, Rank)>,
}

impl Pump {
    /// Run `procs` to quiescence with the ranks `dead` marks crashed;
    /// returns the number of messages sent.
    pub fn run(&mut self, procs: &mut dyn Population, dead: &[bool]) -> u64 {
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

/// Three laps over `rows` at `p` ranks, `dead` crashed: each row is
/// re-initialised in both forms of the slots — boxes through
/// `build_into`, the by-value population through `populate` — and run
/// to quiescence, sending at least `p − 1` messages and coloring every
/// live rank. From the second lap on, a row allocates at most the
/// count it allows for the boxes and for the population.
pub fn assert_laps(p: u32, rows: &[(&dyn ProtocolFactory, [u64; 2])], dead: &[bool]) {
    let live = dead.iter().filter(|&&d| !d).count();
    let ctx = |seed| BuildCtx {
        p,
        logp: LogP::PAPER,
        seed,
    };
    let mut boxed = Boxes(Vec::new());
    let mut slot: Option<Box<dyn Population>> = None;
    let mut pump = Pump::default();
    for lap in 0..3u64 {
        for (i, (factory, allowed)) in rows.iter().enumerate() {
            let label = factory.label();
            for (form, allowed) in ["boxes", "by value"].into_iter().zip(allowed) {
                let before = allocations();
                let procs: &mut dyn Population = match form {
                    "boxes" => {
                        factory.build_into(&ctx(lap), &mut boxed.0).unwrap();
                        &mut boxed
                    }
                    _ => {
                        factory.populate(&ctx(lap), &mut slot).unwrap();
                        slot.as_deref_mut().expect("populated")
                    }
                };
                let sent = pump.run(procs, dead);
                let allocated = allocations() - before;
                assert!(sent >= u64::from(p) - 1, "{label}: {sent} messages");
                let colored = (0..p).filter(|&r| procs.colored_at(r).is_some()).count();
                assert_eq!(colored, live, "{label}: healed");
                // The first lap builds the slots and grows the buffers.
                if lap > 0 {
                    assert!(
                        allocated <= *allowed,
                        "P={p} lap {lap} row {i} ({label}, {form}): {allocated} allocations"
                    );
                } else if i == 0 {
                    assert!(
                        allocated > 0,
                        "{label}, {form}: `Counting` is not installed"
                    );
                }
            }
        }
    }
}
