//! The engines' two stores of one broadcast, driven side by side: the
//! boxes the cluster places and the machines the simulator holds by
//! value must answer every call alike.

use std::collections::VecDeque;
use std::fmt::Debug;

use ct_core::protocol::{Payload, Population, SendPoll};
use ct_logp::{Rank, Time};

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
/// require the same answer from both at every step. `case` names the
/// broadcast in failures. Returns the number of sends.
pub fn lockstep(
    case: &dyn Debug,
    boxed: &mut dyn Population,
    by_value: &mut dyn Population,
    dead: &[bool],
) -> usize {
    let p = dead.len();
    assert_eq!(boxed.len(), p, "{case:?}");
    assert_eq!(by_value.len(), p, "{case:?}");
    let coloring = |pop: &dyn Population, r| (pop.colored_at(r), pop.colored_via(r));
    let mut now = Time::ZERO;
    let mut queue: VecDeque<Item> = (0..p as Rank)
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
    for r in 0..p as Rank {
        assert_eq!(coloring(by_value, r), coloring(boxed, r), "{case:?}: {r}");
    }
    sends
}
