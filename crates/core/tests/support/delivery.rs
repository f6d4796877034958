//! Clock-free drivers that choose the delivery order themselves.
//!
//! The machines are sans-I/O, so a driver can choose which in-flight
//! message arrives next and which rank is polled. Neither driver here
//! has a clock: every call happens at [`Time::ZERO`], and a message to a
//! crashed rank is dropped. Both drive any [`Population`] a factory's
//! `populate` filled, so one driver serves every protocol.
//!
//! * [`uniform`]: every move is either "deliver the head of one
//!   non-empty per-channel FIFO" or "poll one rank that has a pending
//!   poll", drawn uniformly at random. It can reach any order a
//!   cluster's mailboxes may produce, not only the one LogP's timing
//!   does.
//! * [`burst`]: the cluster's own order. Every move picks a runnable
//!   rank at random, delivers everything queued in its mailbox (in
//!   arrival order), then polls it until it answers anything but a
//!   send, as a cluster quantum does (without the quantum's re-drain
//!   every 16 sends).

use std::collections::VecDeque;

use ct_core::protocol::{Payload, Population, SendPoll};
use ct_logp::{Rank, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run the broadcast in `procs` to quiescence in the uniform order
/// `seed` draws, the ranks `dead` marks crashed.
pub fn uniform(procs: &mut dyn Population, dead: &[bool], seed: u64) {
    let p = dead.len();
    // Channel `from * P + to`; `nonempty` lists the ones holding a message.
    let mut channels = vec![VecDeque::new(); p * p];
    let mut nonempty: Vec<usize> = Vec::new();
    let mut pending: Vec<Rank> = (0..p as Rank).filter(|&r| !dead[r as usize]).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    while !nonempty.is_empty() || !pending.is_empty() {
        let pick = rng.gen_range(0..nonempty.len() + pending.len());
        if let Some(&c) = nonempty.get(pick) {
            let payload = channels[c]
                .pop_front()
                .expect("listed channels hold a message");
            if channels[c].is_empty() {
                nonempty.swap_remove(pick);
            }
            let (from, to) = ((c / p) as Rank, (c % p) as Rank);
            procs.on_message(to, from, payload, Time::ZERO);
            if !pending.contains(&to) {
                pending.push(to);
            }
            continue;
        }
        let slot = pick - nonempty.len();
        let rank = pending[slot];
        match procs.poll_send(rank, Time::ZERO) {
            SendPoll::Now { to, .. } if dead[to as usize] => {}
            SendPoll::Now { to, payload } => {
                let c = rank as usize * p + to as usize;
                if channels[c].is_empty() {
                    nonempty.push(c);
                }
                channels[c].push_back(payload);
            }
            SendPoll::Idle | SendPoll::Done => {
                pending.swap_remove(slot);
            }
            SendPoll::WaitUntil(t) => panic!("rank {rank} waits for {t:?} without a clock"),
        }
    }
}

/// Run the broadcast in `procs` to quiescence in the burst order `seed`
/// draws, the ranks `dead` marks crashed.
pub fn burst(procs: &mut dyn Population, dead: &[bool], seed: u64) {
    let p = dead.len();
    let mut mailboxes: Vec<VecDeque<(Rank, Payload)>> = vec![VecDeque::new(); p];
    // A rank is runnable while it has mail or has not run yet.
    let mut runnable: Vec<Rank> = (0..p as Rank).filter(|&r| !dead[r as usize]).collect();
    let mut listed: Vec<bool> = dead.iter().map(|&d| !d).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    while !runnable.is_empty() {
        let rank = runnable.swap_remove(rng.gen_range(0..runnable.len()));
        listed[rank as usize] = false;
        while let Some((from, payload)) = mailboxes[rank as usize].pop_front() {
            procs.on_message(rank, from, payload, Time::ZERO);
        }
        loop {
            match procs.poll_send(rank, Time::ZERO) {
                SendPoll::Now { to, .. } if dead[to as usize] => {}
                SendPoll::Now { to, payload } => {
                    mailboxes[to as usize].push_back((rank, payload));
                    if !listed[to as usize] {
                        listed[to as usize] = true;
                        runnable.push(to);
                    }
                }
                SendPoll::Idle | SendPoll::Done => break,
                SendPoll::WaitUntil(t) => panic!("rank {rank} waits for {t:?} without a clock"),
            }
        }
    }
}

/// The live ranks `procs` left uncolored.
pub fn stranded(procs: &dyn Population, dead: &[bool]) -> Vec<Rank> {
    (0..dead.len() as Rank)
        .filter(|&r| !dead[r as usize] && procs.colored_via(r).is_none())
        .collect()
}
