//! Overlapped correction under an arbitrary FIFO delivery order.
//!
//! The machines are sans-I/O, so a driver can choose which in-flight
//! message arrives next and which rank is polled. This one has no
//! clock: every move is either "deliver the head of one non-empty
//! per-channel FIFO" or "poll one rank that has a pending poll", drawn
//! uniformly at random, and every call happens at [`Time::ZERO`]. It can
//! reach any order a cluster's mailboxes may produce, not only the one
//! LogP's timing does.
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

use std::collections::VecDeque;

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, BuildCtx, ColoredVia, Process, ProtocolFactory, SendPoll};
use ct_core::tree::TreeKind;
use ct_logp::{LogP, Rank, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The plan of the rotated-root cluster broadcast: P = 32, binomial
/// tree rooted at physical 19, physical rank 0 dead.
const P: u32 = 32;
const ROOT: Rank = 19;
const DEAD: Rank = 0;

/// Run one broadcast to quiescence in the order `seed` draws, and
/// return its machines.
fn drive(correction: CorrectionKind, seed: u64) -> Vec<Box<dyn Process>> {
    let spec = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, correction).with_root(ROOT);
    let ctx = BuildCtx {
        p: P,
        logp: LogP::PAPER,
        seed: 0,
    };
    let mut procs = spec.build(&ctx).expect("valid spec");
    let p = P as usize;
    // Channel `from * P + to`; `nonempty` lists the ones holding a message.
    let mut channels = vec![VecDeque::new(); p * p];
    let mut nonempty: Vec<usize> = Vec::new();
    let mut pending: Vec<Rank> = (0..P).filter(|&r| r != DEAD).collect();
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
            let (from, to) = ((c / p) as Rank, c % p);
            procs[to].on_message(from, payload, Time::ZERO);
            if !pending.contains(&(to as Rank)) {
                pending.push(to as Rank);
            }
            continue;
        }
        let slot = pick - nonempty.len();
        let rank = pending[slot];
        match procs[rank as usize].poll_send(Time::ZERO) {
            SendPoll::Now { to, .. } if to == DEAD => {}
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
            SendPoll::WaitUntil(t) => panic!("rank {rank} waits for {t:?} in overlapped mode"),
        }
    }
    procs
}

/// The live ranks `procs` left uncolored.
fn stranded(procs: &[Box<dyn Process>]) -> Vec<Rank> {
    (0..P)
        .filter(|&r| r != DEAD && procs[r as usize].colored_via().is_none())
        .collect()
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
        let procs = drive(correction, seed);
        // Physical 16 is a leaf whose only tree parent is the dead rank.
        assert_eq!(stranded(&procs), [16], "{correction:?}");
        for r in [14, 15, 17, 18] {
            let via = procs[r].colored_via();
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
        let procs = drive(CorrectionKind::Checked, seed);
        assert_eq!(stranded(&procs), [], "seed {seed}");
    }
}
