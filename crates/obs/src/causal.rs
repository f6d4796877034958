//! One causal index per trace.
//!
//! The §2.1 reliability and no-duplicates checks and §4's
//! dissemination-vs-correction split ask an event stream the same
//! questions: which send did this arrival consume, which arrival did
//! this delivery process, which event first colored each rank.
//! [`CausalIndex`] answers them in one pass; the invariant monitor, the
//! critical path, the chrome export and forensics read it instead of
//! matching for themselves.
//!
//! ## Causal order
//!
//! Cluster workers buffer events independently, so two causally
//! ordered events stamped in the same microsecond (a send and its
//! arrival, an arrival and its delivery) can surface in either order.
//! [`causal_order`] sorts by `(time, `[`EventKind::order_class`]`,
//! emission index)`: causes precede effects at equal timestamps, and
//! ties keep emission order, so each rank's own stream stays intact.
//! The cluster's pub/sub layer emits every recorded broadcast in this
//! order.
//!
//! ## Matching
//!
//! Walking the causal order, a wire event (`Arrive` or `DropDead`)
//! consumes the oldest unconsumed send on its `(broadcast, from, to)`
//! channel and a `Deliver` the oldest unconsumed `Arrive`, whatever
//! their payloads: the monitor judges payload and timing mismatches,
//! the index only records who consumed whom. Unlabeled events share
//! broadcast 0. Where per-channel FIFO holds (simulator links, and the
//! cluster's per-sender mailboxes) this is the exact pairing.
//!
//! ## Layout
//!
//! Per-rank facts — first coloring, first coloring delivery, first
//! tree delivery, drop target — live in dense arrays of `P` cells per
//! broadcast present, with `P` from [`infer_p`]; a channel has queues
//! only once it carries traffic. Memory is O(B·P + events) for B
//! broadcasts.

use std::collections::{HashMap, VecDeque};

use ct_core::protocol::Payload;
use ct_logp::Rank;

use crate::event::{Event, EventKind};

/// Bits of a packed sort key below the order class: the event index.
const CLASS_SHIFT: u32 = 56;

/// Event indices in causal order: a stable sort by `(time, order
/// class)`. The sort moves 16-byte `(time, class|index)` keys, not the
/// events; the index completes the key, so an unstable sort of the keys
/// is the stable sort of the events.
pub fn causal_order(events: &[Event]) -> Vec<usize> {
    let class = |e: &Event| u64::from(e.kind.order_class()) << CLASS_SHIFT;
    let mut keys: Vec<(u64, u64)> = events
        .iter()
        .zip(0u64..)
        .map(|(e, i)| (e.time.steps(), class(e) | i))
        .collect();
    keys.sort_unstable();
    let index = (1u64 << CLASS_SHIFT) - 1;
    keys.iter().map(|&(_, k)| (k & index) as usize).collect()
}

/// The most processes a trace may imply: 2^24, 16× the 2^20 ranks the
/// simulator's scale figure reaches. Readers size per-rank arrays by
/// the implied count, so a rank past it is refused, not allocated for.
pub const MAX_P: u32 = 1 << 24;

/// The process count a trace implies: one past the highest rank any
/// event names (0 for a trace that names none). A trace that implies
/// more than [`MAX_P`] processes is an error naming the rank.
pub fn infer_p(events: &[Event]) -> Result<u32, String> {
    let highest = events.iter().fold(None, |m, e| match &e.kind {
        EventKind::SendStart { from, to, .. }
        | EventKind::Arrive { from, to, .. }
        | EventKind::Deliver { from, to, .. }
        | EventKind::DropDead { from, to, .. } => m.max(Some(*from.max(to))),
        EventKind::Colored { rank, .. } => m.max(Some(*rank)),
        _ => m,
    });
    match highest {
        None => Ok(0),
        Some(r) if r >= MAX_P => Err(format!(
            "rank {r} implies more than {MAX_P} processes: ranks must be below {MAX_P}"
        )),
        Some(r) => Ok(r + 1),
    }
}

/// One channel's unconsumed sends and undelivered arrivals.
#[derive(Default)]
struct Channel {
    sends: VecDeque<u32>,
    arrivals: VecDeque<u32>,
}

/// The causal facts of one trace (see the module docs).
#[derive(Clone, Debug)]
pub struct CausalIndex {
    order: Vec<usize>,
    /// Per event, `index + 1` of the event it consumed (0: none).
    cause: Vec<u32>,
    p: u32,
    bcasts: Vec<u64>,
    /// Per (broadcast, rank) cell, `index + 1` of the first `Colored`,
    /// first coloring `Deliver` and first tree `Deliver` (0: none).
    firsts: Vec<[u32; 3]>,
    drop_target: Vec<bool>,
    stranded: Vec<(usize, usize)>,
}

/// Positions in a cell's `firsts`.
const COLORED: usize = 0;
const COLORING: usize = 1;
const TREE: usize = 2;

fn link(i: u32) -> Option<usize> {
    i.checked_sub(1).map(|i| i as usize)
}

/// Record `link` in an empty `first` when `when` holds.
fn record(first: &mut u32, when: bool, link: u32) {
    if when && *first == 0 {
        *first = link;
    }
}

impl CausalIndex {
    /// Index `events` in one causal pass. A trace [`infer_p`] rejects
    /// still gets its matches, but no per-rank facts.
    pub fn build(events: &[Event]) -> CausalIndex {
        assert!(events.len() < u32::MAX as usize, "trace too long to index");
        let p = infer_p(events).unwrap_or(0);
        let mut bcasts: Vec<u64> = events
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::PhaseBegin(_) | EventKind::PhaseEnd(_)))
            .map(|e| e.bcast().unwrap_or(0))
            .collect();
        bcasts.sort_unstable();
        bcasts.dedup();
        let cells = bcasts.len() * p as usize;
        let mut idx = CausalIndex {
            order: causal_order(events),
            cause: vec![0; events.len()],
            p,
            bcasts,
            firsts: vec![[0; 3]; cells],
            drop_target: vec![false; p as usize],
            stranded: Vec::new(),
        };
        let mut channels: HashMap<(usize, Rank, Rank), Channel> = HashMap::new();
        for &i in &idx.order {
            let e = &events[i];
            let b = e.bcast().unwrap_or(0);
            let slot = idx.bcasts.binary_search(&b).unwrap_or(0);
            let link = i as u32 + 1;
            match &e.kind {
                EventKind::SendStart { from, to, .. } => {
                    let c = channels.entry((slot, *from, *to)).or_default();
                    c.sends.push_back(link);
                }
                EventKind::Arrive { from, to, .. } => {
                    let c = channels.entry((slot, *from, *to)).or_default();
                    idx.cause[i] = c.sends.pop_front().unwrap_or(0);
                    c.arrivals.push_back(link);
                }
                EventKind::DropDead { from, to, .. } => {
                    if let Some(c) = channels.get_mut(&(slot, *from, *to)) {
                        idx.cause[i] = c.sends.pop_front().unwrap_or(0);
                    }
                    if let Some(d) = idx.drop_target.get_mut(*to as usize) {
                        *d = true;
                    }
                }
                EventKind::Deliver { from, to, payload } => {
                    if let Some(c) = channels.get_mut(&(slot, *from, *to)) {
                        idx.cause[i] = c.arrivals.pop_front().unwrap_or(0);
                    }
                    if let Some(cell) = idx.cell(b, *to) {
                        let firsts = &mut idx.firsts[cell];
                        record(&mut firsts[COLORING], payload.colors(), link);
                        record(&mut firsts[TREE], *payload == Payload::Tree, link);
                    }
                }
                EventKind::Colored { rank, .. } => {
                    if let Some(cell) = idx.cell(b, *rank) {
                        record(&mut idx.firsts[cell][COLORED], true, link);
                    }
                }
                EventKind::PhaseBegin(_) | EventKind::PhaseEnd(_) => {}
            }
        }
        let mut stranded: Vec<_> = channels
            .into_iter()
            .filter_map(|(key, c)| Some((key, *c.sends.front()? as usize - 1, c.sends.len())))
            .collect();
        stranded.sort_unstable();
        idx.stranded = stranded.into_iter().map(|(_, i, n)| (i, n)).collect();
        idx
    }

    /// Event indices in causal order ([`causal_order`]).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The event event `i` consumed: an arrival's or drop's send, a
    /// delivery's arrival. `None` for sends, colorings and spans, and
    /// for a wire event or delivery its channel had nothing for.
    pub fn cause(&self, i: usize) -> Option<usize> {
        link(self.cause[i])
    }

    /// The process count the trace implies ([`infer_p`]; 0 when it
    /// implies none).
    pub fn p(&self) -> u32 {
        self.p
    }

    /// The broadcast ids of the trace's protocol events, ascending
    /// (unlabeled events count as broadcast 0).
    pub fn bcasts(&self) -> &[u64] {
        &self.bcasts
    }

    /// The dense cell of `rank` in broadcast `b`, if the trace has one.
    fn cell(&self, b: u64, rank: Rank) -> Option<usize> {
        let slot = self.bcasts.binary_search(&b).ok()?;
        (rank < self.p).then(|| slot * self.p as usize + rank as usize)
    }

    fn first(&self, b: u64, rank: Rank, which: usize) -> Option<usize> {
        link(self.firsts[self.cell(b, rank)?][which])
    }

    /// The first `Colored` event of `rank` in broadcast `b`.
    pub fn first_colored(&self, b: u64, rank: Rank) -> Option<usize> {
        self.first(b, rank, COLORED)
    }

    /// The first coloring `Deliver` at `rank` in broadcast `b`: its
    /// sender is the rank's rescuer.
    pub fn first_coloring(&self, b: u64, rank: Rank) -> Option<usize> {
        self.first(b, rank, COLORING)
    }

    /// The first `Deliver` of the tree payload at `rank` in broadcast
    /// `b`.
    pub fn first_tree_delivery(&self, b: u64, rank: Rank) -> Option<usize> {
        self.first(b, rank, TREE)
    }

    /// Does some `DropDead` target `rank`? A fail-stop trace names its
    /// dead ranks this way.
    pub fn is_drop_target(&self, rank: Rank) -> bool {
        self.drop_target
            .get(rank as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Channels left with unconsumed sends, in `(broadcast, from, to)`
    /// order: each channel's oldest such send and how many there are.
    pub fn stranded_sends(&self) -> &[(usize, usize)] {
        &self.stranded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::protocol::ColoredVia;
    use ct_logp::Time;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::sim(Time::new(t), kind)
    }

    fn send(t: u64, from: Rank, to: Rank, payload: Payload) -> Event {
        ev(t, EventKind::SendStart { from, to, payload })
    }

    fn arrive(t: u64, from: Rank, to: Rank, payload: Payload) -> Event {
        ev(t, EventKind::Arrive { from, to, payload })
    }

    fn deliver(t: u64, from: Rank, to: Rank, payload: Payload) -> Event {
        ev(t, EventKind::Deliver { from, to, payload })
    }

    #[test]
    fn equal_stamps_sort_causes_first_and_keep_emission_order() {
        let pl = Payload::Tree;
        let events = vec![
            deliver(7, 0, 1, pl),
            arrive(7, 0, 1, pl),
            send(7, 0, 1, pl),
            send(7, 0, 2, pl),
            send(3, 1, 2, pl),
        ];
        assert_eq!(causal_order(&events), vec![4, 2, 3, 1, 0]);
        let idx = CausalIndex::build(&events);
        assert_eq!(idx.cause(1), Some(2));
        assert_eq!(idx.cause(0), Some(1));
        assert_eq!(idx.cause(2), None);
    }

    #[test]
    fn channels_match_fifo_whatever_the_payload() {
        let events = vec![
            send(0, 0, 1, Payload::Tree),
            send(1, 0, 1, Payload::Correction),
            arrive(3, 0, 1, Payload::Correction),
            arrive(4, 0, 1, Payload::Tree),
            deliver(5, 0, 1, Payload::Tree),
            send(6, 0, 1, Payload::Ack),
        ];
        let idx = CausalIndex::build(&events);
        assert_eq!(idx.cause(2), Some(0));
        assert_eq!(idx.cause(3), Some(1));
        assert_eq!(idx.cause(4), Some(2));
        assert_eq!(idx.stranded_sends(), &[(5, 1)]);
    }

    #[test]
    fn broadcasts_have_their_own_channels_and_cells() {
        let pl = Payload::Tree;
        let events = vec![
            send(0, 0, 1, pl).with_bcast(7),
            arrive(3, 0, 1, pl).with_bcast(2),
            deliver(4, 0, 1, pl).with_bcast(2),
            ev(
                4,
                EventKind::Colored {
                    rank: 1,
                    via: ColoredVia::Dissemination,
                },
            )
            .with_bcast(7),
        ];
        let idx = CausalIndex::build(&events);
        assert_eq!(idx.bcasts(), &[2, 7]);
        assert_eq!(idx.cause(1), None);
        assert_eq!(idx.cause(2), Some(1));
        assert_eq!(idx.first_colored(7, 1), Some(3));
        assert_eq!(idx.first_colored(2, 1), None);
        assert_eq!(idx.first_coloring(2, 1), Some(2));
        assert_eq!(idx.first_tree_delivery(2, 1), Some(2));
        assert_eq!(idx.stranded_sends(), &[(0, 1)]);
    }

    #[test]
    fn first_coloring_skips_acks_and_drops_name_their_targets() {
        let events = vec![
            deliver(4, 2, 1, Payload::Ack),
            deliver(5, 0, 1, Payload::Correction),
            deliver(6, 3, 1, Payload::Tree),
            ev(
                7,
                EventKind::DropDead {
                    from: 0,
                    to: 3,
                    payload: Payload::Tree,
                },
            ),
        ];
        let idx = CausalIndex::build(&events);
        assert_eq!(idx.first_coloring(0, 1), Some(1));
        assert!(idx.is_drop_target(3));
        assert!(!idx.is_drop_target(1));
        assert!(!idx.is_drop_target(99));
    }

    #[test]
    fn infer_p_is_one_past_the_highest_rank_and_rejects_the_last_rank() {
        assert_eq!(infer_p(&[]), Ok(0));
        assert_eq!(infer_p(&[send(0, 0, 5, Payload::Tree)]), Ok(6));
        let last = send(0, 0, MAX_P - 1, Payload::Tree);
        assert_eq!(infer_p(&[last]), Ok(MAX_P));
        let err = infer_p(&[send(0, MAX_P, 0, Payload::Tree)]).unwrap_err();
        assert!(err.contains(&format!("rank {MAX_P}")), "{err}");
        let wide = [ev(
            0,
            EventKind::Colored {
                rank: Rank::MAX,
                via: ColoredVia::Root,
            },
        )];
        let err = infer_p(&wide).unwrap_err();
        assert!(err.contains("rank 4294967295"), "{err}");
        // Its index still matches, with no per-rank cells to index.
        let idx = CausalIndex::build(&wide);
        assert_eq!(idx.p(), 0);
        assert_eq!(idx.first_colored(0, Rank::MAX), None);
    }
}
