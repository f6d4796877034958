//! Critical-path extraction with per-segment LogP cost attribution.
//!
//! Each message event (send, arrive, deliver, drop) waited on the
//! events before it through the LogP happens-before constraints that
//! produced its timestamp, its in-edges:
//!
//! * **wire** — a send's message reaching its receiver (`o + L` later);
//! * **recv-port** — an arrival being processed into a delivery
//!   (`o` later when the port is free);
//! * **recv-queue** — the receive port finishing its previous delivery
//!   (queued arrivals are processed back-to-back, `o` apart);
//! * **send-port** — a rank's previous send releasing the sender port
//!   (`o` after it started);
//! * **trigger** — the latest delivery at a rank at or before one of
//!   its sends (protocol causality: what it reacted to).
//!
//! Wire and recv-port edges are the matches of the trace's
//! [`CausalIndex`] — the same pairing the invariant monitor checks —
//! kept only where the predecessor was emitted first, so every edge
//! points back in emission order. The other edges lead to the rank's
//! previous send and delivery in emission order: a send's trigger is
//! the delivery emitted just before it at the same timestamp, which the
//! causal order would place after the send. One forward walk keeps, per
//! event, only its binding edge: the one whose constraint was latest.
//!
//! Starting from the completion event, repeatedly follow the binding
//! edge back to the start of the run. Each hop contributes segments
//! classified as sender/receiver **overhead** (`o`), **wire** time
//! (`L`), or **idle** (waits: a synchronized correction start, a
//! `WaitUntil` repoll, sender-port slack). Segment lengths telescope,
//! so the path length equals the completion time exactly — that
//! identity is the analyzer's core invariant, property-tested against
//! the simulator in `tests/`.
//!
//! Each segment also carries the payload of the message chain it
//! belongs to, which yields the dissemination-phase vs
//! correction-phase attribution of the paper's §4 latency questions:
//! tree/gossip payloads disseminate, correction/ack payloads correct.

use ct_core::protocol::Payload;
use ct_logp::Rank;
use ct_obs::{CausalIndex, Event, EventKind};

/// What a critical-path segment's time was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostClass {
    /// Sender or receiver CPU overhead (`o`).
    Overhead,
    /// Wire latency (`L`).
    Wire,
    /// Waiting: synchronized starts, protocol delays, port slack.
    Idle,
}

impl CostClass {
    /// Short stable label (`o` / `L` / `idle`).
    pub fn label(self) -> &'static str {
        match self {
            CostClass::Overhead => "o",
            CostClass::Wire => "L",
            CostClass::Idle => "idle",
        }
    }
}

/// One contiguous span of the critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Segment start time.
    pub start: u64,
    /// Segment end time (`end ≥ start`).
    pub end: u64,
    /// What the time was spent on.
    pub class: CostClass,
    /// The rank where the time was spent.
    pub rank: Rank,
    /// The payload of the message chain this segment advances.
    pub payload: Payload,
}

impl Segment {
    /// Segment length.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Is the segment zero-length? (Zero-length segments are dropped
    /// during extraction; this exists for the usual is_empty pairing.)
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The extracted critical path of one repetition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Total path length — equals the run's completion time.
    pub len: u64,
    /// Steps attributed to send/receive overhead (`o`).
    pub o_steps: u64,
    /// Steps attributed to wire latency (`L`).
    pub l_steps: u64,
    /// Steps attributed to waiting.
    pub idle_steps: u64,
    /// Steps on dissemination-payload segments (tree/gossip).
    pub diss_steps: u64,
    /// Steps on correction-payload segments (correction/ack).
    pub corr_steps: u64,
    /// Message hops (wire edges) on the path.
    pub hops: u32,
    /// The path's segments in chronological order.
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// Extract the critical path of one repetition's events, already
    /// indexed, with `o` the LogP overhead of the producing run.
    pub fn extract(events: &[Event], index: &CausalIndex, o: u64) -> CriticalPath {
        let (binding, terminal) = bindings(events, index, o);
        let Some((terminal, completion)) = terminal else {
            return CriticalPath::default();
        };
        // Path events are message events: the terminal is a send or a
        // delivery, and every edge leads to a send, arrival or delivery.
        let at = |i: usize| {
            let e = &events[i];
            let (rank, payload) = site(e).expect("a message event");
            (e.time.steps(), rank, payload)
        };
        let mut segments: Vec<Segment> = Vec::new();
        let mut push = |start: u64, end: u64, class: CostClass, rank: Rank, payload: Payload| {
            debug_assert!(end >= start, "segments must not be negative");
            if start != end {
                segments.push(Segment {
                    start,
                    end,
                    class,
                    rank,
                    payload,
                });
            }
        };

        // A send's completion (its trailing `o`) can be what defines
        // quiescence; account for it before walking backward.
        if let EventKind::SendStart { from, payload, .. } = events[terminal].kind {
            let t = events[terminal].time.steps();
            push(t, t + o, CostClass::Overhead, from, payload);
        }

        let mut hops = 0u32;
        let mut cur = terminal;
        loop {
            let (hi, rank, payload) = at(cur);
            let Some((pred, kind)) = binding[cur] else {
                // Chain start. Any remaining time back to t = 0 is an
                // origin wait (e.g. a synchronized correction start).
                push(0, hi, CostClass::Idle, rank, payload);
                break;
            };
            let (lo, pred_rank, _) = at(pred);
            debug_assert!(lo <= hi, "predecessors precede their successors");
            let o_part = o.min(hi - lo);
            match kind {
                EdgeKind::Wire => {
                    // [send, send+o] is sender overhead, the rest wire
                    // time. Wall-clock traces may measure a transit
                    // shorter than o; credit what is there.
                    hops += 1;
                    push(lo + o_part, hi, CostClass::Wire, rank, payload);
                    push(lo, lo + o_part, CostClass::Overhead, pred_rank, payload);
                }
                EdgeKind::RecvPort | EdgeKind::RecvQueue => {
                    // The trailing o is receive processing; any excess
                    // (only possible in noisy wall-clock traces) is a
                    // port wait.
                    push(hi - o_part, hi, CostClass::Overhead, rank, payload);
                    push(lo, hi - o_part, CostClass::Idle, rank, payload);
                }
                EdgeKind::SendPort => {
                    // The port was busy o after the previous send; any
                    // further gap is protocol slack (WaitUntil).
                    push(lo + o_part, hi, CostClass::Idle, rank, payload);
                    push(lo, lo + o_part, CostClass::Overhead, pred_rank, payload);
                }
                EdgeKind::Trigger => {
                    // Pure wait between cause and reaction (usually 0).
                    push(lo, hi, CostClass::Idle, rank, payload);
                }
            }
            cur = pred;
        }

        segments.reverse();
        let mut path = CriticalPath {
            len: completion,
            hops,
            segments,
            ..CriticalPath::default()
        };
        for seg in &path.segments {
            let steps = seg.len();
            match seg.class {
                CostClass::Overhead => path.o_steps += steps,
                CostClass::Wire => path.l_steps += steps,
                CostClass::Idle => path.idle_steps += steps,
            }
            match seg.payload {
                Payload::Tree | Payload::Gossip { .. } => path.diss_steps += steps,
                Payload::Correction | Payload::Ack => path.corr_steps += steps,
            }
        }
        path
    }

    /// Does the cost attribution telescope to the path length? (True
    /// by construction; the property tests assert it per run.)
    pub fn attribution_is_exact(&self) -> bool {
        self.o_steps + self.l_steps + self.idle_steps == self.len
            && self.diss_steps + self.corr_steps == self.len
    }
}

/// Why one message event waited on another (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EdgeKind {
    /// Send → its arrival or drop (`o` overhead + `L` wire).
    Wire,
    /// Arrival → its delivery (`o` receive overhead).
    RecvPort,
    /// Previous delivery at the rank → this delivery (queue occupancy).
    RecvQueue,
    /// Previous send by the rank → this send (sender-port occupancy).
    SendPort,
    /// Latest delivery at the rank → a later send (protocol causality).
    Trigger,
}

/// An in-edge: `(predecessor event index, kind)`.
type Edge = (usize, EdgeKind);

/// The rank a message event happens at (the sender for a send, the
/// receiver otherwise) and its payload; `None` for colorings and spans.
fn site(e: &Event) -> Option<(Rank, Payload)> {
    match e.kind {
        EventKind::SendStart { from, payload, .. } => Some((from, payload)),
        EventKind::Arrive { to, payload, .. }
        | EventKind::DropDead { to, payload, .. }
        | EventKind::Deliver { to, payload, .. } => Some((to, payload)),
        _ => None,
    }
}

/// Per event, its binding in-edge: of the edges into it, the one whose
/// constraint (`pred time`, plus `o` for port and queue edges) is
/// latest, i.e. the one that determined its timestamp. Ties prefer the
/// message-causal edge (wire / recv-port / trigger) over resource
/// occupancy, which keeps attribution on the communication chain; on a
/// full tie the later edge wins. Also the terminal event with the
/// completion time: quiescence, the last delivery processing or send
/// completion (mirrors the engine's definition), `None` for a trace
/// with no send or delivery.
fn bindings(
    events: &[Event],
    index: &CausalIndex,
    o: u64,
) -> (Vec<Option<Edge>>, Option<(usize, u64)>) {
    // Per rank, 1 + the latest send / latest delivery seen so far
    // (0: none), zero-filled so a trace's stray high rank costs no
    // memory until it is touched.
    let mut last_send = vec![0u32; index.p() as usize];
    let mut last_deliver = vec![0u32; index.p() as usize];
    let prev =
        |last: &mut u32, i: usize| (std::mem::replace(last, i as u32 + 1) as usize).checked_sub(1);
    // The event `index` matched event `i` to, if emitted before it.
    let matched = |i: usize| index.cause(i).filter(|&c| c < i);
    let time = |i: usize| events[i].time.steps();
    let ready = |(p, kind): Edge| {
        let causal = matches!(
            kind,
            EdgeKind::Wire | EdgeKind::RecvPort | EdgeKind::Trigger
        );
        let wait = match kind {
            EdgeKind::RecvPort | EdgeKind::RecvQueue | EdgeKind::SendPort => o,
            // A wire's cost varies (o + L simulated, measured on a cluster).
            EdgeKind::Wire | EdgeKind::Trigger => 0,
        };
        (time(p) + wait, causal)
    };

    let mut binding = vec![None; events.len()];
    let mut terminal: Option<(usize, u64)> = None;
    for (i, e) in events.iter().enumerate() {
        let t = e.time.steps();
        let (edges, end) = match e.kind {
            EventKind::SendStart { from, .. } => {
                let edges = last_send.get_mut(from as usize).map(|last| {
                    let port = prev(last, i).map(|p| (p, EdgeKind::SendPort));
                    let trigger = (last_deliver[from as usize] as usize)
                        .checked_sub(1)
                        .filter(|&d| time(d) <= t)
                        .map(|d| (d, EdgeKind::Trigger));
                    [port, trigger]
                });
                (edges.unwrap_or_default(), Some(t + o))
            }
            EventKind::Arrive { .. } | EventKind::DropDead { .. } => {
                ([matched(i).map(|s| (s, EdgeKind::Wire)), None], None)
            }
            EventKind::Deliver { to, .. } => {
                let port = matched(i).map(|a| (a, EdgeKind::RecvPort));
                let queue = last_deliver.get_mut(to as usize).and_then(|l| prev(l, i));
                ([port, queue.map(|p| (p, EdgeKind::RecvQueue))], Some(t))
            }
            _ => continue,
        };
        binding[i] = edges.into_iter().flatten().max_by_key(|&edge| ready(edge));
        if let Some(end) = end.filter(|&end| terminal.is_none_or(|(_, c)| end >= c)) {
            terminal = Some((i, end));
        }
    }
    (binding, terminal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_logp::Time;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::sim(Time::new(t), kind)
    }

    /// The critical path of `events` at `o` = 1.
    fn path_of(events: &[Event]) -> CriticalPath {
        CriticalPath::extract(events, &CausalIndex::build(events), 1)
    }

    /// The binding edges and terminal of `events` at `o` = 1.
    fn bindings_of(events: &[Event]) -> (Vec<Option<Edge>>, Option<(usize, u64)>) {
        bindings(events, &CausalIndex::build(events), 1)
    }

    fn seg(start: u64, end: u64, class: CostClass, rank: Rank) -> Segment {
        Segment {
            start,
            end,
            class,
            rank,
            payload: Payload::Tree,
        }
    }

    fn msg(t: u64, kind: &str, from: Rank, to: Rank, payload: Payload) -> Event {
        let k = match kind {
            "send" => EventKind::SendStart { from, to, payload },
            "arrive" => EventKind::Arrive { from, to, payload },
            "deliver" => EventKind::Deliver { from, to, payload },
            _ => panic!("unknown kind"),
        };
        ev(t, k)
    }

    /// One hop, paper parameters: send 0→1 at t=0, arrive 3, deliver 4.
    #[test]
    fn single_hop_splits_into_o_l_o() {
        let pl = Payload::Tree;
        let events = vec![
            msg(0, "send", 0, 1, pl),
            msg(3, "arrive", 0, 1, pl),
            msg(4, "deliver", 0, 1, pl),
        ];
        let path = path_of(&events);
        assert_eq!(path.len, 4);
        assert_eq!(path.o_steps, 2); // send o + recv o
        assert_eq!(path.l_steps, 2);
        assert_eq!(path.idle_steps, 0);
        assert_eq!(path.hops, 1);
        assert!(path.attribution_is_exact());
        // Chronological order, contiguous coverage of [0, 4].
        assert_eq!(path.segments.first().unwrap().start, 0);
        assert_eq!(path.segments.last().unwrap().end, 4);
        for w in path.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn delayed_send_shows_idle_origin() {
        // A synchronized-start send at t=6 with nothing before it.
        let pl = Payload::Correction;
        let events = vec![
            msg(6, "send", 0, 1, pl),
            msg(9, "arrive", 0, 1, pl),
            msg(10, "deliver", 0, 1, pl),
        ];
        let path = path_of(&events);
        assert_eq!(path.len, 10);
        assert_eq!(path.idle_steps, 6);
        assert_eq!(path.o_steps, 2);
        assert_eq!(path.l_steps, 2);
        assert_eq!(path.corr_steps, 10);
        assert_eq!(path.diss_steps, 0);
        assert!(path.attribution_is_exact());
    }

    #[test]
    fn terminal_send_counts_its_overhead() {
        // Quiescence defined by a send whose receiver is dead.
        let pl = Payload::Tree;
        let events = vec![
            msg(0, "send", 0, 1, pl),
            msg(3, "arrive", 0, 1, pl),
            msg(4, "deliver", 0, 1, pl),
            msg(4, "send", 1, 2, pl),
            ev(
                7,
                EventKind::DropDead {
                    from: 1,
                    to: 2,
                    payload: pl,
                },
            ),
        ];
        let path = path_of(&events);
        assert_eq!(path.len, 5); // send at 4 + o
        assert_eq!(path.o_steps, 3);
        assert_eq!(path.l_steps, 2);
        assert!(path.attribution_is_exact());
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let path = path_of(&[]);
        assert_eq!(path.len, 0);
        assert!(path.segments.is_empty());
        assert!(path.attribution_is_exact());
    }

    #[test]
    fn mixed_payload_chain_splits_phases() {
        // Tree hop, then the receiver sends a correction that defines
        // quiescence.
        let events = vec![
            msg(0, "send", 0, 1, Payload::Tree),
            msg(3, "arrive", 0, 1, Payload::Tree),
            msg(4, "deliver", 0, 1, Payload::Tree),
            msg(4, "send", 1, 2, Payload::Correction),
            msg(7, "arrive", 1, 2, Payload::Correction),
            msg(8, "deliver", 1, 2, Payload::Correction),
        ];
        let path = path_of(&events);
        assert_eq!(path.len, 8);
        assert_eq!(path.diss_steps, 4);
        assert_eq!(path.corr_steps, 4);
        assert!(path.attribution_is_exact());
    }

    /// Hand-built two-hop chain with paper parameters (L=2, o=1):
    /// 0 sends to 1 at t=0 (arrive 3, deliver 4), 1 forwards to 2 at
    /// t=4 (arrive 7, deliver 8).
    fn chain() -> Vec<Event> {
        let pl = Payload::Tree;
        vec![
            msg(0, "send", 0, 1, pl),
            msg(3, "arrive", 0, 1, pl),
            msg(4, "deliver", 0, 1, pl),
            msg(4, "send", 1, 2, pl),
            msg(7, "arrive", 1, 2, pl),
            msg(8, "deliver", 1, 2, pl),
        ]
    }

    #[test]
    fn chain_edges_and_completion() {
        let path = path_of(&chain());
        assert_eq!(path.len, 8);
        assert_eq!(path.hops, 2);
        // Each hop's send o, wire L and receive o, back to back; the
        // trigger between them (deliver 4 → send 4) takes no time.
        assert_eq!(
            path.segments,
            vec![
                seg(0, 1, CostClass::Overhead, 0),
                seg(1, 3, CostClass::Wire, 1),
                seg(3, 4, CostClass::Overhead, 1),
                seg(4, 5, CostClass::Overhead, 1),
                seg(5, 7, CostClass::Wire, 2),
                seg(7, 8, CostClass::Overhead, 2),
            ]
        );
    }

    #[test]
    fn binding_pred_walks_the_chain() {
        let (binding, terminal) = bindings_of(&chain());
        assert_eq!(terminal, Some((5, 8)));
        let mut cur = 5;
        let mut hops = Vec::new();
        while let Some((p, k)) = binding[cur] {
            hops.push(k);
            cur = p;
        }
        assert_eq!(cur, 0, "chain must end at the root send");
        assert_eq!(
            hops,
            vec![
                EdgeKind::RecvPort,
                EdgeKind::Wire,
                EdgeKind::Trigger,
                EdgeKind::RecvPort,
                EdgeKind::Wire,
            ]
        );
    }

    #[test]
    fn queued_arrivals_chain_through_recv_queue() {
        let pl = Payload::Tree;
        // Two messages arrive at rank 2 back-to-back; the second
        // delivery waits for the port (deliver at 5, not 4+... o=1).
        let events = vec![
            msg(0, "send", 0, 2, pl),
            msg(0, "send", 1, 2, pl),
            msg(3, "arrive", 0, 2, pl),
            msg(3, "arrive", 1, 2, pl),
            msg(4, "deliver", 0, 2, pl),
            msg(5, "deliver", 1, 2, pl),
        ];
        // Second deliver's binding pred is the first deliver (port
        // became free at 4+1=5 > its arrival constraint 3+1=4).
        assert_eq!(bindings_of(&events).0[5], Some((4, EdgeKind::RecvQueue)));
        // So the path runs through rank 0's message, with no port wait.
        let path = path_of(&events);
        assert_eq!(path.len, 5);
        assert_eq!(
            path.segments,
            vec![
                seg(0, 1, CostClass::Overhead, 0),
                seg(1, 3, CostClass::Wire, 2),
                seg(3, 4, CostClass::Overhead, 2),
                seg(4, 5, CostClass::Overhead, 2),
            ]
        );
    }

    #[test]
    fn drops_match_their_sends_but_are_terminal() {
        let pl = Payload::Correction;
        let events = vec![
            msg(2, "send", 0, 1, pl),
            ev(
                5,
                EventKind::DropDead {
                    from: 0,
                    to: 1,
                    payload: pl,
                },
            ),
        ];
        let (binding, terminal) = bindings_of(&events);
        assert_eq!(binding[1], Some((0, EdgeKind::Wire)));
        // Quiescence is the send completion (2+1), not the drop.
        assert_eq!(terminal, Some((0, 3)));
        let path = path_of(&events);
        assert_eq!(path.len, 3);
        assert_eq!(path.hops, 0);
        assert_eq!((path.idle_steps, path.o_steps), (2, 1));
    }

    #[test]
    fn empty_trace_has_no_bindings() {
        assert_eq!(bindings_of(&[]), (Vec::new(), None));
    }
}
