//! Reconstruct the causal DAG of one broadcast from its event stream.
//!
//! Nodes are the message events (send, arrive, deliver, drop); edges
//! are the LogP happens-before constraints that produced their
//! timestamps:
//!
//! * **wire** — a send's message reaching its receiver (`o + L` later);
//! * **recv-port** — an arrival being processed into a delivery
//!   (`o` later when the port is free);
//! * **recv-queue** — the receive port finishing its previous delivery
//!   (queued arrivals are processed back-to-back, `o` apart);
//! * **send-port** — a rank's previous send releasing the sender port
//!   (`o` after it started);
//! * **trigger** — the latest delivery at a rank at or before one of
//!   its sends (protocol causality: what it reacted to);
//! * **origin** — the start of the run, for sends with no prior
//!   activity at their rank (the root, synchronized starts).
//!
//! Wire and recv-port edges are the matches of the trace's
//! [`CausalIndex`] — the same pairing the invariant monitor checks —
//! kept only where the predecessor was emitted first, so the edges
//! always point back in emission order and the DAG stays acyclic. The
//! other edges come from a walk in emission order: a send's trigger is
//! the delivery emitted just before it at the same timestamp, which the
//! causal order would place after the send.
//!
//! The DAG is the substrate for critical-path extraction
//! ([`crate::critical`]): every node's timestamp equals the maximum
//! over its in-edges of `pred.time + edge cost`, so chaining
//! latest-binding predecessors backward from the completion event
//! yields a path whose segment lengths telescope to the completion
//! time.

use ct_core::protocol::Payload;
use ct_logp::Rank;
use ct_obs::{CausalIndex, Event, EventKind};

/// Node kind in the causal DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A `SendStart` event.
    Send,
    /// An `Arrive` event.
    Arrive,
    /// A `Deliver` event.
    Deliver,
    /// A `DropDead` event (terminal: dead receivers process nothing).
    Drop,
}

/// One message event.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Event timestamp (steps or µs, whatever the trace used).
    pub t: u64,
    /// What kind of event.
    pub kind: NodeKind,
    /// Sending rank.
    pub from: Rank,
    /// Receiving rank.
    pub to: Rank,
    /// Message payload.
    pub payload: Payload,
}

impl Node {
    /// The rank at which this event physically happens (the sender for
    /// sends, the receiver otherwise).
    pub fn rank(&self) -> Rank {
        match self.kind {
            NodeKind::Send => self.from,
            _ => self.to,
        }
    }
}

/// Why an edge exists (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Send → its arrival (`o` overhead + `L` wire).
    Wire,
    /// Arrival → its delivery (`o` receive overhead).
    RecvPort,
    /// Previous delivery at the rank → this delivery (queue occupancy).
    RecvQueue,
    /// Previous send by the rank → this send (sender-port occupancy).
    SendPort,
    /// Latest delivery at the rank → a later send (protocol causality).
    Trigger,
    /// Run start → a send with no prior activity at its rank.
    Origin,
}

/// An in-edge: `(predecessor node index, kind)`.
pub type Pred = (usize, EdgeKind);

/// The reconstructed causal DAG of one repetition.
#[derive(Clone, Debug)]
pub struct CausalDag {
    /// Message-event nodes, in trace order.
    pub nodes: Vec<Node>,
    /// In-edges per node (same indexing as `nodes`).
    pub preds: Vec<Vec<Pred>>,
    /// The LogP send/receive overhead used for edge costs.
    pub o: u64,
    /// Completion time: `max(deliver times, send starts + o)` — the
    /// quiescence latency of the run (0 for an empty trace).
    pub completion: u64,
    /// The node achieving `completion` (`None` for an empty trace).
    pub terminal: Option<usize>,
}

impl CausalDag {
    /// Build the DAG from one repetition's events (phase and coloring
    /// events are ignored; `o` is the LogP overhead of the producing
    /// run).
    pub fn build(events: &[Event], o: u64) -> CausalDag {
        CausalDag::from_index(events, &CausalIndex::build(events), o)
    }

    /// [`CausalDag::build`] over a trace already indexed.
    pub fn from_index(events: &[Event], index: &CausalIndex, o: u64) -> CausalDag {
        let mut nodes = Vec::new();
        // Node index ↔ event index.
        let mut event_of = Vec::new();
        let mut node_of = vec![usize::MAX; events.len()];
        for (i, e) in events.iter().enumerate() {
            let (kind, from, to, payload) = match &e.kind {
                EventKind::SendStart { from, to, payload } => (NodeKind::Send, from, to, payload),
                EventKind::Arrive { from, to, payload } => (NodeKind::Arrive, from, to, payload),
                EventKind::Deliver { from, to, payload } => (NodeKind::Deliver, from, to, payload),
                EventKind::DropDead { from, to, payload } => (NodeKind::Drop, from, to, payload),
                _ => continue,
            };
            node_of[i] = nodes.len();
            event_of.push(i);
            nodes.push(Node {
                t: e.time.steps(),
                kind,
                from: *from,
                to: *to,
                payload: *payload,
            });
        }

        let mut preds: Vec<Vec<Pred>> = vec![Vec::new(); nodes.len()];
        // Per rank, 1 + the latest send / latest delivery seen so far
        // (0: none), zero-filled so a trace's stray high rank costs no
        // memory until it is touched.
        let mut last_send = vec![0u32; index.p() as usize];
        let mut last_deliver = vec![0u32; index.p() as usize];
        let prev = |last: &mut u32, i: usize| {
            (std::mem::replace(last, i as u32 + 1) as usize).checked_sub(1)
        };
        // The node of the event `index` matched this one to, if emitted
        // before it.
        let matched = |i: usize| {
            index
                .cause(event_of[i])
                .map(|c| node_of[c])
                .filter(|&c| c < i)
        };

        for i in 0..nodes.len() {
            let n = nodes[i];
            match n.kind {
                NodeKind::Send => {
                    let Some(last) = last_send.get_mut(n.from as usize) else {
                        continue;
                    };
                    if let Some(p) = prev(last, i) {
                        preds[i].push((p, EdgeKind::SendPort));
                    }
                    if let Some(d) = (last_deliver[n.from as usize] as usize).checked_sub(1) {
                        if nodes[d].t <= n.t {
                            preds[i].push((d, EdgeKind::Trigger));
                        }
                    }
                }
                NodeKind::Arrive | NodeKind::Drop => {
                    if let Some(s) = matched(i) {
                        preds[i].push((s, EdgeKind::Wire));
                    }
                }
                NodeKind::Deliver => {
                    if let Some(a) = matched(i) {
                        preds[i].push((a, EdgeKind::RecvPort));
                    }
                    if let Some(p) = last_deliver.get_mut(n.to as usize).and_then(|l| prev(l, i)) {
                        preds[i].push((p, EdgeKind::RecvQueue));
                    }
                }
            }
        }

        // Quiescence: the last delivery processing or send completion
        // (mirrors the engine's definition).
        let mut completion = 0u64;
        let mut terminal = None;
        for (i, n) in nodes.iter().enumerate() {
            let end = match n.kind {
                NodeKind::Deliver => n.t,
                NodeKind::Send => n.t + o,
                _ => continue,
            };
            if terminal.is_none() || end >= completion {
                completion = end;
                terminal = Some(i);
            }
        }

        CausalDag {
            nodes,
            preds,
            o,
            completion,
            terminal,
        }
    }

    /// The latest-binding predecessor of node `i`: the in-edge whose
    /// constraint (`pred time + edge cost`) is largest, i.e. the one
    /// that actually determined `i`'s timestamp. Ties prefer the
    /// message-causal edge (wire / recv-port / trigger) over resource
    /// occupancy, which keeps attribution on the communication chain.
    pub fn binding_pred(&self, i: usize) -> Option<Pred> {
        let causal = |k: EdgeKind| {
            matches!(
                k,
                EdgeKind::Wire | EdgeKind::RecvPort | EdgeKind::Trigger | EdgeKind::Origin
            )
        };
        self.preds[i]
            .iter()
            .copied()
            .max_by_key(|&(p, k)| (self.ready_time(p, k), causal(k)))
    }

    /// The earliest time node `i`'s successor could happen given the
    /// edge `(pred, kind)`.
    fn ready_time(&self, pred: usize, kind: EdgeKind) -> u64 {
        let t = self.nodes[pred].t;
        match kind {
            EdgeKind::Wire => t, // exact cost varies (o+L sim, measured on cluster)
            EdgeKind::RecvPort => t + self.o,
            EdgeKind::RecvQueue => t + self.o,
            EdgeKind::SendPort => t + self.o,
            EdgeKind::Trigger => t,
            EdgeKind::Origin => 0,
        }
    }

    /// Number of edges of each kind (diagnostics).
    pub fn edge_count(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_logp::Time;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::sim(Time::new(t), kind)
    }

    /// Hand-built two-hop chain with paper parameters (L=2, o=1):
    /// 0 sends to 1 at t=0 (arrive 3, deliver 4), 1 forwards to 2 at
    /// t=4 (arrive 7, deliver 8).
    fn chain() -> Vec<Event> {
        let pl = Payload::Tree;
        vec![
            ev(
                0,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: pl,
                },
            ),
            ev(
                3,
                EventKind::Arrive {
                    from: 0,
                    to: 1,
                    payload: pl,
                },
            ),
            ev(
                4,
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    payload: pl,
                },
            ),
            ev(
                4,
                EventKind::SendStart {
                    from: 1,
                    to: 2,
                    payload: pl,
                },
            ),
            ev(
                7,
                EventKind::Arrive {
                    from: 1,
                    to: 2,
                    payload: pl,
                },
            ),
            ev(
                8,
                EventKind::Deliver {
                    from: 1,
                    to: 2,
                    payload: pl,
                },
            ),
        ]
    }

    #[test]
    fn chain_edges_and_completion() {
        let dag = CausalDag::build(&chain(), 1);
        assert_eq!(dag.nodes.len(), 6);
        assert_eq!(dag.completion, 8);
        assert_eq!(dag.terminal, Some(5));
        // Arrive(1) ← Wire ← Send(0).
        assert_eq!(dag.preds[1], vec![(0, EdgeKind::Wire)]);
        // Deliver(2) ← RecvPort ← Arrive(1).
        assert_eq!(dag.preds[2], vec![(1, EdgeKind::RecvPort)]);
        // Send(3) by rank 1 ← Trigger ← Deliver(2).
        assert_eq!(dag.preds[3], vec![(2, EdgeKind::Trigger)]);
    }

    #[test]
    fn binding_pred_walks_the_chain() {
        let dag = CausalDag::build(&chain(), 1);
        let mut cur = dag.terminal.unwrap();
        let mut hops = Vec::new();
        while let Some((p, k)) = dag.binding_pred(cur) {
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
            ev(
                0,
                EventKind::SendStart {
                    from: 0,
                    to: 2,
                    payload: pl,
                },
            ),
            ev(
                0,
                EventKind::SendStart {
                    from: 1,
                    to: 2,
                    payload: pl,
                },
            ),
            ev(
                3,
                EventKind::Arrive {
                    from: 0,
                    to: 2,
                    payload: pl,
                },
            ),
            ev(
                3,
                EventKind::Arrive {
                    from: 1,
                    to: 2,
                    payload: pl,
                },
            ),
            ev(
                4,
                EventKind::Deliver {
                    from: 0,
                    to: 2,
                    payload: pl,
                },
            ),
            ev(
                5,
                EventKind::Deliver {
                    from: 1,
                    to: 2,
                    payload: pl,
                },
            ),
        ];
        let dag = CausalDag::build(&events, 1);
        // Second deliver's binding pred is the first deliver (port
        // became free at 4+1=5 > its arrival constraint 3+1=4).
        assert_eq!(dag.binding_pred(5), Some((4, EdgeKind::RecvQueue)));
        assert_eq!(dag.completion, 5);
    }

    #[test]
    fn drops_match_their_sends_but_are_terminal() {
        let pl = Payload::Correction;
        let events = vec![
            ev(
                2,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: pl,
                },
            ),
            ev(
                5,
                EventKind::DropDead {
                    from: 0,
                    to: 1,
                    payload: pl,
                },
            ),
        ];
        let dag = CausalDag::build(&events, 1);
        assert_eq!(dag.preds[1], vec![(0, EdgeKind::Wire)]);
        // Quiescence is the send completion (2+1), not the drop.
        assert_eq!(dag.completion, 3);
        assert_eq!(dag.terminal, Some(0));
    }

    #[test]
    fn empty_trace_is_empty_dag() {
        let dag = CausalDag::build(&[], 1);
        assert_eq!(dag.completion, 0);
        assert_eq!(dag.terminal, None);
        assert_eq!(dag.edge_count(), 0);
    }
}
