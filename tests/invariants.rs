//! §2.1 reliability bookkeeping and simulator conservation laws,
//! verified on full event traces across protocols.
//!
//! *Integrity*: every coloring results from a message previously sent
//! by a colored process. *No duplicates*: a process's coloring time
//! never regresses. Simulator laws: every delivery matches a send with
//! exact LogP timing; messages to dead processes are dropped; time is
//! monotone.

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::gossip::GossipSpec;
use corrected_trees::core::protocol::{BroadcastSpec, ProtocolFactory};
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::LogP;
use corrected_trees::obs::{Event, EventKind};
use corrected_trees::sim::{FaultPlan, Outcome, Simulation};
use proptest::prelude::*;

/// Run `factory` and keep its message events — sends, arrivals,
/// deliveries and drops — in stream order. Coloring and phase-span
/// events are left out.
fn message_events(sim: Simulation, factory: &dyn ProtocolFactory) -> (Outcome, Vec<Event>) {
    let (out, mut events) = sim.run_with_events(factory).expect("valid configuration");
    events.retain(|e| {
        !matches!(
            e.kind,
            EventKind::Colored { .. } | EventKind::PhaseBegin { .. } | EventKind::PhaseEnd { .. }
        )
    });
    (out, events)
}

fn check_trace_laws(events: &[Event], out: &Outcome, logp: &LogP) -> Result<(), String> {
    let mut sends = Vec::new();
    for e in events {
        match e.kind {
            EventKind::SendStart { .. } => sends.push(e),
            EventKind::Arrive { from, to, payload } | EventKind::DropDead { from, to, payload } => {
                // Arrival exactly o + L after some matching unconsumed send.
                let expect = e.time - (logp.o() + logp.l());
                let send = EventKind::SendStart { from, to, payload };
                let pos = sends
                    .iter()
                    .position(|s| s.kind == send && s.time == expect)
                    .ok_or_else(|| format!("arrival without matching send: {e}"))?;
                sends.swap_remove(pos);
                if matches!(e.kind, EventKind::DropDead { .. }) && !out.failed[to as usize] {
                    return Err(format!("live process dropped a message: {e}"));
                }
            }
            EventKind::Deliver { to, .. } => {
                if out.failed[to as usize] {
                    return Err(format!("delivery to a dead process: {e}"));
                }
            }
            _ => unreachable!("message events only"),
        }
    }
    if !sends.is_empty() {
        return Err(format!("{} sends never arrived", sends.len()));
    }

    // Integrity: a coloring message to r precedes (or equals) r's
    // coloring time; senders of coloring payloads are colored at send
    // time; dead processes are never colored.
    for r in 0..out.p {
        let colored_at = out.colored_at[r as usize];
        if out.failed[r as usize] && colored_at.is_some() {
            return Err(format!("dead rank {r} was colored"));
        }
        if let Some(t) = colored_at {
            if r == 0 {
                continue;
            }
            let ok = events.iter().any(|e| {
                matches!(e.kind, EventKind::Deliver { to, payload, .. } if to == r && payload.colors())
                    && e.time == t
            });
            if !ok {
                return Err(format!("rank {r} colored at {t} without a delivery"));
            }
        }
    }
    for e in events {
        if let EventKind::SendStart { from, payload, .. } = e.kind {
            let sender_colored = out.colored_at[from as usize].is_some_and(|t| t <= e.time);
            if payload.colors() && !sender_colored {
                return Err(format!("uncolored process sent a payload: {e}"));
            }
        }
    }

    // Monotone event times.
    for w in events.windows(2) {
        if w[1].time < w[0].time {
            return Err("trace times regressed".into());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn corrected_tree_traces_satisfy_all_laws(
        p in 2u32..128,
        n_faults in 0u32..8,
        seed in 0u64..1_000_000,
        variant in 0usize..4,
    ) {
        let n_faults = n_faults.min(p - 1);
        let spec = [
            BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked),
            BroadcastSpec::corrected_tree(
                TreeKind::LAME2,
                CorrectionKind::OpportunisticOptimized { distance: 2 },
            ),
            BroadcastSpec::plain_tree(TreeKind::OPTIMAL),
            BroadcastSpec::ack_tree(TreeKind::BINOMIAL),
        ][variant];
        // Ack trees stall under faults (that is their documented flaw) —
        // traces still obey all laws.
        let logp = LogP::PAPER;
        let faults = FaultPlan::random_count(p, n_faults, seed).expect("plan");
        let sim = Simulation::builder(p, logp).faults(faults).seed(seed).build();
        let (out, events) = message_events(sim, &spec);
        if let Err(msg) = check_trace_laws(&events, &out, &logp) {
            prop_assert!(false, "{msg}");
        }
    }

    #[test]
    fn gossip_traces_satisfy_all_laws(
        p in 2u32..100,
        gossip_time in 4u64..30,
        seed in 0u64..1_000_000,
    ) {
        let spec = GossipSpec::time_limited(gossip_time, CorrectionKind::Checked);
        let logp = LogP::PAPER;
        let sim = Simulation::builder(p, logp).seed(seed).build();
        let (out, events) = message_events(sim, &spec);
        if let Err(msg) = check_trace_laws(&events, &out, &logp) {
            prop_assert!(false, "{msg}");
        }
    }

    /// The receive port serializes deliveries: per rank, deliveries are
    /// at least `o` apart and never precede arrival + o.
    #[test]
    fn receive_port_discipline(
        p in 2u32..64,
        seed in 0u64..1_000_000,
    ) {
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 4 },
        );
        let logp = LogP::PAPER;
        let (_, events) = message_events(Simulation::builder(p, logp).seed(seed).build(), &spec);
        for r in 0..p {
            let delivers: Vec<_> = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Deliver { to, .. } if to == r))
                .collect();
            for w in delivers.windows(2) {
                prop_assert!(
                    w[1].time.steps() >= w[0].time.steps() + logp.o(),
                    "rank {r}: deliveries closer than o"
                );
            }
        }
    }

    /// Sender port discipline: per rank, send starts are ≥ o apart.
    #[test]
    fn send_port_discipline(
        p in 2u32..64,
        seed in 0u64..1_000_000,
        l in 1u64..4,
        o in 1u64..3,
    ) {
        let logp = LogP::new(l, o, 1).expect("valid LogP");
        let spec = BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let (_, events) = message_events(Simulation::builder(p, logp).seed(seed).build(), &spec);
        for r in 0..p {
            let sends: Vec<_> = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::SendStart { from, .. } if from == r))
                .collect();
            for w in sends.windows(2) {
                prop_assert!(
                    w[1].time.steps() >= w[0].time.steps() + o,
                    "rank {r}: sends closer than o={o}"
                );
            }
        }
    }
}
