//! Streaming protocol monitor.
//!
//! [`MonitorSink`] is an [`EventSink`] that validates the event stream
//! a run emits — no trace file needed; [`MonitorSink::check`] does the
//! same for a recorded one — and works identically under the
//! discrete-event simulator and the threaded cluster runtime. It checks
//! the protocol invariants the paper asserts (§2.1 reliability and
//! no-duplicates, §4.3 fail-stop faults) plus the schema guarantees the
//! producers promise (per-channel FIFO wire order, LogP wire timing,
//! well-nested phase spans, nondecreasing timestamps). Violations are
//! structured [`Violation`] records carrying the invariant id, the
//! offending event and — where one exists — the witness event that
//! establishes the expectation.
//!
//! ## Checked invariants
//!
//! | id | invariant |
//! |----|-----------|
//! | `time-monotone` | timestamps are nondecreasing in emission order |
//! | `phase-nesting` | `PhaseBegin`/`PhaseEnd` form a well-nested span stack, all closed at end of stream |
//! | `fifo-order` | the k-th wire arrival on a `(from, to)` channel carries the payload of the k-th send |
//! | `wire-latency` | simulator streams: `arrive = send + (o + L)` and `deliver ≥ arrive + o` |
//! | `wire-complete` | simulator streams: every send is matched by an `Arrive`/`DropDead` by end of run |
//! | `deliver-unmatched` | every `Deliver` is preceded by a matching `Arrive` on its channel |
//! | `deliver-once` | at most one `Tree` payload is delivered per rank (§2.1 no-duplicates) |
//! | `colored-once` | each rank is `Colored` at most once (§2.1 no-duplicates) |
//! | `dead-silent` | no `SendStart`/`Deliver`/`Colored`/`Arrive` involves a dead rank as actor (§4.3 fail-stop) |
//! | `drop-dead-target` | `DropDead` only targets dead ranks |
//! | `reliability` | every live rank is `Colored` by end of run (§2.1) |
//! | `rank-range` | every rank is below `causal::MAX_P` (2^24), so the trace implies a process count; else no cross-rank check runs |
//!
//! ## One causal index
//!
//! The cross-rank checks read a [`CausalIndex`] (see [`crate::causal`]
//! for its order and matching), so causally ordered events that cluster
//! workers stamped in the same microsecond and emitted out of order
//! cause no false positives. Raw-order checks (`time-monotone`,
//! `phase-nesting`) run on emission order.
//!
//! Wall-clock streams (any event with `wall_us` set) additionally relax
//! the two simulator-only checks: `wire-latency` (microsecond stamps do
//! not follow LogP arithmetic) and `wire-complete` (the coordinator's
//! `Stop` legitimately truncates in-flight correction messages).
//!
//! ## Multiplexed streams
//!
//! Streams that interleave several concurrent broadcasts label each
//! event with a broadcast id (the `b` field; see [`Event::bcast`]). The
//! index keys channels and per-rank facts by that id, so every
//! cross-rank invariant — FIFO matching, delivery matching,
//! at-most-once delivery and coloring, end-of-run reliability — is
//! judged per broadcast: rank 5 being colored once in topic 1 and once
//! in topic 2 is legal while two colorings within one topic are not,
//! and a wire arrival can only consume a send of the same broadcast.
//! Unlabeled events all fall into one implicit broadcast. Raw-order
//! checks (`time-monotone`, `phase-nesting`) remain stream-level.

use ct_core::protocol::Payload;
use ct_logp::{LogP, Rank};

use crate::causal::{infer_p, CausalIndex};
use crate::event::{Event, EventKind, Phase};
use crate::json::JsonObject;
use crate::sink::EventSink;

/// Identifier of a checked invariant. Display/JSON ids are stable
/// strings (`fifo-order`, `reliability`, …) that tests and CI match on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariant {
    /// Timestamps nondecreasing in emission order.
    TimeMonotone,
    /// Phase spans well-nested and all closed at end of stream.
    PhaseNesting,
    /// Per-channel FIFO: k-th arrival matches k-th send.
    FifoOrder,
    /// Simulator wire timing: `arrive = send + (o + L)`, `deliver ≥ arrive + o`.
    WireLatency,
    /// Simulator completeness: no send left unmatched at end of run.
    WireComplete,
    /// `Deliver` without a matching prior `Arrive`.
    DeliverUnmatched,
    /// More than one `Tree` delivery at one rank (§2.1 no-duplicates).
    DeliverOnce,
    /// A rank `Colored` more than once (§2.1 no-duplicates).
    ColoredOnce,
    /// A dead rank acted (sent, delivered, colored) or received an
    /// `Arrive` instead of a `DropDead` (§4.3 fail-stop).
    DeadSilent,
    /// `DropDead` targeting a live rank.
    DropDeadTarget,
    /// A live rank left uncolored at end of run (§2.1 reliability).
    Reliability,
    /// A rank of [`crate::causal::MAX_P`] or more, which leaves the
    /// trace no process count.
    RankRange,
}

impl Invariant {
    /// The stable string id used in reports and JSON.
    pub fn id(&self) -> &'static str {
        match self {
            Invariant::TimeMonotone => "time-monotone",
            Invariant::PhaseNesting => "phase-nesting",
            Invariant::FifoOrder => "fifo-order",
            Invariant::WireLatency => "wire-latency",
            Invariant::WireComplete => "wire-complete",
            Invariant::DeliverUnmatched => "deliver-unmatched",
            Invariant::DeliverOnce => "deliver-once",
            Invariant::ColoredOnce => "colored-once",
            Invariant::DeadSilent => "dead-silent",
            Invariant::DropDeadTarget => "drop-dead-target",
            Invariant::Reliability => "reliability",
            Invariant::RankRange => "rank-range",
        }
    }
}

impl core::fmt::Display for Invariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.id())
    }
}

/// One invariant violation: which invariant, where, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// Repetition index: 0 from the monitor, restamped by
    /// [`MonitorReport::absorb`] when reports of several runs combine.
    pub rep: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending event, where one exists (`reliability` and
    /// `wire-complete` violations describe an *absence*).
    pub event: Option<Event>,
    /// The prior event that establishes the violated expectation (the
    /// mismatched send, the first delivery, the unclosed span begin, …).
    pub witness: Option<Event>,
}

impl Violation {
    /// Render as one JSON object with fixed field order
    /// (`invariant`, `rep`, `message`, `event`, `witness`).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("invariant", self.invariant.id());
        obj.field_u64("rep", u64::from(self.rep));
        obj.field_str("message", &self.message);
        match &self.event {
            Some(e) => obj.field_raw("event", &e.to_json()),
            None => obj.field_null("event"),
        };
        match &self.witness {
            Some(e) => obj.field_raw("witness", &e.to_json()),
            None => obj.field_null("witness"),
        };
        obj.finish()
    }
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{}] rep {}: {}",
            self.invariant.id(),
            self.rep,
            self.message
        )
    }
}

/// Monitor configuration. The defaults check everything that can be
/// checked from the stream alone; supplying `p`, the fault mask and the
/// LogP parameters tightens the checks (exact reliability, wire timing).
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Process count. `None` infers it from the highest rank mentioned
    /// ([`crate::causal::infer_p`]), which cannot see silent ranks —
    /// supply it whenever known so `reliability` is exact.
    pub p: Option<u32>,
    /// Fault mask (`mask[r]` true ⇒ rank `r` is dead). `None` infers
    /// the dead set from `DropDead` targets — sufficient for
    /// `drop-dead-target` but blind to dead ranks that no message ever
    /// reached.
    pub failed: Option<Vec<bool>>,
    /// LogP parameters for the simulator wire-timing checks. `None`
    /// disables `wire-latency` (timing is always skipped on wall-clock
    /// streams regardless).
    pub logp: Option<LogP>,
    /// Stop at the first violation instead of collecting all of them.
    pub fail_fast: bool,
    /// Check end-of-run reliability (on by default). Disable when
    /// monitoring protocols that do not promise §2.1 reliability, e.g. a
    /// plain tree under faults with no correction phase.
    pub check_reliability: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig::new()
    }
}

impl MonitorConfig {
    /// Everything on, reliability checked, nothing known a priori.
    pub fn new() -> MonitorConfig {
        MonitorConfig {
            p: None,
            failed: None,
            logp: None,
            fail_fast: false,
            check_reliability: true,
        }
    }

    /// Set the process count.
    pub fn with_p(mut self, p: u32) -> Self {
        self.p = Some(p);
        self
    }

    /// Set the fault mask.
    pub fn with_failed(mut self, mask: Vec<bool>) -> Self {
        self.failed = Some(mask);
        self
    }

    /// Enable simulator wire-timing checks against these parameters.
    pub fn with_logp(mut self, logp: LogP) -> Self {
        self.logp = Some(logp);
        self
    }

    /// Stop at the first violation.
    pub fn with_fail_fast(mut self) -> Self {
        self.fail_fast = true;
        self
    }

    /// Skip the end-of-run reliability check.
    pub fn without_reliability(mut self) -> Self {
        self.check_reliability = false;
        self
    }
}

/// The monitor's verdict over a whole stream.
#[derive(Clone, Debug, Default)]
pub struct MonitorReport {
    /// All violations found (at most one in fail-fast mode).
    pub violations: Vec<Violation>,
    /// Number of events inspected.
    pub events: u64,
    /// Number of runs validated: 1 for a trace with protocol events,
    /// 0 for one without (summed by [`MonitorReport::absorb`]).
    pub reps: u32,
}

impl MonitorReport {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold another report in, re-stamping its violations with the
    /// given repetition index (used when driving one monitor per
    /// campaign repetition).
    pub fn absorb(&mut self, mut other: MonitorReport, rep: u32) {
        for v in &mut other.violations {
            v.rep = rep;
        }
        self.violations.append(&mut other.violations);
        self.events += other.events;
        self.reps += other.reps;
    }

    /// Render as one stable JSON object:
    /// `{"violations": N, "events": N, "reps": N, "records": [...]}`.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("violations", self.violations.len() as u64);
        obj.field_u64("events", self.events);
        obj.field_u64("reps", u64::from(self.reps));
        obj.field_array("records", self.violations.iter().map(Violation::to_json));
        obj.finish()
    }

    /// Render a human-readable summary, one violation per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.is_ok() {
            out.push_str(&format!(
                "ok: 0 violations across {} events, {} rep(s)\n",
                self.events, self.reps
            ));
            return out;
        }
        out.push_str(&format!(
            "FAIL: {} violation(s) across {} events, {} rep(s)\n",
            self.violations.len(),
            self.events,
            self.reps
        ));
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
            if let Some(e) = &v.event {
                out.push_str(&format!("    event:   {e}\n"));
            }
            if let Some(w) = &v.witness {
                out.push_str(&format!("    witness: {w}\n"));
            }
        }
        out
    }
}

/// Invariant monitor. See the module docs for the invariant catalogue
/// and the ordering model.
///
/// The sink buffers the stream and checks it at [`MonitorSink::finish`]:
/// the cross-rank checks walk the whole trace in causal order, and a
/// trace is one repetition.
#[derive(Debug)]
pub struct MonitorSink {
    cfg: MonitorConfig,
    buf: Vec<Event>,
}

impl MonitorSink {
    /// A monitor with the given configuration.
    pub fn new(cfg: MonitorConfig) -> MonitorSink {
        MonitorSink {
            cfg,
            buf: Vec::new(),
        }
    }

    /// Check a recorded stream offline, as `ct check --input`, the
    /// campaigns and the tests do.
    pub fn check(events: &[Event], cfg: &MonitorConfig) -> MonitorReport {
        MonitorSink::check_indexed(events, &CausalIndex::build(events), cfg)
    }

    /// [`MonitorSink::check`] over a trace already indexed.
    pub fn check_indexed(
        events: &[Event],
        idx: &CausalIndex,
        cfg: &MonitorConfig,
    ) -> MonitorReport {
        let mut checker = Checker {
            cfg,
            violations: Vec::new(),
        };
        let protocol = !idx.bcasts().is_empty();
        let open = checker.phase_nesting(events);
        if protocol {
            checker.time_monotone(events);
            checker.causal(events, idx);
        }
        for (phase, begin) in open.into_iter().rev() {
            checker.violation(
                Invariant::PhaseNesting,
                format!("span {:?} never closed", phase.name()),
                None,
                Some(begin),
            );
        }
        let mut violations = checker.violations;
        if cfg.fail_fast {
            violations.truncate(1);
        }
        MonitorReport {
            violations,
            events: events.len() as u64,
            reps: u32::from(protocol),
        }
    }

    /// Consume the monitor and check everything it was sent.
    pub fn finish(self) -> MonitorReport {
        MonitorSink::check(&self.buf, &self.cfg)
    }
}

impl EventSink for MonitorSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: &Event) {
        self.buf.push(*event);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One checking pass: raw-order checks, then the causal walk.
struct Checker<'a> {
    cfg: &'a MonitorConfig,
    violations: Vec<Violation>,
}

impl Checker<'_> {
    fn violation(
        &mut self,
        invariant: Invariant,
        message: String,
        event: Option<&Event>,
        witness: Option<&Event>,
    ) {
        self.violations.push(Violation {
            invariant,
            rep: 0,
            message,
            event: event.copied(),
            witness: witness.copied(),
        });
    }

    /// Emission order: every span end closes the innermost open span.
    /// Returns the spans left open, outermost first.
    fn phase_nesting<'e>(&mut self, events: &'e [Event]) -> Vec<(Phase, &'e Event)> {
        let mut open: Vec<(Phase, &Event)> = Vec::new();
        for e in events {
            match e.kind {
                EventKind::PhaseBegin(phase) => open.push((phase, e)),
                // An end closes the innermost open span, if there is one.
                EventKind::PhaseEnd(phase) if open.pop().is_none() => self.violation(
                    Invariant::PhaseNesting,
                    format!("span end {:?} with no open span", phase.name()),
                    Some(e),
                    None,
                ),
                _ => {}
            }
        }
        open
    }

    /// Emission order: nondecreasing timestamps.
    fn time_monotone(&mut self, events: &[Event]) {
        let mut max_seen: Option<&Event> = None;
        for e in events {
            if let Some(m) = max_seen {
                if e.time < m.time {
                    self.violation(
                        Invariant::TimeMonotone,
                        format!(
                            "timestamp {} after {} in emission order",
                            e.time.steps(),
                            m.time.steps()
                        ),
                        Some(e),
                        Some(m),
                    );
                }
            }
            if max_seen.is_none_or(|m| e.time > m.time) {
                max_seen = Some(e);
            }
        }
    }

    /// Causal order: the cross-rank invariants, read off the index.
    fn causal(&mut self, events: &[Event], idx: &CausalIndex) {
        // Protocol events always name a rank, so no process count means
        // one named a rank of `MAX_P` or more: the index has no per-rank
        // cells to judge.
        if idx.p() == 0 {
            let message = infer_p(events).err().unwrap_or_default();
            self.violation(Invariant::RankRange, message, None, None);
            return;
        }
        let cfg = self.cfg;
        let wall = events.iter().any(|e| e.wall_us().is_some());
        let p = cfg.p.unwrap_or(idx.p());
        let dead = |r: Rank| match &cfg.failed {
            Some(mask) => mask.get(r as usize).copied().unwrap_or(false),
            None => idx.is_drop_target(r),
        };
        let timing = if wall { None } else { cfg.logp };
        // "in broadcast N" suffix for multiplexed streams; empty for
        // the single implicit broadcast.
        let tag = |b: u64| -> String {
            if idx.bcasts().len() > 1 || b != 0 {
                format!(" in broadcast {b}")
            } else {
                String::new()
            }
        };

        for &i in idx.order() {
            let e = &events[i];
            let b = e.bcast().unwrap_or(0);
            match &e.kind {
                EventKind::SendStart { from, to, .. } => {
                    if dead(*from) {
                        self.violation(
                            Invariant::DeadSilent,
                            format!("dead rank {from} sent to {to}"),
                            Some(e),
                            None,
                        );
                    }
                }
                EventKind::Arrive { from, to, payload } => {
                    if dead(*to) {
                        self.violation(
                            Invariant::DeadSilent,
                            format!("arrival at dead rank {to} (expected drop)"),
                            Some(e),
                            None,
                        );
                    }
                    self.wire(events, idx.cause(i), e, (*from, *to), *payload, timing);
                }
                EventKind::DropDead { from, to, payload } => {
                    if !dead(*to) {
                        self.violation(
                            Invariant::DropDeadTarget,
                            format!("drop at live rank {to}"),
                            Some(e),
                            None,
                        );
                    }
                    self.wire(events, idx.cause(i), e, (*from, *to), *payload, timing);
                }
                EventKind::Deliver { from, to, payload } => {
                    if dead(*to) {
                        self.violation(
                            Invariant::DeadSilent,
                            format!("delivery at dead rank {to}"),
                            Some(e),
                            None,
                        );
                    }
                    match idx.cause(i) {
                        None => self.violation(
                            Invariant::DeliverUnmatched,
                            format!(
                                "delivery on channel {from}->{to} with no pending arrival{}",
                                tag(b)
                            ),
                            Some(e),
                            None,
                        ),
                        Some(a) => {
                            let arr = &events[a];
                            if payload_of(&arr.kind) != Some(*payload) {
                                self.violation(
                                    Invariant::DeliverUnmatched,
                                    format!(
                                        "delivery payload mismatches pending arrival on {from}->{to}"
                                    ),
                                    Some(e),
                                    Some(arr),
                                );
                            }
                            if let Some(logp) = timing {
                                if e.time.steps() < arr.time.steps() + logp.o() {
                                    self.violation(
                                        Invariant::WireLatency,
                                        format!(
                                            "deliver at {} before arrive {} + o {}",
                                            e.time.steps(),
                                            arr.time.steps(),
                                            logp.o()
                                        ),
                                        Some(e),
                                        Some(arr),
                                    );
                                }
                            }
                        }
                    }
                    let first = idx.first_tree_delivery(b, *to).filter(|&f| f != i);
                    if let Some(first) = first.filter(|_| *payload == Payload::Tree) {
                        self.violation(
                            Invariant::DeliverOnce,
                            format!("rank {to} delivered the tree payload twice{}", tag(b)),
                            Some(e),
                            Some(&events[first]),
                        );
                    }
                }
                EventKind::Colored { rank, .. } => {
                    if dead(*rank) {
                        self.violation(
                            Invariant::DeadSilent,
                            format!("dead rank {rank} colored"),
                            Some(e),
                            None,
                        );
                    }
                    if let Some(first) = idx.first_colored(b, *rank).filter(|&f| f != i) {
                        self.violation(
                            Invariant::ColoredOnce,
                            format!("rank {rank} colored twice{}", tag(b)),
                            Some(e),
                            Some(&events[first]),
                        );
                    }
                }
                EventKind::PhaseBegin(_) | EventKind::PhaseEnd(_) => {}
            }
        }

        // End of run: nothing still on the wire (simulator only — the
        // cluster's Stop legitimately truncates in-flight messages).
        if !wall {
            for &(first, pending) in idx.stranded_sends() {
                let send = &events[first];
                if let EventKind::SendStart { from, to, .. } = send.kind {
                    self.violation(
                        Invariant::WireComplete,
                        format!(
                            "{pending} send(s) on {from}->{to} never arrived or dropped{}",
                            tag(send.bcast().unwrap_or(0))
                        ),
                        None,
                        Some(send),
                    );
                }
            }
        }

        // End of run: every live rank colored (§2.1), judged once per
        // broadcast id present in the stream.
        if cfg.check_reliability {
            for &b in idx.bcasts() {
                for r in 0..p {
                    if !dead(r) && idx.first_colored(b, r).is_none() {
                        self.violation(
                            Invariant::Reliability,
                            format!("live rank {r} never colored{}", tag(b)),
                            None,
                            None,
                        );
                    }
                }
            }
        }
    }

    /// Judge the send a wire event (`Arrive` or `DropDead`) consumed:
    /// FIFO payload order and — on simulator streams — the exact
    /// `send + (o + L)` wire latency.
    fn wire(
        &mut self,
        events: &[Event],
        send: Option<usize>,
        e: &Event,
        (from, to): (Rank, Rank),
        payload: Payload,
        timing: Option<LogP>,
    ) {
        let Some(s) = send else {
            self.violation(
                Invariant::FifoOrder,
                format!("wire event on {from}->{to} with no outstanding send"),
                Some(e),
                None,
            );
            return;
        };
        let send = &events[s];
        if payload_of(&send.kind) != Some(payload) {
            self.violation(
                Invariant::FifoOrder,
                format!("payload mismatches oldest outstanding send on {from}->{to}"),
                Some(e),
                Some(send),
            );
        }
        if let Some(logp) = timing {
            let wire = logp.o() + logp.l();
            if e.time.steps() != send.time.steps() + wire {
                self.violation(
                    Invariant::WireLatency,
                    format!(
                        "wire event at {} but send {} + (o + L) {}",
                        e.time.steps(),
                        send.time.steps(),
                        wire
                    ),
                    Some(e),
                    Some(send),
                );
            }
        }
    }
}

fn payload_of(kind: &EventKind) -> Option<Payload> {
    match kind {
        EventKind::SendStart { payload, .. }
        | EventKind::Arrive { payload, .. }
        | EventKind::Deliver { payload, .. }
        | EventKind::DropDead { payload, .. } => Some(*payload),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::protocol::ColoredVia;
    use ct_logp::Time;

    fn send(t: u64, from: Rank, to: Rank) -> Event {
        Event::sim(
            Time::new(t),
            EventKind::SendStart {
                from,
                to,
                payload: Payload::Tree,
            },
        )
    }

    fn arrive(t: u64, from: Rank, to: Rank) -> Event {
        Event::sim(
            Time::new(t),
            EventKind::Arrive {
                from,
                to,
                payload: Payload::Tree,
            },
        )
    }

    fn deliver(t: u64, from: Rank, to: Rank) -> Event {
        Event::sim(
            Time::new(t),
            EventKind::Deliver {
                from,
                to,
                payload: Payload::Tree,
            },
        )
    }

    fn colored(t: u64, rank: Rank, via: ColoredVia) -> Event {
        Event::sim(Time::new(t), EventKind::Colored { rank, via })
    }

    fn phase(t: u64, begin: bool) -> Event {
        let phase = Phase::Broadcast;
        Event::sim(
            Time::new(t),
            if begin {
                EventKind::PhaseBegin(phase)
            } else {
                EventKind::PhaseEnd(phase)
            },
        )
    }

    /// A minimal clean 2-rank broadcast under LogP::PAPER (o=1, L=2).
    fn clean_run() -> Vec<Event> {
        vec![
            phase(0, true),
            colored(0, 0, ColoredVia::Root),
            send(0, 0, 1),
            arrive(3, 0, 1),
            deliver(4, 0, 1),
            colored(4, 1, ColoredVia::Dissemination),
            phase(4, false),
        ]
    }

    fn cfg() -> MonitorConfig {
        MonitorConfig::new().with_p(2).with_logp(LogP::PAPER)
    }

    fn ids(report: &MonitorReport) -> Vec<&'static str> {
        report.violations.iter().map(|v| v.invariant.id()).collect()
    }

    #[test]
    fn clean_run_is_ok() {
        let report = MonitorSink::check(&clean_run(), &cfg());
        assert!(report.is_ok(), "{}", report.render_text());
        assert_eq!(report.reps, 1);
    }

    #[test]
    fn missing_arrive_is_wire_incomplete() {
        let mut events = clean_run();
        events.retain(|e| !matches!(e.kind, EventKind::Arrive { .. }));
        let report = MonitorSink::check(&events, &cfg());
        assert!(
            ids(&report).contains(&"wire-complete"),
            "{ids:?}",
            ids = ids(&report)
        );
        assert!(ids(&report).contains(&"deliver-unmatched"));
    }

    #[test]
    fn wrong_wire_latency_is_flagged() {
        let mut events = clean_run();
        for e in &mut events {
            if matches!(e.kind, EventKind::Arrive { .. }) {
                e.time = Time::new(2); // should be send + (o + L) = 3
            }
        }
        let report = MonitorSink::check(&events, &cfg());
        assert!(ids(&report).contains(&"wire-latency"));
    }

    #[test]
    fn double_color_and_double_deliver_are_flagged() {
        let mut events = clean_run();
        events.insert(6, colored(4, 1, ColoredVia::Correction));
        events.insert(6, deliver(5, 0, 1));
        let report = MonitorSink::check(&events, &cfg());
        let got = ids(&report);
        assert!(got.contains(&"colored-once"), "{got:?}");
        assert!(got.contains(&"deliver-once"), "{got:?}");
        assert!(got.contains(&"deliver-unmatched"), "{got:?}");
    }

    #[test]
    fn dead_rank_activity_is_flagged() {
        let mut events = clean_run();
        events.insert(3, send(1, 1, 0));
        let c = MonitorConfig::new()
            .with_p(2)
            .with_logp(LogP::PAPER)
            .with_failed(vec![false, true]);
        let report = MonitorSink::check(&events, &c);
        let got = ids(&report);
        assert!(got.contains(&"dead-silent"), "{got:?}");
    }

    #[test]
    fn drop_at_live_rank_is_flagged() {
        let events = vec![
            colored(0, 0, ColoredVia::Root),
            send(0, 0, 1),
            Event::sim(
                Time::new(3),
                EventKind::DropDead {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
        ];
        let c = MonitorConfig::new()
            .with_p(2)
            .with_failed(vec![false, false])
            .without_reliability();
        let report = MonitorSink::check(&events, &c);
        assert_eq!(ids(&report), vec!["drop-dead-target"]);
    }

    #[test]
    fn uncolored_live_rank_is_unreliable() {
        let events = vec![
            colored(0, 0, ColoredVia::Root),
            send(0, 0, 1),
            arrive(3, 0, 1),
        ];
        let report = MonitorSink::check(&events, &MonitorConfig::new().with_p(2));
        assert!(ids(&report).contains(&"reliability"));
    }

    #[test]
    fn a_rank_with_no_process_count_is_a_violation_not_a_false_report() {
        // The trace colors rank u32::MAX once; with or without a
        // configured P the verdict is the one rank-range violation,
        // never "never colored" reports for ranks it does not name.
        let events = vec![
            colored(0, Rank::MAX, ColoredVia::Root),
            send(1, Rank::MAX, 1),
        ];
        for cfg in [MonitorConfig::new(), MonitorConfig::new().with_p(2)] {
            let report = MonitorSink::check(&events, &cfg);
            assert_eq!(ids(&report), vec!["rank-range"]);
            assert!(report.violations[0].message.contains("rank 4294967295"));
        }
    }

    #[test]
    fn non_monotone_and_bad_nesting_are_flagged() {
        let events = vec![
            phase(0, true),
            send(5, 0, 1),
            arrive(3, 0, 1),
            phase(8, false),
            phase(9, false),
        ];
        let report = MonitorSink::check(
            &events,
            &MonitorConfig::new().with_p(2).without_reliability(),
        );
        let got = ids(&report);
        assert!(got.contains(&"time-monotone"), "{got:?}");
        assert!(got.contains(&"phase-nesting"), "{got:?}");
    }

    #[test]
    fn fail_fast_stops_at_first_violation() {
        let mut events = clean_run();
        events.retain(|e| !matches!(e.kind, EventKind::Arrive { .. }));
        let report = MonitorSink::check(&events, &cfg().with_fail_fast());
        assert_eq!(report.violations.len(), 1);
    }

    /// Satellite: wall-clock interleaving must not cause false
    /// positives. Cluster workers stamp causally ordered events with
    /// equal microseconds and the coordinator merges per-worker buffers
    /// by time only, so the raw order may show the arrival before its
    /// send; the monitor's stable `(time, order_class, index)` sort must
    /// repair it.
    #[test]
    fn equal_timestamp_interleaving_is_repaired_by_stable_sort() {
        let w = |t: u64, kind: EventKind| Event::wall(Time::new(t), t, kind);
        let events = vec![
            w(0, EventKind::PhaseBegin(Phase::Broadcast)),
            w(
                0,
                EventKind::Colored {
                    rank: 0,
                    via: ColoredVia::Root,
                },
            ),
            // Arrival and delivery surface *before* the send they
            // consume, all stamped in the same microsecond.
            w(
                7,
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            w(
                7,
                EventKind::Arrive {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            w(
                7,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            w(
                7,
                EventKind::Colored {
                    rank: 1,
                    via: ColoredVia::Dissemination,
                },
            ),
            w(9, EventKind::PhaseEnd(Phase::Broadcast)),
        ];
        let report = MonitorSink::check(&events, &MonitorConfig::new().with_p(2));
        assert!(report.is_ok(), "{}", report.render_text());
    }

    /// A clean 2-rank wall-clock broadcast labeled with broadcast `b`.
    fn labeled_run(b: u64) -> Vec<Event> {
        let w = |t: u64, kind: EventKind| Event::wall(Time::new(t), t, kind).with_bcast(b);
        vec![
            w(
                0,
                EventKind::Colored {
                    rank: 0,
                    via: ColoredVia::Root,
                },
            ),
            w(
                0,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            w(
                3,
                EventKind::Arrive {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            w(
                4,
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            w(
                4,
                EventKind::Colored {
                    rank: 1,
                    via: ColoredVia::Dissemination,
                },
            ),
        ]
    }

    #[test]
    fn concurrent_broadcasts_are_checked_independently() {
        // Two interleaved topics: each rank colored once per topic, each
        // delivery matching its own topic's arrival — clean.
        let mut events: Vec<Event> = Vec::new();
        for (a, b) in labeled_run(1).into_iter().zip(labeled_run(2)) {
            events.push(a);
            events.push(b);
        }
        let report = MonitorSink::check(&events, &MonitorConfig::new().with_p(2));
        assert!(report.is_ok(), "{}", report.render_text());
    }

    #[test]
    fn double_coloring_within_one_broadcast_is_still_flagged() {
        let mut events = labeled_run(1);
        events.extend(labeled_run(2));
        events.sort_by_key(|e| e.time);
        events.push(
            Event::wall(
                Time::new(5),
                5,
                EventKind::Colored {
                    rank: 1,
                    via: ColoredVia::Correction,
                },
            )
            .with_bcast(2),
        );
        let report = MonitorSink::check(&events, &MonitorConfig::new().with_p(2));
        let got = ids(&report);
        assert_eq!(got, vec!["colored-once"], "{}", report.render_text());
        assert!(
            report.violations[0].message.contains("in broadcast 2"),
            "{}",
            report.violations[0].message
        );
    }

    #[test]
    fn cross_broadcast_delivery_is_unmatched() {
        // Topic 2's delivery consumes topic 1's arrival: the sorted
        // stream has a pending arrival on the channel, but for the
        // wrong broadcast — must be flagged per topic.
        let mut events = labeled_run(1);
        // Remove topic 1's delivery so its arrival stays pending.
        events.retain(|e| !matches!(e.kind, EventKind::Deliver { .. }));
        events.push(
            Event::wall(
                Time::new(4),
                4,
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            )
            .with_bcast(2),
        );
        let report = MonitorSink::check(
            &events,
            &MonitorConfig::new().with_p(2).without_reliability(),
        );
        let got = ids(&report);
        assert!(got.contains(&"deliver-unmatched"), "{got:?}");
    }

    #[test]
    fn reliability_is_judged_per_broadcast() {
        // Topic 1 completes; topic 2 never colors rank 1.
        let mut events = labeled_run(1);
        events.extend(
            labeled_run(2)
                .into_iter()
                .filter(|e| !matches!(e.kind, EventKind::Colored { rank: 1, .. })),
        );
        events.sort_by_key(|e| e.time);
        let report = MonitorSink::check(&events, &MonitorConfig::new().with_p(2));
        let got = ids(&report);
        assert_eq!(got, vec!["reliability"], "{}", report.render_text());
        assert!(
            report.violations[0].message.contains("in broadcast 2"),
            "{}",
            report.violations[0].message
        );
    }

    #[test]
    fn unclosed_span_is_flagged_at_finish() {
        let mut events = clean_run();
        events.pop(); // drop the broadcast PhaseEnd
        let report = MonitorSink::check(&events, &cfg());
        assert!(ids(&report).contains(&"phase-nesting"));
    }

    #[test]
    fn report_json_is_stable() {
        let events = vec![
            colored(0, 0, ColoredVia::Root),
            colored(1, 0, ColoredVia::Correction),
        ];
        let report = MonitorSink::check(&events, &MonitorConfig::new().with_p(1));
        assert_eq!(
            report.to_json(),
            "{\"violations\":1,\"events\":2,\"reps\":1,\"records\":[\
             {\"invariant\":\"colored-once\",\"rep\":0,\"message\":\"rank 0 colored twice\",\
             \"event\":{\"t\":1,\"kind\":\"colored\",\"rank\":0,\"via\":\"correction\"},\
             \"witness\":{\"t\":0,\"kind\":\"colored\",\"rank\":0,\"via\":\"root\"}}]}"
        );
    }
}
