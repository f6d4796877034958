//! Failure forensics: per-failure impact reports and waste accounting.
//!
//! Joins a recorded event stream's [`CausalIndex`] with the tree
//! topology and the fault mask to answer the questions aggregate
//! counters cannot: *which* failure orphaned *which* ranks, *who*
//! rescued each orphan (first coloring delivery via the tree or via
//! ring correction, and from how far around the ring), and how much
//! latency each failure added over the fault-free dissemination
//! schedule. Alongside, a run-level [`WasteReport`] quantifies the
//! overhead the correction papers compare on: sends into dead ranks,
//! duplicate coloring deliveries masked at already-colored ranks, and
//! correction sends to targets that were already colored — each split
//! by dissemination (`tree`/`gossip`) vs correction (`correction`/
//! `ack`) traffic.
//!
//! The join assumes the identity rank mapping (root 0, no shuffle):
//! under `--root`/`--shuffle` the emitted ranks are physical while the
//! topology is virtual, so attribution would be permuted.

use ct_core::protocol::{ColoredVia, Payload};
use ct_core::tree::{Topology, Tree};
use ct_logp::{ring_distance, LogP, Rank};
use ct_obs::json::JsonObject;
use ct_obs::{CausalIndex, Event, EventKind};

fn is_correction(p: Payload) -> bool {
    matches!(p, Payload::Correction | Payload::Ack)
}

/// Run-level waste accounting (one repetition), split by phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WasteReport {
    /// Total `SendStart` events.
    pub sends: u64,
    /// Dissemination sends whose target is dead.
    pub dead_sends_dissemination: u64,
    /// Correction-phase sends whose target is dead.
    pub dead_sends_correction: u64,
    /// Coloring deliveries masked at an already-colored rank,
    /// dissemination payloads.
    pub duplicate_deliveries_dissemination: u64,
    /// Coloring deliveries masked at an already-colored rank,
    /// correction payloads.
    pub duplicate_deliveries_correction: u64,
    /// Correction sends whose target was already colored when the send
    /// started (inherent redundancy of blind ring probing).
    pub correction_sends_to_colored: u64,
}

impl WasteReport {
    /// Account one repetition's events, every broadcast in them,
    /// against a fault mask.
    pub fn from_events(events: &[Event], failed: &[bool]) -> WasteReport {
        let index = CausalIndex::build(events);
        let mut report = WasteReport::default();
        for &b in index.bcasts() {
            report.add(&WasteReport::from_index(events, &index, failed, b));
        }
        report
    }

    /// Account broadcast `b` of an indexed trace against a fault mask.
    pub fn from_index(events: &[Event], index: &CausalIndex, failed: &[bool], b: u64) -> Self {
        let dead = |r: Rank| failed.get(r as usize).copied().unwrap_or(false);
        let mut report = WasteReport::default();
        for (i, e) in events.iter().enumerate() {
            if e.bcast().unwrap_or(0) != b {
                continue;
            }
            match &e.kind {
                EventKind::SendStart { to, payload, .. } => {
                    report.sends += 1;
                    if dead(*to) {
                        if is_correction(*payload) {
                            report.dead_sends_correction += 1;
                        } else {
                            report.dead_sends_dissemination += 1;
                        }
                    }
                    if *payload == Payload::Correction
                        && index
                            .first_colored(b, *to)
                            .is_some_and(|c| events[c].time <= e.time)
                    {
                        report.correction_sends_to_colored += 1;
                    }
                }
                EventKind::Deliver { to, payload, .. }
                    if payload.colors() && index.first_coloring(b, *to) != Some(i) =>
                {
                    if is_correction(*payload) {
                        report.duplicate_deliveries_correction += 1;
                    } else {
                        report.duplicate_deliveries_dissemination += 1;
                    }
                }
                _ => {}
            }
        }
        report
    }

    /// Fold another repetition's accounting into this one.
    pub fn add(&mut self, other: &WasteReport) {
        self.sends += other.sends;
        self.dead_sends_dissemination += other.dead_sends_dissemination;
        self.dead_sends_correction += other.dead_sends_correction;
        self.duplicate_deliveries_dissemination += other.duplicate_deliveries_dissemination;
        self.duplicate_deliveries_correction += other.duplicate_deliveries_correction;
        self.correction_sends_to_colored += other.correction_sends_to_colored;
    }

    /// Total wasted sends (into dead ranks) plus masked deliveries.
    pub fn wasted_total(&self) -> u64 {
        self.dead_sends_dissemination
            + self.dead_sends_correction
            + self.duplicate_deliveries_dissemination
            + self.duplicate_deliveries_correction
    }

    /// Render as one stable JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("sends", self.sends);
        obj.field_raw(
            "dead_sends",
            &format!(
                "{{\"dissemination\":{},\"correction\":{}}}",
                self.dead_sends_dissemination, self.dead_sends_correction
            ),
        );
        obj.field_raw(
            "duplicate_deliveries",
            &format!(
                "{{\"dissemination\":{},\"correction\":{}}}",
                self.duplicate_deliveries_dissemination, self.duplicate_deliveries_correction
            ),
        );
        obj.field_u64(
            "correction_sends_to_colored",
            self.correction_sends_to_colored,
        );
        obj.field_u64("wasted_total", self.wasted_total());
        obj.finish()
    }
}

/// How (and whether) one orphan was rescued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrphanRescue {
    /// The orphaned rank.
    pub rank: Rank,
    /// When it would have colored fault-free (dissemination schedule).
    pub fault_free_at: u64,
    /// When it actually colored, if it ever did.
    pub colored_at: Option<u64>,
    /// How it was colored per its `Colored` event.
    pub via: Option<ColoredVia>,
    /// Sender of the first coloring delivery (the rescuer).
    pub rescuer: Option<Rank>,
    /// Payload of the first coloring delivery: `tree`/`gossip` when a
    /// rescued ancestor kept forwarding tree traffic, `correction` for
    /// a ring rescue.
    pub rescue_payload: Option<Payload>,
    /// Ring distance from the rescuer (min of the two directions).
    pub ring_hops: Option<u32>,
    /// Latency added over the fault-free schedule, in steps.
    pub added_delay: Option<u64>,
}

impl OrphanRescue {
    fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("rank", u64::from(self.rank));
        obj.field_u64("fault_free_at", self.fault_free_at);
        match self.colored_at {
            Some(t) => obj.field_u64("colored_at", t),
            None => obj.field_null("colored_at"),
        };
        match self.via {
            Some(ColoredVia::Root) => obj.field_str("via", "root"),
            Some(ColoredVia::Dissemination) => obj.field_str("via", "dissemination"),
            Some(ColoredVia::Correction) => obj.field_str("via", "correction"),
            None => obj.field_null("via"),
        };
        match self.rescuer {
            Some(r) => obj.field_u64("rescuer", u64::from(r)),
            None => obj.field_null("rescuer"),
        };
        match self.rescue_payload {
            Some(p) => obj.field_str("rescue_payload", Event::payload_tag(p)),
            None => obj.field_null("rescue_payload"),
        };
        match self.ring_hops {
            Some(h) => obj.field_u64("ring_hops", u64::from(h)),
            None => obj.field_null("ring_hops"),
        };
        match self.added_delay {
            Some(d) => obj.field_u64("added_delay", d),
            None => obj.field_null("added_delay"),
        };
        obj.finish()
    }
}

/// Impact of one failed rank: the subtree it beheaded and the rescue
/// story of every live orphan attributed to it (its nearest-dead-
/// ancestor partition).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureImpact {
    /// The failed rank.
    pub failed: Rank,
    /// Descendants of the failed rank in the tree (excluding itself).
    pub subtree_size: u32,
    /// Live orphans whose nearest dead ancestor is this rank.
    pub orphans: Vec<OrphanRescue>,
}

impl FailureImpact {
    /// Largest added delay among this failure's orphans, in steps.
    pub fn added_delay_max(&self) -> u64 {
        self.orphans
            .iter()
            .filter_map(|o| o.added_delay)
            .max()
            .unwrap_or(0)
    }

    fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("failed", u64::from(self.failed));
        obj.field_u64("subtree_size", u64::from(self.subtree_size));
        obj.field_u64("added_delay_max", self.added_delay_max());
        obj.field_array("orphans", self.orphans.iter().map(OrphanRescue::to_json));
        obj.finish()
    }
}

/// The full forensics join for one repetition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForensicsReport {
    /// Process count.
    pub p: u32,
    /// Failed ranks, ascending.
    pub failed_ranks: Vec<Rank>,
    /// Per-failure impact, ordered by failed rank.
    pub impacts: Vec<FailureImpact>,
    /// Ranks first colored via correction, run-wide (not only orphans —
    /// correction can also beat a slow tree path). Reconciles with
    /// `MessageCounts` correction totals and `Outcome::correction_colored`.
    pub colored_via_correction: u64,
    /// Live orphans that never colored (0 for a reliable run).
    pub unrescued: u32,
    /// Fault-free completion time of the dissemination tree, in steps.
    pub fault_free_latency: u64,
    /// Waste accounting for the same broadcast.
    pub waste: WasteReport,
}

impl ForensicsReport {
    /// Largest added delay across all failures, in steps.
    pub fn max_added_delay(&self) -> u64 {
        self.impacts
            .iter()
            .map(FailureImpact::added_delay_max)
            .max()
            .unwrap_or(0)
    }

    /// Total live orphans across all failures.
    pub fn orphan_count(&self) -> u32 {
        self.impacts.iter().map(|i| i.orphans.len() as u32).sum()
    }

    /// Render as one stable JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("p", u64::from(self.p));
        let failed: Vec<u64> = self.failed_ranks.iter().map(|&r| u64::from(r)).collect();
        obj.field_u64_array("failed", &failed);
        obj.field_u64("orphans", u64::from(self.orphan_count()));
        obj.field_u64("unrescued", u64::from(self.unrescued));
        obj.field_u64("colored_via_correction", self.colored_via_correction);
        obj.field_u64("fault_free_latency", self.fault_free_latency);
        obj.field_u64("max_added_delay", self.max_added_delay());
        obj.field_array("impacts", self.impacts.iter().map(FailureImpact::to_json));
        obj.field_raw("waste", &self.waste.to_json());
        obj.finish()
    }

    /// Render a human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "forensics: P={} failed={:?} orphans={} unrescued={}\n",
            self.p,
            self.failed_ranks,
            self.orphan_count(),
            self.unrescued
        ));
        out.push_str(&format!(
            "fault-free latency {} steps, max added delay {} steps, {} rank(s) colored via correction\n",
            self.fault_free_latency,
            self.max_added_delay(),
            self.colored_via_correction
        ));
        for impact in &self.impacts {
            out.push_str(&format!(
                "failure {}: subtree size {}, {} live orphan(s), max added delay {}\n",
                impact.failed,
                impact.subtree_size,
                impact.orphans.len(),
                impact.added_delay_max()
            ));
            for o in &impact.orphans {
                match (o.rescuer, o.colored_at) {
                    (Some(rescuer), Some(at)) => out.push_str(&format!(
                        "  orphan {:>6}: rescued by {} via {} ({} ring hop(s)) at {} (+{} vs fault-free {})\n",
                        o.rank,
                        rescuer,
                        o.rescue_payload.map_or("?", Event::payload_tag),
                        o.ring_hops.unwrap_or(0),
                        at,
                        o.added_delay.unwrap_or(0),
                        o.fault_free_at
                    )),
                    _ => out.push_str(&format!(
                        "  orphan {:>6}: NEVER RESCUED (fault-free {})\n",
                        o.rank, o.fault_free_at
                    )),
                }
            }
        }
        out.push_str(&format!("waste: {}\n", self.waste.to_json()));
        out
    }
}

/// Join one broadcast's event stream with the tree topology and fault
/// mask. Of a multiplexed stream, the lowest broadcast id is joined,
/// waste accounting included; the tree must be the identity-mapped
/// dissemination tree (root 0, no shuffle).
pub fn analyze_forensics(
    events: &[Event],
    tree: &Tree,
    failed: &[bool],
    logp: &LogP,
) -> ForensicsReport {
    let p = tree.num_processes();
    let dead = |r: Rank| failed.get(r as usize).copied().unwrap_or(false);
    let schedule = tree.dissemination_schedule(logp);
    let fault_free_latency = schedule.iter().map(|t| t.steps()).max().unwrap_or(0);

    // Nearest dead ancestor, computed top-down (root is always alive in
    // the fail-stop model, §4.3).
    let mut nda: Vec<Option<Rank>> = vec![None; p as usize];
    let mut stack: Vec<Rank> = vec![0];
    while let Some(x) = stack.pop() {
        for &c in tree.children(x) {
            nda[c as usize] = if dead(x) { Some(x) } else { nda[x as usize] };
            stack.push(c);
        }
    }

    // Coloring facts from the index, for the stream's (lowest)
    // broadcast.
    let index = CausalIndex::build(events);
    let b = index.bcasts().first().copied().unwrap_or(0);
    let colored = |r: Rank| {
        index
            .first_colored(b, r)
            .and_then(|i| match events[i].kind {
                EventKind::Colored { via, .. } => Some((events[i].time.steps(), via)),
                _ => None,
            })
    };
    let rescue = |r: Rank| {
        index
            .first_coloring(b, r)
            .and_then(|i| match events[i].kind {
                EventKind::Deliver { from, payload, .. } => Some((from, payload)),
                _ => None,
            })
    };
    let colored_via_correction = (0..index.p())
        .filter(|&r| colored(r).is_some_and(|(_, via)| via == ColoredVia::Correction))
        .count() as u64;

    let failed_ranks: Vec<Rank> = (0..p).filter(|&r| dead(r)).collect();
    let mut unrescued = 0u32;
    let mut impacts = Vec::with_capacity(failed_ranks.len());
    for &f in &failed_ranks {
        let subtree_size = tree.subtree(f).len() as u32 - 1;
        let mut orphans = Vec::new();
        for r in 0..p {
            if dead(r) || nda[r as usize] != Some(f) {
                continue;
            }
            let fault_free_at = schedule[r as usize].steps();
            let (colored_at, via) = colored(r).unzip();
            let (rescuer, rescue_payload) = rescue(r).unzip();
            if colored_at.is_none() {
                unrescued += 1;
            }
            orphans.push(OrphanRescue {
                rank: r,
                fault_free_at,
                colored_at,
                via,
                rescuer,
                rescue_payload,
                ring_hops: rescuer.map(|from| ring_distance(from, r, p)),
                added_delay: colored_at.map(|t| t.saturating_sub(fault_free_at)),
            });
        }
        impacts.push(FailureImpact {
            failed: f,
            subtree_size,
            orphans,
        });
    }

    ForensicsReport {
        p,
        failed_ranks,
        impacts,
        colored_via_correction,
        unrescued,
        fault_free_latency,
        waste: WasteReport::from_index(events, &index, failed, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_logp::Time;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::sim(Time::new(t), kind)
    }

    /// Chain 0 -> 1 -> 2 (p = 3), rank 1 dead: rank 2 is orphaned and
    /// must be ring-rescued by rank 0 (or 1's correction stand-in).
    fn chain() -> Tree {
        Tree::from_parents(vec![0, 0, 1]).unwrap()
    }

    #[test]
    fn orphan_attribution_and_rescue_provenance() {
        let tree = chain();
        let failed = vec![false, true, false];
        let logp = LogP::PAPER;
        let events = vec![
            ev(
                0,
                EventKind::Colored {
                    rank: 0,
                    via: ColoredVia::Root,
                },
            ),
            ev(
                0,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            ev(
                3,
                EventKind::DropDead {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
            ev(
                5,
                EventKind::SendStart {
                    from: 0,
                    to: 2,
                    payload: Payload::Correction,
                },
            ),
            ev(
                8,
                EventKind::Arrive {
                    from: 0,
                    to: 2,
                    payload: Payload::Correction,
                },
            ),
            ev(
                9,
                EventKind::Deliver {
                    from: 0,
                    to: 2,
                    payload: Payload::Correction,
                },
            ),
            ev(
                9,
                EventKind::Colored {
                    rank: 2,
                    via: ColoredVia::Correction,
                },
            ),
        ];
        let report = analyze_forensics(&events, &tree, &failed, &logp);
        assert_eq!(report.failed_ranks, vec![1]);
        assert_eq!(report.orphan_count(), 1);
        assert_eq!(report.unrescued, 0);
        assert_eq!(report.colored_via_correction, 1);
        let impact = &report.impacts[0];
        assert_eq!(impact.failed, 1);
        assert_eq!(impact.subtree_size, 1);
        let orphan = &impact.orphans[0];
        assert_eq!(orphan.rank, 2);
        assert_eq!(orphan.rescuer, Some(0));
        assert_eq!(orphan.rescue_payload, Some(Payload::Correction));
        assert_eq!(orphan.ring_hops, Some(1));
        // Fault-free: 0 colors 1 at 2o+L = 4, then 1 colors 2 at 8.
        assert_eq!(orphan.fault_free_at, 8);
        assert_eq!(orphan.colored_at, Some(9));
        assert_eq!(orphan.added_delay, Some(1));
        assert_eq!(report.waste.dead_sends_dissemination, 1);
        assert_eq!(report.waste.correction_sends_to_colored, 0);
    }

    #[test]
    fn nested_failures_attribute_to_nearest_dead_ancestor() {
        // 0 -> 1 -> 2 -> 3, ranks 1 and 2 dead: orphan 3 belongs to 2.
        let tree = Tree::from_parents(vec![0, 0, 1, 2]).unwrap();
        let failed = vec![false, true, true, false];
        let report = analyze_forensics(&[], &tree, &failed, &LogP::PAPER);
        assert_eq!(report.failed_ranks, vec![1, 2]);
        let by_failed: Vec<(Rank, usize)> = report
            .impacts
            .iter()
            .map(|i| (i.failed, i.orphans.len()))
            .collect();
        // Rank 1's only live descendant is under 2.
        assert_eq!(by_failed, vec![(1, 0), (2, 1)]);
        assert_eq!(report.unrescued, 1);
        assert_eq!(report.impacts[1].orphans[0].rank, 3);
    }

    #[test]
    fn forensics_of_a_multiplexed_stream_accounts_its_one_broadcast() {
        let failed = vec![false, true, false];
        let dead_send = |b: u64| {
            ev(
                0,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            )
            .with_bcast(b)
        };
        let events = vec![dead_send(5), dead_send(3), dead_send(5)];
        let report = analyze_forensics(&events, &chain(), &failed, &LogP::PAPER);
        assert_eq!(report.waste.sends, 1);
        assert_eq!(report.waste.dead_sends_dissemination, 1);
        assert_eq!(WasteReport::from_events(&events, &failed).sends, 3);
    }

    #[test]
    fn waste_counts_duplicates_and_blind_correction() {
        let failed = vec![false, false];
        let events = vec![
            ev(
                0,
                EventKind::Colored {
                    rank: 1,
                    via: ColoredVia::Dissemination,
                },
            ),
            // Correction send at t=2 to rank 1, colored at t=0: blind.
            ev(
                2,
                EventKind::SendStart {
                    from: 0,
                    to: 1,
                    payload: Payload::Correction,
                },
            ),
            ev(
                5,
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    payload: Payload::Correction,
                },
            ),
            // A second coloring delivery at rank 1: masked duplicate.
            ev(
                6,
                EventKind::Deliver {
                    from: 0,
                    to: 1,
                    payload: Payload::Tree,
                },
            ),
        ];
        let waste = WasteReport::from_events(&events, &failed);
        assert_eq!(waste.sends, 1);
        assert_eq!(waste.correction_sends_to_colored, 1);
        // First coloring delivery is the correction at t=5; the tree
        // delivery at t=6 is the masked duplicate.
        assert_eq!(waste.duplicate_deliveries_dissemination, 1);
        assert_eq!(waste.duplicate_deliveries_correction, 0);
        assert_eq!(waste.wasted_total(), 1);
    }

    #[test]
    fn report_json_is_stable() {
        let tree = chain();
        let failed = vec![false, true, false];
        let report = analyze_forensics(&[], &tree, &failed, &LogP::PAPER);
        assert_eq!(
            report.to_json(),
            "{\"p\":3,\"failed\":[1],\"orphans\":1,\"unrescued\":1,\
             \"colored_via_correction\":0,\"fault_free_latency\":8,\"max_added_delay\":0,\
             \"impacts\":[{\"failed\":1,\"subtree_size\":1,\"added_delay_max\":0,\
             \"orphans\":[{\"rank\":2,\"fault_free_at\":8,\"colored_at\":null,\"via\":null,\
             \"rescuer\":null,\"rescue_payload\":null,\"ring_hops\":null,\"added_delay\":null}]}],\
             \"waste\":{\"sends\":0,\"dead_sends\":{\"dissemination\":0,\"correction\":0},\
             \"duplicate_deliveries\":{\"dissemination\":0,\"correction\":0},\
             \"correction_sends_to_colored\":0,\"wasted_total\":0}}"
        );
    }
}
