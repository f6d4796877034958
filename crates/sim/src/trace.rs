//! Figure 5-style ASCII timelines, rendered from the observability event
//! stream (`ct trace`, the `protocol_trace` example and timeline tests).

use ct_logp::Rank;
use ct_obs::{Event, EventKind};

/// Render an ASCII timeline of sender activity, one row per rank — the
/// shape of Figure 5a. `S` marks a send slot, `R` a delivery.
///
/// The horizon is the last message event (send, arrival, delivery or
/// drop) plus `o`; coloring and phase-span events neither mark nor
/// stretch the canvas. `ranks` restricts the printed rows. The horizon
/// and all marks are computed from the full stream — the filter hides
/// rows, it does not re-time them — so the visible rows line up
/// column-for-column with the unfiltered rendering.
pub fn ascii_timeline(events: &[Event], p: u32, o: u64, ranks: Option<&[Rank]>) -> String {
    let horizon = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::SendStart { .. }
                    | EventKind::Arrive { .. }
                    | EventKind::Deliver { .. }
                    | EventKind::DropDead { .. }
            )
        })
        .map(|e| e.time.steps() + o)
        .max()
        .unwrap_or(0) as usize;
    let mut rows = vec![vec![b'.'; horizon]; p as usize];
    for e in events {
        match e.kind {
            EventKind::SendStart { from, .. } => {
                for dt in 0..o as usize {
                    let t = e.time.steps() as usize + dt;
                    if t < horizon {
                        rows[from as usize][t] = b'S';
                    }
                }
            }
            EventKind::Deliver { to, .. } => {
                // Delivery time marks the *end* of processing: the
                // receive slot occupies [t − o, t). Slots that would
                // precede t = 0 are skipped, not clamped — clamping
                // would pile every early mark onto column 0 and
                // overwrite same-rank S cells there.
                for dt in 0..o as usize {
                    let steps = e.time.steps() as usize;
                    if steps < dt + 1 {
                        continue;
                    }
                    let t = steps - (dt + 1);
                    if t < horizon {
                        rows[to as usize][t] = b'R';
                    }
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        if ranks.is_some_and(|keep| !keep.contains(&(r as Rank))) {
            continue;
        }
        out.push_str(&format!("{r:>5} |"));
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::protocol::{ColoredVia, Payload};
    use ct_logp::Time;

    fn send(time: u64, from: Rank, to: Rank) -> Event {
        let payload = Payload::Tree;
        Event::sim(Time::new(time), EventKind::SendStart { from, to, payload })
    }

    fn deliver(time: u64, from: Rank, to: Rank) -> Event {
        let payload = Payload::Tree;
        Event::sim(Time::new(time), EventKind::Deliver { from, to, payload })
    }

    #[test]
    fn ascii_timeline_marks_send_and_receive() {
        let art = ascii_timeline(&[send(0, 0, 1), deliver(4, 0, 1)], 2, 1, None);
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines[0].contains('S'));
        assert!(lines[1].contains('R'));
    }

    #[test]
    fn ascii_timeline_golden_string() {
        // A delivery whose receive slot would precede t = 0 must be
        // skipped, not clamped onto column 0 — clamping used to
        // overwrite the S of a send happening there.
        let events = [
            send(0, 0, 1),
            deliver(0, 1, 0), // slot [−1, 0): off-canvas
            deliver(3, 0, 1), // slot [2, 3)
        ];
        assert_eq!(
            ascii_timeline(&events, 2, 1, None),
            "    0 |S...\n    1 |..R.\n"
        );
    }

    #[test]
    fn ascii_timeline_wide_overhead_skips_precanvas_slots() {
        // o = 2: a delivery at t = 1 occupies [−1, 1); only the slot at
        // column 0 exists. The old clamp marked column 0 twice (harmless)
        // but also invented marks for deliveries at t = 0.
        let events = [deliver(1, 1, 0), deliver(0, 1, 1)];
        assert_eq!(
            ascii_timeline(&events, 2, 2, None),
            "    0 |R..\n    1 |...\n"
        );
    }

    #[test]
    fn ascii_timeline_ranks_hides_rows_without_retiming() {
        let events = [send(0, 0, 1), deliver(3, 0, 1)];
        let full = ascii_timeline(&events, 3, 1, None);
        let only1 = ascii_timeline(&events, 3, 1, Some(&[1]));
        // The filtered view is exactly the matching row of the full view.
        let row1 = full.lines().nth(1).unwrap();
        assert_eq!(only1, format!("{row1}\n"));
    }

    #[test]
    fn coloring_and_phase_events_neither_mark_nor_stretch_the_canvas() {
        let span = |time: u64| {
            let phase = ct_obs::Phase::Broadcast;
            Event::sim(Time::new(time), EventKind::PhaseEnd(phase))
        };
        let colored = Event::sim(
            Time::new(9),
            EventKind::Colored {
                rank: 1,
                via: ColoredVia::Dissemination,
            },
        );
        let events = [send(0, 0, 1), deliver(3, 0, 1), colored, span(12)];
        assert_eq!(
            ascii_timeline(&events, 2, 1, None),
            ascii_timeline(&events[..2], 2, 1, None)
        );
    }
}
