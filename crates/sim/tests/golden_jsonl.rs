//! Golden-trace regression: the JSONL event stream of a fixed
//! configuration must stay byte-for-byte identical across code changes.
//!
//! The golden file is checked in at `tests/data/golden_p4.jsonl`; to
//! regenerate it after an *intentional* schema or engine change, run
//! `CT_REGEN_GOLDEN=1 cargo test -p ct-sim --test golden_jsonl` and
//! review the diff.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::BroadcastSpec;
use ct_core::tree::TreeKind;
use ct_logp::LogP;
use ct_obs::{EventKind, EventSink, VecSink};
use ct_sim::{FaultPlan, Simulation};

const GOLDEN_PATH: &str = "tests/data/golden_p4.jsonl";
const GOLDEN: &str = include_str!("data/golden_p4.jsonl");

/// The pinned configuration: small enough to review by hand, rich
/// enough to exercise tree + correction payloads, drops and coloring.
fn golden_stream() -> VecSink {
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 2 },
    );
    let faults = FaultPlan::from_ranks(4, &[2]).expect("valid fault plan");
    let sim = Simulation::builder(4, LogP::PAPER)
        .faults(faults)
        .seed(1)
        .build();
    let mut sink = VecSink::new();
    sim.run_with_sink_reusable(&spec, &mut sink, &mut ct_sim::RunArena::new())
        .expect("run succeeds");
    sink
}

#[test]
fn golden_trace_is_byte_for_byte_stable() {
    let jsonl = golden_stream().to_jsonl();
    if std::env::var_os("CT_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &jsonl).expect("write golden");
        return;
    }
    assert_eq!(
        jsonl, GOLDEN,
        "event stream diverged from the golden trace; if intentional, \
         regenerate with CT_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_trace_survives_arena_reuse_byte_for_byte() {
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 2 },
    );
    let golden_sim = || {
        Simulation::builder(4, LogP::PAPER)
            .faults(FaultPlan::from_ranks(4, &[2]).expect("valid fault plan"))
            .seed(1)
            .build()
    };
    let mut arena = ct_sim::RunArena::new();
    // Dirty the arena with runs of a different shape (larger P, other
    // protocol, faults elsewhere) before and between golden runs: the
    // reset must erase every trace of them.
    let other_spec = BroadcastSpec::corrected_tree_sync(TreeKind::LAME2, CorrectionKind::Checked);
    let other = Simulation::builder(64, LogP::PAPER)
        .faults(FaultPlan::from_ranks(64, &[3, 17]).unwrap())
        .seed(9)
        .build();
    other.run_reusable(&other_spec, &mut arena).unwrap();
    for _ in 0..2 {
        let mut sink = VecSink::new();
        golden_sim()
            .run_with_sink_reusable(&spec, &mut sink, &mut arena)
            .expect("run succeeds");
        assert_eq!(
            sink.to_jsonl(),
            GOLDEN,
            "a reused arena must replay the golden trace byte-for-byte"
        );
        other.run_reusable(&other_spec, &mut arena).unwrap();
    }
}

#[test]
fn golden_stream_is_schema_complete() {
    let sink = golden_stream();
    let has = |pred: &dyn Fn(&EventKind) -> bool| sink.events.iter().any(|e| pred(&e.kind));
    assert!(has(&|k| matches!(k, EventKind::SendStart { .. })));
    assert!(has(&|k| matches!(k, EventKind::Deliver { .. })));
    assert!(
        has(&|k| matches!(k, EventKind::DropDead { .. })),
        "rank 2 is dead"
    );
    assert!(has(&|k| matches!(k, EventKind::Colored { .. })));
    assert!(has(&|k| matches!(k, EventKind::PhaseBegin { .. })));
    assert!(has(&|k| matches!(k, EventKind::PhaseEnd { .. })));
}

#[test]
fn sink_events_agree_with_outcome_metrics() {
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 2 },
    );
    let sim = Simulation::builder(16, LogP::PAPER).seed(3).build();
    let mut sink = VecSink::new();
    let out = sim
        .run_with_sink_reusable(&spec, &mut sink, &mut ct_sim::RunArena::new())
        .unwrap();

    let sends = sink
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SendStart { .. }))
        .count() as u64;
    assert_eq!(sends, out.messages.total());

    // Every Colored event matches the outcome's colored_at/colored_via.
    for e in &sink.events {
        if let EventKind::Colored { rank, via } = e.kind {
            assert_eq!(out.colored_at[rank as usize], Some(e.time));
            assert_eq!(out.colored_via[rank as usize], Some(via));
        }
    }
    let colored_events = sink
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Colored { .. }))
        .count();
    assert_eq!(
        colored_events,
        out.colored_at.iter().filter(|c| c.is_some()).count()
    );
}

#[test]
fn observed_and_unobserved_runs_agree() {
    // The sink must be a pure observer: metrics are identical with the
    // default NullSink and with a recording sink.
    let spec = BroadcastSpec::corrected_tree_sync(TreeKind::LAME2, CorrectionKind::Checked);
    let faults = FaultPlan::random_count(64, 5, 11).unwrap();
    let sim = Simulation::builder(64, LogP::PAPER)
        .faults(faults)
        .seed(5)
        .build();
    let plain = sim.run(&spec).unwrap();
    let mut sink = VecSink::new();
    let observed = sim
        .run_with_sink_reusable(&spec, &mut sink, &mut ct_sim::RunArena::new())
        .unwrap();
    assert_eq!(plain.colored_at, observed.colored_at);
    assert_eq!(plain.messages, observed.messages);
    assert_eq!(plain.quiescence, observed.quiescence);
    assert_eq!(plain.events, observed.events);
    assert!(!sink.events.is_empty());
}

#[test]
fn null_sink_reports_disabled() {
    assert!(!ct_obs::NullSink.enabled());
}
