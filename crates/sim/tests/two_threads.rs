//! Two threads equal one thread on every field.
//!
//! An unobserved run of at least 16 384 ranks splits its wide time steps
//! between two threads when the process has a core to spare; an observed
//! run never does. Every cell of the wide pins of `stream_pins.rs` (six
//! kinds × three numberings × three fault patterns, P = 16 384 and
//! 65 536) must give the same outcome both ways, and the arena must show
//! that the two-thread path ran. Also: one arena reused across sizes and
//! kinds. (A wide run cut short by the event cap is `engine.rs`'s
//! `a_sharded_run_cut_short_gives_its_lanes_back`.)
//!
//! This suite is its own test binary, and its tests take turns: the
//! engine keeps a run on one thread while more than half of the
//! process's thread count runs are in flight, so concurrent tests would
//! hide the path they are here to cover.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ct_core::correction::CorrectionKind;
use ct_core::protocol::BroadcastSpec;
use ct_core::tree::TreeKind;
use ct_logp::{LogP, Rank};
use ct_obs::{Event, EventSink};
use ct_sim::{FaultPlan, Outcome, RunArena, Simulation};

/// One test at a time (module docs).
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether this process leaves a run a second thread.
fn two_threads_available() -> bool {
    let threads = ct_obs::default_threads();
    if threads < 2 {
        eprintln!("one thread available: the two-thread path is not exercised");
    }
    threads >= 2
}

/// Observes a run (so it stays on one thread) and counts its events.
#[derive(Default)]
struct Count(u64);

impl EventSink for Count {
    fn emit(&mut self, _: &Event) {
        self.0 += 1;
    }
}

fn kinds(logp: &LogP) -> Vec<(&'static str, BroadcastSpec)> {
    let tree = |kind| BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, kind);
    let sync = |kind| BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, kind);
    vec![
        ("checked", tree(CorrectionKind::Checked)),
        ("checked-sync", sync(CorrectionKind::Checked)),
        (
            "opp4",
            tree(CorrectionKind::OpportunisticOptimized { distance: 4 }),
        ),
        ("failure-proof", tree(CorrectionKind::FailureProof)),
        ("paced40", tree(CorrectionKind::checked_paced(logp, 40))),
        ("delayed30", tree(CorrectionKind::Delayed { delay: 30 })),
    ]
}

/// `(cell, simulation, spec)` of every wide pin, in pin order.
fn cells() -> Vec<(String, Simulation, BroadcastSpec)> {
    let logp = LogP::PAPER;
    let mut cells = Vec::new();
    for p in [16_384u32, 65_536] {
        for (numbering, root, shuffle) in [
            ("linear", 0, None),
            ("root4097", 4097, None),
            ("shuffled", 0, Some(5)),
        ] {
            let block: Vec<Rank> = (3 * p / 4..3 * p / 4 + 256).collect();
            let one_pct = FaultPlan::random_count_protecting(p, p / 100, u64::from(p) + 3, root);
            for (faults, plan) in [
                ("none", FaultPlan::none(p)),
                ("1pct", one_pct.unwrap()),
                ("block256", FaultPlan::from_ranks(p, &block).unwrap()),
            ] {
                for (name, spec) in kinds(&logp) {
                    let mut spec = spec.with_root(root);
                    if let Some(seed) = shuffle {
                        spec = spec.with_shuffle(seed);
                    }
                    let sim = Simulation::builder(p, logp)
                        .faults(plan.clone())
                        .seed(u64::from(p) + 29)
                        .build();
                    cells.push((format!("{name} {numbering} {faults} p{p}"), sim, spec));
                }
            }
        }
    }
    cells
}

fn assert_same(cell: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.label, b.label, "{cell}");
    assert_eq!((a.p, a.seed), (b.p, b.seed), "{cell}");
    assert_eq!(a.events, b.events, "{cell}");
    assert_eq!(a.messages, b.messages, "{cell}");
    assert_eq!(a.quiescence, b.quiescence, "{cell}");
    assert_eq!(a.coloring_latency, b.coloring_latency, "{cell}");
    assert_eq!(a.failed, b.failed, "{cell}");
    assert!(a.colored_at == b.colored_at, "{cell}: colored_at differs");
    assert!(
        a.colored_via == b.colored_via,
        "{cell}: colored_via differs"
    );
    assert!(
        a.sent_per_rank == b.sent_per_rank,
        "{cell}: sent_per_rank differs"
    );
}

/// One thread, observed.
fn observed(sim: &Simulation, spec: &BroadcastSpec, arena: &mut RunArena) -> Outcome {
    let mut count = Count::default();
    let out = sim.run_with_sink_reusable(spec, &mut count, arena).unwrap();
    assert!(count.0 > 0, "the sink saw the run");
    out
}

#[test]
fn every_wide_pin_runs_the_same_on_two_threads() {
    let _turn = turn();
    let two = two_threads_available();
    let (mut one_thread, mut arena) = (RunArena::new(), RunArena::new());
    for (cell, sim, spec) in cells() {
        let reference = observed(&sim, &spec, &mut one_thread);
        let before = arena.split_steps();
        let out = sim.run_reusable(&spec, &mut arena).unwrap();
        assert_same(&cell, &reference, &out);
        if two {
            assert!(arena.split_steps() > before, "{cell}: no step split");
        }
    }
    assert_eq!(
        one_thread.split_steps(),
        0,
        "observed runs stay on one thread"
    );
}

#[test]
fn one_arena_serves_every_size_and_kind() {
    let _turn = turn();
    let two = two_threads_available();
    let logp = LogP::PAPER;
    let mut arena = RunArena::new();
    let mut fresh = RunArena::new();
    let mut split = 0;
    for (i, p) in [65_536u32, 1024, 65_536, 16_384].into_iter().enumerate() {
        for (name, spec) in kinds(&logp) {
            let plan = FaultPlan::random_count(p, p / 100, i as u64 + 7).unwrap();
            let sim = Simulation::builder(p, logp).faults(plan).seed(3).build();
            let reference = observed(&sim, &spec, &mut fresh);
            let out = sim.run_reusable(&spec, &mut arena).unwrap();
            assert_same(&format!("{name} p{p} (pass {i})"), &reference, &out);
            let steps = arena.split_steps();
            if p == 1024 {
                assert_eq!(steps, split, "P = 1024 stays on one thread");
            } else if two {
                assert!(steps > split, "{name} p{p}: no step split");
            }
            split = steps;
        }
    }
}
