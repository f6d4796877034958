//! Failure forensics must reconcile with the simulator's own metrics:
//! the rescue provenance is derived purely from the event stream, the
//! outcome counters purely from protocol state — agreement between the
//! two is an end-to-end check on both.

use corrected_trees::analyze::{analyze_forensics, WasteReport};
use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::LogP;
use corrected_trees::obs::VecSink;
use corrected_trees::sim::{FaultPlan, Outcome, RunArena, Simulation};

fn faulty_run(
    p: u32,
    faults: u32,
    seed: u64,
) -> (Outcome, Vec<corrected_trees::obs::Event>, Vec<bool>) {
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 4 },
    );
    let plan = FaultPlan::random_count_protecting(p, faults, seed, 0).expect("valid plan");
    let mask = plan.mask().to_vec();
    let mut sink = VecSink::new();
    let out = Simulation::builder(p, LogP::PAPER)
        .faults(plan)
        .seed(seed)
        .build()
        .run_with_sink_reusable(&spec, &mut sink, &mut RunArena::new())
        .expect("valid configuration");
    (out, sink.events, mask)
}

#[test]
fn every_orphan_is_attributed_to_a_rescuer() {
    for seed in [3, 5, 11] {
        let (out, events, mask) = faulty_run(64, 3, seed);
        assert!(out.all_live_colored(), "seed {seed}");
        let tree = TreeKind::BINOMIAL.build(64, &LogP::PAPER).expect("tree");
        let report = analyze_forensics(&events, &tree, &mask, &LogP::PAPER);

        let failed: Vec<u32> = (0..64u32).filter(|&r| mask[r as usize]).collect();
        assert_eq!(report.failed_ranks, failed, "seed {seed}");
        assert_eq!(
            report.impacts.len(),
            failed.len(),
            "one impact per failure (seed {seed})"
        );
        assert_eq!(report.unrescued, 0, "seed {seed}: {}", report.render_text());
        for impact in &report.impacts {
            for orphan in &impact.orphans {
                assert!(
                    orphan.rescuer.is_some(),
                    "seed {seed}: orphan {} of failure {} has no rescuer",
                    orphan.rank,
                    impact.failed
                );
                assert!(orphan.colored_at.is_some());
            }
        }
    }
}

#[test]
fn rescue_counts_reconcile_with_message_counts() {
    for seed in [3, 5, 11] {
        let (out, events, mask) = faulty_run(64, 3, seed);
        let tree = TreeKind::BINOMIAL.build(64, &LogP::PAPER).expect("tree");
        let report = analyze_forensics(&events, &tree, &mask, &LogP::PAPER);

        // The trace-derived correction-coloring count must equal the
        // simulator's own tally, and each such coloring consumed at
        // least one correction message.
        assert_eq!(
            report.colored_via_correction,
            u64::from(out.correction_colored()),
            "seed {seed}"
        );
        assert!(
            report.colored_via_correction <= out.messages.correction,
            "seed {seed}: {} correction colorings from {} correction sends",
            report.colored_via_correction,
            out.messages.correction
        );

        // Waste accounting is bounded by the same totals.
        let waste = WasteReport::from_events(&events, &mask);
        assert_eq!(waste.sends, out.messages.total(), "seed {seed}");
        assert!(waste.correction_sends_to_colored <= out.messages.correction);
        assert!(waste.wasted_total() <= waste.sends);
    }
}

#[test]
fn fault_free_run_has_empty_forensics() {
    let (out, events, mask) = faulty_run(64, 0, 1);
    assert!(out.all_live_colored());
    let tree = TreeKind::BINOMIAL.build(64, &LogP::PAPER).expect("tree");
    let report = analyze_forensics(&events, &tree, &mask, &LogP::PAPER);
    assert!(report.failed_ranks.is_empty());
    assert!(report.impacts.is_empty());
    assert_eq!(report.orphan_count(), 0);
    assert_eq!(report.unrescued, 0);
}
