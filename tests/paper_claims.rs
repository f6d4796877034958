//! The paper's headline quantitative claims, checked end-to-end at
//! reduced scale. Absolute numbers are model-exact here (the simulator
//! *is* the measurement device); shapes must match §4.

use corrected_trees::core::bounds::{lff_scc, m_scc};
use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::TreeKind;
use corrected_trees::exp::campaign::{Campaign, FaultSpec};
use corrected_trees::exp::Variant;
use corrected_trees::logp::LogP;
use corrected_trees::sim::Simulation;

#[test]
fn corrected_trees_halve_latency_vs_acknowledged_trees() {
    // Abstract: "a latency reduction of 50% … in comparison to existing
    // schemes". At P = 2^14 the ack tree costs 2·dissemination while
    // the corrected tree costs dissemination + 8.
    let p = 1 << 14;
    let run = |spec: BroadcastSpec| {
        Simulation::builder(p, LogP::PAPER)
            .build()
            .run(&spec)
            .unwrap()
            .quiescence
            .steps() as f64
    };
    let acked = run(BroadcastSpec::ack_tree(TreeKind::BINOMIAL));
    let corrected = run(BroadcastSpec::corrected_tree_sync(
        TreeKind::BINOMIAL,
        CorrectionKind::Checked,
    ));
    let reduction = 1.0 - corrected / acked;
    assert!(
        reduction > 0.35,
        "corrected trees must cut latency by roughly half: got {:.0}% ({corrected} vs {acked})",
        reduction * 100.0
    );
}

#[test]
fn corrected_trees_send_several_times_fewer_messages_than_gossip() {
    // Abstract: "up to six times fewer messages sent". Compare checked
    // corrected trees against checked gossip at a gossip time long
    // enough to be competitive on coloring.
    let p = 1 << 12;
    let tree = Campaign::new(
        Variant::tree_checked_sync(TreeKind::BINOMIAL),
        p,
        LogP::PAPER,
    )
    .run(1)
    .unwrap()[0]
        .messages_per_process;
    let gossip = Campaign::new(
        Variant::gossip(12 + 30, CorrectionKind::Checked),
        p,
        LogP::PAPER,
    )
    .with_reps(3)
    .run(1)
    .unwrap()
    .iter()
    .map(|r| r.messages_per_process)
    .sum::<f64>()
        / 3.0;
    assert!(
        gossip / tree > 2.0,
        "gossip {gossip:.1} msgs/proc vs trees {tree:.1}: ratio too small"
    );
}

#[test]
fn fault_free_correction_costs_exactly_the_closed_forms() {
    // §4.1/§4.2: 8 steps and 5 messages per process at L=2, o=1,
    // independent of tree type and process count.
    let logp = LogP::PAPER;
    for p in [64u32, 512, 4096] {
        for kind in [
            TreeKind::BINOMIAL,
            TreeKind::FOUR_ARY,
            TreeKind::LAME2,
            TreeKind::OPTIMAL,
        ] {
            let tree = kind.build(p, &logp).unwrap();
            let start = tree.dissemination_deadline(&logp);
            let out = Simulation::builder(p, logp)
                .build()
                .run(&BroadcastSpec::corrected_tree_sync(
                    kind,
                    CorrectionKind::Checked,
                ))
                .unwrap();
            assert_eq!(
                out.quiescence.since(start).steps(),
                lff_scc(&logp).steps(),
                "{kind} P={p}"
            );
            assert_eq!(
                out.messages.correction,
                m_scc(&logp) * p as u64,
                "{kind} P={p}"
            );
        }
    }
}

#[test]
fn latency_degradation_under_faults_is_modest_for_trees() {
    // §4.3: tree latency degrades on the order of 10-20% from 0.01% to
    // 4% faults — not catastrophically.
    let p = 1 << 12;
    let mean_q = |rate: f64| {
        let records = Campaign::new(
            Variant::tree_checked_sync(TreeKind::BINOMIAL),
            p,
            LogP::PAPER,
        )
        .with_faults(FaultSpec::Rate(rate))
        .with_reps(20)
        .with_seed(9)
        .run(4)
        .unwrap();
        records.iter().map(|r| r.quiescence as f64).sum::<f64>() / records.len() as f64
    };
    let low = mean_q(0.0001);
    let high = mean_q(0.04);
    let degradation = high / low - 1.0;
    assert!(
        degradation > 0.0,
        "faults must cost something: {low} → {high}"
    );
    assert!(
        degradation < 0.8,
        "degradation should stay moderate: {:.0}%",
        degradation * 100.0
    );
}

#[test]
fn message_count_drops_under_faults() {
    // §4.3 / Figure 9: "a drop in network activity is rather an
    // unintended side effect" — fewer colored processes participate.
    let p = 1 << 12;
    let mean_m = |rate: f64| {
        let records = Campaign::new(
            Variant::tree_checked_sync(TreeKind::FOUR_ARY),
            p,
            LogP::PAPER,
        )
        .with_faults(FaultSpec::Rate(rate))
        .with_reps(10)
        .with_seed(4)
        .run(4)
        .unwrap();
        records.iter().map(|r| r.messages_per_process).sum::<f64>() / records.len() as f64
    };
    assert!(mean_m(0.04) < mean_m(0.0001));
}

#[test]
fn interleaving_bounds_expected_gap_growth() {
    // Figure 1b's core claim: with interleaved numbering the expected
    // max gap grows slowly with the number of faults, while in-order
    // numbering produces subtree-sized gaps.
    use corrected_trees::core::tree::{ring, Ordering};
    use corrected_trees::sim::FaultPlan;
    let p = 1 << 14;
    let logp = LogP::PAPER;
    let mean_gmax = |order: Ordering, faults: u32| -> f64 {
        let tree = TreeKind::Binomial { order }.build(p, &logp).unwrap();
        let mut total = 0u64;
        let reps = 40;
        for seed in 0..reps {
            let plan = FaultPlan::random_count(p, faults, seed).unwrap();
            let colored = ring::color_after_dissemination(&tree, plan.mask());
            total += ring::max_gap(&colored) as u64;
        }
        total as f64 / reps as f64
    };
    for faults in [1u32, 5] {
        let interleaved = mean_gmax(Ordering::Interleaved, faults);
        let in_order = mean_gmax(Ordering::InOrder, faults);
        // A uniformly random failure is a leaf half the time, so the
        // *mean* separation is modest for one fault — but interleaving
        // must stay pinned near 1 while in-order scales with subtree
        // sizes (multiples of it).
        assert!(
            in_order > 2.0 * interleaved,
            "faults={faults}: in-order {in_order} vs interleaved {interleaved}"
        );
        assert!(
            interleaved < 2.5,
            "faults={faults}: interleaved mean g_max must stay near 1, got {interleaved}"
        );
    }
}
