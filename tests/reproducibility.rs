//! "All our simulations are fully reproducible as we keep the random
//! generator seed of every experiment" (§4) — enforced here across the
//! whole stack: simulator runs, fault plans, campaigns and figure
//! pipelines.

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::gossip::GossipSpec;
use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::TreeKind;
use corrected_trees::exp::campaign::{Campaign, FaultSpec};
use corrected_trees::exp::Variant;
use corrected_trees::logp::LogP;
use corrected_trees::sim::{FaultPlan, Simulation};

#[test]
fn identical_seeds_reproduce_faulty_gossip_bit_for_bit() {
    let spec = GossipSpec::time_limited(18, CorrectionKind::Checked);
    let run = |seed: u64| {
        let faults = FaultPlan::random_rate(512, 0.02, seed).unwrap();
        Simulation::builder(512, LogP::PAPER)
            .faults(faults)
            .seed(seed)
            .build()
            .run_with_events(&spec)
            .unwrap()
    };
    let (a_out, a_events) = run(7);
    let (b_out, b_events) = run(7);
    assert_eq!(a_out.colored_at, b_out.colored_at);
    assert_eq!(a_out.messages, b_out.messages);
    assert_eq!(a_out.events, b_out.events);
    assert_eq!(a_events, b_events, "full event streams must be identical");
}

#[test]
fn different_seeds_give_different_gossip_traces() {
    let spec = GossipSpec::time_limited(18, CorrectionKind::Checked);
    let run = |seed: u64| {
        Simulation::builder(512, LogP::PAPER)
            .seed(seed)
            .build()
            .run_with_events(&spec)
            .unwrap()
            .1
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn tree_broadcasts_are_seed_independent() {
    // Deterministic protocols must give identical results for any seed.
    let spec = BroadcastSpec::corrected_tree_sync(TreeKind::LAME2, CorrectionKind::Checked);
    let run = |seed: u64| {
        Simulation::builder(256, LogP::PAPER)
            .seed(seed)
            .build()
            .run(&spec)
            .unwrap()
    };
    let a = run(1);
    let b = run(999);
    assert_eq!(a.colored_at, b.colored_at);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.quiescence, b.quiescence);
}

#[test]
fn campaigns_reproduce_across_thread_counts() {
    let campaign = Campaign::new(
        Variant::tree_opportunistic(TreeKind::BINOMIAL, 4),
        512,
        LogP::PAPER,
    )
    .with_faults(FaultSpec::Rate(0.02))
    .with_reps(12)
    .with_seed(33);
    let one = campaign.run(1).unwrap();
    let four = campaign.run(4).unwrap();
    let eight = campaign.run(8).unwrap();
    assert_eq!(one, four);
    assert_eq!(one, eight);
}

#[test]
fn fault_plans_depend_only_on_their_inputs() {
    let a = FaultPlan::random_rate(10_000, 0.01, 5).unwrap();
    let b = FaultPlan::random_rate(10_000, 0.01, 5).unwrap();
    assert_eq!(a, b);
    assert_eq!(
        a.failed_ranks().collect::<Vec<_>>(),
        b.failed_ranks().collect::<Vec<_>>()
    );
}
