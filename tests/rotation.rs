//! Broadcasts rooted at arbitrary ranks (the "without loss of
//! generality" of §2, made executable): rotation preserves all protocol
//! costs and guarantees.

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::LogP;
use corrected_trees::sim::{FaultPlan, Simulation};
use proptest::prelude::*;

#[test]
fn rotated_broadcast_starts_at_the_new_root() {
    let p = 64u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL).with_root(17);
    let out = Simulation::builder(p, LogP::PAPER)
        .build()
        .run(&spec)
        .unwrap();
    assert!(out.all_live_colored());
    assert_eq!(out.colored_at[17], Some(corrected_trees::logp::Time::ZERO));
    assert!(out.colored_at[0].unwrap() > corrected_trees::logp::Time::ZERO);
}

#[test]
fn rotation_preserves_latency_and_messages() {
    let p = 256u32;
    let logp = LogP::PAPER;
    let deadline = TreeKind::LAME2
        .build(p, &logp)
        .unwrap()
        .dissemination_deadline(&logp)
        .steps();
    for root in [0u32, 1, 100, 255] {
        let spec = BroadcastSpec::corrected_tree_sync(TreeKind::LAME2, CorrectionKind::Checked)
            .with_root(root);
        let out = Simulation::builder(p, logp).build().run(&spec).unwrap();
        assert!(out.all_live_colored());
        // Rotation is an isomorphism: identical totals for every root.
        assert_eq!(out.messages.tree, (p - 1) as u64, "root {root}");
        assert_eq!(out.messages.correction, 5 * p as u64, "root {root}");
        assert_eq!(out.quiescence.steps(), deadline + 8, "root {root}");
    }
}

#[test]
fn out_of_range_root_is_rejected() {
    use ct_core::protocol::{BuildCtx, ProtocolFactory};
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL).with_root(8);
    let ctx = BuildCtx {
        p: 8,
        logp: LogP::PAPER,
        seed: 0,
    };
    assert!(spec.blueprint(&ctx).is_err());
    assert!(spec.populate(&ctx, &mut None).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Non-faulty liveness holds for any root, with failures placed
    /// anywhere except the broadcasting process itself.
    #[test]
    fn any_root_heals_failures(
        p in 2u32..150,
        root_seed in any::<u32>(),
        n_faults in 0u32..6,
        seed in 0u64..1_000_000,
    ) {
        let root = root_seed % p;
        let n_faults = n_faults.min(p - 1);
        let spec = BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked)
            .with_root(root);
        // Faults can hit anyone except the broadcasting process — in
        // particular physical rank 0 may die when it is not the root.
        let faults = FaultPlan::random_count_protecting(p, n_faults, seed, root).expect("plan");
        let out = Simulation::builder(p, LogP::PAPER)
            .faults(faults)
            .seed(seed)
            .build()
            .run(&spec)
            .expect("valid configuration");
        prop_assert!(out.all_live_colored(), "root {root}: {:?}", out.uncolored_live());
    }
}
