//! A campaign's records do not depend on its thread count, here at a
//! size whose wide time steps a lone repetition runs on two threads.
//!
//! `run(1)` keeps one repetition in flight, which leaves the simulator a
//! core for its helper thread; `run(2)` keeps two, each on one thread.
//! The suite is its own test binary, so no other test's runs are in
//! flight beside them.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::BroadcastSpec;
use ct_core::tree::TreeKind;
use ct_exp::{Campaign, FaultSpec, Variant};
use ct_logp::LogP;

#[test]
fn one_thread_and_two_threads_give_the_same_records() {
    let p = 16_384;
    for (spec, faults) in [
        (
            BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked),
            FaultSpec::Rate(0.01),
        ),
        (
            BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked),
            FaultSpec::Count(5),
        ),
    ] {
        let campaign = Campaign::new(Variant::Tree(spec), p, LogP::PAPER)
            .with_faults(faults)
            .with_reps(6);
        let one = campaign.run(1).unwrap();
        assert!(one.iter().all(|r| r.all_live_colored), "{spec}");
        assert_eq!(one, campaign.run(2).unwrap(), "{spec}");
    }
}
