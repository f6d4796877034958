//! Corrected Gossip (`ct_core::protocol::gossip`) run in the simulator:
//! it colors every live rank, fault-free and under heavy failures, in
//! both budget modes; its message counts follow its budget; a seed
//! reproduces a run exactly; and its spec validates, labels and sizes
//! its machines as the figures expect.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::gossip::{GossipBroadcast, GossipProcess, GossipSpec};
use ct_core::protocol::{BuildCtx, Machine, ProtocolFactory};
use ct_logp::{LogP, Rank};
use ct_sim::{FaultPlan, Simulation};

#[test]
fn fault_free_gossip_with_checked_correction_colors_everyone() {
    let spec = GossipSpec::time_limited(12, CorrectionKind::Checked);
    for seed in 0..5 {
        let out = Simulation::builder(128, LogP::PAPER)
            .seed(seed)
            .build()
            .run(&spec)
            .unwrap();
        assert!(
            out.all_live_colored(),
            "seed {seed}: {:?}",
            out.uncolored_live()
        );
        assert!(out.messages.gossip > 0);
        assert!(out.messages.correction > 0);
    }
}

#[test]
fn gossip_is_robust_to_heavy_failures() {
    let spec = GossipSpec::time_limited(24, CorrectionKind::Checked);
    let faults = FaultPlan::random_rate(256, 0.04, 11).unwrap();
    let out = Simulation::builder(256, LogP::PAPER)
        .seed(3)
        .faults(faults)
        .build()
        .run(&spec)
        .unwrap();
    assert!(out.all_live_colored(), "{:?}", out.uncolored_live());
}

#[test]
fn round_limited_mode_terminates_and_colors() {
    let spec = GossipSpec::round_limited(10, CorrectionKind::Checked);
    let out = Simulation::builder(64, LogP::PAPER)
        .seed(5)
        .build()
        .run(&spec)
        .unwrap();
    assert!(out.all_live_colored(), "{:?}", out.uncolored_live());
}

#[test]
fn gossip_message_count_scales_with_gossip_time() {
    let short = GossipSpec::time_limited(8, CorrectionKind::Checked);
    let long = GossipSpec::time_limited(20, CorrectionKind::Checked);
    let run = |s: &GossipSpec| {
        Simulation::builder(128, LogP::PAPER)
            .seed(1)
            .build()
            .run(s)
            .unwrap()
            .messages
            .gossip
    };
    assert!(run(&long) > run(&short));
}

#[test]
fn same_seed_reproduces_gossip_exactly() {
    let spec = GossipSpec::time_limited(15, CorrectionKind::Checked);
    let run = || {
        Simulation::builder(200, LogP::PAPER)
            .seed(42)
            .build()
            .run(&spec)
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.colored_at, b.colored_at);
    assert_eq!(a.messages, b.messages);
}

#[test]
fn different_ranks_use_different_streams() {
    let spec = GossipSpec::time_limited(10, CorrectionKind::Checked);
    let shared = GossipBroadcast {
        spec,
        p: 1000,
        seed: 7,
    };
    let mut a = GossipProcess::new(1, &shared);
    let mut b = GossipProcess::new(2, &shared);
    let ta: Vec<Rank> = (0..20).map(|_| a.random_target(1000)).collect();
    let tb: Vec<Rank> = (0..20).map(|_| b.random_target(1000)).collect();
    assert_ne!(ta, tb);
    assert!(ta.iter().all(|&t| t != 1 && t < 1000));
    assert!(tb.iter().all(|&t| t != 2));
}

#[test]
fn rejects_zero_budgets() {
    let ctx = BuildCtx {
        p: 8,
        logp: LogP::PAPER,
        seed: 0,
    };
    assert!(GossipSpec::time_limited(0, CorrectionKind::Checked)
        .populate(&ctx, &mut None)
        .is_err());
    assert!(GossipSpec::round_limited(0, CorrectionKind::Checked)
        .blueprint(&ctx)
        .is_err());
}

#[test]
fn gossip_sends_many_more_messages_than_tree_dissemination() {
    // Sanity for the Figure 6 shape: gossip with enough time to color
    // everyone sends ≫ 1 dissemination message per process.
    let spec = GossipSpec::time_limited(20, CorrectionKind::Opportunistic { distance: 4 });
    let out = Simulation::builder(256, LogP::PAPER)
        .seed(2)
        .build()
        .run(&spec)
        .unwrap();
    assert!(
        out.messages.gossip as f64 / 256.0 > 1.5,
        "gossip redundancy should exceed tree dissemination"
    );
}

#[test]
fn label_is_stable() {
    assert_eq!(
        GossipSpec::time_limited(30, CorrectionKind::Checked).label(),
        "gossip(time=30)+checked"
    );
    assert_eq!(
        GossipSpec::round_limited(4, CorrectionKind::Opportunistic { distance: 2 }).label(),
        "gossip(rounds=4)+opportunistic(d=2)"
    );
}

#[test]
fn the_inline_correction_machine_does_not_grow_the_process() {
    // The machine is inline in the host, and the host holds no copy
    // of the kind, start or `P` the broadcast's shared part has.
    let size = std::mem::size_of::<GossipProcess>();
    assert!(size <= 96, "GossipProcess is {size} bytes");
}
