//! The same protocol on a "real" cluster: the M:N thread runtime.
//!
//! The protocol state machines that the simulator drives under LogP
//! timing run unchanged on `ct-runtime`'s in-process cluster (the
//! stand-in for the paper's MPI prototype, §4.4). This example
//! measures three variants OSU-style, as figures 11 and 12 do — native
//! binomial, Corrected Trees, and Corrected Trees with two emulated
//! rank crashes — and prints median wall-clock latencies.
//!
//! Run with: `cargo run --release --example cluster_broadcast`

use std::time::Duration;

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::TreeKind;
use corrected_trees::exp::fig11::ClusterRow;
use corrected_trees::logp::LogP;
use corrected_trees::runtime::{Cluster, ClusterConfig};

fn main() {
    let p = 64;
    let counts = (5, 20);

    let native = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let corrected = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 2 },
    );

    println!("running OSU-style broadcast benchmarks on {p} ranks…\n");
    println!(
        "{:<34} {:>11} {:>11} {:>11}",
        "variant", "median(µs)", "p25(µs)", "p75(µs)"
    );
    // Crash two ranks in the last row: the corrected variant still
    // completes every broadcast.
    let rows = [
        ("binomial (no correction)", &native, &[][..]),
        ("corrected binomial d=2", &corrected, &[][..]),
        (
            "corrected binomial d=2 + 2 crashes",
            &corrected,
            &[9, 40][..],
        ),
    ];
    for (name, spec, dead) in rows {
        let r = ClusterRow::measure(name, spec, p, dead, counts).expect("bench");
        assert_eq!(r.incomplete, 0, "{name}");
        println!(
            "{name:<34} {:>11.1} {:>11.1} {:>11.1}",
            r.median_us, r.p25_us, r.p75_us
        );
    }

    // The plain tree leaves the crashed ranks' subtrees unreached: its
    // broadcast runs into the (here shortened) watchdog deadline.
    let cfg = ClusterConfig::new().timeout(Duration::from_millis(200));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let mut dead = vec![false; p as usize];
    dead[9] = true;
    dead[40] = true;
    let outcome = cluster.run_broadcast(&native, &dead, 0).expect("broadcast");
    println!(
        "\nplain binomial with the same crashes left {} live ranks uncolored (no fault tolerance)",
        outcome.uncolored.len()
    );
}
