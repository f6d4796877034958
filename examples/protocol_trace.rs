//! Full event trace of one broadcast — a Figure 5 style timeline.
//!
//! Reproduces the paper's Figure 5 setting (Lamé tree, k = 3, P = 9,
//! L = o = 1, which makes the tree latency-optimal) and prints every
//! event (one JSONL line each) plus an ASCII sender/receiver timeline.
//! Then repeats the run with a failure to show correction kicking in.
//!
//! Run with: `cargo run --release --example protocol_trace`

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::{Ordering, TreeKind};
use corrected_trees::logp::LogP;
use corrected_trees::sim::{ascii_timeline, FaultPlan, Simulation};

fn main() {
    let p = 9;
    let logp = LogP::FIG5; // L = o = 1 ⇒ Lamé k=3 is optimal (Figure 5)
    let lame3 = TreeKind::Lame {
        k: 3,
        order: Ordering::Interleaved,
    };

    println!("=== Figure 5: fault-free Lamé k=3 dissemination, P=9 ===\n");
    let spec = BroadcastSpec::plain_tree(lame3);
    let (out, events) = Simulation::builder(p, logp)
        .build()
        .run_with_events(&spec)
        .expect("valid configuration");
    for e in &events {
        println!("{e}");
    }
    println!("\nsender/receiver timeline (S = sending, R = receiving):");
    print!("{}", ascii_timeline(&events, p, logp.o(), None));
    println!("coloring latency: {} steps", out.coloring_latency);

    println!("\n=== same broadcast, rank 1 failed, checked correction ===\n");
    let spec = BroadcastSpec::corrected_tree_sync(lame3, CorrectionKind::Checked);
    let faults = FaultPlan::from_ranks(p, &[1]).expect("plan");
    let (out, events) = Simulation::builder(p, logp)
        .faults(faults)
        .build()
        .run_with_events(&spec)
        .expect("valid configuration");
    for e in &events {
        println!("{e}");
    }
    assert!(out.all_live_colored());
    println!(
        "\nall live processes colored; {} were rescued by correction",
        out.correction_colored()
    );
    println!("quiescence: {} steps", out.quiescence);
}
