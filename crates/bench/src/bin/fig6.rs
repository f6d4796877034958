//! Regenerate Figure 6: average messages per process, failure-free, by
//! correction type across the four trees and Corrected Gossip.
//!
//! Usage: `fig6 [--paper] [--p N] [--seed N] [--out DIR]`

use std::time::Instant;

use ct_bench::{analysis_campaign, emit_with_manifest, with_analysis, Args, RunManifest};
use ct_core::tree::TreeKind;
use ct_exp::fig6::{run, to_csv, Fig6Config};
use ct_exp::{FaultSpec, Variant};
use ct_logp::LogP;

fn main() {
    let args = Args::from_env();
    let mut cfg = Fig6Config::quick();
    if args.flag("--paper") {
        cfg.p = 1 << 16;
        cfg.gossip_reps = 20;
    }
    cfg.p = args.get("--p", cfg.p);
    cfg.seed0 = args.get("--seed", cfg.seed0);
    cfg.gossip_reps = args.get("--reps", cfg.gossip_reps);

    eprintln!("fig6: P={}, distances={:?}", cfg.p, cfg.distances);
    let t0 = Instant::now();
    let rows = run(&cfg).expect("campaign");
    let manifest = RunManifest::new("fig6")
        .protocol("4 trees + corrected gossip, correction-type sweep")
        .p(cfg.p)
        .logp(LogP::PAPER)
        .seed(cfg.seed0)
        .reps(cfg.gossip_reps)
        .faults("none")
        .wall_secs(t0.elapsed().as_secs_f64())
        .with_extra("distances", format!("{:?}", cfg.distances));
    let probe = analysis_campaign(
        Variant::tree_opportunistic(TreeKind::BINOMIAL, 2),
        cfg.p,
        cfg.seed0,
        FaultSpec::None,
    );
    let manifest = with_analysis(manifest, &probe);
    emit_with_manifest("fig6", &to_csv(&rows), &args, manifest);
}
