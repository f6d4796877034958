//! A `Variant` is a thin wrapper: whatever its spec can re-initialise
//! in place — boxes, a rank's placed machine, a population — the variant
//! re-initialises in place. Every campaign, figure and cluster
//! repetition goes through one, so a variant that built its spec's
//! machines afresh would allocate `P` of them per repetition.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, BuildCtx, Process, ProtocolFactory};
use ct_core::tree::TreeKind;
use ct_exp::Variant;
use ct_logp::LogP;
use ct_sim::{FaultPlan, RunArena, Simulation};
use ct_testkit::counting_alloc::{allocations, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

const P: u32 = 1024;

fn checked() -> Variant {
    Variant::Tree(BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::Checked,
    ))
}

#[test]
fn build_into_through_a_variant_rewinds_the_boxes_in_place() {
    let ctx = BuildCtx {
        p: P,
        logp: LogP::PAPER,
        seed: 0,
    };
    let addresses = |procs: &[Box<dyn Process>]| -> Vec<*const ()> {
        procs
            .iter()
            .map(|b| &**b as *const dyn Process as *const ())
            .collect()
    };
    let mut procs = Vec::new();
    checked().build_into(&ctx, &mut procs).unwrap();
    let before = addresses(&procs);
    assert_eq!(before.len(), P as usize);
    checked().build_into(&ctx, &mut procs).unwrap();
    assert_eq!(addresses(&procs), before);
}

#[test]
fn a_variant_forwards_its_specs_blueprint_so_placing_rewinds_in_place() {
    let ctx = BuildCtx {
        p: P,
        logp: LogP::PAPER,
        seed: 0,
    };
    let address = |m: &dyn Process| m as *const dyn Process as *const ();
    let first = checked().blueprint(&ctx).unwrap().place(7, None);
    let before = address(&*first);
    let second = checked().blueprint(&ctx).unwrap().place(7, Some(first));
    assert_eq!(address(&*second), before);
}

#[test]
fn a_reused_arena_allocates_no_per_rank_storage_after_the_first_repetition() {
    let variant = checked();
    let plan = FaultPlan::random_count(P, 10, 3).unwrap();
    let sim = Simulation::builder(P, LogP::PAPER).faults(plan).build();
    let mut arena = RunArena::new();
    let mut per_rep = Vec::new();
    for _ in 0..4 {
        let before = allocations();
        let out = sim.run_reusable(&variant, &mut arena).unwrap();
        per_rep.push(allocations() - before);
        assert!(out.all_live_colored());
    }
    // What is left is the outcome: its label and four per-rank vectors.
    assert!(per_rep[0] > u64::from(P) / 64, "{per_rep:?}");
    assert!(
        per_rep[1..].iter().all(|&n| n <= 16),
        "allocations per repetition: {per_rep:?}"
    );
}
