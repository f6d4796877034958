//! Cross-validation of §4.2's closed forms against the event simulator —
//! "simulation and analysis agree in this aspect" (Figure 10 discussion).

use ct_core::bounds::{lff_scc, lff_scc_discrete, lscc_bounds, m_scc, m_scc_discrete};
use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, ColoredVia};
use ct_core::tree::{ring, TreeKind};
use ct_logp::LogP;
use ct_sim::{FaultPlan, Simulation};

/// Run a synchronized-checked corrected broadcast and return
/// (L_SCC in steps, correction messages, dissemination-coloring mask).
fn run_scc(p: u32, logp: LogP, faults: FaultPlan) -> (u64, u64, Vec<bool>) {
    let spec = BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked);
    let tree = TreeKind::BINOMIAL.build(p, &logp).unwrap();
    let start = tree.dissemination_deadline(&logp);
    let out = Simulation::builder(p, logp)
        .faults(faults)
        .build()
        .run(&spec)
        .unwrap();
    assert!(out.all_live_colored(), "checked correction must color all");
    let lscc = out.quiescence.since(start).steps();
    let diss_mask: Vec<bool> = out
        .colored_via
        .iter()
        .map(|v| matches!(v, Some(ColoredVia::Root) | Some(ColoredVia::Dissemination)))
        .collect();
    (lscc, out.messages.correction, diss_mask)
}

#[test]
fn lemma2_and_corollary1_exact_for_paper_params() {
    let logp = LogP::PAPER;
    for p in [16u32, 64, 256, 1024] {
        let (lscc, corr_msgs, _) = run_scc(p, logp, FaultPlan::none(p));
        assert_eq!(lscc, lff_scc(&logp).steps(), "L_FF_SCC at P={p}");
        assert_eq!(
            corr_msgs,
            m_scc(&logp) * p as u64,
            "M_SCC per process at P={p}"
        );
    }
}

#[test]
fn lemma2_exact_whenever_o_divides_l() {
    // The paper's ⌊L/o⌋ closed form is exact for o | L — which includes
    // every configuration its evaluation uses (o = 1).
    for (l, o) in [
        (1u64, 1u64),
        (2, 1),
        (3, 1),
        (4, 1),
        (2, 2),
        (4, 2),
        (3, 3),
        (6, 3),
    ] {
        let logp = LogP::new(l, o, 1).unwrap();
        let (lscc, corr_msgs, _) = run_scc(64, logp, FaultPlan::none(64));
        assert_eq!(
            lscc,
            lff_scc(&logp).steps(),
            "L_FF_SCC mismatch for L={l}, o={o}"
        );
        assert_eq!(
            corr_msgs,
            m_scc(&logp) * 64,
            "M_SCC mismatch for L={l}, o={o}"
        );
    }
}

#[test]
fn discrete_forms_exact_for_all_logp_parameters() {
    // With a discrete receive port the general closed form uses ⌈L/o⌉;
    // it agrees with Lemma 2 whenever o | L and is exact everywhere.
    for (l, o) in [
        (1u64, 1u64),
        (2, 1),
        (5, 1),
        (2, 2),
        (3, 2),
        (5, 2),
        (7, 2),
        (3, 3),
        (4, 3),
        (5, 3),
        (8, 3),
    ] {
        let logp = LogP::new(l, o, 1).unwrap();
        let (lscc, corr_msgs, _) = run_scc(64, logp, FaultPlan::none(64));
        assert_eq!(
            lscc,
            lff_scc_discrete(&logp).steps(),
            "discrete L_FF_SCC mismatch for L={l}, o={o}"
        );
        assert_eq!(
            corr_msgs,
            m_scc_discrete(&logp) * 64,
            "discrete M_SCC mismatch for L={l}, o={o}"
        );
        // The paper's form never exceeds the discrete one and differs by
        // exactly (⌈L/o⌉ - ⌊L/o⌋)·o ∈ {0, o}.
        assert!(lff_scc(&logp) <= lff_scc_discrete(&logp));
        assert!(
            lff_scc_discrete(&logp).steps() - lff_scc(&logp).steps() <= o,
            "L={l}, o={o}"
        );
    }
}

#[test]
fn lemma3_bounds_hold_under_random_failures() {
    let logp = LogP::PAPER;
    let p = 1 << 12;
    for seed in 0..30u64 {
        let faults = FaultPlan::random_rate(p, 0.01, seed).unwrap();
        let (lscc, _, diss_mask) = run_scc(p, logp, faults);
        let g_max = ring::max_gap(&diss_mask);
        let (lo, hi) = lscc_bounds(g_max, &logp);
        assert!(
            lscc >= lo.steps() && lscc <= hi.steps(),
            "seed {seed}: L_SCC={lscc} outside [{lo}, {hi}] for g_max={g_max}"
        );
    }
}

#[test]
fn lemma3_bounds_hold_for_adversarial_contiguous_gap() {
    // An in-order tree failure produces one big contiguous gap — the
    // worst case the interleaving avoids. The bounds are about g_max,
    // not about how the gap arose, so they must still hold.
    let logp = LogP::PAPER;
    let p = 256u32;
    for gap_len in [1u32, 2, 5, 10, 25] {
        // Kill a contiguous run 100..100+gap_len.
        let ranks: Vec<u32> = (100..100 + gap_len).collect();
        let faults = FaultPlan::from_ranks(p, &ranks).unwrap();
        let (lscc, _, diss_mask) = run_scc(p, logp, faults);
        let g_max = ring::max_gap(&diss_mask);
        // The dead run plus any orphaned descendants.
        assert!(g_max >= gap_len);
        let (lo, hi) = lscc_bounds(g_max, &logp);
        assert!(
            lscc >= lo.steps() && lscc <= hi.steps(),
            "gap {gap_len}: L_SCC={lscc} outside [{lo}, {hi}] (g_max={g_max})"
        );
    }
}
