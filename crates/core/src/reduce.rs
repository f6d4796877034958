//! Fault-tolerant reduction — the paper's composition hint, made
//! executable.
//!
//! §1: "applying correction before dissemination allows to create a
//! reduction tree". The composition runs the two phases of a corrected
//! broadcast in reverse order:
//!
//! 1. **Correction first** (ring replication): every live process sends
//!    its contribution to its `d` clockwise ring neighbors, so each
//!    contribution is *held* by up to `d + 1` processes that — thanks to
//!    the interleaving property — belong to different subtrees.
//! 2. **Dissemination reversed** (schedule-driven gather): following
//!    the reverse of the fault-free dissemination schedule, every
//!    process sends the union of the contributions it holds to its tree
//!    parent. No acknowledgments and no failure detector: a dead
//!    child's slot simply passes in silence, and its subtree's
//!    contributions still reach the root through their ring replicas in
//!    other subtrees. Rank-tagging makes the union idempotent, so
//!    replication never double-counts (the "no duplicates" discipline
//!    of §2.1, applied to reduction operands).
//!
//! A contribution is **delivered** iff some process holding it has an
//! all-live ancestor path — the closed form implemented by
//! [`simulate`]. The cost model mirrors the broadcast's: the ring phase
//! costs `d` sends per live process and `d·o + 2o + L` steps; the
//! gather phase is the mirror image of the dissemination schedule.

use ct_logp::{ring_add, LogP, Rank, Time};

use crate::tree::{schedule, Topology, Tree};

/// Result of one corrected reduction.
#[derive(Clone, Debug)]
pub struct ReduceOutcome {
    /// `delivered[r]`: did `r`'s contribution reach the root?
    pub delivered: Vec<bool>,
    /// Ring-replication messages sent (phase 1).
    pub ring_messages: u64,
    /// Gather messages sent (phase 2).
    pub gather_messages: u64,
    /// Completion time: ring phase plus the reverse gather schedule.
    pub latency: Time,
}

impl ReduceOutcome {
    /// Were the contributions of *all* live processes delivered
    /// (non-faulty liveness, reduction flavor)?
    pub fn all_live_delivered(&self, failed: &[bool]) -> bool {
        self.delivered.iter().zip(failed).all(|(&d, &f)| f || d)
    }

    /// Live processes whose contribution was lost.
    pub fn lost(&self, failed: &[bool]) -> Vec<Rank> {
        self.delivered
            .iter()
            .zip(failed)
            .enumerate()
            .filter_map(|(r, (&d, &f))| (!f && !d).then_some(r as Rank))
            .collect()
    }

    /// Total messages.
    pub fn messages(&self) -> u64 {
        self.ring_messages + self.gather_messages
    }
}

/// Execute a corrected reduction over `tree` with replication distance
/// `d` and fail-stop mask `failed` (root alive). Exact with respect to
/// the protocol described in the module docs.
///
/// ```
/// use ct_core::{reduce, tree::TreeKind};
/// use ct_logp::LogP;
///
/// let tree = TreeKind::BINOMIAL.build(64, &LogP::PAPER)?;
/// let mut failed = vec![false; 64];
/// failed[1] = true; // a root child dies with its whole subtree path
/// let out = reduce::simulate(&tree, 4, &failed, &LogP::PAPER);
/// assert!(out.all_live_delivered(&failed)); // ring replicas save them
/// # Ok::<(), ct_core::tree::TreeError>(())
/// ```
pub fn simulate(tree: &Tree, d: u32, failed: &[bool], logp: &LogP) -> ReduceOutcome {
    let p = tree.num_processes();
    assert_eq!(failed.len(), p as usize);
    assert!(!failed[0], "the root collects the result and must be alive");

    // live_ancestry[r]: r is alive and so is every ancestor.
    let mut live_ancestry = vec![false; p as usize];
    live_ancestry[0] = true;
    // Parents precede children in depth order.
    let mut order: Vec<Rank> = (0..p).collect();
    order.sort_unstable_by_key(|&r| tree.depth(r));
    for &r in order.iter().skip(1) {
        let parent = tree.parent(r).expect("non-root");
        live_ancestry[r as usize] = !failed[r as usize] && live_ancestry[parent as usize];
    }

    // Phase 1: live process r replicates to r+1 … r+d (mod P); its
    // contribution is delivered iff some live-ancestry process holds it.
    let eff_d = d.min(p.saturating_sub(1));
    let mut delivered = vec![false; p as usize];
    let mut ring_messages = 0u64;
    for r in 0..p {
        if failed[r as usize] {
            continue;
        }
        ring_messages += eff_d as u64;
        let mut ok = live_ancestry[r as usize];
        for i in 1..=eff_d {
            // A dead holder drops the replica; a live one forwards it up
            // during its gather slot.
            let h = ring_add(r, i, p);
            ok |= live_ancestry[h as usize];
        }
        delivered[r as usize] = ok;
    }

    // Phase 2 cost: every live process with a live parent sends one
    // gather message (the root sends none).
    let gather_messages = (1..p)
        .filter(|&r| !failed[r as usize] && !failed[tree.parent(r).expect("non-root") as usize])
        .count() as u64;

    // Latency: the ring phase injects d messages back-to-back
    // (d·o + transit to land the last one), then the gather mirrors the
    // dissemination schedule.
    let ring_phase =
        Time::new(eff_d.max(1) as u64 * logp.o()).minus(logp.o()) + logp.transit_steps();
    let gather_phase = schedule::dissemination_schedule(tree, logp)
        .into_iter()
        .max()
        .unwrap_or(Time::ZERO);
    ReduceOutcome {
        delivered,
        ring_messages,
        gather_messages,
        latency: ring_phase + gather_phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Ordering, TreeKind};

    fn tree(p: u32) -> Tree {
        TreeKind::BINOMIAL.build(p, &LogP::PAPER).unwrap()
    }

    #[test]
    fn fault_free_reduction_delivers_everything() {
        let t = tree(128);
        let out = simulate(&t, 4, &[false; 128], &LogP::PAPER);
        assert!(out.all_live_delivered(&[false; 128]));
        assert_eq!(out.ring_messages, 128 * 4);
        assert_eq!(out.gather_messages, 127);
    }

    #[test]
    fn dead_subtree_contributions_survive_via_ring_replicas() {
        // Kill rank 1 (a root child): its live descendants cannot gather
        // through it, but their ring neighbors sit in other subtrees.
        let t = tree(64);
        let mut failed = vec![false; 64];
        failed[1] = true;
        let out = simulate(&t, 4, &failed, &LogP::PAPER);
        assert!(
            out.all_live_delivered(&failed),
            "lost: {:?}",
            out.lost(&failed)
        );
    }

    #[test]
    fn without_replication_orphans_are_lost() {
        // d = 0 is a plain (fault-agnostic) gather: the subtree of a
        // dead inner node is lost.
        let t = tree(64);
        let mut failed = vec![false; 64];
        failed[1] = true;
        let out = simulate(&t, 0, &failed, &LogP::PAPER);
        let lost = out.lost(&failed);
        // Binomial subtree of 1 in P=64: every odd-indexed descendant…
        // at minimum its direct children are gone.
        assert!(!lost.is_empty());
        assert!(lost.contains(&3));
    }

    #[test]
    fn in_order_numbering_loses_whole_blocks() {
        // The reduction dual of Figure 1: with in-order numbering a dead
        // inner node's orphaned subtree is ring-contiguous, so replicas
        // of its deeper members land on *other orphans* and die with
        // them — interleaving is what saves the day.
        let p = 64u32;
        let d = 2;
        let in_order = TreeKind::Binomial {
            order: Ordering::InOrder,
        }
        .build(p, &LogP::PAPER)
        .unwrap();
        let interleaved = tree(p);
        // Fail an inner node with a subtree larger than d everywhere.
        let victim = 1u32;
        let mut failed_io = vec![false; p as usize];
        failed_io[victim as usize] = true;
        let out_io = simulate(&in_order, d, &failed_io, &LogP::PAPER);
        assert!(
            !out_io.all_live_delivered(&failed_io),
            "in-order must lose contributions deep inside the orphan block"
        );
        let mut failed_il = vec![false; p as usize];
        failed_il[victim as usize] = true;
        let out_il = simulate(&interleaved, d, &failed_il, &LogP::PAPER);
        assert!(
            out_il.all_live_delivered(&failed_il),
            "interleaving scatters replicas into live subtrees: {:?}",
            out_il.lost(&failed_il)
        );
    }

    #[test]
    fn latency_accounts_for_both_phases() {
        let t = tree(256);
        let logp = LogP::PAPER;
        let out = simulate(&t, 4, &vec![false; 256], &logp);
        let gather = t.dissemination_deadline(&logp);
        // Ring phase: 4 sends (last starts at 3o) + transit.
        assert_eq!(out.latency, Time::new(3 + 4) + gather);
    }

    #[test]
    #[should_panic(expected = "root")]
    fn dead_root_is_rejected() {
        let t = tree(8);
        let mut failed = vec![false; 8];
        failed[0] = true;
        let _ = simulate(&t, 2, &failed, &LogP::PAPER);
    }
}
