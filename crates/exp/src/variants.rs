//! The protocol zoo of §4.
//!
//! A [`Variant`] is anything the evaluation compares: a (corrected,
//! acknowledged or plain) tree broadcast or a Corrected Gossip
//! configuration. It forwards [`ProtocolFactory`] to the underlying
//! spec and knows its synchronized-correction start time, which the
//! campaign needs to convert quiescence into correction time `L_SCC`.

use ct_core::correction::CorrectionKind;
use std::sync::Arc;

use ct_core::protocol::gossip::{GossipMode, GossipSpec};
use ct_core::protocol::{
    Blueprint, BroadcastSpec, BuildCtx, Population, ProtocolError, ProtocolFactory, StartMode,
};
use ct_core::tree::TreeKind;
use ct_logp::{LogP, Time};

/// One competitor in an experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Variant {
    /// Tree-based broadcast (plain, acknowledged or corrected).
    Tree(BroadcastSpec),
    /// Corrected Gossip.
    Gossip(GossipSpec),
}

impl Variant {
    /// The four tree shapes the paper evaluates throughout §4, in its
    /// plotting order: binomial, 4-ary, Lamé (k=2), optimal.
    pub fn paper_trees() -> [TreeKind; 4] {
        [
            TreeKind::BINOMIAL,
            TreeKind::FOUR_ARY,
            TreeKind::LAME2,
            TreeKind::OPTIMAL,
        ]
    }

    /// Corrected tree with synchronized checked correction (the
    /// analysis workhorse).
    pub fn tree_checked_sync(kind: TreeKind) -> Variant {
        Variant::Tree(BroadcastSpec::corrected_tree_sync(
            kind,
            CorrectionKind::Checked,
        ))
    }

    /// Corrected tree with optimized overlapped opportunistic correction
    /// (the paper's Corrected Trees default, §3.3).
    pub fn tree_opportunistic(kind: TreeKind, distance: u32) -> Variant {
        Variant::Tree(BroadcastSpec::corrected_tree(
            kind,
            CorrectionKind::OpportunisticOptimized { distance },
        ))
    }

    /// Tree with acknowledgments (§4.1 baseline).
    pub fn ack_tree(kind: TreeKind) -> Variant {
        Variant::Tree(BroadcastSpec::ack_tree(kind))
    }

    /// Time-limited Corrected Gossip.
    pub fn gossip(gossip_time: u64, correction: CorrectionKind) -> Variant {
        Variant::Gossip(GossipSpec::time_limited(gossip_time, correction))
    }

    /// When synchronized correction starts for this variant, if it uses
    /// synchronized correction at all.
    pub fn sync_start(&self, p: u32, logp: &LogP) -> Option<Time> {
        match self {
            Variant::Tree(spec) => match (spec.mode, spec.correction.is_none() || spec.acked) {
                (StartMode::Synchronized, false) => Some(match spec.sync_start_override {
                    Some(t) => Time::new(t),
                    None => ct_core::tree::cache::cached_deadline(spec.tree, p, logp)
                        .expect("campaign validated the tree"),
                }),
                _ => None,
            },
            Variant::Gossip(spec) => match (spec.mode, spec.correction.is_none()) {
                (GossipMode::TimeLimited(g), false) => Some(Time::new(g)),
                _ => None,
            },
        }
    }
}

impl Variant {
    /// The wrapped spec: every [`ProtocolFactory`] method a spec
    /// overrides forwards to it, so a variant rewinds in place wherever
    /// its spec can (`build_into` through the forwarded blueprint).
    fn factory(&self) -> &dyn ProtocolFactory {
        match self {
            Variant::Tree(s) => s,
            Variant::Gossip(s) => s,
        }
    }
}

impl ProtocolFactory for Variant {
    fn label(&self) -> String {
        self.factory().label()
    }

    fn blueprint(&self, ctx: &BuildCtx) -> Result<Arc<dyn Blueprint>, ProtocolError> {
        self.factory().blueprint(ctx)
    }

    fn populate(
        &self,
        ctx: &BuildCtx,
        slot: &mut Option<Box<dyn Population>>,
    ) -> Result<(), ProtocolError> {
        self.factory().populate(ctx, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_trees_are_the_four_of_section4() {
        let trees = Variant::paper_trees();
        assert_eq!(trees.len(), 4);
        assert_eq!(trees[0].label(), "binomial/interleaved");
        assert_eq!(trees[1].label(), "4-ary/interleaved");
        assert_eq!(trees[2].label(), "lame2/interleaved");
        assert_eq!(trees[3].label(), "optimal/interleaved");
    }

    #[test]
    fn sync_start_for_synchronized_tree_is_the_deadline() {
        let v = Variant::tree_checked_sync(TreeKind::BINOMIAL);
        let logp = LogP::PAPER;
        let tree = TreeKind::BINOMIAL.build(64, &logp).unwrap();
        assert_eq!(
            v.sync_start(64, &logp),
            Some(tree.dissemination_deadline(&logp))
        );
    }

    #[test]
    fn sync_start_absent_for_overlapped_and_ack() {
        let logp = LogP::PAPER;
        assert_eq!(
            Variant::tree_opportunistic(TreeKind::BINOMIAL, 4).sync_start(64, &logp),
            None
        );
        assert_eq!(
            Variant::ack_tree(TreeKind::BINOMIAL).sync_start(64, &logp),
            None
        );
    }

    #[test]
    fn sync_start_for_gossip_is_the_gossip_time() {
        let v = Variant::gossip(30, CorrectionKind::Checked);
        assert_eq!(v.sync_start(64, &LogP::PAPER), Some(Time::new(30)));
    }

    #[test]
    fn factory_dispatch_builds() {
        let ctx = BuildCtx {
            p: 16,
            logp: LogP::PAPER,
            seed: 0,
        };
        for v in [
            Variant::tree_checked_sync(TreeKind::LAME2),
            Variant::tree_opportunistic(TreeKind::FOUR_ARY, 2),
            Variant::ack_tree(TreeKind::OPTIMAL),
            Variant::gossip(10, CorrectionKind::Checked),
        ] {
            let mut procs = Vec::new();
            v.build_into(&ctx, &mut procs).unwrap();
            assert_eq!(procs.len(), 16, "{}", v.label());
            let mut slot = None;
            v.populate(&ctx, &mut slot).unwrap();
            assert_eq!(slot.expect("populated").len(), 16, "{}", v.label());
        }
    }
}
