//! Transport-agnostic broadcast protocols.
//!
//! A broadcast instance is one state machine per rank. Every protocol is
//! a [`Machine`]: per-rank state only, driven together with the part of
//! the broadcast all of its ranks share. One [`Plan`] per broadcast
//! fills both engines' stores: the by-value population ([`Machines`])
//! the `ct-sim` LogP simulator addresses by rank, and the boxes
//! ([`Placed`], a [`Process`] each) a [`Blueprint`] places one at a
//! time as the `ct-runtime` cluster's ranks install themselves. Either
//! engine owns delivery and timing and obeys one contract:
//!
//! * [`Process::on_message`] is invoked when a message has been fully
//!   received (LogP: arrival plus receive overhead `o`).
//! * [`Process::poll_send`] is invoked whenever the process's sender
//!   port is free: after start-up, after each completed send, after each
//!   delivered message, and at any requested [`SendPoll::WaitUntil`]
//!   time. A returned [`SendPoll::Now`] occupies the port for `o`.
//! * [`SendPoll::Idle`] means "nothing until another message arrives";
//!   [`SendPoll::Done`] is terminal.
//!
//! Because both drivers run the *same* state machines, the simulator and
//! the cluster implementation cannot diverge — mirroring the paper's
//! flogsim/dying-tree split without the code duplication.

pub mod ack_tree;
pub mod corrected;
pub mod gossip;
pub mod relabel;

use core::any::Any;
use core::fmt;
use std::sync::Arc;

use crate::correction::CorrectionKind;
use crate::tree::{Tree, TreeError, TreeKind};
use ct_logp::{LogP, Rank, Time};

pub use ack_tree::AckTreeProcess;
pub use corrected::{CorrectedTreeProcess, TreeBroadcast};
pub use relabel::{
    half_len, half_of, index_in_half, rank_in_half, Machines, Placed, Plan, PopulationHalf,
    Relabeling,
};

/// The content of a broadcast message. The paper's payloads are small
/// (no segmentation, §2); what matters to the protocols is only the
/// message *kind*, so payload bytes are not modeled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Payload {
    /// Dissemination message along a tree edge.
    Tree,
    /// Gossip dissemination message carrying its round number.
    Gossip {
        /// Rounds already taken, incremented per hop (§4.4).
        round: u32,
    },
    /// Ring-correction message.
    Correction,
    /// Acknowledgment: child → parent in the ack-tree baseline, or a
    /// failure-proof delivery confirmation to a correction prober.
    Ack,
}

impl Payload {
    /// Does this payload color an uncolored receiver?
    pub fn colors(&self) -> bool {
        !matches!(self, Payload::Ack)
    }
}

/// How a process was first colored — used by metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColoredVia {
    /// It is the root.
    Root,
    /// A dissemination (tree or gossip) message.
    Dissemination,
    /// A correction message.
    Correction,
}

/// Result of polling a process for its next send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendPoll {
    /// Send `payload` to `to` now.
    Now {
        /// Destination rank.
        to: Rank,
        /// Message kind.
        payload: Payload,
    },
    /// Nothing before this time; poll again then (and on any delivery).
    WaitUntil(Time),
    /// Nothing to send until another message is delivered.
    Idle,
    /// This process will never send again.
    Done,
}

/// One rank's protocol state machine as a box of its own, what the
/// cluster's ranks hold ([`Placed`]). It is [`Any`], so a blueprint can
/// re-initialise the machine of a previous broadcast in place
/// ([`Blueprint::place`]).
pub trait Process: Any + Send {
    /// Deliver a fully received message.
    fn on_message(&mut self, from: Rank, payload: Payload, now: Time);

    /// Ask for the next send; the sender port is free at `now`.
    fn poll_send(&mut self, now: Time) -> SendPoll;

    /// When this process became colored, if it has.
    fn colored_at(&self) -> Option<Time>;

    /// How this process became colored, if it has.
    fn colored_via(&self) -> Option<ColoredVia>;
}

/// One rank's protocol state machine, per-rank state only: what all
/// ranks of a broadcast share (its tree, its correction, its gossip
/// budget) is [`Machine::Shared`], stored once by whoever holds the
/// machines and handed to each call. Ranks are virtual: the root is 0,
/// and a [`Relabeling`] maps them onto the physical ranks a driver
/// addresses. Each method but the constructors is the [`Process`]
/// method of the same name.
pub trait Machine: Send + Sized + 'static {
    /// The part of a broadcast that is the same for all of its ranks.
    type Shared: Clone + Send + Sync + 'static;

    /// The machine of virtual rank `rank`.
    fn new(rank: Rank, shared: &Self::Shared) -> Self;

    /// Become [`Machine::new`] of these arguments in place.
    fn reset(&mut self, rank: Rank, shared: &Self::Shared) {
        *self = Self::new(rank, shared);
    }

    /// Deliver a fully received message from virtual rank `from`.
    fn on_message(&mut self, shared: &Self::Shared, from: Rank, payload: Payload, now: Time);

    /// Ask for the next send, addressed to a virtual rank.
    fn poll_send(&mut self, shared: &Self::Shared, now: Time) -> SendPoll;

    /// When this rank became colored, if it has.
    fn colored_at(&self) -> Option<Time>;

    /// How this rank became colored, if it has.
    fn colored_via(&self) -> Option<ColoredVia>;
}

/// All `P` machines of one broadcast, addressed by physical rank: the
/// form a single-threaded driver holds them in. Each method is the
/// [`Process`] method of the same name applied to `rank`'s machine.
///
/// Every protocol's is a [`Machines`], which [`Plan::populate`] fills.
/// It is [`Any`], so a plan can re-initialise the population of a
/// previous broadcast in place.
pub trait Population: Any + Send {
    /// Number of ranks `P`.
    fn len(&self) -> usize;

    /// Is this the population of no ranks at all?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deliver a fully received message to `rank`.
    fn on_message(&mut self, rank: Rank, from: Rank, payload: Payload, now: Time);

    /// Ask `rank` for its next send; its sender port is free at `now`.
    fn poll_send(&mut self, rank: Rank, now: Time) -> SendPoll;

    /// When `rank` became colored, if it has.
    fn colored_at(&self, rank: Rank) -> Option<Time>;

    /// How `rank` became colored, if it has.
    fn colored_via(&self, rank: Rank) -> Option<ColoredVia>;
}

/// Context handed to a [`ProtocolFactory`].
#[derive(Clone, Copy, Debug)]
pub struct BuildCtx {
    /// Number of processes.
    pub p: u32,
    /// LogP parameters (trees and synchronized deadlines depend on them).
    pub logp: LogP,
    /// Seed for protocols with randomized behavior (gossip); tree
    /// protocols ignore it.
    pub seed: u64,
}

/// One broadcast resolved against its [`BuildCtx`], handing out its
/// machines one rank at a time: what the cluster holds instead of a
/// vector of `P` boxes, so that each rank installs its own machine
/// under its own lock. Every protocol's is a [`Plan`].
pub trait Blueprint: Send + Sync {
    /// The machine of physical rank `phys`. `old` is a machine some
    /// earlier broadcast is done with: it is rewound in place when it is
    /// of the same type, and dropped otherwise. Each rank is placed at
    /// most once per blueprint.
    fn place(&self, phys: Rank, old: Option<Box<dyn Process>>) -> Box<dyn Process>;
}

/// What [`ProtocolFactory::build_into`] leaves in a slot while it places
/// that slot's machine: a zero-sized box, so it costs no allocation.
struct Vacant;

impl Process for Vacant {
    fn on_message(&mut self, _from: Rank, _payload: Payload, _now: Time) {}

    fn poll_send(&mut self, _now: Time) -> SendPoll {
        SendPoll::Done
    }

    fn colored_at(&self) -> Option<Time> {
        None
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        None
    }
}

/// [`ProtocolFactory::build_into`] once resolved: place each of the `p`
/// slots of `out` over the machine it held.
fn place_all(plan: &dyn Blueprint, p: u32, out: &mut Vec<Box<dyn Process>>) {
    out.truncate(p as usize);
    for (phys, slot) in (0..).zip(out.iter_mut()) {
        let old = std::mem::replace(slot, Box::new(Vacant));
        *slot = plan.place(phys, Some(old));
    }
    let placed = out.len() as Rank;
    out.extend((placed..p).map(|phys| plan.place(phys, None)));
}

/// Anything that can instantiate the per-rank machines of a broadcast.
/// Each method is a thin call into the protocol's [`Plan`].
pub trait ProtocolFactory {
    /// Stable label for experiment output.
    fn label(&self) -> String;

    /// Resolve one broadcast against `ctx` for rank-by-rank placement.
    fn blueprint(&self, ctx: &BuildCtx) -> Result<Arc<dyn Blueprint>, ProtocolError>;

    /// Put the population of one broadcast into `slot` by value,
    /// re-initialising in place what a previous broadcast of the same
    /// protocol left there ([`Plan::populate`]). After an error the slot
    /// holds nothing to run: the previous broadcast's population or an
    /// empty one.
    fn populate(
        &self,
        ctx: &BuildCtx,
        slot: &mut Option<Box<dyn Population>>,
    ) -> Result<(), ProtocolError>;

    /// Build into an existing vector, reusing its backing storage and
    /// each slot's machine where it can: every slot is
    /// [`Blueprint::place`]d over what it held, so the machines behave
    /// exactly like freshly placed ones. On error `out` is left empty.
    fn build_into(
        &self,
        ctx: &BuildCtx,
        out: &mut Vec<Box<dyn Process>>,
    ) -> Result<(), ProtocolError> {
        let plan = self.blueprint(ctx).inspect_err(|_| out.clear())?;
        place_all(&*plan, ctx.p, out);
        Ok(())
    }
}

/// Errors from protocol construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The underlying topology could not be built.
    Tree(TreeError),
    /// A configuration value is invalid (description inside).
    InvalidConfig(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Tree(e) => write!(f, "topology: {e}"),
            ProtocolError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<TreeError> for ProtocolError {
    fn from(e: TreeError) -> Self {
        ProtocolError::Tree(e)
    }
}

/// When correction begins relative to dissemination (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StartMode {
    /// All processes start correction at a pre-specified global time —
    /// the fault-free dissemination deadline unless overridden.
    Synchronized,
    /// Each process starts correction immediately after its own
    /// dissemination sends; correction messages may arrive *early*
    /// (before the tree message), in which case the receiver still
    /// forwards tree messages to its children.
    Overlapped,
}

impl fmt::Display for StartMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartMode::Synchronized => write!(f, "sync"),
            StartMode::Overlapped => write!(f, "overlap"),
        }
    }
}

/// Declarative description of a tree-based broadcast variant.
///
/// This is the main public entry point: pick a tree, a correction
/// algorithm and a start mode, then hand the spec to a driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BroadcastSpec {
    /// Dissemination topology.
    pub tree: TreeKind,
    /// Correction algorithm ([`CorrectionKind::None`] = fault-agnostic
    /// plain tree broadcast).
    pub correction: CorrectionKind,
    /// Synchronized or overlapped correction.
    pub mode: StartMode,
    /// Acknowledgment wave after dissemination (the traditional
    /// fault-tolerance baseline of §4.1). Mutually exclusive with
    /// correction.
    pub acked: bool,
    /// Override for the synchronized correction start; `None` uses the
    /// fault-free dissemination deadline.
    pub sync_start_override: Option<u64>,
    /// The broadcasting process. The paper fixes rank 0 "without loss
    /// of generality" (§2); any other root runs the same protocol under
    /// a rank rotation (an automorphism of the correction ring, so all
    /// interleaving and gap properties are preserved).
    pub root: Rank,
    /// Randomize the process numbering (§2.1): each run maps virtual
    /// ranks to physical processes by a seeded random bijection (derived
    /// from this base seed plus the run seed), de-correlating block
    /// failures on the ring. `None` keeps the linear numbering.
    pub shuffle_seed: Option<u64>,
}

impl BroadcastSpec {
    /// Corrected Tree broadcast with overlapped correction — the
    /// configuration the paper's prototype implements (§4.4).
    pub fn corrected_tree(tree: TreeKind, correction: CorrectionKind) -> BroadcastSpec {
        BroadcastSpec {
            tree,
            correction,
            mode: StartMode::Overlapped,
            acked: false,
            sync_start_override: None,
            root: 0,
            shuffle_seed: None,
        }
    }

    /// Corrected Tree broadcast with synchronized correction (the
    /// analysis configuration of §4.2).
    pub fn corrected_tree_sync(tree: TreeKind, correction: CorrectionKind) -> BroadcastSpec {
        BroadcastSpec {
            tree,
            correction,
            mode: StartMode::Synchronized,
            acked: false,
            sync_start_override: None,
            root: 0,
            shuffle_seed: None,
        }
    }

    /// Plain, fault-agnostic tree broadcast (no correction, no acks).
    pub fn plain_tree(tree: TreeKind) -> BroadcastSpec {
        BroadcastSpec {
            tree,
            correction: CorrectionKind::None,
            mode: StartMode::Overlapped,
            acked: false,
            sync_start_override: None,
            root: 0,
            shuffle_seed: None,
        }
    }

    /// Tree broadcast with the acknowledgment wave (§4.1 baseline).
    pub fn ack_tree(tree: TreeKind) -> BroadcastSpec {
        BroadcastSpec {
            tree,
            correction: CorrectionKind::None,
            mode: StartMode::Overlapped,
            acked: true,
            sync_start_override: None,
            root: 0,
            shuffle_seed: None,
        }
    }

    /// Same broadcast, rooted at `root` instead of rank 0.
    pub fn with_root(mut self, root: Rank) -> BroadcastSpec {
        self.root = root;
        self
    }

    /// Same broadcast with a randomized process numbering (§2.1) keyed
    /// off `seed` (combined with the per-run seed).
    pub fn with_shuffle(mut self, seed: u64) -> BroadcastSpec {
        self.shuffle_seed = Some(seed);
        self
    }

    /// Build the shared topology for this spec. Served from the
    /// process-wide [`cache`](crate::tree::cache) — all repetitions of a
    /// campaign (and all campaigns sharing a shape) get one `Arc<Tree>`.
    pub fn build_tree(&self, p: u32, logp: &LogP) -> Result<Arc<Tree>, ProtocolError> {
        Ok(crate::tree::cache::cached(self.tree, p, logp)?)
    }

    /// Reject contradictory or out-of-range configurations.
    fn validate(&self, ctx: &BuildCtx) -> Result<(), ProtocolError> {
        if self.acked && !self.correction.is_none() {
            return Err(ProtocolError::InvalidConfig(
                "acknowledgments and correction are mutually exclusive".into(),
            ));
        }
        if self.root >= ctx.p {
            return Err(ProtocolError::InvalidConfig(format!(
                "root {} out of range for P = {}",
                self.root, ctx.p
            )));
        }
        Ok(())
    }

    /// The virtual↔physical numbering of one build: random when
    /// shuffled, else the rotation that puts virtual 0 on `root` (the
    /// identity for root 0).
    fn relabeling(&self, ctx: &BuildCtx) -> Relabeling {
        match self.shuffle_seed {
            Some(base) => Relabeling::random(ctx.p, self.root, base.wrapping_add(ctx.seed)),
            None => Relabeling::rotation(ctx.p, self.root),
        }
    }

    /// Validate this spec and resolve it against `ctx`: the plan of its
    /// corrected-tree machines, or of its ack-tree machines when acked.
    fn resolve(&self, ctx: &BuildCtx) -> Result<SpecPlan, ProtocolError> {
        self.validate(ctx)?;
        let tree = self.build_tree(ctx.p, &ctx.logp)?;
        let map = self.relabeling(ctx);
        Ok(match self.acked {
            true => SpecPlan::Acked(Plan { shared: tree, map }),
            false => {
                let shared = TreeBroadcast::new(tree, self.correction, self.sync_start(ctx)?);
                SpecPlan::Tree(Plan { shared, map })
            }
        })
    }

    /// The global correction start of synchronized mode (`None` when
    /// overlapped).
    fn sync_start(&self, ctx: &BuildCtx) -> Result<Option<Time>, ProtocolError> {
        Ok(match self.mode {
            StartMode::Synchronized => Some(match self.sync_start_override {
                Some(t) => Time::new(t),
                None => crate::tree::cache::cached_deadline(self.tree, ctx.p, &ctx.logp)?,
            }),
            StartMode::Overlapped => None,
        })
    }
}

impl fmt::Display for BroadcastSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.acked {
            write!(f, "{}+ack", self.tree)?;
        } else if self.correction.is_none() {
            write!(f, "{}", self.tree)?;
        } else {
            write!(f, "{}+{}/{}", self.tree, self.correction, self.mode)?;
        }
        if self.root != 0 {
            write!(f, "@root{}", self.root)?;
        }
        Ok(())
    }
}

/// A valid [`BroadcastSpec`] resolved against one [`BuildCtx`].
enum SpecPlan {
    Tree(Plan<CorrectedTreeProcess>),
    Acked(Plan<AckTreeProcess>),
}

impl ProtocolFactory for BroadcastSpec {
    fn label(&self) -> String {
        self.to_string()
    }

    fn blueprint(&self, ctx: &BuildCtx) -> Result<Arc<dyn Blueprint>, ProtocolError> {
        Ok(match self.resolve(ctx)? {
            SpecPlan::Tree(plan) => Arc::new(plan),
            SpecPlan::Acked(plan) => Arc::new(plan),
        })
    }

    /// Whatever root, numbering, correction or `P` the slot's previous
    /// broadcast of the same machines had, its store is re-initialised
    /// in place (allocating as [`ProtocolFactory::build_into`] does, plus
    /// the machines of ranks beyond the previous `P`).
    fn populate(
        &self,
        ctx: &BuildCtx,
        slot: &mut Option<Box<dyn Population>>,
    ) -> Result<(), ProtocolError> {
        match self.resolve(ctx)? {
            SpecPlan::Tree(plan) => plan.populate(slot),
            SpecPlan::Acked(plan) => plan.populate(slot),
        }
        Ok(())
    }

    /// The default over the resolved plan itself, without the
    /// blueprint's `Arc`: rewinding a previous set of the same machines
    /// then allocates nothing for linear and rotated numberings (the two
    /// tables of a shuffled one are made once, here).
    fn build_into(
        &self,
        ctx: &BuildCtx,
        out: &mut Vec<Box<dyn Process>>,
    ) -> Result<(), ProtocolError> {
        match self.resolve(ctx).inspect_err(|_| out.clear())? {
            SpecPlan::Tree(plan) => place_all(&plan, ctx.p, out),
            SpecPlan::Acked(plan) => place_all(&plan, ctx.p, out),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Ordering;

    #[test]
    fn payload_coloring() {
        assert!(Payload::Tree.colors());
        assert!(Payload::Correction.colors());
        assert!(Payload::Gossip { round: 3 }.colors());
        assert!(!Payload::Ack.colors());
    }

    #[test]
    fn spec_labels() {
        let spec = BroadcastSpec::corrected_tree(
            TreeKind::BINOMIAL,
            CorrectionKind::OpportunisticOptimized { distance: 4 },
        );
        assert_eq!(
            spec.label(),
            "binomial/interleaved+opportunistic-opt(d=4)/overlap"
        );
        assert_eq!(
            BroadcastSpec::ack_tree(TreeKind::LAME2).label(),
            "lame2/interleaved+ack"
        );
        assert_eq!(
            BroadcastSpec::plain_tree(TreeKind::FOUR_ARY).label(),
            "4-ary/interleaved"
        );
    }

    #[test]
    fn build_produces_p_processes() {
        let ctx = BuildCtx {
            p: 33,
            logp: LogP::PAPER,
            seed: 1,
        };
        let spec = BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked);
        let mut procs = Vec::new();
        spec.build_into(&ctx, &mut procs).unwrap();
        assert_eq!(procs.len(), 33);
        // Only the root is colored initially.
        assert_eq!(procs[0].colored_via(), Some(ColoredVia::Root));
        assert!(procs[1..].iter().all(|p| p.colored_at().is_none()));
    }

    #[test]
    fn acked_with_correction_is_rejected() {
        let ctx = BuildCtx {
            p: 8,
            logp: LogP::PAPER,
            seed: 0,
        };
        let spec = BroadcastSpec {
            tree: TreeKind::BINOMIAL,
            correction: CorrectionKind::Checked,
            mode: StartMode::Overlapped,
            acked: true,
            sync_start_override: None,
            root: 0,
            shuffle_seed: None,
        };
        assert!(matches!(
            spec.populate(&ctx, &mut None),
            Err(ProtocolError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_tree_propagates() {
        let ctx = BuildCtx {
            p: 8,
            logp: LogP::PAPER,
            seed: 0,
        };
        let spec = BroadcastSpec::plain_tree(TreeKind::Kary {
            k: 0,
            order: Ordering::Interleaved,
        });
        match spec.blueprint(&ctx) {
            Err(ProtocolError::Tree(TreeError::ZeroArity)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("build must fail"),
        }
    }
}
