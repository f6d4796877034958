//! Transport-agnostic broadcast protocols.
//!
//! A broadcast instance is one [`Process`] state machine per rank —
//! boxes a [`Blueprint`] places one at a time as the `ct-runtime`
//! cluster's ranks install themselves, or a [`Population`] the `ct-sim`
//! LogP simulator addresses by rank. Either engine owns delivery and
//! timing and obeys one contract:
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
pub mod relabel;

use core::any::Any;
use core::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use crate::correction::CorrectionKind;
use crate::tree::{Tree, TreeError, TreeKind};
use ct_logp::{LogP, Rank, Time};

pub use ack_tree::AckTreeProcess;
pub use corrected::{CorrectedTreeProcess, TreeBroadcast};
pub use relabel::{
    half_len, half_of, index_in_half, rank_in_half, PopulationHalf, RelabeledPopulation,
    RelabeledProcess, Relabeling,
};

use corrected::TreeRank;

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

/// One rank's protocol state machine. It is [`Any`], so a blueprint
/// can re-initialise the machine of a previous broadcast in place
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

/// All `P` machines of one broadcast, addressed by physical rank: the
/// form a single-threaded driver holds them in. Each method is the
/// [`Process`] method of the same name applied to `rank`'s machine.
///
/// A vector of boxed processes — what any factory builds — is one; a
/// factory whose machines all have one type can do without the box per
/// rank ([`RelabeledPopulation`], [`ProtocolFactory::populate`]). It
/// is [`Any`], so such a factory can re-initialise the population of a
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

impl Population for Vec<Box<dyn Process>> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn on_message(&mut self, rank: Rank, from: Rank, payload: Payload, now: Time) {
        self[rank as usize].on_message(from, payload, now);
    }

    fn poll_send(&mut self, rank: Rank, now: Time) -> SendPoll {
        self[rank as usize].poll_send(now)
    }

    fn colored_at(&self, rank: Rank) -> Option<Time> {
        self[rank as usize].colored_at()
    }

    fn colored_via(&self, rank: Rank) -> Option<ColoredVia> {
        self[rank as usize].colored_via()
    }
}

/// The store of type `S` a population slot holds, if that is what it
/// holds.
fn held<S: Population>(slot: &mut Option<Box<dyn Population>>) -> Option<&mut S> {
    let store: &mut dyn Any = slot.as_deref_mut()?;
    store.downcast_mut()
}

/// [`ProtocolFactory::populate`] for any factory: `build_into` over a
/// vector of boxes kept in the slot.
fn populate_boxed<F: ProtocolFactory + ?Sized>(
    factory: &F,
    ctx: &BuildCtx,
    slot: &mut Option<Box<dyn Population>>,
) -> Result<(), ProtocolError> {
    if let Some(procs) = held::<Vec<Box<dyn Process>>>(slot) {
        return factory.build_into(ctx, procs);
    }
    let mut procs = Vec::new();
    factory.build_into(ctx, &mut procs)?;
    *slot = Some(Box::new(procs));
    Ok(())
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
/// under its own lock.
pub trait Blueprint: Send + Sync {
    /// The machine of physical rank `phys`, behaving exactly like
    /// [`ProtocolFactory::build`]'s. `old` is a machine some earlier
    /// broadcast is done with: it is rewound in place when it is of the
    /// same type, and dropped otherwise. Each rank is placed at most
    /// once per blueprint.
    fn place(&self, phys: Rank, old: Option<Box<dyn Process>>) -> Box<dyn Process>;
}

/// The default [`Blueprint`]: the vector [`ProtocolFactory::build`]
/// returned, handed out box by box.
struct Built(Vec<Mutex<Option<Box<dyn Process>>>>);

impl Blueprint for Built {
    fn place(&self, phys: Rank, _old: Option<Box<dyn Process>>) -> Box<dyn Process> {
        self.0[phys as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each rank is placed once per blueprint")
    }
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

/// Anything that can instantiate a full set of per-rank processes.
pub trait ProtocolFactory {
    /// Stable label for experiment output.
    fn label(&self) -> String;

    /// Build the `P` state machines for one broadcast.
    fn build(&self, ctx: &BuildCtx) -> Result<Vec<Box<dyn Process>>, ProtocolError>;

    /// Resolve one broadcast against `ctx` for rank-by-rank placement;
    /// errors surface here, as [`ProtocolFactory::build`] would report
    /// them.
    ///
    /// The default calls [`ProtocolFactory::build`] once and hands each
    /// rank its box; a factory whose machines can be rewound in place
    /// overrides it ([`BroadcastSpec`] does).
    fn blueprint(&self, ctx: &BuildCtx) -> Result<Arc<dyn Blueprint>, ProtocolError> {
        let procs = self.build(ctx)?;
        Ok(Arc::new(Built(
            procs.into_iter().map(|m| Mutex::new(Some(m))).collect(),
        )))
    }

    /// Build into an existing vector, reusing its backing storage and,
    /// where the [`ProtocolFactory::blueprint`] can, each slot's
    /// machine: every slot is [`Blueprint::place`]d over what it held.
    /// Either way the machines behave exactly like freshly built ones.
    /// On error `out` is left empty.
    fn build_into(
        &self,
        ctx: &BuildCtx,
        out: &mut Vec<Box<dyn Process>>,
    ) -> Result<(), ProtocolError> {
        let plan = self.blueprint(ctx).inspect_err(|_| out.clear())?;
        place_all(&*plan, ctx.p, out);
        Ok(())
    }

    /// Put the population of one broadcast into `slot`, reusing what a
    /// previous broadcast — of any factory — left there when it can.
    ///
    /// The default keeps a vector of boxes in the slot and hands it to
    /// [`ProtocolFactory::build_into`]; a factory whose machines all
    /// have one type may keep them by value instead ([`BroadcastSpec`]
    /// does). Either way the population behaves exactly like the
    /// vector [`ProtocolFactory::build`] returns. After an error the
    /// slot holds nothing to run: the previous broadcast's population
    /// or an empty one.
    fn populate(
        &self,
        ctx: &BuildCtx,
        slot: &mut Option<Box<dyn Population>>,
    ) -> Result<(), ProtocolError> {
        populate_boxed(self, ctx, slot)
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

    /// Validate this spec and resolve it against `ctx`.
    fn resolve(&self, ctx: &BuildCtx) -> Result<SpecBlueprint, ProtocolError> {
        self.validate(ctx)?;
        let tree = self.build_tree(ctx.p, &ctx.logp)?;
        Ok(SpecBlueprint {
            broadcast: TreeBroadcast::new(tree, self.correction, self.sync_start(ctx)?),
            acked: self.acked,
            map: self.relabeling(ctx),
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

impl ProtocolFactory for BroadcastSpec {
    fn label(&self) -> String {
        self.to_string()
    }

    fn build(&self, ctx: &BuildCtx) -> Result<Vec<Box<dyn Process>>, ProtocolError> {
        let plan = self.resolve(ctx)?;
        Ok((0..ctx.p).map(|phys| plan.boxed(phys)).collect())
    }

    /// Rewinds a previous corrected-tree machine in place, whatever its
    /// root, numbering or correction was: no allocation for linear and
    /// rotated numberings (the two tables of a shuffled one are made
    /// once, here). Acked specs, and any other old machine, are built
    /// afresh.
    fn blueprint(&self, ctx: &BuildCtx) -> Result<Arc<dyn Blueprint>, ProtocolError> {
        Ok(Arc::new(self.resolve(ctx)?))
    }

    /// The default over the resolved spec itself, without the
    /// blueprint's `Arc`: rewinding a previous corrected-tree set then
    /// allocates nothing.
    fn build_into(
        &self,
        ctx: &BuildCtx,
        out: &mut Vec<Box<dyn Process>>,
    ) -> Result<(), ProtocolError> {
        let plan = self.resolve(ctx).inspect_err(|_| out.clear())?;
        place_all(&plan, ctx.p, out);
        Ok(())
    }

    /// Keeps the corrected-tree machines by value: whatever root,
    /// numbering, correction or `P` the slot's previous broadcast had,
    /// its store is re-initialised in place (allocating as
    /// [`ProtocolFactory::build_into`] does, plus the machines of ranks
    /// beyond the previous `P`). Acked specs take the boxed default.
    fn populate(
        &self,
        ctx: &BuildCtx,
        slot: &mut Option<Box<dyn Population>>,
    ) -> Result<(), ProtocolError> {
        if self.acked {
            return populate_boxed(self, ctx, slot);
        }
        let SpecBlueprint { broadcast, map, .. } = self.resolve(ctx)?;
        match held::<RelabeledPopulation>(slot) {
            Some(store) => store.refill(map, broadcast),
            None => *slot = Some(Box::new(RelabeledPopulation::new(map, broadcast))),
        }
        Ok(())
    }
}

/// A valid [`BroadcastSpec`] resolved against one [`BuildCtx`]: the one
/// definition of "the machine of physical rank `r`" behind `build`,
/// `blueprint` and `populate`. Physical rank `phys` runs the
/// rank-0-rooted machine of virtual rank `map.virtual_of(phys)`.
struct SpecBlueprint {
    broadcast: TreeBroadcast,
    acked: bool,
    map: Relabeling,
}

impl SpecBlueprint {
    /// The cluster's form of `phys`'s machine: boxed, with its own copy
    /// of the broadcast and the relabeling applied at its own boundary.
    fn boxed(&self, phys: Rank) -> Box<dyn Process> {
        let (v, map) = (self.map.virtual_of(phys), self.map.clone());
        if self.acked {
            let tree = Arc::clone(self.broadcast.tree());
            Box::new(RelabeledProcess::new(AckTreeProcess::new(v, tree), map))
        } else {
            let rank = TreeRank::new(v, self.broadcast.clone());
            Box::new(RelabeledProcess::new(rank, map))
        }
    }
}

impl Blueprint for SpecBlueprint {
    fn place(&self, phys: Rank, old: Option<Box<dyn Process>>) -> Box<dyn Process> {
        if let Some(mut old) = old.filter(|_| !self.acked) {
            let machine: &mut dyn Any = &mut *old;
            if let Some(slot) = machine.downcast_mut::<RelabeledProcess<TreeRank>>() {
                slot.inner.reset(self.map.virtual_of(phys), &self.broadcast);
                slot.map = self.map.clone();
                return old;
            }
        }
        self.boxed(phys)
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
        let procs = spec.build(&ctx).unwrap();
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
            spec.build(&ctx),
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
        match spec.build(&ctx) {
            Err(ProtocolError::Tree(TreeError::ZeroArity)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("build must fail"),
        }
    }
}
