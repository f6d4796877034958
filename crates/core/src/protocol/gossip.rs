//! Corrected Gossip, the baseline Corrected Trees is measured against
//! (Hoefler, Barak, Shiloh, Drezner: *Corrected Gossip Algorithms for
//! Fast Reliable Broadcast on Unreliable Systems*, IPDPS'17; summarized
//! in §3.1 of the paper).
//!
//! Dissemination is randomized: the root sends the payload to random
//! processes; every process colored this way gossips onward. After a
//! fixed budget — a wall-clock gossip time in the simulator, or a hop-
//! counted round limit as in the paper's MPI prototype (§4.4, because
//! clock synchronization is imprecise on a real cluster) — all processes
//! colored *by gossip* run one of the ring-correction algorithms of
//! [`crate::correction`]. Gossip is extremely robust to failures but
//! sends many redundant messages; that trade-off is exactly what
//! Figures 6–9 quantify.

use std::fmt;
use std::sync::Arc;

use crate::correction::{CorrPoll, CorrectionHost, CorrectionKind};
use crate::protocol::{
    Blueprint, BuildCtx, ColoredVia, Machine, Payload, Plan, Population, ProtocolError,
    ProtocolFactory, Relabeling, SendPoll,
};
use ct_logp::{Rank, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// When the gossip phase ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GossipMode {
    /// All colored processes gossip until the global time `G`, then
    /// enter correction simultaneously (the IPDPS'17 formulation; needs
    /// the synchronized clocks a simulator has).
    TimeLimited(u64),
    /// Every message carries a round counter, incremented per send; a
    /// process whose counter reaches the limit stops gossiping and
    /// enters correction (the paper's MPI implementation, §4.4).
    RoundLimited(u32),
}

impl fmt::Display for GossipMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GossipMode::TimeLimited(g) => write!(f, "time={g}"),
            GossipMode::RoundLimited(r) => write!(f, "rounds={r}"),
        }
    }
}

/// Declarative description of a Corrected Gossip broadcast.
///
/// ```
/// use ct_core::correction::CorrectionKind;
/// use ct_core::protocol::gossip::GossipSpec;
/// use ct_core::protocol::{BuildCtx, ProtocolFactory};
/// use ct_logp::LogP;
///
/// let spec = GossipSpec::time_limited(14, CorrectionKind::Checked);
/// let ctx = BuildCtx { p: 128, logp: LogP::PAPER, seed: 1 };
/// let mut slot = None;
/// spec.populate(&ctx, &mut slot)?;
/// assert_eq!(slot.map(|machines| machines.len()), Some(128));
/// # Ok::<(), ct_core::protocol::ProtocolError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipSpec {
    /// Gossip budget.
    pub mode: GossipMode,
    /// Correction algorithm run after gossip.
    pub correction: CorrectionKind,
}

impl GossipSpec {
    /// Time-limited gossip followed by the given correction.
    pub fn time_limited(gossip_time: u64, correction: CorrectionKind) -> GossipSpec {
        GossipSpec {
            mode: GossipMode::TimeLimited(gossip_time),
            correction,
        }
    }

    /// Round-limited gossip (the cluster formulation).
    pub fn round_limited(rounds: u32, correction: CorrectionKind) -> GossipSpec {
        GossipSpec {
            mode: GossipMode::RoundLimited(rounds),
            correction,
        }
    }

    /// When correction may begin: the global gossip deadline in
    /// time-limited mode; per process, as soon as its rounds are up, in
    /// round-limited mode.
    fn correction_start(&self) -> Time {
        match self.mode {
            GossipMode::TimeLimited(g) => Time::new(g),
            GossipMode::RoundLimited(_) => Time::ZERO,
        }
    }
}

impl fmt::Display for GossipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gossip({})+{}", self.mode, self.correction)
    }
}

impl GossipSpec {
    /// Validate this spec and resolve it against `ctx`. Gossip ranks are
    /// their own virtual ranks: the root is physical 0.
    fn plan(&self, ctx: &BuildCtx) -> Result<Plan<GossipProcess>, ProtocolError> {
        match self.mode {
            GossipMode::TimeLimited(0) => Err(ProtocolError::InvalidConfig(
                "gossip time must be ≥ 1 step".into(),
            )),
            GossipMode::RoundLimited(0) => Err(ProtocolError::InvalidConfig(
                "gossip round limit must be ≥ 1".into(),
            )),
            _ => Ok(Plan {
                shared: GossipBroadcast {
                    spec: *self,
                    p: ctx.p,
                    seed: ctx.seed,
                },
                map: Relabeling::rotation(ctx.p, 0),
            }),
        }
    }
}

impl ProtocolFactory for GossipSpec {
    fn label(&self) -> String {
        self.to_string()
    }

    fn blueprint(&self, ctx: &BuildCtx) -> Result<Arc<dyn Blueprint>, ProtocolError> {
        Ok(Arc::new(self.plan(ctx)?))
    }

    fn populate(
        &self,
        ctx: &BuildCtx,
        slot: &mut Option<Box<dyn Population>>,
    ) -> Result<(), ProtocolError> {
        self.plan(ctx).map(|plan| plan.populate(slot))
    }
}

/// The part of a Corrected Gossip broadcast that is the same for all of
/// its ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipBroadcast {
    /// Gossip budget and correction.
    pub spec: GossipSpec,
    /// Number of processes.
    pub p: u32,
    /// The run seed every rank's RNG stream derives from.
    pub seed: u64,
}

/// Per-rank state machine for Corrected Gossip.
pub struct GossipProcess {
    rank: Rank,
    rng: SmallRng,
    /// Meaningful once `colored_via` is set.
    colored_at: Time,
    colored_via: Option<ColoredVia>,
    /// Hop counter for round-limited mode.
    round: u32,
    gossip_over: bool,
    /// The correction phase; begun when gossip colors this rank.
    correction: CorrectionHost,
    done: bool,
}

impl GossipProcess {
    /// A uniformly random rank of `p` different from our own.
    pub fn random_target(&mut self, p: u32) -> Rank {
        debug_assert!(p >= 2);
        let raw = self.rng.gen_range(0..p - 1);
        if raw >= self.rank {
            raw + 1
        } else {
            raw
        }
    }
}

impl Machine for GossipProcess {
    type Shared = GossipBroadcast;

    /// The per-process RNG stream is derived from `(seed, rank)`, so
    /// runs are reproducible.
    fn new(rank: Rank, b: &GossipBroadcast) -> Self {
        let stream = b
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(rank as u64 + 1);
        let is_root = rank == 0;
        let mut correction = CorrectionHost::default();
        if is_root {
            correction.begin(b.spec.correction, rank, b.p);
        }
        GossipProcess {
            rank,
            rng: SmallRng::seed_from_u64(stream),
            colored_at: Time::ZERO,
            colored_via: is_root.then_some(ColoredVia::Root),
            round: 0,
            gossip_over: false,
            correction,
            done: false,
        }
    }

    fn on_message(&mut self, b: &GossipBroadcast, from: Rank, payload: Payload, now: Time) {
        match payload {
            Payload::Gossip { round } => {
                if self.colored_via.is_none() {
                    self.colored_at = now;
                    self.colored_via = Some(ColoredVia::Dissemination);
                    // Colored by gossip: takes part in correction.
                    self.correction.begin(b.spec.correction, self.rank, b.p);
                    self.done = false;
                }
                // Track gossip progress even on duplicates: the round
                // counter is a logical clock for the round-limited mode.
                self.round = self.round.max(round);
                if let GossipMode::RoundLimited(limit) = b.spec.mode {
                    if round >= limit {
                        self.gossip_over = true;
                    }
                }
            }
            Payload::Correction => {
                if self.colored_via.is_none() {
                    self.colored_at = now;
                    self.colored_via = Some(ColoredVia::Correction);
                    // Colored by correction: stays silent (§3.1).
                }
                self.correction.on_correction(from);
            }
            Payload::Tree | Payload::Ack => {
                debug_assert!(false, "unexpected payload in gossip broadcast");
            }
        }
    }

    fn poll_send(&mut self, b: &GossipBroadcast, now: Time) -> SendPoll {
        if self.done {
            return SendPoll::Done;
        }
        if self.colored_via.is_none() {
            return SendPoll::Idle;
        }
        if self.colored_via == Some(ColoredVia::Correction) {
            // Non-participant.
            self.done = true;
            return SendPoll::Done;
        }
        // Gossip phase.
        if !self.gossip_over && b.p >= 2 {
            match b.spec.mode {
                GossipMode::TimeLimited(g) => {
                    if now < Time::new(g) {
                        let to = self.random_target(b.p);
                        self.round += 1;
                        return SendPoll::Now {
                            to,
                            payload: Payload::Gossip { round: self.round },
                        };
                    }
                    self.gossip_over = true;
                }
                GossipMode::RoundLimited(limit) => {
                    if self.round < limit {
                        let to = self.random_target(b.p);
                        self.round += 1;
                        return SendPoll::Now {
                            to,
                            payload: Payload::Gossip { round: self.round },
                        };
                    }
                    self.gossip_over = true;
                }
            }
        }
        // Correction phase.
        match self.correction.poll(now, b.spec.correction_start()) {
            CorrPoll::Send(to) => SendPoll::Now {
                to,
                payload: Payload::Correction,
            },
            CorrPoll::WaitUntil(t) => SendPoll::WaitUntil(t),
            CorrPoll::Idle => SendPoll::Idle,
            CorrPoll::Done => {
                self.done = true;
                SendPoll::Done
            }
        }
    }

    fn colored_at(&self) -> Option<Time> {
        self.colored_via.map(|_| self.colored_at)
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.colored_via
    }
}
