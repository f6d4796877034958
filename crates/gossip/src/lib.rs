//! # ct-gossip — Corrected Gossip baseline
//!
//! Reimplementation of the algorithm Corrected Trees is measured against
//! (Hoefler, Barak, Shiloh, Drezner: *Corrected Gossip Algorithms for
//! Fast Reliable Broadcast on Unreliable Systems*, IPDPS'17; summarized
//! in §3.1 of the paper).
//!
//! Dissemination is randomized: the root sends the payload to random
//! processes; every process colored this way gossips onward. After a
//! fixed budget — a wall-clock gossip time in the simulator, or a hop-
//! counted round limit as in the paper's MPI prototype (§4.4, because
//! clock synchronization is imprecise on a real cluster) — all processes
//! colored *by gossip* run one of the ring-correction algorithms from
//! `ct-core`. Gossip is extremely robust to failures but sends many
//! redundant messages; that trade-off is exactly what Figures 6–9
//! quantify.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use ct_core::correction::{CorrPoll, CorrectionHost, CorrectionKind};
use ct_core::protocol::{
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
/// use ct_gossip::GossipSpec;
/// use ct_logp::LogP;
/// use ct_sim::Simulation;
///
/// let spec = GossipSpec::time_limited(14, CorrectionKind::Checked);
/// let out = Simulation::builder(128, LogP::PAPER).seed(1).build().run(&spec)?;
/// assert!(out.all_live_colored());
/// assert!(out.messages.gossip > 0);
/// # Ok::<(), ct_sim::SimError>(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use ct_logp::LogP;
    use ct_sim::{FaultPlan, Simulation};

    #[test]
    fn fault_free_gossip_with_checked_correction_colors_everyone() {
        let spec = GossipSpec::time_limited(12, CorrectionKind::Checked);
        for seed in 0..5 {
            let out = Simulation::builder(128, LogP::PAPER)
                .seed(seed)
                .build()
                .run(&spec)
                .unwrap();
            assert!(
                out.all_live_colored(),
                "seed {seed}: {:?}",
                out.uncolored_live()
            );
            assert!(out.messages.gossip > 0);
            assert!(out.messages.correction > 0);
        }
    }

    #[test]
    fn gossip_is_robust_to_heavy_failures() {
        let spec = GossipSpec::time_limited(24, CorrectionKind::Checked);
        let faults = FaultPlan::random_rate(256, 0.04, 11).unwrap();
        let out = Simulation::builder(256, LogP::PAPER)
            .seed(3)
            .faults(faults)
            .build()
            .run(&spec)
            .unwrap();
        assert!(out.all_live_colored(), "{:?}", out.uncolored_live());
    }

    #[test]
    fn round_limited_mode_terminates_and_colors() {
        let spec = GossipSpec::round_limited(10, CorrectionKind::Checked);
        let out = Simulation::builder(64, LogP::PAPER)
            .seed(5)
            .build()
            .run(&spec)
            .unwrap();
        assert!(out.all_live_colored(), "{:?}", out.uncolored_live());
    }

    #[test]
    fn gossip_message_count_scales_with_gossip_time() {
        let short = GossipSpec::time_limited(8, CorrectionKind::Checked);
        let long = GossipSpec::time_limited(20, CorrectionKind::Checked);
        let run = |s: &GossipSpec| {
            Simulation::builder(128, LogP::PAPER)
                .seed(1)
                .build()
                .run(s)
                .unwrap()
                .messages
                .gossip
        };
        assert!(run(&long) > run(&short));
    }

    #[test]
    fn same_seed_reproduces_gossip_exactly() {
        let spec = GossipSpec::time_limited(15, CorrectionKind::Checked);
        let run = || {
            Simulation::builder(200, LogP::PAPER)
                .seed(42)
                .build()
                .run(&spec)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.colored_at, b.colored_at);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn different_ranks_use_different_streams() {
        let spec = GossipSpec::time_limited(10, CorrectionKind::Checked);
        let shared = GossipBroadcast {
            spec,
            p: 1000,
            seed: 7,
        };
        let mut a = GossipProcess::new(1, &shared);
        let mut b = GossipProcess::new(2, &shared);
        let ta: Vec<Rank> = (0..20).map(|_| a.random_target(1000)).collect();
        let tb: Vec<Rank> = (0..20).map(|_| b.random_target(1000)).collect();
        assert_ne!(ta, tb);
        assert!(ta.iter().all(|&t| t != 1 && t < 1000));
        assert!(tb.iter().all(|&t| t != 2));
    }

    #[test]
    fn rejects_zero_budgets() {
        let ctx = BuildCtx {
            p: 8,
            logp: LogP::PAPER,
            seed: 0,
        };
        assert!(GossipSpec::time_limited(0, CorrectionKind::Checked)
            .populate(&ctx, &mut None)
            .is_err());
        assert!(GossipSpec::round_limited(0, CorrectionKind::Checked)
            .blueprint(&ctx)
            .is_err());
    }

    #[test]
    fn gossip_sends_many_more_messages_than_tree_dissemination() {
        // Sanity for the Figure 6 shape: gossip with enough time to color
        // everyone sends ≫ 1 dissemination message per process.
        let spec = GossipSpec::time_limited(20, CorrectionKind::Opportunistic { distance: 4 });
        let out = Simulation::builder(256, LogP::PAPER)
            .seed(2)
            .build()
            .run(&spec)
            .unwrap();
        assert!(
            out.messages.gossip as f64 / 256.0 > 1.5,
            "gossip redundancy should exceed tree dissemination"
        );
    }

    #[test]
    fn label_is_stable() {
        assert_eq!(
            GossipSpec::time_limited(30, CorrectionKind::Checked).label(),
            "gossip(time=30)+checked"
        );
        assert_eq!(
            GossipSpec::round_limited(4, CorrectionKind::Opportunistic { distance: 2 }).label(),
            "gossip(rounds=4)+opportunistic(d=2)"
        );
    }

    #[test]
    fn the_inline_correction_machine_does_not_grow_the_process() {
        // The machine is inline in the host, and the host holds no copy
        // of the kind, start or `P` the broadcast's shared part has.
        let size = std::mem::size_of::<GossipProcess>();
        assert!(size <= 96, "GossipProcess is {size} bytes");
    }
}
