//! The six workloads: their inputs, their set-up, one operation of each
//! and the correctness check on every operation.
//!
//! Load model, common to all: one process, closed loop, one client —
//! the next broadcast is issued when the previous call returns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ct_analysis::m_scc_discrete;
use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, ProtocolFactory};
use ct_core::tree::TreeKind;
use ct_logp::LogP;
use ct_obs::telemetry::TelemetryHub;
use ct_runtime::{Cluster, ClusterConfig, PubsubOptions, Topic, TopicTable};
use ct_sim::{FaultPlan, Outcome, RunArena, Simulation};

use crate::spans::Tracer;
use crate::stats::Digest;

pub const LOGP: LogP = LogP::PAPER;
pub const TREE: TreeKind = TreeKind::BINOMIAL;
/// Fault plans per workload; operation `i` uses plan `i % PLANS`.
pub const PLANS: usize = 64;
/// The seed whose plans the simulator warm-up always runs, so that its
/// digest can be compared with `expected/` under every `--seed`.
pub const CANON_SEED: u64 = 1;

// Every cluster knob is pinned here; `ClusterConfig::new` would read
// CT_THREADS / CT_MAILBOX_CAP / CT_WATCHDOG_MS from the environment.
pub const THREADS: usize = 2;
pub const MAILBOX_CAPACITY: usize = 64;
/// Bounds what a stalled broadcast costs and turns it into a counted
/// failure instead of a 30 s hole in the throughput.
pub const WATCHDOG: Duration = Duration::from_secs(2);
pub const FLIGHT_CAP: usize = 4096;

pub const PUBSUB_TOPICS: usize = 16;
pub const PUBSUB_K: usize = 16;
/// Rounds per `run_pubsub` call: 160 broadcasts, so the ramp-up and the
/// drain of the 16-wide in-flight window are a small part of each call,
/// and a measuring process of two seconds still makes several calls.
pub const PUBSUB_ROUNDS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sim,
    Cluster { plain: bool, observed: bool },
    Pubsub,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub p: u32,
    pub kind: Kind,
    /// Untimed operations run before the first timed one (part of
    /// `setup_s`); a fixed count.
    pub warmup: u64,
    /// Operations per timed window: one lap over the plans where that
    /// is short enough, so that every window does the same work.
    pub window_ops: u64,
    /// What such a window takes on the quiet reference box; only used
    /// to turn `--seconds` into a fixed number of windows.
    pub window_s: f64,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sim_p1024",
        why: "Simulator hot loop on a cache-resident working set; like-for-like partner of cluster_p1024 (same spec, P, plans).",
        p: 1024,
        kind: Kind::Sim,
        warmup: 256,
        window_ops: PLANS as u64,
        window_s: 0.040,
    },
    Workload {
        name: "sim_p65536",
        why: "Same simulation with a working set far beyond L2: memory-bound, shows layout changes that help small P and cost large P.",
        p: 65_536,
        kind: Kind::Sim,
        warmup: 6,
        window_ops: 4,
        window_s: 0.45,
    },
    Workload {
        name: "cluster_p1024",
        why: "About 11k messages per broadcast on 2 workers: per-message cost of the M:N scheduler (mailbox, run-queue claim, wake) dominates.",
        p: 1024,
        kind: Kind::Cluster { plain: false, observed: false },
        warmup: 200,
        window_ops: PLANS as u64,
        window_s: 0.115,
    },
    Workload {
        name: "cluster_p1024_plain",
        why: "Fault-free plain tree: exactly P-1 messages down a depth-10 wake chain, so per-quantum and per-broadcast fixed costs dominate.",
        p: 1024,
        kind: Kind::Cluster { plain: true, observed: false },
        warmup: 500,
        window_ops: PLANS as u64,
        window_s: 0.036,
    },
    Workload {
        name: "cluster_p1024_observed",
        why: "cluster_p1024 with the always-on taps (telemetry hub + flight recorder): its distance to cluster_p1024 is the observability price.",
        p: 1024,
        kind: Kind::Cluster { plain: false, observed: true },
        warmup: 200,
        window_ops: PLANS as u64,
        window_s: 0.20,
    },
    Workload {
        name: "pubsub_p1024_k16",
        why: "16 topics, 16 broadcasts in flight, work-bound: admission, per-broadcast-id rank state, quiescence retirement, stale-id drop.",
        p: 1024,
        kind: Kind::Pubsub,
        warmup: 1,
        window_ops: 1,
        window_s: 0.42,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fault-tolerant spec of every workload but the plain one: checked
/// correction, overlapped start — the one correction that runs
/// unchanged on both engines.
pub fn checked_spec() -> BroadcastSpec {
    BroadcastSpec::corrected_tree(TREE, CorrectionKind::Checked)
}

pub fn plain_spec() -> BroadcastSpec {
    BroadcastSpec::plain_tree(TREE)
}

/// `n` plans of 1 % crash faults (at least one), never killing `root`.
pub fn fault_plans(p: u32, seed: u64, root: u32, n: usize) -> Vec<FaultPlan> {
    (0..n as u64)
        .map(|i| {
            FaultPlan::random_count_protecting(p, (p / 100).max(1), seed.wrapping_add(i), root)
                .expect("1 % faults protecting the root is a valid plan")
        })
        .collect()
}

pub fn cluster_config(threads: usize) -> ClusterConfig {
    ClusterConfig::new()
        .threads(threads)
        .mailbox_capacity(MAILBOX_CAPACITY)
        .timeout(WATCHDOG)
}

/// What one operation did. `ops` is the number of broadcasts it
/// carried (one, or a whole `run_pubsub` call's worth).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpResult {
    pub ops: u64,
    pub messages: u64,
    pub failed: u64,
    /// Simulator events processed (0 on the cluster).
    pub events: u64,
}

/// One check made during set-up, for the report.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

// ---------------------------------------------------------------- sim

pub struct SimRunner {
    p: u32,
    spec: BroadcastSpec,
    plans: Vec<FaultPlan>,
    seed: u64,
    pub arena: RunArena,
    /// Statistics of the first run of each plan: tree protocols ignore
    /// the run seed, so every later run of the plan must repeat them.
    first: Vec<Option<[u64; 4]>>,
    /// Operations after which `RunArena::footprint_bytes` had changed;
    /// counted only while tracing.
    pub arena_growth: u64,
    last_footprint: usize,
}

fn sim_stats(out: &Outcome) -> [u64; 4] {
    [
        out.events,
        out.messages.total(),
        out.quiescence.steps(),
        out.coloring_latency.steps(),
    ]
}

impl SimRunner {
    pub fn new(p: u32, plans: Vec<FaultPlan>, seed: u64) -> SimRunner {
        SimRunner {
            p,
            spec: checked_spec(),
            first: vec![None; plans.len()],
            plans,
            seed,
            arena: RunArena::new(),
            arena_growth: 0,
            last_footprint: 0,
        }
    }

    fn run(&mut self, plan: FaultPlan, seed: u64, t: &mut Tracer) -> Option<Outcome> {
        let s = t.begin("build");
        let sim = Simulation::builder(self.p, LOGP)
            .faults(plan)
            .seed(seed)
            .build();
        t.end(s);
        let s = t.begin("run");
        let out = sim.run_reusable(&self.spec, &mut self.arena).ok();
        t.end(s);
        out
    }

    /// Run `n` untimed repetitions over `plans` and digest their
    /// statistics; `None` if any left a live rank uncolored.
    pub fn warm_up(&mut self, plans: &[FaultPlan], n: u64) -> Option<Digest> {
        let mut digest = Digest::new();
        let mut t = Tracer::off();
        for i in 0..n {
            let plan = plans[i as usize % plans.len()].clone();
            let out = self.run(plan, CANON_SEED.wrapping_add(i), &mut t)?;
            if !out.all_live_colored() {
                return None;
            }
            sim_stats(&out).into_iter().for_each(|w| digest.word(w));
        }
        Some(digest)
    }

    /// Corollary 1: a fault-free synchronized checked run sends exactly
    /// `(P-1) + M·P` messages.
    pub fn corollary_1(&mut self) -> Check {
        let spec = BroadcastSpec::corrected_tree_sync(TREE, CorrectionKind::Checked);
        let p = u64::from(self.p);
        let expected = p - 1 + m_scc_discrete(&LOGP) * p;
        let got = Simulation::builder(self.p, LOGP)
            .build()
            .run_reusable(&spec, &mut self.arena)
            .map(|o| o.messages.total());
        Check {
            name: "corollary_1".into(),
            ok: got.as_ref().ok() == Some(&expected),
            detail: format!("fault-free sync checked: {got:?} messages, (P-1)+M*P = {expected}"),
        }
    }

    fn op(&mut self, i: u64, t: &mut Tracer, lat_us: &mut Vec<f64>) -> OpResult {
        let slot = i as usize % self.plans.len();
        let start = Instant::now();
        let s = t.begin("plan");
        let plan = self.plans[slot].clone();
        t.end(s);
        let out = self.run(plan, self.seed.wrapping_add(i), t);
        lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        let s = t.begin("verify");
        let mut r = OpResult {
            ops: 1,
            ..OpResult::default()
        };
        match out {
            Some(out) => {
                let stats = sim_stats(&out);
                let repeats = *self.first[slot].get_or_insert(stats) == stats;
                r.failed = u64::from(!(out.all_live_colored() && repeats));
                r.messages = stats[1];
                r.events = stats[0];
            }
            None => r.failed = 1,
        }
        if t.is_on() {
            let footprint = self.arena.footprint_bytes();
            self.arena_growth += u64::from(footprint != self.last_footprint);
            self.last_footprint = footprint;
        }
        t.end(s);
        r
    }
}

// ------------------------------------------------------------ cluster

pub struct ClusterRunner {
    spec: BroadcastSpec,
    /// Exact message count every broadcast must report, if the protocol
    /// has one (plain tree: P-1).
    exact_messages: Option<u64>,
    plans: Vec<FaultPlan>,
    seed: u64,
    pub cluster: Cluster,
    /// `RunReport::latency` (epoch → last live rank colored) per
    /// operation, kept only when `keep_color_us` is set (traced cells).
    pub color_us: Vec<f64>,
    keep_color_us: bool,
    /// Collect the full event trace of every broadcast
    /// (`run_broadcast_traced`) and drop it: the price of `ct trace`.
    pub record_events: bool,
    /// Set once a worker panicked: the cluster cannot run anything more.
    pub dead: bool,
}

impl ClusterRunner {
    pub fn new(
        p: u32,
        spec: BroadcastSpec,
        plans: Vec<FaultPlan>,
        seed: u64,
        cfg: ClusterConfig,
    ) -> ClusterRunner {
        ClusterRunner {
            spec,
            exact_messages: (spec.correction == CorrectionKind::None).then(|| u64::from(p) - 1),
            plans,
            seed,
            cluster: Cluster::with_config(p, LOGP, cfg),
            color_us: Vec::new(),
            keep_color_us: false,
            record_events: false,
            dead: false,
        }
    }

    fn op(&mut self, i: u64, t: &mut Tracer, lat_us: &mut Vec<f64>) -> OpResult {
        let plan = &self.plans[i as usize % self.plans.len()];
        let start = Instant::now();
        let s = t.begin("run");
        let seed = self.seed.wrapping_add(i);
        let report = if self.record_events {
            self.cluster
                .run_broadcast_traced(&self.spec, plan.mask(), seed)
                .map(|(report, _events)| report)
        } else {
            self.cluster.run_broadcast(&self.spec, plan.mask(), seed)
        };
        t.end(s);
        lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        let s = t.begin("verify");
        let mut r = OpResult {
            ops: 1,
            ..OpResult::default()
        };
        match report {
            Ok(report) => {
                let exact = self.exact_messages.is_none_or(|m| m == report.messages);
                r.failed = u64::from(!(report.completed && report.uncolored.is_empty() && exact));
                r.messages = report.messages;
                if self.keep_color_us {
                    self.color_us.push(report.latency.as_secs_f64() * 1e6);
                }
            }
            Err(_) => {
                r.failed = 1;
                self.dead = true;
            }
        }
        t.end(s);
        r
    }
}

// ------------------------------------------------------------- pubsub

pub struct PubsubRunner {
    tables: Vec<TopicTable>,
    opts: PubsubOptions,
    pub cluster: Cluster,
    pub dead: bool,
}

impl PubsubRunner {
    /// `PLANS / topics` tables of `topics` topics each: topic `t` is
    /// rooted at `97·t mod P` and owns one 1 % plan; call `c` runs table
    /// `c % tables`, so a run cycles through all [`PLANS`] plans.
    pub fn new(p: u32, seed: u64, topics: usize, k: usize, cfg: ClusterConfig) -> PubsubRunner {
        assert!((1..=PLANS).contains(&topics));
        let tables = (0..PLANS / topics)
            .map(|table| {
                let mut tt = TopicTable::new();
                for t in 0..topics {
                    let root = (t as u32 * 97) % p;
                    let topic_seed = seed.wrapping_add((table * topics + t) as u64);
                    let plan = fault_plans(p, topic_seed, root, 1).remove(0);
                    let spec = checked_spec().with_root(root);
                    tt.push(
                        Topic::new(format!("topic-{t}"), spec, p, topic_seed)
                            .with_dead(plan.mask().to_vec()),
                    );
                }
                tt
            })
            .collect();
        PubsubRunner {
            tables,
            opts: PubsubOptions {
                k,
                rounds: PUBSUB_ROUNDS,
            },
            cluster: Cluster::with_config(p, LOGP, cfg),
            dead: false,
        }
    }

    fn op(&mut self, i: u64, t: &mut Tracer, lat_us: &mut Vec<f64>) -> OpResult {
        let table = &self.tables[i as usize % self.tables.len()];
        let expected = (table.len() * self.opts.rounds) as u64;
        let s = t.begin("run");
        let report = self.cluster.run_pubsub(table, &self.opts);
        t.end(s);
        let s = t.begin("verify");
        let mut r = OpResult {
            ops: expected,
            ..OpResult::default()
        };
        match report {
            Ok(report) => {
                let completed = report.outcomes.iter().filter(|o| o.completed).count() as u64;
                // A missing outcome fails just like an incomplete one.
                r.failed = expected - completed.min(expected);
                for o in &report.outcomes {
                    r.messages += o.messages;
                    lat_us.push(o.latency.as_secs_f64() * 1e6);
                }
            }
            Err(_) => {
                r.failed = expected;
                self.dead = true;
            }
        }
        t.end(s);
        r
    }
}

// ------------------------------------------------------------- runner

pub enum Runner {
    Sim(SimRunner),
    Cluster(ClusterRunner),
    Pubsub(PubsubRunner),
}

/// Observability taps a cluster-backed runner is built with.
#[derive(Clone, Default)]
pub struct Taps {
    pub hub: Option<Arc<TelemetryHub>>,
    pub flight: bool,
}

impl Taps {
    /// What the workload itself prescribes: the always-on pair for the
    /// observed workload, nothing for the others.
    pub fn of(w: &Workload) -> Taps {
        match w.kind {
            Kind::Cluster { observed: true, .. } => Taps {
                hub: Some(Arc::new(TelemetryHub::new(THREADS, w.p as usize))),
                flight: true,
            },
            _ => Taps::default(),
        }
    }

    /// The same, with a telemetry hub attached in any case (traced run).
    pub fn with_hub(w: &Workload) -> Taps {
        let mut taps = Taps::of(w);
        taps.hub
            .get_or_insert_with(|| Arc::new(TelemetryHub::new(THREADS, w.p as usize)));
        taps
    }

    pub fn apply(&self, mut cfg: ClusterConfig) -> ClusterConfig {
        if let Some(hub) = &self.hub {
            cfg = cfg.telemetry(Arc::clone(hub));
        }
        if self.flight {
            cfg = cfg.flight(FLIGHT_CAP);
        }
        cfg
    }
}

impl Runner {
    /// Everything `setup_s` covers: cold tree build, the fault plans,
    /// cluster spawn, the fixed warm-up operations and the set-up
    /// checks. Spans `plans`, `tree`, `spawn` and `warmup` are recorded
    /// when `t` is on.
    pub fn set_up(w: &Workload, seed: u64, taps: &Taps, t: &mut Tracer) -> (Runner, Vec<Check>) {
        let mut checks = Vec::new();
        let s = t.begin("tree");
        let tree_ok = checked_spec().build_tree(w.p, &LOGP).is_ok();
        t.end(s);
        checks.push(Check {
            name: "tree".into(),
            ok: tree_ok,
            detail: format!("{TREE} at P={}", w.p),
        });
        let mut runner = match w.kind {
            Kind::Sim => {
                let s = t.begin("plans");
                let plans = fault_plans(w.p, seed, 0, PLANS);
                // The same number of plans whatever the seed, so that
                // peak RSS does not depend on it.
                let canon = fault_plans(w.p, CANON_SEED, 0, (w.warmup as usize).min(PLANS));
                t.end(s);
                let mut r = SimRunner::new(w.p, plans, seed);
                let s = t.begin("warmup");
                let digest = r.warm_up(&canon, w.warmup);
                t.end(s);
                checks.push(digest_check(w.name, digest));
                checks.push(r.corollary_1());
                Runner::Sim(r)
            }
            Kind::Cluster { plain, .. } => {
                let s = t.begin("plans");
                let (spec, plans) = if plain {
                    (plain_spec(), vec![FaultPlan::none(w.p)])
                } else {
                    (checked_spec(), fault_plans(w.p, seed, 0, PLANS))
                };
                t.end(s);
                let s = t.begin("spawn");
                let cfg = taps.apply(cluster_config(THREADS));
                let r = ClusterRunner::new(w.p, spec, plans, seed, cfg);
                t.end(s);
                Runner::Cluster(r)
            }
            Kind::Pubsub => {
                let s = t.begin("spawn");
                let cfg = taps.apply(cluster_config(THREADS));
                let r = PubsubRunner::new(w.p, seed, PUBSUB_TOPICS, PUBSUB_K, cfg);
                t.end(s);
                Runner::Pubsub(r)
            }
        };
        if !matches!(runner, Runner::Sim(_)) {
            let mut sink = Vec::new();
            let s = t.begin("warmup");
            let mut off = Tracer::off();
            let failed: u64 = (0..w.warmup)
                .map(|i| runner.op(i, &mut off, &mut sink).failed)
                .sum();
            t.end(s);
            checks.push(Check {
                name: "warmup".into(),
                ok: failed == 0,
                detail: format!("{failed} of {} warm-up operations failed", w.warmup),
            });
        }
        (runner, checks)
    }

    pub fn op(&mut self, i: u64, t: &mut Tracer, lat_us: &mut Vec<f64>) -> OpResult {
        t.set_op(i);
        let s = t.begin("op");
        let r = match self {
            Runner::Sim(r) => r.op(i, t, lat_us),
            Runner::Cluster(r) => r.op(i, t, lat_us),
            Runner::Pubsub(r) => r.op(i, t, lat_us),
        };
        t.end(s);
        r
    }

    /// From now on keep `RunReport::latency` of every broadcast (a
    /// single-broadcast cluster runner; nothing to keep on the others).
    pub fn keep_color_us(&mut self) {
        if let Runner::Cluster(r) = self {
            r.keep_color_us = true;
        }
    }

    /// A worker panicked; no further operation can succeed.
    pub fn dead(&self) -> bool {
        match self {
            Runner::Sim(_) => false,
            Runner::Cluster(r) => r.dead,
            Runner::Pubsub(r) => r.dead,
        }
    }
}

/// Compare the warm-up digest with `expected/<workload>.digest`.
/// Simulated statistics are exact: a simulator speed-up must leave them
/// identical.
fn digest_check(workload: &str, digest: Option<Digest>) -> Check {
    let expected = match workload {
        "sim_p1024" => include_str!("../expected/sim_p1024.digest"),
        "sim_p65536" => include_str!("../expected/sim_p65536.digest"),
        _ => "",
    }
    .trim();
    let got = digest.map_or_else(|| "live rank left uncolored".to_owned(), |d| d.hex());
    Check {
        name: "digest".into(),
        ok: got == expected,
        detail: format!("warm-up statistics digest {got}, expected {expected}"),
    }
}

/// A [`ProtocolFactory`] label, for provenance.
pub fn spec_label(w: &Workload) -> String {
    match w.kind {
        Kind::Cluster { plain: true, .. } => plain_spec().label(),
        _ => checked_spec().label(),
    }
}
