//! The traced run (`--trace 1`): the per-layer ledger.
//!
//! Nothing inside the program is instrumented. The benchmark reruns
//! cells of the workloads with its own spans around each call into a
//! layer (`workload › op › {plan, build, run, verify}`), attaches the
//! public `TelemetryHub` to read the scheduler's counts at the same
//! boundaries, and times the layers' public functions in isolation.
//!
//! Which cell a number comes from: `sim.*` from the run's own workload
//! if that is a simulator workload, else from `sim_p1024`;
//! `runtime.call/color/install/messages_*` from the run's own workload
//! if that is a single-broadcast cluster workload, else from
//! `cluster_p1024`; the hub counters (`runtime.sched_*`, `mailbox_*`,
//! `timer_*`, `coord_*`, busy time) from the run's own workload if it
//! runs on the cluster at all, else from `cluster_p1024`. Everything
//! else is measured on the fixed cell its README entry names.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, BuildCtx, Payload, Process, ProtocolFactory, SendPoll};
use ct_core::tree::cache;
use ct_gossip::GossipSpec;
use ct_logp::Time;
use ct_obs::telemetry::{Counter, TelemetryHub};
use ct_obs::{
    EventSink, FlightKind, FlightRecorder, MonitorConfig, MonitorSink, NullSink, VecSink,
};
use ct_runtime::{Cluster, ClusterConfig};
use ct_sim::{FaultPlan, RunArena, Simulation};

use crate::host;
use crate::run::{self, Metric, RunRecord, Window};
use crate::spans::Tracer;
use crate::stats::{self, median};
use crate::workloads::{
    self, checked_spec, cluster_config, fault_plans, plain_spec, Check, ClusterRunner, Kind,
    PubsubRunner, Runner, SimRunner, Taps, Workload, LOGP, PLANS, THREADS, TREE,
};

/// Hub counters at one instant; the difference of two is what a window
/// of broadcasts cost.
struct Counters(Vec<u64>);

impl Counters {
    fn read(hub: &TelemetryHub) -> Counters {
        Counters(Counter::ALL.iter().map(|&c| hub.counter_total(c)).collect())
    }

    fn since(&self, earlier: &Counters) -> Counters {
        Counters(self.0.iter().zip(&earlier.0).map(|(a, b)| a - b).collect())
    }

    fn get(&self, c: Counter) -> f64 {
        self.0[c as usize] as f64
    }
}

/// One workload cell of the traced run.
struct Cell {
    timed: Window,
    tracer: Tracer,
    hub: Option<Arc<TelemetryHub>>,
    /// Hub counter deltas over the timed window (not the warm-up).
    counters: Option<Counters>,
    color_us: Vec<f64>,
    /// Rank count, and whether the cell ran the plain tree.
    p: u32,
    plain: bool,
    /// `RunArena::footprint_bytes` at the end, and how many operations
    /// changed it.
    arena: Option<(usize, u64)>,
    checks: Vec<Check>,
}

fn cell(w: &Workload, seed: u64, budget: Duration, traced: bool) -> Cell {
    let (taps, mut tracer) = if traced {
        (Taps::with_hub(w), Tracer::on())
    } else {
        (Taps::of(w), Tracer::off())
    };
    let root = tracer.begin("workload");
    let setup = tracer.begin("setup");
    let (mut runner, checks) = Runner::set_up(w, seed, &taps, &mut tracer);
    tracer.end(setup);
    if traced {
        runner.keep_color_us();
    }
    let before = taps.hub.as_deref().map(Counters::read);
    let windows = run::windows_for(w, budget.as_secs_f64());
    let timed = Window::total(&run::run_windows(&mut runner, w, windows, &mut tracer));
    let counters = taps
        .hub
        .as_deref()
        .zip(before.as_ref())
        .map(|(hub, before)| Counters::read(hub).since(before));
    tracer.end(root);
    let (color_us, arena) = match &mut runner {
        Runner::Sim(r) => (
            Vec::new(),
            Some((r.arena.footprint_bytes(), r.arena_growth)),
        ),
        Runner::Cluster(r) => (std::mem::take(&mut r.color_us), None),
        Runner::Pubsub(_) => (Vec::new(), None),
    };
    Cell {
        timed,
        tracer,
        hub: taps.hub,
        counters,
        color_us,
        p: w.p,
        plain: matches!(w.kind, Kind::Cluster { plain: true, .. }),
        arena,
        checks,
    }
}

/// Issue operations back to back until `budget` has passed: the loop
/// of the cells that are not one of the six workloads.
fn run_for(runner: &mut Runner, budget: Duration) -> Window {
    let mut win = Window::default();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget && !runner.dead() {
        let r = runner.op(i, &mut Tracer::off(), &mut win.lat_us);
        win.add(r);
        i += 1;
    }
    win.wall_s = start.elapsed().as_secs_f64();
    win.cpu_s = host::cpu_seconds() - cpu0;
    win
}

/// A cluster cell that is not one of the six workloads (other thread
/// count, protocol or taps): `warmup` untimed broadcasts, then `budget`.
fn cluster_cell(
    p: u32,
    spec: BroadcastSpec,
    plans: Vec<FaultPlan>,
    seed: u64,
    cfg: ClusterConfig,
    warmup: u64,
    budget: Duration,
) -> (Window, Vec<f64>) {
    let mut runner = Runner::Cluster(ClusterRunner::new(p, spec, plans, seed, cfg));
    let mut sink = Vec::new();
    for i in 0..warmup {
        runner.op(i, &mut Tracer::off(), &mut sink);
    }
    runner.keep_color_us();
    let timed = run_for(&mut runner, budget);
    let Runner::Cluster(r) = runner else {
        unreachable!()
    };
    (timed, r.color_us)
}

fn ns_per<T>(iterations: u64, per_iteration: f64, mut f: impl FnMut(u64) -> T) -> f64 {
    let start = Instant::now();
    for i in 0..iterations {
        black_box(f(i));
    }
    start.elapsed().as_nanos() as f64 / (iterations as f64 * per_iteration)
}

/// Benchmark-side FIFO pump of the P protocol machines: one queue of
/// "poll rank r" and "deliver this message" items served in order, so
/// ranks take turns sending one message each — no clock, no ports, no
/// mailboxes: the floor both engines sit on. Returns (messages sent,
/// every live rank colored).
fn pump(procs: &mut [Box<dyn Process>], dead: &[bool]) -> (u64, bool) {
    enum Item {
        Poll(u32),
        Deliver {
            to: u32,
            from: u32,
            payload: Payload,
        },
    }
    let mut now = Time::ZERO;
    let mut queue: VecDeque<Item> = (0..procs.len() as u32)
        .filter(|&r| !dead[r as usize])
        .map(Item::Poll)
        .collect();
    let mut parked: Vec<(Time, u32)> = Vec::new();
    let mut messages = 0u64;
    loop {
        match queue.pop_front() {
            Some(Item::Poll(r)) => match procs[r as usize].poll_send(now) {
                SendPoll::Now { to, payload } => {
                    messages += 1;
                    if !dead[to as usize] {
                        queue.push_back(Item::Deliver {
                            to,
                            from: r,
                            payload,
                        });
                    }
                    queue.push_back(Item::Poll(r));
                }
                SendPoll::WaitUntil(t) => parked.push((t, r)),
                SendPoll::Idle | SendPoll::Done => {}
            },
            Some(Item::Deliver { to, from, payload }) => {
                procs[to as usize].on_message(from, payload, now);
                queue.push_back(Item::Poll(to));
            }
            // Nothing in flight: time jumps to the next parked rank.
            None => match parked.iter().map(|&(t, _)| t).min() {
                Some(next) => {
                    now = now.max(next);
                    parked.retain(|&(t, r)| {
                        if t <= now {
                            queue.push_back(Item::Poll(r));
                        }
                        t > now
                    });
                }
                None => break,
            },
        }
    }
    let colored = (0..procs.len()).all(|r| dead[r] || procs[r].colored_at().is_some());
    (messages, colored)
}

/// Pump `factory` over `plans`; (ns per message, messages per
/// broadcast, every broadcast colored every live rank).
fn pump_cell(
    factory: &dyn ProtocolFactory,
    p: u32,
    plans: &[FaultPlan],
    seed: u64,
) -> (f64, f64, bool) {
    let mut procs = Vec::new();
    let (mut ns, mut messages, mut ok) = (0u128, 0u64, true);
    for (i, plan) in plans.iter().enumerate() {
        let ctx = BuildCtx {
            p,
            logp: LOGP,
            seed: seed.wrapping_add(i as u64),
        };
        factory.build_into(&ctx, &mut procs).expect("valid spec");
        let start = Instant::now();
        let (m, colored) = pump(&mut procs, plan.mask());
        ns += start.elapsed().as_nanos();
        messages += m;
        ok &= colored;
    }
    (
        ns as f64 / messages as f64,
        messages as f64 / plans.len() as f64,
        ok,
    )
}

/// One repetition at P = 2^20, in its own process so that its peak RSS
/// is its own; prints `ns_per_event peak_rss_mb`.
pub fn scale_probe(seed: u64) -> String {
    let p = 1 << 20;
    let mut runner = Runner::Sim(SimRunner::new(p, fault_plans(p, seed, 0, 1), seed));
    let start = Instant::now();
    let out = runner.op(0, &mut Tracer::off(), &mut Vec::new());
    let ns = start.elapsed().as_nanos() as f64;
    format!(
        "{} {} {}",
        ns / out.events.max(1) as f64,
        host::peak_rss_mb(),
        out.failed
    )
}

fn spawn_scale_probe(seed: u64) -> Option<(f64, f64, bool)> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--scale-probe", "1", "--seed", &seed.to_string()])
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    let ns_per_event = fields.next()?.ok()?;
    let rss = fields.next()?.ok()?;
    let failed = fields.next()?.ok()?;
    Some((ns_per_event, rss, failed == 0.0))
}

/// The per-layer metrics of one traced run. Names and units are those
/// of `BENCHMARK.json`'s `per_layer` list, which the ledger must fill
/// exactly.
struct Ledger {
    units: BTreeMap<String, String>,
    metrics: Vec<Metric>,
    unknown: Vec<String>,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            units: crate::compare::contract().per_layer.into_iter().collect(),
            metrics: Vec::new(),
            unknown: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, value: f64) {
        let Some(unit) = self.units.remove(name) else {
            self.unknown.push(name.to_owned());
            return;
        };
        // JSON has no NaN or infinity; a cell that could not be
        // measured reads 0 and its check says why.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            quartiles: None,
            n: 1,
        });
    }

    /// Did the run report every per-layer metric of the contract, each
    /// once, and nothing else?
    fn check(&self) -> Check {
        let missing: Vec<&String> = self.units.keys().collect();
        Check {
            name: "ledger".into(),
            ok: missing.is_empty() && self.unknown.is_empty(),
            detail: format!(
                "{} per-layer metrics; missing {missing:?}; not in BENCHMARK.json {:?}",
                self.metrics.len(),
                self.unknown
            ),
        }
    }
}

fn p50(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile of a possibly empty sample (0 when empty: the cell did not
/// run, and its check says why).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::quantile_sorted(&stats::sorted(values), q)
    }
}

/// The traced run of `w`. `seconds` scales every cell: at the 10 s of
/// `BENCHMARK.json` the run's own workload gets 2 s untraced and 2 s
/// traced, the other cells about a second each.
pub fn run(w: &'static Workload, seed: u64, seconds: f64, out_dir: &std::path::Path) -> RunRecord {
    let started = Instant::now();
    let unit = Duration::from_secs_f64(seconds / 10.0);
    let mut l = Ledger::new();
    let mut checks: Vec<Check> = Vec::new();
    let by_name = |name: &str| workloads::find(name).expect("a workload of this benchmark");

    // The run's own workload, untraced then traced.
    let own_untraced = cell(w, seed, 2 * unit, false);
    let own = cell(w, seed, 2 * unit, true);
    l.push(
        "bench.trace_overhead_share",
        1.0 - own.timed.broadcasts_per_s() / own_untraced.timed.broadcasts_per_s(),
    );
    let trace_path = out_dir.join(format!("trace_{}.json", w.name));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&trace_path, own.tracer.to_json()));
    checks.push(Check {
        name: "trace_file".into(),
        ok: written.is_ok(),
        detail: format!("{} ({:?})", trace_path.display(), written),
    });
    let (attempted, failed) = (
        own.timed.ops + own_untraced.timed.ops,
        own.timed.failed + own_untraced.timed.failed,
    );
    checks.extend(own_untraced.checks.iter().cloned());

    // The partner cells: see the module docs for which cell feeds what.
    let mut cells: BTreeMap<&str, Cell> = BTreeMap::new();
    cells.insert(w.name, own);
    for name in ["sim_p1024", "cluster_p1024", "pubsub_p1024_k16"] {
        cells
            .entry(name)
            .or_insert_with(|| cell(by_name(name), seed, unit, true));
    }
    let own_or = |kinds: fn(Kind) -> bool, other: &'static str| {
        &cells[if kinds(w.kind) { w.name } else { other }]
    };
    let sim = own_or(|k| k == Kind::Sim, "sim_p1024");
    let single = own_or(|k| matches!(k, Kind::Cluster { .. }), "cluster_p1024");
    let counted = own_or(|k| k != Kind::Sim, "cluster_p1024");
    // Untraced throughput of the two reference cells.
    let reference = |name: &str| {
        if w.name == name {
            own_untraced.timed.broadcasts_per_s()
        } else {
            cell(by_name(name), seed, unit, false)
                .timed
                .broadcasts_per_s()
        }
    };
    let cluster_bps = reference("cluster_p1024");
    let pubsub_bps = reference("pubsub_p1024_k16");

    let plans = fault_plans(P, seed, 0, PLANS);
    let machine_ns = core_cells(&mut l, &mut checks, &plans, seed);
    sim_cells(
        &mut l,
        &mut checks,
        sim,
        &cells["sim_p1024"],
        machine_ns,
        &plans,
        seed,
        unit,
    );
    call_cells(&mut l, single);
    counter_cells(&mut l, counted, machine_ns);
    model_cells(&mut l, single, cluster_bps, &plans, seed, unit);
    pubsub_cells(
        &mut l,
        &cells["pubsub_p1024_k16"],
        pubsub_bps / cluster_bps,
        seed,
        unit,
    );
    tap_cells(&mut l, &plans, seed, unit);
    isolation_cells(&mut l, &plans[0], seed);

    checks.push(l.check());
    RunRecord {
        workload: w.name,
        trace: true,
        seed,
        seconds,
        attempted,
        failed,
        checks,
        metrics: l.metrics,
        degraded: run::degraded(w),
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Rank count of every fixed cell.
const P: u32 = 1024;

/// `ct-core` in isolation; returns `core.machine_ns_per_message`, which
/// the engines' self times subtract.
fn core_cells(l: &mut Ledger, checks: &mut Vec<Check>, plans: &[FaultPlan], seed: u64) -> f64 {
    for (name, size, reps) in [
        ("core.tree_build_p1024_ns_per_rank", 1024u32, 9),
        ("core.tree_build_p65536_ns_per_rank", 65_536, 3),
    ] {
        let samples: Vec<f64> = (0..reps)
            .map(|_| ns_per(1, f64::from(size), |_| TREE.build(size, &LOGP)))
            .collect();
        l.push(name, median(&samples));
    }
    l.push(
        "core.tree_cache_hit_ns",
        ns_per(200_000, 1.0, |_| cache::cached(TREE, P, &LOGP)),
    );
    let ctx = BuildCtx {
        p: P,
        logp: LOGP,
        seed,
    };
    let mut procs = Vec::new();
    l.push(
        "core.build_into_ns_per_rank",
        ns_per(300, f64::from(P), |_| {
            checked_spec().build_into(&ctx, &mut procs)
        }),
    );
    let (machine_ns, machine_messages, colored) = pump_cell(&checked_spec(), P, plans, seed);
    l.push("core.machine_ns_per_message", machine_ns);
    l.push("core.machine_messages_per_broadcast", machine_messages);
    let gossip = GossipSpec::round_limited(12, CorrectionKind::Checked);
    let (gossip_ns, _, gossip_colored) = pump_cell(&gossip, P, &plans[..16], seed);
    l.push("gossip.machine_ns_per_message", gossip_ns);
    checks.push(Check {
        name: "pump".into(),
        ok: colored && gossip_colored,
        detail: "the benchmark-side FIFO pump colors every live rank (tree, gossip)".into(),
    });
    machine_ns
}

/// `ct-sim`: `sim` is the cell the spans come from, `small` the
/// `sim_p1024` cell (the same one unless the run's own workload is
/// `sim_p65536`).
#[allow(clippy::too_many_arguments)]
fn sim_cells(
    l: &mut Ledger,
    checks: &mut Vec<Check>,
    sim: &Cell,
    small: &Cell,
    machine_ns: f64,
    plans: &[FaultPlan],
    seed: u64,
    unit: Duration,
) {
    let totals = sim.tracer.totals();
    let run_ns = totals.get("run").map_or(0.0, |t| t.total_ns as f64);
    let reps = sim.timed.ops.max(1) as f64;
    l.push(
        "sim.run_ns_per_event",
        run_ns / sim.timed.events.max(1) as f64,
    );
    l.push("sim.events_per_rep", sim.timed.events as f64 / reps);
    l.push("sim.messages_per_rep", sim.timed.messages as f64 / reps);
    l.push(
        "sim.engine_self_ns_per_message",
        run_ns / sim.timed.messages.max(1) as f64 - machine_ns,
    );
    l.push(
        "sim.builder_build_us",
        p50(&sim.tracer.durations_ns("build")) / 1e3,
    );
    l.push(
        "sim.fault_plan_ns_per_rank",
        ns_per(16, f64::from(P), |i| {
            fault_plans(P, seed.wrapping_add(1000 + i), 0, 1)
        }),
    );
    // The large simulator size, where it is not the cell's own, for the
    // scale penalty: eight plans and no warm-up keep its set-up short.
    let other = |size: u32| {
        let mut r = Runner::Sim(SimRunner::new(size, fault_plans(size, seed, 0, 8), seed));
        run_for(&mut r, unit).ns_per_event()
    };
    let large_ns = if sim.p == 65_536 {
        sim.timed.ns_per_event()
    } else {
        other(65_536)
    };
    l.push("sim.scale_penalty", large_ns / small.timed.ns_per_event());
    let (footprint, growth) = sim.arena.unwrap_or((0, 0));
    l.push("sim.arena_footprint_bytes", footprint as f64);
    l.push("sim.arena_growth_reps", growth as f64);

    // Alternate blocks of unobserved and fully event-traced runs.
    let mut arena = RunArena::new();
    let mut block = |observe: bool| {
        let start = Instant::now();
        for (i, plan) in plans.iter().cycle().take(40).enumerate() {
            let sim = Simulation::builder(P, LOGP)
                .faults(plan.clone())
                .seed(i as u64)
                .build();
            let mut vec_sink = VecSink::new();
            let sink: &mut dyn EventSink = if observe {
                &mut vec_sink
            } else {
                &mut NullSink
            };
            black_box(
                sim.run_with_sink_reusable(&checked_spec(), sink, &mut arena)
                    .is_ok(),
            );
        }
        start.elapsed().as_secs_f64()
    };
    let rounds: Vec<(f64, f64)> = (0..5).map(|_| (block(false), block(true))).collect();
    let off = median(&rounds.iter().map(|r| r.0).collect::<Vec<_>>());
    let on = median(&rounds.iter().map(|r| r.1).collect::<Vec<_>>());
    l.push("sim.event_trace_overhead_share", 1.0 - off / on);

    let (big_ns, big_rss, big_ok) = spawn_scale_probe(seed).unwrap_or((0.0, 0.0, false));
    l.push("sim.p1048576_ns_per_event", big_ns);
    l.push("sim.p1048576_peak_rss_mb", big_rss);
    checks.push(Check {
        name: "scale_probe".into(),
        ok: big_ok,
        detail: "one repetition at P = 2^20 in its own process colors every live rank".into(),
    });
}

/// `ct-runtime`, one broadcast: the call, the coloring inside it, and
/// what is left around it (install and teardown).
fn call_cells(l: &mut Ledger, single: &Cell) {
    l.push(
        "runtime.cluster_spawn_us",
        median(
            &(0..5)
                .map(|_| {
                    ns_per(1, 1e3, |_| {
                        Cluster::with_config(P, LOGP, cluster_config(THREADS))
                    })
                })
                .collect::<Vec<_>>(),
        ),
    );
    let call_us: Vec<f64> = single
        .tracer
        .durations_ns("run")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let around: Vec<f64> = call_us
        .iter()
        .zip(&single.color_us)
        .map(|(c, k)| c - k)
        .collect();
    l.push("runtime.call_us_p50", p50(&call_us));
    l.push("runtime.call_us_p99", quantile(&call_us, 0.99));
    l.push("runtime.color_us_p50", p50(&single.color_us));
    l.push("runtime.install_teardown_us_p50", p50(&around));
    l.push(
        "runtime.messages_per_broadcast",
        single.timed.messages as f64 / single.timed.ops.max(1) as f64,
    );
}

/// `ct-runtime`, what the scheduler counted over the timed windows of
/// `counted`.
fn counter_cells(l: &mut Ledger, counted: &Cell, machine_ns: f64) {
    let zero = Counters(vec![0; Counter::ALL.len()]);
    let c = counted.counters.as_ref().unwrap_or(&zero);
    let broadcasts = counted.timed.ops.max(1) as f64;
    let share = |part: Counter, whole: Counter| c.get(part) / c.get(whole).max(1.0);
    for (name, counter) in [
        ("runtime.sched_quanta_per_broadcast", Counter::SchedQuanta),
        ("runtime.sched_wakes_per_broadcast", Counter::SchedWakes),
        ("runtime.sched_batches_per_broadcast", Counter::SchedBatches),
        (
            "runtime.sched_rechecks_per_broadcast",
            Counter::SchedRechecks,
        ),
        (
            "runtime.mailbox_pushes_per_broadcast",
            Counter::MailboxPushes,
        ),
        ("runtime.timer_arms_per_broadcast", Counter::TimerArms),
        ("runtime.timer_fires_per_broadcast", Counter::TimerFires),
        ("runtime.coord_batches_per_broadcast", Counter::CoordBatches),
    ] {
        l.push(name, c.get(counter) / broadcasts);
    }
    for (name, part, whole) in [
        (
            "runtime.sched_stale_quanta_share",
            Counter::SchedStaleQuanta,
            Counter::SchedQuanta,
        ),
        (
            "runtime.mailbox_spill_share",
            Counter::MailboxSpills,
            Counter::MailboxPushes,
        ),
        (
            "runtime.coord_batch_size_mean",
            Counter::CoordColored,
            Counter::CoordBatches,
        ),
    ] {
        l.push(name, share(part, whole));
    }
    // The hub's distributions cover its whole life (warm-up included).
    // Taken while the workers are idle: a snapshot racing an update can
    // panic in `Histogram::from_parts` (see `obs.sampler_alive`).
    let snapshot = counted.hub.as_ref().map(|hub| hub.snapshot());
    let dist = |name: &str, f: fn(&ct_obs::Histogram) -> Option<f64>| {
        snapshot
            .as_ref()
            .and_then(|s| s.histograms.get(name))
            .and_then(f)
            .unwrap_or(0.0)
    };
    l.push(
        "runtime.batch_size_mean",
        dist("sched.batch_size", |h| h.mean()),
    );
    l.push(
        "runtime.runq_depth_p50",
        dist("sched.runq_depth", |h| h.p50()),
    );
    l.push(
        "runtime.quantum_us_p50",
        dist("sched.quantum_us", |h| h.p50()),
    );
    l.push(
        "runtime.msgs_per_quantum",
        dist("mailbox.drained", |h| h.mean()),
    );
    let busy_ns = c.get(Counter::SchedBusyUs) * 1e3;
    let busy_per_message = busy_ns / c.get(Counter::MsgsSent).max(1.0);
    l.push(
        "runtime.worker_busy_share",
        busy_ns / (counted.timed.wall_s * 1e9 * THREADS as f64),
    );
    l.push("runtime.busy_ns_per_message", busy_per_message);
    l.push("runtime.self_ns_per_message", busy_per_message - machine_ns);
}

/// `ct-runtime`: worker scaling, the LogP model, and the known
/// two-worker defect of opportunistic correction.
fn model_cells(
    l: &mut Ledger,
    single: &Cell,
    cluster_bps: f64,
    plans: &[FaultPlan],
    seed: u64,
    unit: Duration,
) {
    let (one_thread, _) = cluster_cell(
        P,
        checked_spec(),
        plans.to_vec(),
        seed,
        cluster_config(1),
        50,
        unit,
    );
    l.push(
        "runtime.threads1_broadcasts_per_s",
        one_thread.broadcasts_per_s(),
    );
    l.push(
        "runtime.scaling_efficiency_2",
        cluster_bps / (THREADS as f64 * one_thread.broadcasts_per_s()),
    );
    // Effective L + 2o of the runtime: coloring latency of a two-rank
    // plain broadcast (one message, one wake-up).
    let plain = |p: u32, warmup: u64, budget: Duration| {
        let cfg = cluster_config(THREADS);
        let (_, color_us) = cluster_cell(
            p,
            plain_spec(),
            vec![FaultPlan::none(p)],
            seed,
            cfg,
            warmup,
            budget,
        );
        p50(&color_us)
    };
    let hop_us = plain(2, 200, unit / 4);
    l.push("runtime.hop_latency_us", hop_us);
    let plain_color_us = if single.plain {
        p50(&single.color_us)
    } else {
        plain(P, 100, unit / 2)
    };
    let height = TREE.build(P, &LOGP).map_or(0, |t| t.height());
    l.push(
        "runtime.model_error_share",
        (plain_color_us - f64::from(height) * hop_us) / plain_color_us,
    );
    // Opportunistic d=4 now and then leaves a live rank uncolored on two
    // workers. Reported, not gated.
    let opp4 =
        BroadcastSpec::corrected_tree(TREE, CorrectionKind::OpportunisticOptimized { distance: 4 });
    let (opp4, _) = cluster_cell(
        P,
        opp4,
        plans.to_vec(),
        seed,
        cluster_config(THREADS).timeout(Duration::from_millis(500)),
        0,
        unit * 3 / 2,
    );
    l.push(
        "runtime.opp4_incomplete_share",
        opp4.failed as f64 / opp4.ops.max(1) as f64,
    );
}

/// Pub/sub: one topic with one broadcast in flight, and what sixteen
/// cost against single-broadcast mode (`k16_over_single`: untraced
/// throughput ratio).
fn pubsub_cells(l: &mut Ledger, pubsub: &Cell, k16_over_single: f64, seed: u64, unit: Duration) {
    let mut k1 = Runner::Pubsub(PubsubRunner::new(P, seed, 1, 1, cluster_config(THREADS)));
    let timed = run_for(&mut k1, unit);
    l.push("pubsub.k1_broadcasts_per_s", timed.broadcasts_per_s());
    l.push("pubsub.multiplex_cost_share", 1.0 - k16_over_single);
    let stale = pubsub
        .counters
        .as_ref()
        .map_or(0.0, |c| c.get(Counter::MsgsStaleDropped));
    l.push(
        "pubsub.stale_dropped_per_broadcast",
        stale / pubsub.timed.ops.max(1) as f64,
    );
    l.push("pubsub.admit_to_colored_us_p50", p50(&pubsub.timed.lat_us));
}

/// `ct-obs` and `ct-analyze` in isolation: tight loops over their
/// public functions, on a captured P=1024 trace where they need one.
fn isolation_cells(l: &mut Ledger, plan: &FaultPlan, seed: u64) {
    let hub = TelemetryHub::new(THREADS, P as usize);
    l.push(
        "obs.telemetry_add_ns",
        ns_per(2_000_000, 1.0, |i| {
            hub.add(i as usize & 1, Counter::MsgsSent, 1)
        }),
    );
    l.push(
        "obs.telemetry_snapshot_us",
        ns_per(200, 1e3, |_| hub.snapshot()),
    );
    let recorder = FlightRecorder::new(THREADS + 1, workloads::FLIGHT_CAP);
    l.push(
        "obs.flight_record_ns",
        ns_per(2_000_000, 1.0, |i| {
            recorder.record(0, FlightKind::MailboxPush, 7, i, i, i)
        }),
    );
    let events = Simulation::builder(P, LOGP)
        .faults(plan.clone())
        .seed(seed)
        .build()
        .run_with_events(&checked_spec())
        .map(|(_, events)| events)
        .unwrap_or_default();
    let n = events.len().max(1) as f64;
    l.push(
        "obs.sink_emit_ns",
        ns_per(20, n, |_| {
            let mut sink = VecSink::new();
            events.iter().for_each(|e| sink.emit(e));
            sink
        }),
    );
    let monitor = MonitorConfig::new()
        .with_p(P)
        .with_logp(LOGP)
        .with_failed(plan.mask().to_vec());
    l.push(
        "obs.monitor_check_ns_per_event",
        ns_per(10, n, |_| MonitorSink::check(&events, &monitor)),
    );
    let mut sink = VecSink::new();
    sink.events.clone_from(&events);
    let jsonl = sink.to_jsonl();
    l.push(
        "analyze.parse_ns_per_event",
        ns_per(5, n, |_| {
            ct_analyze::parse_jsonl(&jsonl)
                .map(|e| e.len())
                .unwrap_or(0)
        }),
    );
    let analyze = ct_analyze::AnalyzeConfig::new(LOGP).with_p(P);
    l.push(
        "analyze.dag_ns_per_event",
        ns_per(5, n, |_| ct_analyze::analyze_rep(&events, &analyze)),
    );
}

/// `ct-obs`, what each tap costs when it is on: each alone against
/// none, on alternating blocks of the `cluster_p1024` cell; and whether
/// the sampler thread survives.
fn tap_cells(l: &mut Ledger, plans: &[FaultPlan], seed: u64, unit: Duration) {
    let hub = || Arc::new(TelemetryHub::new(THREADS, P as usize));
    let runner = |cfg: ClusterConfig| {
        Runner::Cluster(ClusterRunner::new(
            P,
            checked_spec(),
            plans.to_vec(),
            seed,
            cfg,
        ))
    };
    let base = || cluster_config(THREADS);
    let mut off = runner(base());
    let mut telemetry = runner(base().telemetry(hub()));
    let mut flight = runner(base().flight(workloads::FLIGHT_CAP));
    let mut sampler = runner(base().telemetry(hub()).sample(Duration::from_millis(100)));
    let mut events = runner(base());
    if let Runner::Cluster(r) = &mut events {
        r.record_events = true;
    }
    let windows = |r: &Runner| match r {
        Runner::Cluster(r) => r
            .cluster
            .series()
            .map_or(0, |s| s.samples().len() as u64 + s.dropped()),
        _ => 0,
    };
    let mut sink = Vec::new();
    let block = unit.mul_f64(0.12);
    let bps = |r: &mut Runner| run_for(r, block).broadcasts_per_s();
    let mut taps = [&mut telemetry, &mut flight, &mut sampler, &mut events];
    let mut shares: [Vec<f64>; 4] = Default::default();
    let mut windows_mid = 0;
    for i in 0..20u64 {
        off.op(i, &mut Tracer::off(), &mut sink);
    }
    const ROUNDS: usize = 3;
    for round in 0..ROUNDS {
        if round == ROUNDS / 2 {
            windows_mid = windows(taps[2]);
        }
        for (tap, shares) in taps.iter_mut().zip(&mut shares) {
            // off, on, off: the mean of the two neighbours is the base.
            let before = bps(&mut off);
            let on = bps(tap);
            let after = bps(&mut off);
            shares.push(1.0 - on / ((before + after) / 2.0));
        }
    }
    let windows_end = windows(taps[2]);
    for (name, shares) in [
        "obs.telemetry_overhead_share",
        "obs.flight_overhead_share",
        "obs.sampler_overhead_share",
        "obs.event_trace_overhead_share",
    ]
    .into_iter()
    .zip(&shares)
    {
        l.push(name, median(shares));
    }
    // Known defect: the `ct-sampler` thread can die in
    // `Histogram::from_parts`; its series then stops growing.
    l.push(
        "obs.sampler_alive",
        f64::from(u8::from(windows_end > windows_mid)),
    );
}
