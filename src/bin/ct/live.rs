//! Commands that run the cluster runtime or watch it run: `ct pubsub`,
//! `ct stats`, `ct top`, `ct serve` and `ct monitor`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use corrected_trees::analyze::{scheduler, series};
use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::TreeKind;
use corrected_trees::exp::{Campaign, Variant};
use corrected_trees::logp::LogP;
use corrected_trees::obs::http::{http_get, monitor_handler, HttpServer};
use corrected_trees::obs::series::{default_sample_ms, SeriesExport, SeriesSample, SeriesStore};
use corrected_trees::obs::telemetry::{TelemetryHub, TelemetrySnapshot};
use corrected_trees::obs::HealthEvent;
use corrected_trees::runtime::{
    default_flight_cap, Cluster, ClusterConfig, PubsubOptions, Topic, TopicTable,
};
use corrected_trees::sim::FaultPlan;

use crate::cli::{build_spec, dead_mask, read_input, write_stdout, Cli, SPEC};
use crate::{fail, misuse};

pub const USAGE: &str = "\
pubsub options (topic-multiplexed broadcast walkthrough):
  ct pubsub [--p N] [--k K] [--topics T] [--rounds R]
            [--faults N] [--seed S]
                          run T topics (default K; alternating plain
                          binomial and checked-sync corrected, varied
                          roots) for R rounds each with K broadcasts
                          in flight, print per-broadcast latency and
                          message totals plus aggregate throughput
                          exit status: 0 all broadcasts quiesced,
                          1 incomplete, 2 usage error
stats options (one-shot runtime-telemetry snapshot):
  ct stats [run options] [--reps R]           simulator campaign
  ct stats --runtime [run options] [--iters I]  cluster broadcasts
  --dead <a,b,c>          exact dead ranks (instead of --faults/
                          --rate random placement)
  --format <json|prom>    snapshot (default json) or Prometheus
                          text exposition
  --output <FILE>         write to FILE instead of stdout
  --postmortem <FILE>     flight-recorder dump path for --runtime
                          stalls (default ct-postmortem.json)
  --series <FILE>         write the continuous sampler's
                          ct-series-v1 JSONL export (--runtime
                          only; sampling is always on there, at
                          the CT_SAMPLE_MS interval)
  stalled cluster iterations print their stall report to stderr
  exit status: 0 clean, 1 any cluster iteration stalled,
  2 usage/I-O error (the snapshot is emitted either way)
top options (live cluster dashboard during a broadcast campaign):
  ct top [run options] [--dead a,b,c] [--iters I]
  --iters <I>             broadcasts to run (default 50)
  --listen <ADDR>         also serve GET /metrics, /series.jsonl
                          and /health while the campaign runs
  --postmortem <FILE>     flight-recorder dump path for stalls
                          (default ct-postmortem.json)
  draws one frame per sampler window (every CT_SAMPLE_MS)
  exit status: 0 all broadcasts completed, 1 any incomplete,
  2 usage/I-O error (the final summary is printed either way)
serve options (cluster campaign + HTTP monitoring endpoint):
  ct serve [run options] [--dead a,b,c] [--iters I] [--listen ADDR]
  --listen <ADDR>         bind address (default 127.0.0.1:9184)
  --iters <I>             broadcasts to run (default 50)
  --linger-ms <MS>        keep serving that long after the
                          campaign finishes (default 0)
  --series <FILE>         write the ct-series-v1 JSONL export
                          on exit
  --postmortem <FILE>     flight-recorder dump path for stalls
                          (default ct-postmortem.json)
  routes: GET /metrics (Prometheus text exposition),
          /series.jsonl (sampler ring), /health (JSON; 503
          while a critical health rule is active)
  exit status: 0 all broadcasts completed, 1 any incomplete,
  2 usage/I-O error
monitor options (follow or replay a continuous series):
  ct monitor --input <series.jsonl>     replay a recorded export
  ct monitor --connect <ADDR> [--interval-ms MS]
                          follow a ct serve / ct top --listen
                          endpoint until it goes away (poll
                          interval default 1000 ms)
  prints one line per sample window (delivery/coloring rates,
  queue gauges, delivery sparkline) and every health event
env (cluster-runtime sizing and sampling):
  CT_THREADS       worker threads         (default: available cores)
  CT_MAILBOX_CAP   inline mailbox slots per rank    (default 64)
  CT_WATCHDOG_MS   stall watchdog timeout in ms     (default 30000)
  CT_FLIGHT_CAP    flight-recorder records per ring (default 4096)
  CT_SAMPLE_MS     series sampler interval in ms    (default 250)
";

/// The flags of an observed cluster campaign ([`Observed::new`]).
const OBSERVED: &str = "--iters --dead --postmortem";

/// Provisioned correction barrier (µs) for `ct pubsub`'s checked-sync
/// topics: comfortably past wall-clock dissemination of the whole topic
/// fleet at this P on one core, so every rank tree-colors before the
/// barrier and Corollary 1 holds exactly.
fn sync_barrier_us(p: u32) -> u64 {
    match p {
        0..=128 => 20_000,
        129..=512 => 36_000,
        513..=2048 => 100_000,
        _ => 420_000,
    }
}

/// The topic fleet of `ct pubsub`: alternate the two flagship
/// configurations so the walkthrough shows barrier-bound and
/// dissemination-bound topics mixing, at varied roots.
fn topic_table(p: u32, topics: usize, n_faults: u32, seed: u64, logp: &LogP) -> TopicTable {
    let mut table = TopicTable::new();
    for t in 0..topics {
        let root = (t as u32 * 31) % p;
        // Plain trees cannot survive faults (a dead rank orphans its
        // subtree), so faulty walkthroughs upgrade them to
        // opportunistic correction.
        let spec = if t % 2 == 0 {
            if n_faults > 0 {
                BroadcastSpec::corrected_tree(
                    TreeKind::BINOMIAL,
                    CorrectionKind::OpportunisticOptimized { distance: 4 },
                )
                .with_root(root)
            } else {
                BroadcastSpec::plain_tree(TreeKind::BINOMIAL).with_root(root)
            }
        } else {
            let mut s = BroadcastSpec::corrected_tree_sync(
                TreeKind::BINOMIAL,
                CorrectionKind::checked_paced(logp, 4),
            )
            .with_root(root);
            s.sync_start_override = Some(sync_barrier_us(p));
            s
        };
        let mut topic = Topic::new(format!("topic-{t}"), spec, p, seed + t as u64);
        if n_faults > 0 {
            let plan = FaultPlan::random_count_protecting(p, n_faults, seed + t as u64, root)
                .unwrap_or_else(|e| fail(e));
            topic = topic.with_dead(plan.mask().to_vec());
        }
        table.push(topic);
    }
    table
}

/// `ct pubsub` — walkthrough: run a small multiplexed topic fleet and
/// print every broadcast's latency and message total, then the
/// aggregate throughput the pipelining achieved.
pub fn pubsub(cli: &Cli) {
    cli.only(
        "pubsub",
        &["--p --k --topics --rounds --seed --faults --logp"],
    );
    let p: u32 = cli.parsed("--p", 256);
    let k: usize = cli.parsed("--k", 4);
    let topics: usize = cli.parsed("--topics", k);
    let rounds: usize = cli.parsed("--rounds", 2);
    let seed: u64 = cli.parsed("--seed", 1);
    let n_faults: u32 = cli.parsed("--faults", 0);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    if k == 0 || topics == 0 || rounds == 0 {
        fail("--k, --topics and --rounds must be positive");
    }
    let table = topic_table(p, topics, n_faults, seed, &logp);
    let mut cluster = Cluster::new(p, logp);
    let report = cluster
        .run_pubsub(&table, &PubsubOptions { k, rounds })
        .unwrap_or_else(|e| fail(format_args!("pubsub run failed: {e}")));
    println!("[pubsub] p={p} topics={topics} k={k} rounds={rounds} faults={n_faults}/topic");
    for o in &report.outcomes {
        let label = table.get(o.topic).map(|t| t.label.as_str()).unwrap_or("?");
        println!(
            "  bcast {:>3}  {label:<10} round {}  {:>9.3} ms  {:>6} msgs  {}",
            o.id,
            o.round,
            o.latency.as_secs_f64() * 1e3,
            o.messages,
            if o.completed {
                "ok".to_owned()
            } else {
                format!("INCOMPLETE ({} uncolored)", o.uncolored.len())
            }
        );
    }
    println!(
        "[pubsub] {} broadcasts in {:.3} s -> {:.2} broadcasts/sec",
        report.outcomes.len(),
        report.elapsed.as_secs_f64(),
        report.broadcasts_per_sec()
    );
    if !report.completed() {
        std::process::exit(1);
    }
}

/// A cluster broadcast campaign with every live tap on: a telemetry
/// hub, the continuous sampler at `CT_SAMPLE_MS`, and the flight
/// recorder dumping to `--postmortem`. `ct stats --runtime`, `ct top`
/// and `ct serve` each run one and read it their own way.
struct Observed {
    cluster: Cluster,
    hub: Arc<TelemetryHub>,
    store: Arc<SeriesStore>,
    pm_path: PathBuf,
    spec: BroadcastSpec,
    mask: Vec<bool>,
    seed: u64,
    iters: u32,
}

impl Observed {
    /// The campaign the flags ask for: `--p` (default `p`) ranks,
    /// `--iters` (default `iters`) broadcasts of the run options'
    /// protocol, dead ranks from `--dead` or the random fault flags.
    fn new(cli: &Cli, p: u32, iters: u32) -> Observed {
        let logp: LogP = cli.parsed("--logp", LogP::PAPER);
        let p: u32 = cli.parsed("--p", p);
        let iters: u32 = cli.parsed("--iters", iters);
        let seed: u64 = cli.parsed("--seed", 1);
        let spec = build_spec(cli);
        let mask = dead_mask(&cli.faults(p), p, seed, spec.root);
        let pm_path = PathBuf::from(cli.value("--postmortem").unwrap_or("ct-postmortem.json"));
        let base = ClusterConfig::new();
        let hub = Arc::new(TelemetryHub::new(base.threads, p as usize));
        let cfg = base
            .telemetry(Arc::clone(&hub))
            .sample(Duration::from_millis(default_sample_ms()))
            .flight(default_flight_cap())
            .postmortem(pm_path.clone());
        let cluster = Cluster::with_config(p, logp, cfg);
        let store = cluster.series().expect("sampling is on");
        Observed {
            cluster,
            hub,
            store,
            pm_path,
            spec,
            mask,
            seed,
            iters,
        }
    }

    /// Run the `--iters` broadcasts, seeds `seed + i`. Each stalled
    /// broadcast prints its stall report and dump path to stderr, and
    /// so, under `health`, does every health event the sampler fired
    /// during a broadcast. Returns how many broadcasts did not complete.
    fn run(&mut self, health: bool) -> u32 {
        let mut incomplete = 0;
        for i in 0..self.iters {
            let report = self
                .cluster
                .run_broadcast(&self.spec, &self.mask, self.seed + u64::from(i))
                .unwrap_or_else(|e| fail(format_args!("cluster run failed: {e}")));
            if health {
                for e in &report.health {
                    eprintln!("{}", health_tag(e));
                }
            }
            if let Some(stall) = &report.stall {
                incomplete += 1;
                eprint!("{}", stall.render_text());
                if report.postmortem.is_some() {
                    eprintln!("[postmortem {}]", self.pm_path.display());
                }
            }
        }
        incomplete
    }

    /// Serve `GET /metrics`, `/series.jsonl` and `/health` over this
    /// campaign at `addr`. Exits 2 when the address is unusable.
    fn serve(&self, addr: &str) -> HttpServer {
        let handler = monitor_handler(
            Arc::clone(&self.hub),
            "cluster",
            Some(Arc::clone(&self.store)),
        );
        let server = HttpServer::spawn(addr, handler)
            .unwrap_or_else(|e| fail(format_args!("could not bind {addr}: {e}")));
        println!(
            "[serving http://{} — GET /metrics /series.jsonl /health]",
            server.addr()
        );
        server
    }

    /// Write the sampler's `ct-series-v1` JSONL export to `path`.
    fn write_series(&self, path: &str) {
        write_file("series", path, &self.store.export_jsonl());
    }
}

/// Write `text` to `path` and say so on stdout as `[<what> <path>]`
/// (exit 2 on I/O failure).
fn write_file(what: &str, path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        fail(format_args!("could not write {path}: {e}"));
    }
    println!("[{what} {path}]");
}

/// `[health <severity> <rule> t=<ms>ms] <message>`.
fn health_tag(e: &HealthEvent) -> String {
    format!(
        "[health {} {} t={}ms] {}",
        e.severity.name(),
        e.rule,
        e.t_ms,
        e.message
    )
}

/// Render a telemetry snapshot in the requested `--format` and write it
/// to `--output` (or stdout).
fn emit_snapshot(cli: &Cli, snapshot: &TelemetrySnapshot) {
    let text = match cli.value("--format").unwrap_or("json") {
        "json" => snapshot.to_json() + "\n",
        "prom" => snapshot.render_prometheus(),
        other => misuse(format_args!(
            "unknown stats format {other:?} (want json or prom)"
        )),
    };
    match cli.value("--output") {
        Some(path) => write_file("stats", path, &text),
        None => print!("{text}"),
    }
}

/// `ct stats` — run a short campaign with telemetry enabled and emit
/// one snapshot: a simulator campaign by default, cluster-runtime
/// broadcasts with `--runtime`. Stalled cluster iterations print their
/// structured stall report to stderr and write a flight-recorder
/// postmortem dump; the command still emits the snapshot — the counters
/// of a stalled run are the diagnosis — then exits 1.
pub fn stats(cli: &Cli) {
    let reads = "--runtime --reps --format --output --series";
    cli.only("stats", &[SPEC, OBSERVED, reads]);
    let (snapshot, stalled) = if cli.flag("--runtime") {
        let mut observed = Observed::new(cli, 64, 3);
        let stalled = observed.run(true);
        if let Some(path) = cli.value("--series") {
            observed.write_series(path);
        }
        (observed.hub.snapshot().with_source("cluster"), stalled)
    } else {
        let logp: LogP = cli.parsed("--logp", LogP::PAPER);
        let seed: u64 = cli.parsed("--seed", 1);
        let p: u32 = cli.parsed("--p", 256);
        let reps: u32 = cli.parsed("--reps", 5);
        let faults = cli.faults(p);
        let hub = Arc::new(TelemetryHub::new(1, p as usize));
        let campaign = Campaign::new(Variant::Tree(build_spec(cli)), p, logp)
            .with_faults(faults)
            .with_reps(reps)
            .with_seed(seed)
            .with_telemetry(Arc::clone(&hub));
        if let Err(e) = campaign.run(1) {
            fail(format_args!("campaign failed: {e}"));
        }
        (hub.snapshot().with_source("sim"), 0)
    };
    emit_snapshot(cli, &snapshot);
    // Stalls still emit the snapshot first (the counters of a stalled
    // run are the diagnosis) but flag the failure via exit status.
    if stalled > 0 {
        std::process::exit(1);
    }
}

/// The `ct top` frames drawn so far: the next window to draw, the
/// health events printed, and the counters summed over every window.
#[derive(Default)]
struct Frames {
    next_seq: u64,
    health_mark: usize,
    totals: BTreeMap<String, u64>,
}

impl Frames {
    /// Draw one frame per sampler window not drawn yet, then the health
    /// events fired since the last call.
    fn draw(&mut self, store: &SeriesStore, clear: bool) {
        for sample in store.samples_since(self.next_seq) {
            for (name, delta) in &sample.counters {
                *self.totals.entry(name.clone()).or_default() += delta;
            }
            self.frame(&sample, clear);
            self.next_seq = sample.seq + 1;
        }
        let fired = store.events_from(self.health_mark);
        self.health_mark += fired.len();
        for e in &fired {
            println!("  {}", health_tag(e));
        }
    }

    /// One frame of the dashboard: the window's rates, gauges and
    /// per-worker busy bars, plus the campaign's totals so far.
    fn frame(&self, sample: &SeriesSample, clear: bool) {
        let total = |name: &str| self.totals.get(name).copied().unwrap_or(0);
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "ct top — source={} workers={} ranks={}",
            sample.source, sample.workers, sample.ranks
        );
        println!(
            "  rates/s: quanta {:.0} | batches {:.0} | delivered {:.0} | colored {:.0} | timer fires {:.0}",
            sample.rate("sched.quanta"),
            sample.rate("sched.batches"),
            sample.rate("msgs.delivered"),
            sample.rate("coord.colored"),
            sample.rate("timer.fires"),
        );
        println!(
            "  queues: runq {} | pending timers {} | mailbox hwm {} | spills {} | stale quanta {} | rechecks {}",
            sample.gauge("runq.depth"),
            sample.gauge("timers.pending"),
            sample.gauge("mailbox.hwm"),
            total("mailbox.spills"),
            total("sched.stale_quanta"),
            total("sched.lost_wakeup_rechecks"),
        );
        let dt_us = sample.dt_ms.max(1) as f64 * 1e3;
        for (w, busy_us) in sample.worker_busy_us.iter().enumerate() {
            let frac = (*busy_us as f64 / dt_us).min(1.0);
            let bar = "#".repeat((frac * 40.0).round() as usize);
            println!("  worker {w:>3}  busy {:>5.1}%  {bar}", frac * 100.0);
        }
    }
}

/// `ct top` — run a cluster broadcast campaign on a background thread
/// and draw one frame per sampler window while it runs, then print the
/// final scheduler summary. With `--listen` the campaign is also
/// served over HTTP.
pub fn top(cli: &Cli) {
    use std::io::IsTerminal as _;

    cli.only("top", &[SPEC, OBSERVED, "--listen"]);
    let mut observed = Observed::new(cli, 256, 50);
    let _server = cli.value("--listen").map(|addr| observed.serve(addr));
    let (hub, store, iters) = (
        Arc::clone(&observed.hub),
        Arc::clone(&observed.store),
        observed.iters,
    );
    // The campaign drops its cluster when done, which stops the sampler
    // after its last window.
    let campaign = std::thread::spawn(move || observed.run(false));
    let clear = std::io::stdout().is_terminal();
    let mut frames = Frames::default();
    let window = Duration::from_millis(default_sample_ms());
    while !campaign.is_finished() {
        std::thread::sleep(window);
        frames.draw(&store, clear);
    }
    let incomplete = campaign
        .join()
        .unwrap_or_else(|_| fail("campaign thread panicked"));
    frames.draw(&store, clear);
    println!("campaign done: {iters} broadcasts, {incomplete} incomplete");
    print!(
        "{}",
        scheduler::render_text(&hub.snapshot().with_source("cluster"))
    );
    // The summary is always printed; incomplete broadcasts flag the
    // failure via exit status for scripted health checks.
    if incomplete > 0 {
        std::process::exit(1);
    }
}

/// `ct serve` — run a cluster broadcast campaign with continuous
/// sampling on, exposing `GET /metrics`, `/series.jsonl` and `/health`
/// over a tiny built-in HTTP server while it runs (and `--linger-ms`
/// longer, so scrapers can collect the final state).
pub fn serve(cli: &Cli) {
    cli.only("serve", &[SPEC, OBSERVED, "--listen --linger-ms --series"]);
    let linger_ms: u64 = cli.parsed("--linger-ms", 0);
    let mut observed = Observed::new(cli, 64, 50);
    let _server = observed.serve(cli.value("--listen").unwrap_or("127.0.0.1:9184"));
    let incomplete = observed.run(true);
    if linger_ms > 0 {
        std::thread::sleep(Duration::from_millis(linger_ms));
    }
    if let Some(path) = cli.value("--series") {
        observed.write_series(path);
    }
    println!(
        "campaign done: {} broadcasts, {incomplete} incomplete",
        observed.iters
    );
    if incomplete > 0 {
        std::process::exit(1);
    }
}

/// Glyph ramp for the monitor sparkline (space = idle).
const SPARK: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// How many trailing windows the monitor sparkline covers.
const SPARK_WINDOWS: usize = 30;

/// Sparkline over the trailing delivery rates, scaled to their max.
fn sparkline(rates: &[f64]) -> String {
    let max = rates.iter().fold(0.0f64, |a, &b| a.max(b));
    rates
        .iter()
        .map(|&r| {
            if max <= 0.0 {
                SPARK[0]
            } else {
                let idx = ((r / max) * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[idx.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

/// One `ct monitor` line per sample window: delivery/coloring rates,
/// queue gauges and a sparkline of the trailing delivery rates (`trail`
/// gains this window's).
fn monitor_line(sample: &SeriesSample, trail: &mut Vec<f64>) -> String {
    trail.push(sample.rate("msgs.delivered"));
    let from = trail.len().saturating_sub(SPARK_WINDOWS);
    format!(
        "[{:>8} ms] delivered {:>8.1}/s colored {:>7.1}/s | runq {} timers {} spills {} | {}",
        sample.t_ms,
        sample.rate("msgs.delivered"),
        sample.rate("coord.colored"),
        sample.gauge("runq.depth"),
        sample.gauge("timers.pending"),
        sample.delta("mailbox.spills"),
        sparkline(&trail[from..]),
    )
}

/// One `ct monitor` line per health event.
fn health_line(e: &HealthEvent) -> String {
    format!(
        "[{:>8} ms] {} {}: {}",
        e.t_ms,
        e.severity.name().to_uppercase(),
        e.rule,
        e.message
    )
}

/// `ct monitor` — follow a live `ct serve` / `ct top --listen`
/// endpoint (`--connect`) or replay a recorded `ct-series-v1` export
/// (`--input`): one line per sample window plus every health event,
/// then the series summary.
pub fn monitor(cli: &Cli) {
    cli.only("monitor", &["--input --connect --interval-ms"]);
    let export = match (cli.value("--input"), cli.value("--connect")) {
        (Some(path), None) => read_input(path, SeriesExport::from_jsonl),
        (None, Some(addr)) => SeriesExport::from_jsonl(&follow(cli, addr))
            .unwrap_or_else(|e| fail(format_args!("series export: {e}"))),
        _ => fail("ct monitor needs exactly one of --input <series.jsonl> / --connect <ADDR>"),
    };
    let replay = cli.value("--input").is_some();
    write_stdout(|w| {
        // Replay: interleave sample lines and health events in time
        // order, exactly as a live follow would have printed them.
        if replay {
            let mut trail = Vec::new();
            let mut health = export.health.iter().peekable();
            for s in &export.samples {
                while let Some(e) = health.next_if(|e| e.t_ms < s.t_ms) {
                    writeln!(w, "{}", health_line(e))?;
                }
                writeln!(w, "{}", monitor_line(s, &mut trail))?;
            }
            for e in health {
                writeln!(w, "{}", health_line(e))?;
            }
        }
        write!(w, "{}", series::render_text(&export))
    });
}

/// The `--connect` loop: poll `/series.jsonl` until the endpoint goes
/// away, printing windows and health events as they appear; returns
/// the last export for the final summary. Exits 2 when the very first
/// request already fails (nothing is listening).
fn follow(cli: &Cli, addr: &str) -> String {
    let interval_ms: u64 = cli.parsed("--interval-ms", 1000);
    let timeout = Duration::from_secs(2);
    let mut last = match http_get(addr, "/series.jsonl", timeout) {
        Ok((200, body)) => body,
        Ok((status, _)) => fail(format_args!(
            "{addr}/series.jsonl: HTTP {status} (is sampling enabled?)"
        )),
        Err(e) => fail(format_args!("{addr}: {e}")),
    };
    let mut printed_seq: Option<u64> = None;
    let mut printed_health = 0usize;
    let mut trail = Vec::new();
    loop {
        match SeriesExport::from_jsonl(&last) {
            Ok(export) => write_stdout(|w| {
                for s in &export.samples {
                    if printed_seq.is_some_and(|last| s.seq <= last) {
                        continue;
                    }
                    printed_seq = Some(s.seq);
                    writeln!(w, "{}", monitor_line(s, &mut trail))?;
                }
                for e in export.health.iter().skip(printed_health) {
                    writeln!(w, "{}", health_line(e))?;
                }
                printed_health = export.health.len();
                Ok(())
            }),
            Err(e) => eprintln!("series export: {e}"),
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(10)));
        match http_get(addr, "/series.jsonl", timeout) {
            Ok((200, body)) => last = body,
            // The serve campaign finished and the endpoint went away:
            // that's the normal end of a follow.
            Ok(_) | Err(_) => break,
        }
    }
    last
}
