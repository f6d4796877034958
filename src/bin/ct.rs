//! `ct` — command-line front end for one-off broadcast experiments.
//!
//! ```console
//! $ ct run   --tree binomial --correction checked --mode sync \
//!            --p 1024 --faults 5 --seed 7 [--logp L=2,o=1]
//! $ ct tree  --tree lame2 --p 16            # print topology + stats
//! $ ct sweep --tree optimal --correction opp4 --p 4096 --rate 0.02 --reps 50
//! $ ct trace --tree binomial --correction opp2 --p 16 --faults 1 \
//!            --format ascii|jsonl|chrome    # event-stream visualisation
//! $ ct check --p 256 --rate 0.02 [--runtime] [--input trace.jsonl]
//!                                            # invariant monitor (exit 1 on violation)
//! $ ct forensics --p 64 --faults 3           # per-failure rescue provenance + waste
//! $ ct fig fig8 --p 512 --reps 3 --out dir    # regenerate a paper figure (CSV + manifest)
//! ```
//!
//! Everything the subcommands do is also available as library API; the
//! CLI exists so a cluster operator can poke at a configuration without
//! writing a program.

use std::io::{self, Write};
use std::sync::Arc;

use corrected_trees::analysis::Summary;
use corrected_trees::analyze::{
    analyze_forensics, analyze_trace, infer_p, parse_jsonl, postmortem, scheduler, series,
    split_reps, AnalysisSummary, AnalyzeConfig,
};
use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::{interleaving, stats, Ordering, Topology, TreeKind};
use corrected_trees::exp::figures::{self, FigArgs, FigError};
use corrected_trees::exp::{Campaign, FaultSpec, Variant};
use corrected_trees::logp::LogP;
use corrected_trees::obs::http::{http_get, monitor_handler, HttpServer};
use corrected_trees::obs::series::{default_sample_ms, SeriesExport, SeriesSample, SeriesStore};
use corrected_trees::obs::telemetry::{TelemetryHub, TelemetrySnapshot};
use corrected_trees::obs::{
    chrome_trace, Event, EventKind, HealthEvent, MonitorConfig, MonitorSink, Postmortem,
};
use corrected_trees::runtime::{
    default_flight_cap, Cluster, ClusterConfig, PubsubOptions, Topic, TopicTable,
};
use corrected_trees::sim::{ascii_timeline, FaultPlan, Outcome, RunArena, Simulation};

fn usage() -> ! {
    eprintln!(
        "usage: ct <run|tree|sweep|trace|analyze|check|forensics|pubsub|stats|top|serve|monitor|postmortem|fig> [options]\n\
         \n\
         common options:\n\
           --tree <binomial|binomial-inorder|kary<K>|lame<K>|optimal>  (default binomial)\n\
           --p <N>            processes (default 1024)\n\
           --logp <L=2,o=1>   machine model (default paper: L=2,o=1)\n\
         run options:\n\
           --correction <none|opp<D>|opp-plain<D>|checked|failure-proof|delayed<T>>\n\
           --mode <sync|overlap>   (default overlap)\n\
           --acked                 acknowledged tree instead of correction\n\
           --root <R>              broadcast root (default 0)\n\
           --shuffle <SEED>        randomize process numbering (§2.1)\n\
           --faults <N> | --rate <F>   random failures (default none)\n\
           --seed <S>              run seed (default 1)\n\
         sweep options:\n\
           --reps <N>              repetitions (default 50)\n\
         trace options (plus all run options):\n\
           --format <ascii|jsonl|chrome>   (default ascii)\n\
                   ascii:  Figure-5-style sender/delivery timeline\n\
                   jsonl:  one ct-obs event per line (stable schema)\n\
                   chrome: chrome://tracing / Perfetto JSON document\n\
           --ranks <a,b,c>         restrict ascii rows / jsonl events to\n\
                                   the given ranks (phase spans kept)\n\
         analyze options (all run options, or --input to read a trace):\n\
           --input <trace.jsonl>   analyze a recorded JSONL trace instead\n\
                                   of running the simulator\n\
           --view <summary|critical-path|utilization|scheduler|postmortem|series>\n\
                                   (default summary; scheduler reads a\n\
                                   ct-telemetry-v1 snapshot from --input,\n\
                                   e.g. one written by ct stats; postmortem\n\
                                   reads a ct-postmortem-v1 dump from --input;\n\
                                   series reads a ct-series-v1 JSONL export\n\
                                   from --input, e.g. one written by ct serve\n\
                                   or ct stats --runtime --series)\n\
           --ranks <a,b,c>         restrict the utilization view to ranks\n\
           --json                  machine-readable summary output\n\
           --sync-start <T>        enable the Lemma-3 bounds check at\n\
                                   synchronized correction start T\n\
         check options (all run options, or --input to read a trace):\n\
           --input <trace.jsonl>   validate a recorded JSONL trace instead\n\
                                   of running live (with --failed <a,b,c>\n\
                                   naming the known-dead ranks, if any)\n\
           --runtime               run live on the cluster runtime instead\n\
                                   of the simulator (default --p 64)\n\
           --fail-fast             stop at the first violation\n\
           --json                  machine-readable violation report\n\
           exit status: 0 clean, 1 violations found, 2 usage/I-O error\n\
         forensics options (all run options, or --input + --failed):\n\
           --input <trace.jsonl>   analyze a recorded JSONL trace (first\n\
                                   rep of a multi-rep trace)\n\
           --failed <a,b,c>        dead ranks of the recorded trace\n\
                                   (default: inferred from drop events)\n\
           --json                  machine-readable forensics report\n\
           note: assumes the identity rank mapping — rejects\n\
           --root/--shuffle\n\
         pubsub options (topic-multiplexed broadcast walkthrough):\n\
           ct pubsub [--p N] [--k K] [--topics T] [--rounds R]\n\
                     [--faults N] [--seed S]\n\
                                   run T topics (default K; alternating plain\n\
                                   binomial and checked-sync corrected, varied\n\
                                   roots) for R rounds each with K broadcasts\n\
                                   in flight, print per-broadcast latency and\n\
                                   message totals plus aggregate throughput\n\
                                   exit status: 0 all broadcasts quiesced,\n\
                                   1 incomplete, 2 usage error\n\
         stats options (one-shot runtime-telemetry snapshot):\n\
           ct stats [run options] [--reps R]           simulator campaign\n\
           ct stats --runtime [run options] [--iters I]  cluster broadcasts\n\
           --dead <a,b,c>          exact dead ranks (instead of --faults/\n\
                                   --rate random placement)\n\
           --format <json|prom>    snapshot (default json) or Prometheus\n\
                                   text exposition\n\
           --output <FILE>         write to FILE instead of stdout\n\
           --postmortem <FILE>     flight-recorder dump path for --runtime\n\
                                   stalls (default ct-postmortem.json)\n\
           --series <FILE>         write the continuous sampler's\n\
                                   ct-series-v1 JSONL export (--runtime\n\
                                   only; sampling is always on there, at\n\
                                   the CT_SAMPLE_MS interval)\n\
           stalled cluster iterations print their stall report to stderr\n\
           exit status: 0 clean, 1 any cluster iteration stalled,\n\
           2 usage/I-O error (the snapshot is emitted either way)\n\
         top options (live cluster dashboard during a broadcast campaign):\n\
           ct top [run options] [--iters I] [--interval-ms MS]\n\
           --iters <I>             broadcasts to run (default 50)\n\
           --interval-ms <MS>      hub polling interval (default 500)\n\
           --listen <ADDR>         also serve GET /metrics, /series.jsonl\n\
                                   and /health while the campaign runs\n\
           --postmortem <FILE>     flight-recorder dump path for stalls\n\
                                   (default ct-postmortem.json)\n\
           exit status: 0 all broadcasts completed, 1 any incomplete,\n\
           2 usage/I-O error (the final summary is printed either way)\n\
         serve options (cluster campaign + HTTP monitoring endpoint):\n\
           ct serve [run options] [--iters I] [--listen ADDR]\n\
           --listen <ADDR>         bind address (default 127.0.0.1:9184)\n\
           --iters <I>             broadcasts to run (default 50)\n\
           --linger-ms <MS>        keep serving that long after the\n\
                                   campaign finishes (default 0)\n\
           --series <FILE>         write the ct-series-v1 JSONL export\n\
                                   on exit\n\
           --postmortem <FILE>     flight-recorder dump path for stalls\n\
                                   (default ct-postmortem.json)\n\
           routes: GET /metrics (Prometheus text exposition),\n\
                   /series.jsonl (sampler ring), /health (JSON; 503\n\
                   while a critical health rule is active)\n\
           exit status: 0 all broadcasts completed, 1 any incomplete,\n\
           2 usage/I-O error\n\
         monitor options (follow or replay a continuous series):\n\
           ct monitor --input <series.jsonl>     replay a recorded export\n\
           ct monitor --connect <ADDR> [--interval-ms MS]\n\
                                   follow a ct serve / ct top --listen\n\
                                   endpoint until it goes away (poll\n\
                                   interval default 1000 ms)\n\
           prints one line per sample window (delivery/coloring rates,\n\
           queue gauges, delivery sparkline) and every health event\n\
         postmortem options (render a flight-recorder dump):\n\
           ct postmortem <dump.json> [--json]\n\
           renders the per-stranded-rank causal reconstruction (last\n\
           poll, last mailbox push and its sender, pending timers) from\n\
           a ct-postmortem-v1 dump written on watchdog stall, worker\n\
           panic, or monitor violation; --json prints the dump as read\n\
         env (cluster-runtime sizing and sampling):\n\
           CT_THREADS       worker threads         (default: available cores)\n\
           CT_MAILBOX_CAP   inline mailbox slots per rank    (default 64)\n\
           CT_WATCHDOG_MS   stall watchdog timeout in ms     (default 30000)\n\
           CT_FLIGHT_CAP    flight-recorder records per ring (default 4096)\n\
           CT_SAMPLE_MS     series sampler interval in ms    (default 250)\n\
         fig options (regenerate the paper's evaluation):\n\
           ct fig <name>|all [flags] [--out DIR]\n\
                                   print each figure's table and write\n\
                                   DIR/<name>.csv plus its .meta.json\n\
                                   manifest (default DIR results)\n\
           --paper                 the paper's scale (default quick)\n\
           --p <N>                 processes, or the largest P of a sweep\n\
           a flag the figure does not read is a usage error\n\
           exit status: 0 every in-code claim holds, 1 a claim failed,\n\
           2 usage error or failed run\n\
           figures, with the flags each reads (under all, each its own):"
    );
    for f in figures::table() {
        eprintln!("  {:<11} {:<50} {}", f.name, f.about, f.flags.join(" "));
    }
    std::process::exit(2);
}

struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// The value after `key`, if `key` is given; a `key` with nothing
    /// after it is a usage error.
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == key)?;
        let Some(v) = self.args.get(i + 1) else {
            eprintln!("missing value after {key}");
            usage()
        };
        Some(v)
    }

    /// The parsed value after `key`, if `key` is given.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.value(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("cannot parse {key} value {v:?}");
                usage()
            })
        })
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    fn flag(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }
}

fn parse_tree(s: &str) -> TreeKind {
    let (name, order) = match s.strip_suffix("-inorder") {
        Some(base) => (base, Ordering::InOrder),
        None => (s, Ordering::Interleaved),
    };
    if name == "binomial" {
        TreeKind::Binomial { order }
    } else if name == "optimal" {
        TreeKind::Optimal { order }
    } else if let Some(k) = name.strip_prefix("kary") {
        TreeKind::Kary {
            k: k.parse().unwrap_or_else(|_| usage()),
            order,
        }
    } else if let Some(k) = name.strip_prefix("lame") {
        TreeKind::Lame {
            k: k.parse().unwrap_or_else(|_| usage()),
            order,
        }
    } else {
        eprintln!("unknown tree {s:?}");
        usage()
    }
}

fn parse_correction(s: &str) -> CorrectionKind {
    if s == "none" {
        CorrectionKind::None
    } else if s == "checked" {
        CorrectionKind::Checked
    } else if s == "failure-proof" {
        CorrectionKind::FailureProof
    } else if let Some(d) = s.strip_prefix("opp-plain") {
        CorrectionKind::Opportunistic {
            distance: d.parse().unwrap_or_else(|_| usage()),
        }
    } else if let Some(d) = s.strip_prefix("opp") {
        CorrectionKind::OpportunisticOptimized {
            distance: d.parse().unwrap_or_else(|_| usage()),
        }
    } else if let Some(t) = s.strip_prefix("delayed") {
        CorrectionKind::Delayed {
            delay: t.parse().unwrap_or_else(|_| usage()),
        }
    } else {
        eprintln!("unknown correction {s:?}");
        usage()
    }
}

fn build_spec(cli: &Cli) -> BroadcastSpec {
    let tree = parse_tree(cli.value("--tree").unwrap_or("binomial"));
    let correction = parse_correction(cli.value("--correction").unwrap_or("opp4"));
    let mut spec = if cli.flag("--acked") {
        BroadcastSpec::ack_tree(tree)
    } else if cli.value("--mode") == Some("sync") {
        BroadcastSpec::corrected_tree_sync(tree, correction)
    } else {
        BroadcastSpec::corrected_tree(tree, correction)
    };
    spec = spec.with_root(cli.parsed("--root", 0u32));
    if let Some(seed) = cli.value("--shuffle") {
        spec = spec.with_shuffle(seed.parse().unwrap_or_else(|_| usage()));
    }
    spec
}

fn faults(cli: &Cli, p: u32, seed: u64, root: u32) -> FaultPlan {
    if let Some(n) = cli.value("--faults") {
        let n: u32 = n.parse().unwrap_or_else(|_| usage());
        FaultPlan::random_count_protecting(p, n, seed, root).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    } else if let Some(r) = cli.value("--rate") {
        let r: f64 = r.parse().unwrap_or_else(|_| usage());
        let n = ((p as f64 * r).round() as u32).min(p - 1);
        FaultPlan::random_count_protecting(p, n, seed, root).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    } else {
        FaultPlan::none(p)
    }
}

/// Parse a comma-separated rank list (`--ranks 0,3,7`).
fn parse_rank_list(cli: &Cli, key: &str) -> Option<Vec<u32>> {
    cli.value(key).map(|s| {
        s.split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(|t| {
                t.parse().unwrap_or_else(|_| {
                    eprintln!("cannot parse {key} entry {t:?}");
                    usage()
                })
            })
            .collect()
    })
}

/// Does this event mention any of `ranks` (phase spans always pass)?
fn event_involves(event: &Event, ranks: &[u32]) -> bool {
    match event.kind {
        EventKind::SendStart { from, to, .. }
        | EventKind::Arrive { from, to, .. }
        | EventKind::Deliver { from, to, .. }
        | EventKind::DropDead { from, to, .. } => ranks.contains(&from) || ranks.contains(&to),
        EventKind::Colored { rank, .. } => ranks.contains(&rank),
        EventKind::PhaseBegin { .. } | EventKind::PhaseEnd { .. } => true,
    }
}

fn cmd_run(cli: &Cli) {
    let p: u32 = cli.parsed("--p", 1024);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let seed: u64 = cli.parsed("--seed", 1);
    let spec = build_spec(cli);
    let plan = faults(cli, p, seed, spec.root);
    let failed: Vec<u32> = plan.failed_ranks().collect();

    let out = Simulation::builder(p, logp)
        .faults(plan)
        .seed(seed)
        .build()
        .run(&spec)
        .expect("valid configuration");
    write_stdout(|w| report(w, &out, &failed));
}

/// Write a command's output through one locked, buffered stdout. A
/// reader that goes away early (`ct trace | head -1`) ends the command
/// quietly with status 0; any other write error exits 1.
fn write_stdout(body: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
    let mut w = io::BufWriter::new(io::stdout().lock());
    match body(&mut w).and_then(|()| w.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}

fn report(w: &mut dyn Write, out: &Outcome, failed: &[u32]) -> io::Result<()> {
    writeln!(w, "protocol            {}", out.label)?;
    writeln!(w, "processes           {}", out.p)?;
    writeln!(w, "failed ranks        {failed:?}")?;
    writeln!(w, "all live colored    {}", out.all_live_colored())?;
    if !out.all_live_colored() {
        writeln!(w, "uncolored live      {:?}", out.uncolored_live())?;
    }
    writeln!(w, "coloring latency    {} steps", out.coloring_latency)?;
    writeln!(w, "quiescence latency  {} steps", out.quiescence)?;
    writeln!(
        w,
        "messages            {} ({:.3}/process; tree {}, corr {}, gossip {}, ack {})",
        out.messages.total(),
        out.messages_per_process(),
        out.messages.tree,
        out.messages.correction,
        out.messages.gossip,
        out.messages.ack,
    )?;
    writeln!(w, "colored by corr.    {}", out.correction_colored())?;
    writeln!(w, "max ring gap        {}", out.max_gap())
}

fn cmd_trace(cli: &Cli) {
    let p: u32 = cli.parsed("--p", 16);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let seed: u64 = cli.parsed("--seed", 1);
    let spec = build_spec(cli);
    let plan = faults(cli, p, seed, spec.root);
    let failed: Vec<u32> = plan.failed_ranks().collect();

    let (out, events) = Simulation::builder(p, logp)
        .faults(plan)
        .seed(seed)
        .build()
        .run_with_events(&spec)
        .expect("valid configuration");

    let ranks = parse_rank_list(cli, "--ranks");
    write_stdout(|w| match cli.value("--format").unwrap_or("ascii") {
        "ascii" => {
            let timeline = ascii_timeline(&events, p, logp.o(), ranks.as_deref());
            writeln!(w, "{timeline}")?;
            report(w, &out, &failed)
        }
        "jsonl" => {
            for e in &events {
                if ranks.as_deref().is_none_or(|r| event_involves(e, r)) {
                    writeln!(w, "{e}")?;
                }
            }
            Ok(())
        }
        "chrome" => writeln!(w, "{}", chrome_trace(&events, logp.o())),
        other => {
            eprintln!("unknown trace format {other:?}");
            usage()
        }
    });
}

fn cmd_tree(cli: &Cli) {
    let p: u32 = cli.parsed("--p", 16);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let kind = parse_tree(cli.value("--tree").unwrap_or("binomial"));
    let tree = kind.build(p, &logp).expect("valid tree");
    let s = stats::tree_stats(&tree);
    println!(
        "{kind}: P={p}, height {}, leaves {}, max fan-out {}, avg inner fan-out {:.2}",
        s.height, s.leaves, s.max_fanout, s.avg_inner_fanout
    );
    println!(
        "interleaved (Definition 1): {}",
        interleaving::is_interleaved(&tree)
    );
    println!(
        "fault-free dissemination deadline: {} steps",
        tree.dissemination_deadline(&logp)
    );
    for r in 0..p {
        if !tree.children(r).is_empty() {
            println!("  {r:>4} → {:?}", tree.children(r));
        }
    }
}

fn cmd_sweep(cli: &Cli) {
    let p: u32 = cli.parsed("--p", 1024);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let reps: u32 = cli.parsed("--reps", 50);
    let seed0: u64 = cli.parsed("--seed", 1);
    let spec = build_spec(cli);
    let mut quiescence = Vec::with_capacity(reps as usize);
    let mut msgs = Vec::with_capacity(reps as usize);
    let mut incomplete = 0u32;
    for rep in 0..reps {
        let seed = seed0 + rep as u64;
        let plan = faults(cli, p, seed, spec.root);
        let out = Simulation::builder(p, logp)
            .faults(plan)
            .seed(seed)
            .build()
            .run(&spec)
            .expect("valid configuration");
        if !out.all_live_colored() {
            incomplete += 1;
        }
        quiescence.push(out.quiescence.steps() as f64);
        msgs.push(out.messages_per_process());
    }
    let q = Summary::of(&quiescence);
    let m = Summary::of(&msgs);
    println!("protocol   {}", spec);
    println!("reps       {reps} ({} without full coloring)", incomplete);
    println!(
        "quiescence mean {:.2}  p05 {:.0}  median {:.0}  p95 {:.0}  max {:.0}",
        q.mean, q.p05, q.median, q.p95, q.max
    );
    println!(
        "msgs/proc  mean {:.3}  p05 {:.3}  p95 {:.3}",
        m.mean, m.p05, m.p95
    );
}

fn cmd_analyze(cli: &Cli) {
    // The scheduler, series and postmortem views read a telemetry
    // snapshot, a sampler export and a flight-recorder dump, not an
    // event trace — handle them before any trace parsing.
    let view = cli.value("--view").unwrap_or("summary");
    let need = match view {
        "scheduler" => Some("<snapshot.json> (write one with ct stats)"),
        "series" => {
            Some("<series.jsonl> (write one with ct serve --series or ct stats --runtime --series)")
        }
        "postmortem" => Some(
            "<dump.json> (written on a stall by ct stats --runtime / ct top / ct check --runtime)",
        ),
        _ => None,
    };
    if let Some(need) = need {
        let Some(path) = cli.value("--input") else {
            eprintln!("--view {view} requires --input {need}");
            std::process::exit(2);
        };
        // Under --json each view prints what it read as its writer
        // renders it.
        let json = cli.flag("--json");
        match view {
            "scheduler" => {
                let snap = read_input(path, TelemetrySnapshot::from_json);
                if json {
                    println!("{}", snap.to_json());
                } else {
                    print!("{}", scheduler::render_text(&snap));
                }
            }
            "series" => {
                let export = read_input(path, SeriesExport::from_jsonl);
                if json {
                    print!("{}", export.to_jsonl());
                } else {
                    print!("{}", series::render_text(&export));
                }
            }
            _ => render_postmortem(cli, path),
        }
        return;
    }
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let mut cfg = AnalyzeConfig::new(logp);
    let events = if let Some(path) = cli.value("--input") {
        read_trace(path)
    } else {
        // No input file: run the configuration live, exactly like
        // `ct run`, and analyze the events it produces.
        let p: u32 = cli.parsed("--p", 1024);
        let seed: u64 = cli.parsed("--seed", 1);
        let spec = build_spec(cli);
        let plan = faults(cli, p, seed, spec.root);
        cfg = cfg.with_p(p);
        if let Some(start) = Variant::Tree(spec).sync_start(p, &logp) {
            cfg = cfg.with_sync_start(start.steps());
        }
        let (_, events) = Simulation::builder(p, logp)
            .faults(plan)
            .seed(seed)
            .build()
            .run_with_events(&spec)
            .expect("valid configuration");
        events
    };
    if let Some(t) = cli.value("--sync-start") {
        cfg = cfg.with_sync_start(t.parse().unwrap_or_else(|_| usage()));
    }
    let ta = analyze_trace(&events, &cfg);
    match view {
        "summary" => {
            let s = AnalysisSummary::from_trace(&ta);
            if cli.flag("--json") {
                println!("{}", s.to_json());
            } else {
                print!("{}", s.render_text());
                for (i, rep) in ta.reps.iter().enumerate() {
                    if let Some(b) = &rep.bounds {
                        println!(
                            "rep {i}: L_SCC observed {} vs bounds [{}, {}] (g_max {}) — {}",
                            b.observed,
                            b.lower,
                            b.upper,
                            b.g_max,
                            if b.violated() { "VIOLATED" } else { "ok" }
                        );
                    }
                }
            }
        }
        "critical-path" => {
            for (i, rep) in ta.reps.iter().enumerate() {
                let cp = &rep.critpath;
                println!(
                    "rep {i}: completion {} = o {} + L {} + idle {} over {} hops \
                     (dissemination {}, correction {})",
                    cp.len,
                    cp.o_steps,
                    cp.l_steps,
                    cp.idle_steps,
                    cp.hops,
                    cp.diss_steps,
                    cp.corr_steps
                );
                for s in &cp.segments {
                    println!(
                        "  [{:>6}..{:>6}]  {:<4}  rank {:<6}  {}",
                        s.start,
                        s.end,
                        s.class.label(),
                        s.rank,
                        Event::payload_tag(s.payload)
                    );
                }
            }
        }
        "utilization" => {
            let ranks = parse_rank_list(cli, "--ranks");
            for (i, rep) in ta.reps.iter().enumerate() {
                println!("rep {i}: completion {}", rep.completion);
                for r in 0..rep.utilization.busy.len() {
                    if let Some(keep) = &ranks {
                        if !keep.contains(&(r as u32)) {
                            continue;
                        }
                    }
                    let frac = rep.utilization.busy_frac(r);
                    let bar = "#".repeat((frac * 40.0).round() as usize);
                    println!("  rank {r:>5}  busy {:>5.1}%  {bar}", frac * 100.0);
                }
            }
        }
        other => {
            eprintln!("unknown analyze view {other:?}");
            usage()
        }
    }
}

/// Shared body of `ct postmortem` and `ct analyze --view postmortem`:
/// read a `ct-postmortem-v1` dump and render the causal reconstruction
/// (or, under `--json`, the dump as its writer renders it).
fn render_postmortem(cli: &Cli, path: &str) {
    let pm = read_input(path, Postmortem::from_json);
    if cli.flag("--json") {
        println!("{}", pm.to_json());
    } else {
        print!("{}", postmortem::render_text(&pm));
    }
}

/// `ct postmortem <dump.json>` — render a flight-recorder dump written
/// on watchdog stall, worker panic, or monitor violation.
fn cmd_postmortem(cli: &Cli) {
    let Some(path) = cli.args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("ct postmortem needs a dump path: ct postmortem <dump.json> [--json]");
        std::process::exit(2);
    };
    render_postmortem(cli, path);
}

/// Read `path` and parse it with `parse`. A file that cannot be read,
/// is not UTF-8 or does not parse exits 2 with the file name and the
/// error — which names its position — on stderr.
fn read_input<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    let fail = |e: String| -> ! {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(e.to_string()));
    let text = String::from_utf8(bytes).unwrap_or_else(|e| {
        fail(format!(
            "not UTF-8 at byte {}",
            e.utf8_error().valid_up_to()
        ))
    });
    parse(&text).unwrap_or_else(|e| fail(e))
}

fn read_trace(path: &str) -> Vec<Event> {
    read_input(path, |text| parse_jsonl(text).map_err(|e| e.to_string()))
}

/// `ct check` — run the streaming invariant monitor over a recorded
/// trace (`--input`), a live simulator run (default) or a live cluster
/// run (`--runtime`). Exit 1 when any invariant is violated.
fn cmd_check(cli: &Cli) {
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let fail_fast = cli.flag("--fail-fast");
    let report = if let Some(path) = cli.value("--input") {
        let events = read_trace(path);
        let mut cfg = MonitorConfig::new().with_logp(logp);
        if let Some(p) = cli.value("--p") {
            cfg = cfg.with_p(p.parse().unwrap_or_else(|_| usage()));
        }
        if let Some(failed) = parse_rank_list(cli, "--failed") {
            let p: u32 = cli.parsed("--p", failed.iter().max().map_or(1, |&m| m + 1));
            let mut mask = vec![false; p as usize];
            for r in failed {
                if (r as usize) < mask.len() {
                    mask[r as usize] = true;
                }
            }
            cfg = cfg.with_failed(mask);
        }
        if fail_fast {
            cfg = cfg.with_fail_fast();
        }
        MonitorSink::check(&events, &cfg)
    } else {
        let runtime = cli.flag("--runtime");
        // Cluster broadcasts run in real time (wall-clock waits, one
        // monitored iteration) — default smaller than the simulator's.
        let p: u32 = cli.parsed("--p", if runtime { 64 } else { 1024 });
        let seed: u64 = cli.parsed("--seed", 1);
        let spec = build_spec(cli);
        let plan = faults(cli, p, seed, spec.root);
        let mut cfg = MonitorConfig::new()
            .with_p(p)
            .with_logp(logp)
            .with_failed(plan.mask().to_vec());
        if fail_fast {
            cfg = cfg.with_fail_fast();
        }
        let mut monitor = MonitorSink::new(cfg);
        if runtime {
            let mask = plan.mask().to_vec();
            let pm_path =
                std::path::PathBuf::from(cli.value("--postmortem").unwrap_or("ct-postmortem.json"));
            let mut cluster = Cluster::with_config(
                p,
                logp,
                ClusterConfig::new()
                    .flight(default_flight_cap())
                    .postmortem(pm_path.clone()),
            );
            if let Err(e) = cluster.run_broadcast_observed(&spec, &mask, seed, &mut monitor) {
                eprintln!("cluster run failed: {e}");
                std::process::exit(2);
            }
            let report = monitor.finish();
            // Invariant violations freeze the flight recorder too: the
            // ring tail around the violation is exactly the evidence a
            // post-mortem needs.
            if !report.is_ok()
                && cluster
                    .capture_postmortem("monitor_violation", None)
                    .is_some()
            {
                eprintln!("[postmortem {}]", pm_path.display());
            }
            report
        } else {
            Simulation::builder(p, logp)
                .faults(plan)
                .seed(seed)
                .build()
                .run_with_sink_reusable(&spec, &mut monitor, &mut RunArena::new())
                .expect("valid configuration");
            monitor.finish()
        }
    };
    if cli.flag("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if !report.is_ok() {
        std::process::exit(1);
    }
}

/// `ct forensics` — join an event trace with the dissemination tree and
/// fault mask: per-failure orphaned subtrees, rescue provenance and the
/// run-level waste accounting.
fn cmd_forensics(cli: &Cli) {
    if cli.value("--root").is_some() || cli.value("--shuffle").is_some() {
        eprintln!(
            "ct forensics assumes the identity rank mapping (tree rank = process rank); \
             --root and --shuffle are not supported"
        );
        std::process::exit(2);
    }
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let kind = parse_tree(cli.value("--tree").unwrap_or("binomial"));
    let (events, p, mask) = if let Some(path) = cli.value("--input") {
        let all = read_trace(path);
        // Forensics reconstructs one broadcast; of a multi-rep campaign
        // trace, take the first repetition.
        let events = split_reps(&all).into_iter().next().unwrap_or_default();
        let p: u32 = cli.parsed("--p", infer_p(&events));
        let mut mask = vec![false; p as usize];
        match parse_rank_list(cli, "--failed") {
            Some(failed) => {
                for r in failed {
                    if (r as usize) < mask.len() {
                        mask[r as usize] = true;
                    }
                }
            }
            None => {
                // No explicit mask: a fail-stop trace names its dead
                // ranks as drop targets.
                for e in &events {
                    if let EventKind::DropDead { to, .. } = e.kind {
                        if (to as usize) < mask.len() {
                            mask[to as usize] = true;
                        }
                    }
                }
            }
        }
        (events, p, mask)
    } else {
        let p: u32 = cli.parsed("--p", 64);
        let seed: u64 = cli.parsed("--seed", 1);
        let spec = build_spec(cli);
        let plan = faults(cli, p, seed, spec.root);
        let mask = plan.mask().to_vec();
        let (_, events) = Simulation::builder(p, logp)
            .faults(plan)
            .seed(seed)
            .build()
            .run_with_events(&spec)
            .expect("valid configuration");
        (events, p, mask)
    };
    let tree = kind.build(p, &logp).expect("valid tree");
    let report = analyze_forensics(&events, &tree, &mask, &logp);
    if cli.flag("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
}

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

/// `ct pubsub` — walkthrough: run a small multiplexed topic fleet and
/// print every broadcast's latency and message total, then the
/// aggregate throughput the pipelining achieved.
fn cmd_pubsub(cli: &Cli) {
    let p: u32 = cli.parsed("--p", 256);
    let k: usize = cli.parsed("--k", 4);
    let topics: usize = cli.parsed("--topics", k);
    let rounds: usize = cli.parsed("--rounds", 2);
    let seed: u64 = cli.parsed("--seed", 1);
    let n_faults: u32 = cli.parsed("--faults", 0);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    if k == 0 || topics == 0 || rounds == 0 {
        eprintln!("--k, --topics and --rounds must be positive");
        std::process::exit(2);
    }
    let mut table = TopicTable::new();
    for t in 0..topics {
        let root = (t as u32 * 31) % p;
        // Alternate the two flagship configurations so the walkthrough
        // shows barrier-bound and dissemination-bound topics mixing.
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
                CorrectionKind::checked_paced(&logp, 4),
            )
            .with_root(root);
            s.sync_start_override = Some(sync_barrier_us(p));
            s
        };
        let mut topic = Topic::new(format!("topic-{t}"), spec, p, seed + t as u64);
        if n_faults > 0 {
            let plan = FaultPlan::random_count_protecting(p, n_faults, seed + t as u64, root)
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            topic = topic.with_dead(plan.mask().to_vec());
        }
        table.push(topic);
    }
    let mut cluster = Cluster::new(p, logp);
    let report = cluster
        .run_pubsub(&table, &PubsubOptions { k, rounds })
        .unwrap_or_else(|e| {
            eprintln!("pubsub run failed: {e}");
            std::process::exit(2);
        });
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

/// Dead-rank mask for telemetry commands: exact ranks via `--dead`,
/// otherwise the usual random `--faults`/`--rate` placement.
fn dead_mask(cli: &Cli, p: u32, seed: u64, root: u32) -> Vec<bool> {
    match parse_rank_list(cli, "--dead") {
        Some(dead) => {
            let mut mask = vec![false; p as usize];
            for r in dead {
                if r >= p {
                    eprintln!("--dead rank {r} out of range (p={p})");
                    std::process::exit(2);
                }
                mask[r as usize] = true;
            }
            mask
        }
        None => faults(cli, p, seed, root).mask().to_vec(),
    }
}

/// Render a telemetry snapshot in the requested `--format` and write it
/// to `--output` (or stdout).
fn emit_snapshot(cli: &Cli, snapshot: &TelemetrySnapshot) {
    let text = match cli.value("--format").unwrap_or("json") {
        "json" => snapshot.to_json() + "\n",
        "prom" => snapshot.render_prometheus(),
        other => {
            eprintln!("unknown stats format {other:?} (want json or prom)");
            usage()
        }
    };
    match cli.value("--output") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("could not write {path}: {e}");
                std::process::exit(2);
            }
            println!("[stats {path}]");
        }
        None => print!("{text}"),
    }
}

/// `ct stats` — run a short campaign with telemetry enabled and emit
/// one snapshot: a simulator campaign by default, cluster-runtime
/// broadcasts with `--runtime`. Stalled cluster iterations print their
/// structured stall report to stderr and write a flight-recorder
/// postmortem dump; the command still emits the snapshot — the counters
/// of a stalled run are the diagnosis — then exits 1.
fn cmd_stats(cli: &Cli) {
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let seed: u64 = cli.parsed("--seed", 1);
    let mut stalled = 0u32;
    let snapshot = if cli.flag("--runtime") {
        let p: u32 = cli.parsed("--p", 64);
        let iters: u32 = cli.parsed("--iters", 3);
        let spec = build_spec(cli);
        let mask = dead_mask(cli, p, seed, spec.root);
        let pm_path =
            std::path::PathBuf::from(cli.value("--postmortem").unwrap_or("ct-postmortem.json"));
        let base = ClusterConfig::new();
        let hub = Arc::new(TelemetryHub::new(base.threads, p as usize));
        // The continuous sampler is always on for runtime stats: its
        // health rules are exactly the early warning a stalled
        // iteration needs, and the export lands in --series.
        let cfg = base
            .telemetry(Arc::clone(&hub))
            .sample(std::time::Duration::from_millis(default_sample_ms()))
            .flight(default_flight_cap())
            .postmortem(pm_path.clone());
        let mut cluster = Cluster::with_config(p, logp, cfg);
        for i in 0..iters {
            let report = cluster
                .run_broadcast(&spec, &mask, seed + u64::from(i))
                .unwrap_or_else(|e| {
                    eprintln!("cluster run failed: {e}");
                    std::process::exit(2);
                });
            for e in &report.health {
                eprintln!(
                    "[health {} {} t={}ms] {}",
                    e.severity.name(),
                    e.rule,
                    e.t_ms,
                    e.message
                );
            }
            if let Some(stall) = &report.stall {
                stalled += 1;
                eprint!("{}", stall.render_text());
                if report.postmortem.is_some() {
                    eprintln!("[postmortem {}]", pm_path.display());
                }
            }
        }
        if let Some(path) = cli.value("--series") {
            write_series(path, cluster.series().as_deref());
        }
        hub.snapshot().with_source("cluster")
    } else {
        let p: u32 = cli.parsed("--p", 256);
        let reps: u32 = cli.parsed("--reps", 5);
        let fault_spec = if let Some(dead) = parse_rank_list(cli, "--dead") {
            FaultSpec::Ranks(dead)
        } else if let Some(n) = cli.value("--faults") {
            FaultSpec::Count(n.parse().unwrap_or_else(|_| usage()))
        } else if let Some(r) = cli.value("--rate") {
            FaultSpec::Rate(r.parse().unwrap_or_else(|_| usage()))
        } else {
            FaultSpec::None
        };
        let hub = Arc::new(TelemetryHub::new(1, p as usize));
        let campaign = Campaign::new(Variant::Tree(build_spec(cli)), p, logp)
            .with_faults(fault_spec)
            .with_reps(reps)
            .with_seed(seed)
            .with_telemetry(Arc::clone(&hub));
        if let Err(e) = campaign.run(1) {
            eprintln!("campaign failed: {e}");
            std::process::exit(2);
        }
        hub.snapshot().with_source("sim")
    };
    emit_snapshot(cli, &snapshot);
    // Stalls still emit the snapshot first (the counters of a stalled
    // run are the diagnosis) but flag the failure via exit status.
    if stalled > 0 {
        std::process::exit(1);
    }
}

/// Write a sampler's `ct-series-v1` JSONL export to `path` (exit 2 on
/// I/O failure or when sampling was not enabled on the run).
fn write_series(path: &str, store: Option<&SeriesStore>) {
    let Some(store) = store else {
        eprintln!("--series: continuous sampling is not enabled on this run");
        std::process::exit(2);
    };
    if let Err(e) = std::fs::write(path, store.export_jsonl()) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(2);
    }
    println!("[series {path}]");
}

/// One frame of the `ct top` dashboard, rendered from one sample
/// window (counter deltas over a monotonic interval — the same math
/// the continuous sampler uses) plus the cumulative snapshot behind
/// it.
fn render_top_frame(sample: &SeriesSample, totals: &TelemetrySnapshot, clear: bool) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    let _ = writeln!(
        out,
        "ct top — source={} workers={} ranks={}",
        sample.source, sample.workers, sample.ranks
    );
    let _ = writeln!(
        out,
        "  rates/s: quanta {:.0} | batches {:.0} | delivered {:.0} | colored {:.0} | timer fires {:.0}",
        sample.rate("sched.quanta"),
        sample.rate("sched.batches"),
        sample.rate("msgs.delivered"),
        sample.rate("coord.colored"),
        sample.rate("timer.fires"),
    );
    let _ = writeln!(
        out,
        "  queues: runq {} | pending timers {} | mailbox hwm {} | spills {} | stale quanta {} | rechecks {}",
        sample.gauge("runq.depth"),
        sample.gauge("timers.pending"),
        sample.gauge("mailbox.hwm"),
        totals.counter("mailbox.spills"),
        totals.counter("sched.stale_quanta"),
        totals.counter("sched.lost_wakeup_rechecks"),
    );
    let dt_us = sample.dt_ms.max(1) as f64 * 1e3;
    for (w, busy_us) in sample.worker_busy_us.iter().enumerate() {
        let frac = (*busy_us as f64 / dt_us).min(1.0);
        let bar = "#".repeat((frac * 40.0).round() as usize);
        let _ = writeln!(out, "  worker {w:>3}  busy {:>5.1}%  {bar}", frac * 100.0);
    }
    out
}

/// Bind the monitoring endpoint over `hub` (and the sampler store,
/// when sampling is on). Exits 2 when the address is unusable.
fn spawn_monitor_server(
    addr: &str,
    hub: Arc<TelemetryHub>,
    store: Option<Arc<SeriesStore>>,
) -> HttpServer {
    let server =
        HttpServer::spawn(addr, monitor_handler(hub, "cluster", store)).unwrap_or_else(|e| {
            eprintln!("could not bind {addr}: {e}");
            std::process::exit(2);
        });
    println!(
        "[serving http://{} — GET /metrics /series.jsonl /health]",
        server.addr()
    );
    server
}

/// `ct top` — run a cluster broadcast campaign on a background thread
/// and poll the telemetry hub live at `--interval-ms` (each frame is a
/// [`SeriesSample`] window over a monotonic clock), then print the
/// final scheduler summary. With `--listen` the hub is also exposed
/// over HTTP while the campaign runs.
fn cmd_top(cli: &Cli) {
    use std::io::IsTerminal as _;

    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let p: u32 = cli.parsed("--p", 256);
    let iters: u32 = cli.parsed("--iters", 50);
    let interval_ms: u64 = cli.parsed("--interval-ms", 500);
    let seed: u64 = cli.parsed("--seed", 1);
    let spec = build_spec(cli);
    let mask = dead_mask(cli, p, seed, spec.root);
    let pm_path =
        std::path::PathBuf::from(cli.value("--postmortem").unwrap_or("ct-postmortem.json"));
    let base = ClusterConfig::new();
    let hub = Arc::new(TelemetryHub::new(base.threads, p as usize));
    let cfg = base
        .telemetry(Arc::clone(&hub))
        .sample(std::time::Duration::from_millis(default_sample_ms()))
        .flight(default_flight_cap())
        .postmortem(pm_path.clone());
    let mut cluster = Cluster::with_config(p, logp, cfg);
    let store = cluster.series();
    let _server = cli
        .value("--listen")
        .map(|addr| spawn_monitor_server(addr, Arc::clone(&hub), store.clone()));
    let campaign = std::thread::spawn(move || {
        let mut incomplete = 0u32;
        for i in 0..iters {
            let report = cluster
                .run_broadcast(&spec, &mask, seed + u64::from(i))
                .unwrap_or_else(|e| {
                    eprintln!("cluster run failed: {e}");
                    std::process::exit(2);
                });
            if !report.completed {
                incomplete += 1;
                if let Some(stall) = &report.stall {
                    eprint!("{}", stall.render_text());
                }
                if report.postmortem.is_some() {
                    eprintln!("[postmortem {}]", pm_path.display());
                }
            }
        }
        incomplete
    });
    let clear = std::io::stdout().is_terminal();
    let started = std::time::Instant::now();
    let mut prev = hub.snapshot().with_source("cluster");
    let mut prev_ms = 0u64;
    let mut seq = 0u64;
    let mut health_mark = 0usize;
    while !campaign.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
        let snap = hub.snapshot().with_source("cluster");
        let t_ms = started.elapsed().as_millis() as u64;
        let sample = SeriesSample::between(&prev, &snap, seq, t_ms, t_ms.saturating_sub(prev_ms));
        print!("{}", render_top_frame(&sample, &snap, clear));
        if let Some(s) = &store {
            let fired = s.events_from(health_mark);
            health_mark += fired.len();
            for e in &fired {
                println!(
                    "  [health {} {} t={}ms] {}",
                    e.severity.name(),
                    e.rule,
                    e.t_ms,
                    e.message
                );
            }
        }
        prev = snap;
        prev_ms = t_ms;
        seq += 1;
    }
    let incomplete = campaign.join().unwrap_or_else(|_| {
        eprintln!("campaign thread panicked");
        std::process::exit(2);
    });
    let snap = hub.snapshot().with_source("cluster");
    println!("campaign done: {iters} broadcasts, {incomplete} incomplete");
    print!("{}", scheduler::render_text(&snap));
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
fn cmd_serve(cli: &Cli) {
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let p: u32 = cli.parsed("--p", 64);
    let iters: u32 = cli.parsed("--iters", 50);
    let linger_ms: u64 = cli.parsed("--linger-ms", 0);
    let seed: u64 = cli.parsed("--seed", 1);
    let spec = build_spec(cli);
    let mask = dead_mask(cli, p, seed, spec.root);
    let pm_path =
        std::path::PathBuf::from(cli.value("--postmortem").unwrap_or("ct-postmortem.json"));
    let base = ClusterConfig::new();
    let hub = Arc::new(TelemetryHub::new(base.threads, p as usize));
    let cfg = base
        .telemetry(Arc::clone(&hub))
        .sample(std::time::Duration::from_millis(default_sample_ms()))
        .flight(default_flight_cap())
        .postmortem(pm_path.clone());
    let mut cluster = Cluster::with_config(p, logp, cfg);
    let store = cluster.series();
    let _server = spawn_monitor_server(
        cli.value("--listen").unwrap_or("127.0.0.1:9184"),
        Arc::clone(&hub),
        store.clone(),
    );
    let mut incomplete = 0u32;
    let mut health_mark = 0usize;
    for i in 0..iters {
        let report = cluster
            .run_broadcast(&spec, &mask, seed + u64::from(i))
            .unwrap_or_else(|e| {
                eprintln!("cluster run failed: {e}");
                std::process::exit(2);
            });
        if let Some(s) = &store {
            let fired = s.events_from(health_mark);
            health_mark += fired.len();
            for e in &fired {
                eprintln!(
                    "[health {} {} t={}ms] {}",
                    e.severity.name(),
                    e.rule,
                    e.t_ms,
                    e.message
                );
            }
        }
        if !report.completed {
            incomplete += 1;
            if let Some(stall) = &report.stall {
                eprint!("{}", stall.render_text());
            }
            if report.postmortem.is_some() {
                eprintln!("[postmortem {}]", pm_path.display());
            }
        }
    }
    if linger_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(linger_ms));
    }
    if let Some(path) = cli.value("--series") {
        write_series(path, store.as_deref());
    }
    println!("campaign done: {iters} broadcasts, {incomplete} incomplete");
    if incomplete > 0 {
        std::process::exit(1);
    }
}

/// Glyph ramp for the monitor sparkline (space = idle).
const SPARK: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

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
/// queue gauges and a sparkline of the trailing delivery rates.
fn monitor_line(sample: &SeriesSample, trail: &[f64]) -> String {
    format!(
        "[{:>8} ms] delivered {:>8.1}/s colored {:>7.1}/s | runq {} timers {} spills {} | {}",
        sample.t_ms,
        sample.rate("msgs.delivered"),
        sample.rate("coord.colored"),
        sample.gauge("runq.depth"),
        sample.gauge("timers.pending"),
        sample.delta("mailbox.spills"),
        sparkline(trail),
    )
}

/// How many trailing windows the monitor sparkline covers.
const SPARK_WINDOWS: usize = 30;

/// `ct monitor` — follow a live `ct serve` / `ct top --listen`
/// endpoint (`--connect`) or replay a recorded `ct-series-v1` export
/// (`--input`): one line per sample window plus every health event,
/// then the series summary.
fn cmd_monitor(cli: &Cli) {
    let export = match (cli.value("--input"), cli.value("--connect")) {
        (Some(path), None) => read_input(path, SeriesExport::from_jsonl),
        (None, Some(addr)) => SeriesExport::from_jsonl(&follow(cli, addr)).unwrap_or_else(|e| {
            eprintln!("series export: {e}");
            std::process::exit(2);
        }),
        _ => {
            eprintln!("ct monitor needs exactly one of --input <series.jsonl> / --connect <ADDR>");
            std::process::exit(2);
        }
    };
    // Replay: interleave sample lines and health events in time order,
    // exactly as a live follow would have printed them.
    if cli.value("--input").is_some() {
        let mut trail: Vec<f64> = Vec::new();
        let mut health = export.health.iter().peekable();
        for s in &export.samples {
            while let Some(e) = health.next_if(|e| e.t_ms < s.t_ms) {
                println!("{}", health_line(e));
            }
            trail.push(s.rate("msgs.delivered"));
            let from = trail.len().saturating_sub(SPARK_WINDOWS);
            println!("{}", monitor_line(s, &trail[from..]));
        }
        for e in health {
            println!("{}", health_line(e));
        }
    }
    print!("{}", series::render_text(&export));
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

/// The `--connect` loop: poll `/series.jsonl` until the endpoint goes
/// away, printing windows and health events as they appear; returns
/// the last export for the final summary. Exits 2 when the very first
/// request already fails (nothing is listening).
fn follow(cli: &Cli, addr: &str) -> String {
    let interval_ms: u64 = cli.parsed("--interval-ms", 1000);
    let timeout = std::time::Duration::from_secs(2);
    let mut last = match http_get(addr, "/series.jsonl", timeout) {
        Ok((200, body)) => body,
        Ok((status, _)) => {
            eprintln!("{addr}/series.jsonl: HTTP {status} (is sampling enabled?)");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{addr}: {e}");
            std::process::exit(2);
        }
    };
    let mut printed_seq: Option<u64> = None;
    let mut printed_health = 0usize;
    let mut trail: Vec<f64> = Vec::new();
    loop {
        match SeriesExport::from_jsonl(&last) {
            Ok(export) => {
                for s in &export.samples {
                    if printed_seq.is_some_and(|last| s.seq <= last) {
                        continue;
                    }
                    printed_seq = Some(s.seq);
                    trail.push(s.rate("msgs.delivered"));
                    let from = trail.len().saturating_sub(SPARK_WINDOWS);
                    println!("{}", monitor_line(s, &trail[from..]));
                }
                for e in export.health.iter().skip(printed_health) {
                    println!("{}", health_line(e));
                }
                printed_health = export.health.len();
            }
            Err(e) => eprintln!("series export: {e}"),
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
        match http_get(addr, "/series.jsonl", timeout) {
            Ok((200, body)) => last = body,
            // The serve campaign finished and the endpoint went away:
            // that's the normal end of a follow.
            Ok(_) | Err(_) => break,
        }
    }
    last
}

/// `ct fig <name>|all` — regenerate one figure of the evaluation, or
/// every one, from the table in `ct_exp::figures`.
fn cmd_fig(cli: &Cli) {
    let name = cli.args.first().map_or("", String::as_str);
    let Some(figs) = figures::select(name) else {
        eprintln!("ct fig needs a figure name or all, not {name:?}");
        usage()
    };
    let args = FigArgs {
        paper: cli.flag("--paper"),
        p: cli.opt("--p"),
        reps: cli.opt("--reps"),
        seed: cli.opt("--seed"),
        threads: cli.opt("--threads"),
        iters: cli.opt("--iters"),
        node_size: cli.opt("--node-size"),
        rate: cli.opt("--rate"),
    };
    let out = std::path::PathBuf::from(cli.value("--out").unwrap_or("results"));
    let mut rest = cli.args[1..].iter();
    while let Some(flag) = rest.next() {
        if flag != "--out" && !figs.iter().any(|f| f.flags.contains(&flag.as_str())) {
            eprintln!("{name} does not read {flag}");
            usage()
        }
        if flag != "--paper" {
            rest.next();
        }
    }
    match figures::drive(&figs, &args, &out) {
        Ok(failed) if failed.is_empty() => {}
        Ok(failed) => {
            for claim in failed {
                eprintln!("claim failed: {claim}");
            }
            std::process::exit(1);
        }
        Err(FigError::Usage(e)) => {
            eprintln!("{e}");
            usage()
        }
        Err(FigError::Failed(e)) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    let cli = Cli { args };
    match cmd.as_str() {
        "run" => cmd_run(&cli),
        "tree" => cmd_tree(&cli),
        "sweep" => cmd_sweep(&cli),
        "trace" => cmd_trace(&cli),
        "analyze" => cmd_analyze(&cli),
        "check" => cmd_check(&cli),
        "forensics" => cmd_forensics(&cli),
        "pubsub" => cmd_pubsub(&cli),
        "stats" => cmd_stats(&cli),
        "top" => cmd_top(&cli),
        "serve" => cmd_serve(&cli),
        "monitor" => cmd_monitor(&cli),
        "postmortem" => cmd_postmortem(&cli),
        "fig" => cmd_fig(&cli),
        _ => usage(),
    }
}
