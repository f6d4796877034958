//! Commands that read a run back: `ct analyze`, `ct check`,
//! `ct forensics` and `ct postmortem`.

use std::path::PathBuf;

use corrected_trees::analyze::{
    analyze_forensics, analyze_rep, parse_jsonl, postmortem, scheduler, series, AnalysisSummary,
    AnalyzeConfig, RepAnalysis,
};
use corrected_trees::exp::{FaultSpec, Variant};
use corrected_trees::logp::LogP;
use corrected_trees::obs::series::SeriesExport;
use corrected_trees::obs::telemetry::TelemetrySnapshot;
use corrected_trees::obs::{
    infer_p, Event, EventKind, MonitorConfig, MonitorReport, MonitorSink, Postmortem,
};
use corrected_trees::runtime::{default_flight_cap, Cluster, ClusterConfig};
use corrected_trees::sim::{RunArena, Simulation};

use crate::cli::{build_spec, parse_tree, rank_mask, read_input, write_stdout, Cli, SPEC};
use crate::{fail, misuse};

pub const USAGE: &str = "\
analyze options (all run options, or --input to read a trace):
  --input <trace.jsonl>   analyze a recorded JSONL trace instead
                          of running the simulator
  --view <summary|critical-path|utilization|scheduler|postmortem|series>
                          (default summary; scheduler reads a
                          ct-telemetry-v1 snapshot from --input,
                          e.g. one written by ct stats; postmortem
                          reads a ct-postmortem-v1 dump from --input;
                          series reads a ct-series-v1 JSONL export
                          from --input, e.g. one written by ct serve
                          or ct stats --runtime --series)
  --ranks <a,b,c>         restrict the utilization view to ranks
  --json                  machine-readable summary output
  --sync-start <T>        enable the Lemma-3 bounds check at
                          synchronized correction start T
check options (all run options, or --input to read a trace):
  --input <trace.jsonl>   validate a recorded JSONL trace instead
                          of running live
  --failed <a,b,c>        the known-dead ranks
  --runtime               run live on the cluster runtime instead
                          of the simulator (default --p 64)
  --fail-fast             stop at the first violation
  --json                  machine-readable violation report
  exit status: 0 clean, 1 violations found, 2 usage/I-O error
forensics options (all run options, or --input + --failed):
  --input <trace.jsonl>   analyze a recorded JSONL trace (of a
                          multiplexed one, its lowest broadcast)
  --failed <a,b,c>        the dead ranks (default: the run
                          options' draw, or for --input the
                          ranks drop events name)
  --json                  machine-readable forensics report
  note: assumes the identity rank mapping — rejects
  --root/--shuffle
postmortem options (render a flight-recorder dump):
  ct postmortem <dump.json> [--json]
  renders the per-stranded-rank causal reconstruction (last
  poll, last mailbox push and its sender, pending timers) from
  a ct-postmortem-v1 dump written on watchdog stall, worker
  panic, or monitor violation; --json prints the dump as read
";

/// Read a JSONL trace and the process count it implies; a trace that
/// does not parse, or implies no count, exits 2 naming the file.
fn read_trace(path: &str) -> (Vec<Event>, u32) {
    read_input(path, |text| {
        let events = parse_jsonl(text).map_err(|e| e.to_string())?;
        let p = infer_p(&events)?;
        Ok((events, p))
    })
}

/// Print what `json` renders under `--json`, else what `text` renders.
fn emit(cli: &Cli, json: impl FnOnce() -> String, text: impl FnOnce() -> String) {
    let out = if cli.flag("--json") {
        json() + "\n"
    } else {
        text()
    };
    write_stdout(|w| w.write_all(out.as_bytes()));
}

pub fn analyze(cli: &Cli) {
    cli.only(
        "analyze",
        &[SPEC, "--view --input --json --ranks --sync-start"],
    );
    // The scheduler, series and postmortem views read a telemetry
    // snapshot, a sampler export and a flight-recorder dump, not an
    // event trace — handle them before any trace parsing.
    let view = cli.value("--view").unwrap_or("summary");
    if matches!(view, "scheduler" | "series" | "postmortem") {
        return render_file(cli, view);
    }
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let mut cfg = AnalyzeConfig::new(logp);
    let events = if let Some(path) = cli.value("--input") {
        read_trace(path).0
    } else {
        // No input file: run the configuration live, exactly like
        // `ct run`, and analyze the events it produces.
        let p = cli.p().unwrap_or(1024);
        let seed: u64 = cli.parsed("--seed", 1);
        let spec = build_spec(cli);
        let plan = cli.fault_plan(p, seed, spec.root);
        cfg = cfg.with_p(p);
        if let Some(start) = Variant::Tree(spec).sync_start(p, &logp) {
            cfg = cfg.with_sync_start(start.steps());
        }
        let sim = Simulation::builder(p, logp).faults(plan).seed(seed).build();
        sim.run_with_events(&spec).expect("valid configuration").1
    };
    if let Some(t) = cli.opt("--sync-start") {
        cfg = cfg.with_sync_start(t);
    }
    let rep = analyze_rep(&events, &cfg);
    match view {
        "summary" => print_summary(cli, &rep),
        "critical-path" => print_critical_path(&rep),
        "utilization" => print_utilization(cli, &rep),
        other => misuse(format_args!("unknown analyze view {other:?}")),
    }
}

/// The views that read a file other than a trace: under `--json` each
/// prints what it read as its writer renders it.
fn render_file(cli: &Cli, view: &str) {
    let Some(path) = cli.value("--input") else {
        let need = match view {
            "scheduler" => "<snapshot.json> (write one with ct stats)",
            "series" => {
                "<series.jsonl> (write one with ct serve --series or ct stats --runtime --series)"
            }
            _ => "<dump.json> (written on a stall by ct stats --runtime / ct top / ct check --runtime)",
        };
        fail(format_args!("--view {view} requires --input {need}"));
    };
    match view {
        "scheduler" => {
            let snap = read_input(path, TelemetrySnapshot::from_json);
            emit(cli, || snap.to_json(), || scheduler::render_text(&snap));
        }
        "series" => {
            let export = read_input(path, SeriesExport::from_jsonl);
            let out = if cli.flag("--json") {
                export.to_jsonl()
            } else {
                series::render_text(&export)
            };
            write_stdout(|w| w.write_all(out.as_bytes()));
        }
        _ => render_postmortem(cli, path),
    }
}

fn print_summary(cli: &Cli, rep: &RepAnalysis) {
    let s = AnalysisSummary::from_reps(std::slice::from_ref(rep));
    emit(
        cli,
        || s.to_json(),
        || {
            let mut out = s.render_text();
            if let Some(b) = &rep.bounds {
                out += &format!(
                    "rep 0: L_SCC observed {} vs bounds [{}, {}] (g_max {}) — {}\n",
                    b.observed,
                    b.lower,
                    b.upper,
                    b.g_max,
                    if b.violated() { "VIOLATED" } else { "ok" }
                );
            }
            out
        },
    );
}

fn print_critical_path(rep: &RepAnalysis) {
    let cp = &rep.critpath;
    write_stdout(|w| {
        writeln!(
            w,
            "rep 0: completion {} = o {} + L {} + idle {} over {} hops \
             (dissemination {}, correction {})",
            cp.len, cp.o_steps, cp.l_steps, cp.idle_steps, cp.hops, cp.diss_steps, cp.corr_steps
        )?;
        for s in &cp.segments {
            writeln!(
                w,
                "  [{:>6}..{:>6}]  {:<4}  rank {:<6}  {}",
                s.start,
                s.end,
                s.class.label(),
                s.rank,
                Event::payload_tag(s.payload)
            )?;
        }
        Ok(())
    });
}

fn print_utilization(cli: &Cli, rep: &RepAnalysis) {
    let ranks = cli.ranks("--ranks");
    write_stdout(|w| {
        writeln!(w, "rep 0: completion {}", rep.completion)?;
        for r in 0..rep.utilization.busy.len() {
            if ranks.as_ref().is_some_and(|k| !k.contains(&(r as u32))) {
                continue;
            }
            let frac = rep.utilization.busy_frac(r);
            let bar = "#".repeat((frac * 40.0).round() as usize);
            writeln!(w, "  rank {r:>5}  busy {:>5.1}%  {bar}", frac * 100.0)?;
        }
        Ok(())
    });
}

/// Shared body of `ct postmortem` and `ct analyze --view postmortem`:
/// read a `ct-postmortem-v1` dump and render the causal reconstruction
/// (or, under `--json`, the dump as its writer renders it).
fn render_postmortem(cli: &Cli, path: &str) {
    let pm = read_input(path, Postmortem::from_json);
    emit(cli, || pm.to_json(), || postmortem::render_text(&pm));
}

/// `ct postmortem <dump.json>` — render a flight-recorder dump written
/// on watchdog stall, worker panic, or monitor violation.
pub fn postmortem(cli: &Cli) {
    cli.only("postmortem", &["--json"]);
    let Some(path) = &cli.name else {
        fail("ct postmortem needs a dump path: ct postmortem <dump.json> [--json]");
    };
    render_postmortem(cli, path);
}

/// `ct check` — run the streaming invariant monitor over a recorded
/// trace (`--input`), a live simulator run (default) or a live cluster
/// run (`--runtime`). Exit 1 when any invariant is violated.
pub fn check(cli: &Cli) {
    let reads = "--input --failed --runtime --fail-fast --json --postmortem";
    cli.only("check", &[SPEC, reads]);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let mut cfg = MonitorConfig::new().with_logp(logp);
    if cli.flag("--fail-fast") {
        cfg = cfg.with_fail_fast();
    }
    let report = if let Some(path) = cli.value("--input") {
        let (events, _) = read_trace(path);
        let p = cli.p();
        if let Some(p) = p {
            cfg = cfg.with_p(p);
        }
        if let FaultSpec::Ranks(failed) = cli.faults(p.unwrap_or(u32::MAX)) {
            let n = p.unwrap_or(failed.iter().max().map_or(1, |&m| m + 1));
            cfg = cfg.with_failed(rank_mask(&failed, n));
        }
        MonitorSink::check(&events, &cfg)
    } else {
        check_live(cli, cfg, logp)
    };
    emit(cli, || report.to_json(), || report.render_text());
    if !report.is_ok() {
        std::process::exit(1);
    }
}

/// `ct check` without `--input`: monitor one live broadcast.
fn check_live(cli: &Cli, cfg: MonitorConfig, logp: LogP) -> MonitorReport {
    let runtime = cli.flag("--runtime");
    // Cluster broadcasts run in real time (wall-clock waits, one
    // monitored iteration) — default smaller than the simulator's.
    let p = cli.p().unwrap_or(if runtime { 64 } else { 1024 });
    let seed: u64 = cli.parsed("--seed", 1);
    let spec = build_spec(cli);
    let plan = cli.fault_plan(p, seed, spec.root);
    let mut monitor = MonitorSink::new(cfg.with_p(p).with_failed(plan.mask().to_vec()));
    if !runtime {
        let sim = Simulation::builder(p, logp).faults(plan).seed(seed).build();
        sim.run_with_sink_reusable(&spec, &mut monitor, &mut RunArena::new())
            .expect("valid configuration");
        return monitor.finish();
    }
    let pm_path = PathBuf::from(cli.value("--postmortem").unwrap_or("ct-postmortem.json"));
    let cfg = ClusterConfig::new().flight(default_flight_cap());
    let mut cluster = Cluster::with_config(p, logp, cfg.postmortem(pm_path.clone()));
    if let Err(e) = cluster.run_broadcast_observed(&spec, plan.mask(), seed, &mut monitor) {
        fail(format_args!("cluster run failed: {e}"));
    }
    let report = monitor.finish();
    // Invariant violations freeze the flight recorder too: the ring
    // tail around the violation is exactly the evidence a post-mortem
    // needs.
    if !report.is_ok()
        && cluster
            .capture_postmortem("monitor_violation", None)
            .is_some()
    {
        eprintln!("[postmortem {}]", pm_path.display());
    }
    report
}

/// `ct forensics` — join an event trace with the dissemination tree and
/// fault mask: per-failure orphaned subtrees, rescue provenance and the
/// run-level waste accounting.
pub fn forensics(cli: &Cli) {
    cli.only("forensics", &[SPEC, "--input --failed --json"]);
    if cli.value("--root").is_some() || cli.value("--shuffle").is_some() {
        fail(
            "ct forensics assumes the identity rank mapping (tree rank = process rank); \
             --root and --shuffle are not supported",
        );
    }
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let kind = parse_tree(cli.value("--tree").unwrap_or("binomial"));
    let (events, p, mask) = if let Some(path) = cli.value("--input") {
        let (events, inferred) = read_trace(path);
        let p = cli.p().unwrap_or(inferred);
        if p == 0 {
            fail(format_args!(
                "{path}: no rank to reconstruct a broadcast over"
            ));
        }
        let failed = match cli.faults(p) {
            FaultSpec::Ranks(failed) => failed,
            // No explicit mask: a fail-stop trace names its dead ranks
            // as drop targets.
            _ => events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::DropDead { to, .. } if to < p => Some(to),
                    _ => None,
                })
                .collect(),
        };
        (events, p, rank_mask(&failed, p))
    } else {
        let p = cli.p().unwrap_or(64);
        let seed: u64 = cli.parsed("--seed", 1);
        let spec = build_spec(cli);
        let plan = cli.fault_plan(p, seed, spec.root);
        let mask = plan.mask().to_vec();
        let sim = Simulation::builder(p, logp).faults(plan).seed(seed).build();
        let events = sim.run_with_events(&spec).expect("valid configuration").1;
        (events, p, mask)
    };
    let tree = kind
        .build(p, &logp)
        .unwrap_or_else(|e| fail(format_args!("cannot build the tree over {p} ranks: {e:?}")));
    let report = analyze_forensics(&events, &tree, &mask, &logp);
    emit(cli, || report.to_json(), || report.render_text());
}
