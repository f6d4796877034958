//! The figure table behind `ct fig <name>|all`.
//!
//! One [`Figure`] per CSV the evaluation writes, named by its stem.
//! [`drive`] checks the flags against every selected figure before it
//! runs any; then it runs each, attaches the analysis probe, prints the
//! table and writes `<out>/<name>.csv` beside a `<name>.meta.json`
//! [`RunManifest`]. A false in-code claim (fig10's Lemma-3 bounds,
//! fig_scale's closed forms) still writes its outputs; the driver
//! returns it.

use std::error::Error;
use std::path::Path;
use std::time::Instant;

use ct_core::tree::TreeKind;
use ct_logp::LogP;
use ct_obs::RunManifest;

use crate::ablation::AblationConfig;
use crate::campaign::FaultSpec;
use crate::correlated::CorrelatedConfig;
use crate::csv::CsvTable;
use crate::fig11::Fig11Config;
use crate::fig12::Fig12Config;
use crate::fig1b::Fig1bConfig;
use crate::fig6::Fig6Config;
use crate::fig7::Fig7Config;
use crate::perf::{analysis_campaign, with_analysis};
use crate::resilience::{run_grid, waste_probe, ResilienceCell, ResilienceConfig};
use crate::scale::{run_scale, ScaleConfig};
use crate::variants::Variant;
use crate::{ablation, correlated, fig10, fig11, fig12, fig1b, fig6, fig7, fig8, fig9, table1};

/// The figure flags, parsed; `None` keeps the figure's default.
#[derive(Debug, Default)]
pub struct FigArgs {
    /// `--paper`: the paper's scale instead of the quick one.
    pub paper: bool,
    /// `--p`: the process count, or the largest `P` of a sweep (fig7,
    /// fig11, fig12, fig_scale), whose points are powers of two.
    pub p: Option<u32>,
    /// `--reps`: repetitions per cell.
    pub reps: Option<u32>,
    /// `--seed`: the base seed.
    pub seed: Option<u64>,
    /// `--threads`: worker threads for the repetitions.
    pub threads: Option<usize>,
    /// `--iters`: measured iterations per cluster point.
    pub iters: Option<u32>,
    /// `--node-size`: ranks per crashing node.
    pub node_size: Option<u32>,
    /// `--rate`: fault fraction of the faulty cells.
    pub rate: Option<f64>,
}

impl FigArgs {
    /// The paper's scale under `--paper`, else the quick one.
    fn pick<C>(&self, quick: fn() -> C, paper: fn() -> C) -> C {
        if self.paper {
            paper()
        } else {
            quick()
        }
    }
}

/// What a figure's run hands the driver.
pub struct FigureRun {
    /// The figure's rows.
    pub table: CsvTable,
    /// The run's parameters, before wall time, probe and stamp.
    pub manifest: RunManifest,
    /// Process count, seed and faults of the analysis probe.
    pub probe_at: (u32, u64, FaultSpec),
    /// Each in-code claim the run found false, in one line.
    pub failed_claims: Vec<String>,
}

impl FigureRun {
    fn new(table: CsvTable, manifest: RunManifest, probe_at: (u32, u64, FaultSpec)) -> FigureRun {
        let failed_claims = Vec::new();
        FigureRun {
            table,
            manifest,
            probe_at,
            failed_claims,
        }
    }
}

/// A figure's run, or why it failed.
pub type FigureResult = Result<FigureRun, Box<dyn Error>>;

/// One entry of the figure table.
pub struct Figure {
    /// The CSV stem, which is also the name `ct fig` takes.
    pub name: &'static str,
    /// What the figure shows, in one line.
    pub about: &'static str,
    /// The smallest `--p` it runs at: a sweep's first point.
    pub min_p: u32,
    /// The flags it reads besides `--out`.
    pub flags: &'static [&'static str],
    /// The variant of the manifest's `analysis` and `telemetry` blocks.
    pub probe: Option<Variant>,
    /// Run it with the flags given, filling in the manifest the driver
    /// named.
    pub run: fn(&FigArgs, RunManifest) -> FigureResult,
}

/// Why [`drive`] stopped.
#[derive(Debug)]
pub enum FigError {
    /// A flag value a figure cannot run with.
    Usage(String),
    /// A run, or the writing of its outputs, failed.
    Failed(String),
}

const SIM: &[&str] = &["--paper", "--p", "--reps", "--seed", "--threads"];
const SWEEP: &[&str] = &["--paper", "--p", "--reps", "--seed"];
const CLUSTER: &[&str] = &["--paper", "--p", "--iters", "--seed"];
const ABLATION: &[&str] = &["--p", "--reps", "--seed", "--threads"];
const CORRELATED: &[&str] = &["--p", "--node-size", "--reps", "--seed"];
const SCALE: &[&str] = &["--paper", "--p", "--reps", "--rate", "--seed", "--threads"];

/// Every figure: the paper's in its order, then the extensions.
pub fn table() -> [Figure; 12] {
    let checked = Some(Variant::tree_checked_sync(TreeKind::BINOMIAL));
    let opp2 = Some(Variant::tree_opportunistic(TreeKind::BINOMIAL, 2));
    #[rustfmt::skip]
    let table = [
        ("fig1b", "correction time, in-order vs interleaved", 2, SIM, checked, run_fig1b as fn(&FigArgs, RunManifest) -> _),
        ("fig6", "messages/process by correction type", 2, SWEEP, opp2, run_fig6),
        ("fig7", "latency vs P (ack vs corrected vs gossip)", 1 << 10, SWEEP, opp2, run_fig7),
        ("fig8", "latency vs fault rate", 2, SIM, checked, run_fig8),
        ("fig9", "messages vs fault rate", 2, SIM, checked, run_fig9),
        ("fig10", "(g_max, L_SCC) scatter + Lemma-3 bounds", 2, SIM, checked, run_fig10),
        ("table1", "correction-cost percentiles", 2, SIM, checked, run_table1),
        ("fig11", "cluster latency vs rank count", 1 << 2, CLUSTER, opp2, run_fig11),
        ("fig12", "cluster latency of CT variants", 1 << 3, CLUSTER, opp2, run_fig12),
        ("ablation", "all correction algorithms, incl. delayed", 2, ABLATION, opp2, run_ablation),
        ("correlated", "whole-node crashes: linear vs random numbering", 2, CORRELATED, opp2, run_correlated),
        ("fig_scale", "latency, messages vs P to 2^20, Lemma 2/3 checks", 1 << 12, SCALE, None, run_fig_scale),
    ];
    table.map(|(name, about, min_p, flags, probe, run)| Figure {
        name,
        about,
        min_p,
        flags,
        probe,
        run,
    })
}

/// The figures `name` selects: the one so named, or every one for
/// `all`.
pub fn select(name: &str) -> Option<Vec<Figure>> {
    let all = table();
    if name == "all" {
        return Some(all.into());
    }
    all.into_iter().find(|f| f.name == name).map(|f| vec![f])
}

/// Run `figs` with `args`, writing each one's CSV and manifest under
/// `out`. Returns each false claim as `<figure>: <claim>`. Every figure
/// runs the paper's LogP parameters.
pub fn drive(figs: &[Figure], args: &FigArgs, out: &Path) -> Result<Vec<String>, FigError> {
    check(args).map_err(FigError::Usage)?;
    if let Some(p) = args.p {
        if let Some(fig) = figs.iter().find(|f| p < f.min_p) {
            let (name, min_p) = (fig.name, fig.min_p);
            let e = format!("{name}: --p {p} is below its smallest P, {min_p}");
            return Err(FigError::Usage(e));
        }
    }
    let mut failed = Vec::new();
    for fig in figs {
        let fail = |e: String| FigError::Failed(format!("{}: {e}", fig.name));
        eprintln!("[{}] {}", fig.name, fig.about);
        let t0 = Instant::now();
        let manifest = RunManifest::new(fig.name).logp(LogP::PAPER);
        let run = (fig.run)(args, manifest).map_err(|e| fail(e.to_string()))?;
        let mut manifest = run.manifest.wall_secs(t0.elapsed().as_secs_f64());
        if let Some(variant) = fig.probe {
            let (p, seed, faults) = run.probe_at;
            manifest = with_analysis(manifest, &analysis_campaign(variant, p, seed, faults));
        }
        print!("{}", run.table.to_aligned());
        let csv = out.join(format!("{}.csv", fig.name));
        let cannot_write = |e: std::io::Error| fail(format!("cannot write {}: {e}", csv.display()));
        run.table.write_to(&csv).map_err(cannot_write)?;
        println!("\n[written {}]", csv.display());
        let meta = manifest
            .stamped()
            .write_next_to(&csv)
            .map_err(cannot_write)?;
        println!("[manifest {}]", meta.display());
        failed.extend(
            run.failed_claims
                .iter()
                .map(|c| format!("{}: {c}", fig.name)),
        );
    }
    Ok(failed)
}

/// Reject flag values no figure can run with.
fn check(a: &FigArgs) -> Result<(), String> {
    let counts = [
        ("--reps", a.reps),
        ("--iters", a.iters),
        ("--node-size", a.node_size),
    ];
    if let Some((flag, _)) = counts.iter().find(|(_, n)| *n == Some(0)) {
        return Err(format!("{flag} must be at least 1"));
    }
    if a.threads == Some(0) {
        return Err("--threads must be at least 1".into());
    }
    if a.p.is_some_and(|p| p >= 1 << 31) {
        return Err("--p must be below 2^31".into());
    }
    if a.rate.is_some_and(|r| !(0.0..1.0).contains(&r)) {
        return Err("--rate must be in [0, 1)".into());
    }
    Ok(())
}

/// The powers of two from `2^from` up to `max`.
fn sweep(from: u32, max: u32) -> Vec<u32> {
    (from..32)
        .map(|e| 1 << e)
        .take_while(|&p| p <= max)
        .collect()
}

fn run_fig1b(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let mut cfg = a.pick(Fig1bConfig::quick, Fig1bConfig::paper);
    cfg.p = a.p.unwrap_or(cfg.p);
    cfg.reps = a.reps.unwrap_or(cfg.reps);
    cfg.seed0 = a.seed.unwrap_or(cfg.seed0);
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    let manifest = manifest
        .protocol("binomial in-order vs interleaved, checked sync correction")
        .p(cfg.p)
        .seed(cfg.seed0)
        .reps(cfg.reps)
        .faults(format!("count in {:?}", cfg.fault_counts));
    let table = fig1b::to_csv(&fig1b::run(&cfg)?);
    Ok(FigureRun::new(
        table,
        manifest,
        (cfg.p, cfg.seed0, FaultSpec::Count(1)),
    ))
}

fn run_fig6(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let mut cfg = a.pick(Fig6Config::quick, Fig6Config::paper);
    cfg.p = a.p.unwrap_or(cfg.p);
    cfg.gossip_reps = a.reps.unwrap_or(cfg.gossip_reps);
    cfg.seed0 = a.seed.unwrap_or(cfg.seed0);
    let manifest = manifest
        .protocol("4 trees + corrected gossip, correction-type sweep")
        .p(cfg.p)
        .seed(cfg.seed0)
        .reps(cfg.gossip_reps)
        .faults("none")
        .with_extra("distances", format!("{:?}", cfg.distances));
    let table = fig6::to_csv(&fig6::run(&cfg)?);
    Ok(FigureRun::new(
        table,
        manifest,
        (cfg.p, cfg.seed0, FaultSpec::None),
    ))
}

fn run_fig7(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let mut cfg = a.pick(Fig7Config::quick, Fig7Config::paper);
    if let Some(p) = a.p {
        cfg.process_counts = sweep(10, p);
    }
    cfg.gossip_reps = a.reps.unwrap_or(cfg.gossip_reps);
    cfg.seed0 = a.seed.unwrap_or(cfg.seed0);
    let manifest = manifest
        .protocol("acked trees, corrected trees, checked corrected gossip")
        .seed(cfg.seed0)
        .reps(cfg.gossip_reps)
        .faults("none")
        .with_extra("process_counts", format!("{:?}", cfg.process_counts));
    let table = fig7::to_csv(&fig7::run(&cfg)?);
    let probe_at = (cfg.process_counts[0], cfg.seed0, FaultSpec::None);
    Ok(FigureRun::new(table, manifest, probe_at))
}

/// The fault-rate grid of figs 8–10 and table 1.
fn resilience_config(a: &FigArgs, include_gossip: bool) -> ResilienceConfig {
    let mut cfg = a.pick(ResilienceConfig::quick, ResilienceConfig::paper);
    cfg.include_gossip = include_gossip;
    cfg.p = a.p.unwrap_or(cfg.p);
    cfg.reps = a.reps.unwrap_or(cfg.reps);
    cfg.seed0 = a.seed.unwrap_or(cfg.seed0);
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    cfg
}

/// A grid figure's run: its manifest, and its probe at the lowest rate.
fn grid_run(manifest: RunManifest, cfg: &ResilienceConfig, table: CsvTable) -> FigureRun {
    let manifest = manifest
        .p(cfg.p)
        .seed(cfg.seed0)
        .reps(cfg.reps)
        .faults(format!("rate in {:?}", cfg.rates));
    let rate = cfg.rates.first().copied().unwrap_or(0.01);
    FigureRun::new(table, manifest, (cfg.p, cfg.seed0, FaultSpec::Rate(rate)))
}

/// Figs 8 and 9: the grid with gossip, its gossip time tuned for `P`,
/// and the waste probe at the highest rate.
fn gossip_grid(
    a: &FigArgs,
    manifest: RunManifest,
    render: fn(&[ResilienceCell]) -> CsvTable,
) -> FigureResult {
    let mut cfg = resilience_config(a, true);
    cfg.tune_gossip_time()?;
    let table = render(&run_grid(&cfg)?);
    let manifest = manifest.protocol("4 trees (checked sync) + checked corrected gossip");
    let mut run = grid_run(manifest, &cfg, table);
    let waste = waste_probe(&cfg, cfg.rates.last().copied().unwrap_or(0.04))?;
    run.manifest = run
        .manifest
        .with_extra("gossip_time", cfg.gossip_time.to_string())
        .with_extra_json("waste_probe", waste.to_json());
    Ok(run)
}

fn run_fig8(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    gossip_grid(a, manifest, |cells| fig8::to_csv(&fig8::from_cells(cells)))
}

fn run_fig9(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    gossip_grid(a, manifest, |cells| fig9::to_csv(&fig9::from_cells(cells)))
}

fn run_fig10(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let cfg = resilience_config(a, false);
    let points = fig10::from_cells(&run_grid(&cfg)?, &cfg.logp);
    let conformance = fig10::bounds_conformance(&points);
    let manifest = manifest.protocol("4 trees (checked sync)");
    let mut run = grid_run(manifest, &cfg, fig10::to_csv(&points));
    if conformance < 1.0 {
        run.failed_claims.push(format!(
            "Lemma 3: {:.1}% of the (g_max, L_SCC) points lie within the bounds, not 100%",
            conformance * 100.0
        ));
    }
    Ok(run)
}

fn run_table1(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let cfg = resilience_config(a, false);
    let table = table1::to_csv(&table1::from_cells(&run_grid(&cfg)?));
    let manifest = manifest.protocol("4 trees (checked sync), aggregated");
    Ok(grid_run(manifest, &cfg, table))
}

fn run_fig11(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let mut cfg = a.pick(Fig11Config::quick, Fig11Config::paper);
    if let Some(p) = a.p {
        cfg.process_counts = sweep(2, p);
    }
    cfg.iterations = a.iters.unwrap_or(cfg.iterations);
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    let manifest = manifest
        .protocol("cluster: native binomial vs corrected tree vs gossip")
        .seed(cfg.seed)
        .reps(cfg.iterations)
        .faults("none")
        .with_extra("process_counts", format!("{:?}", cfg.process_counts))
        .with_extra("gossip_rounds", cfg.gossip_rounds.to_string());
    let table = fig11::to_csv(&fig11::run(&cfg)?);
    let probe_at = (cfg.process_counts[0], cfg.seed, FaultSpec::None);
    Ok(FigureRun::new(table, manifest, probe_at))
}

fn run_fig12(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let mut cfg = a.pick(Fig12Config::quick, Fig12Config::paper);
    if let Some(p) = a.p {
        cfg.process_counts = sweep(3, p);
    }
    cfg.iterations = a.iters.unwrap_or(cfg.iterations);
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    let manifest = manifest
        .protocol("cluster: corrected-tree variants (binomial d=0/1/2, lame4, faulty)")
        .seed(cfg.seed)
        .reps(cfg.iterations)
        .faults("emulated rank failures (faulty series only)")
        .with_extra("process_counts", format!("{:?}", cfg.process_counts));
    let table = fig12::to_csv(&fig12::run(&cfg)?);
    let probe_at = (cfg.process_counts[0], cfg.seed, FaultSpec::Count(1));
    Ok(FigureRun::new(table, manifest, probe_at))
}

fn run_ablation(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let mut cfg = AblationConfig::quick();
    cfg.p = a.p.unwrap_or(cfg.p);
    cfg.reps = a.reps.unwrap_or(cfg.reps);
    cfg.seed0 = a.seed.unwrap_or(cfg.seed0);
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    let manifest = manifest
        .protocol(format!("{} tree, every correction algorithm", cfg.tree))
        .p(cfg.p)
        .seed(cfg.seed0)
        .reps(cfg.reps)
        .faults(format!("count in {:?}", cfg.fault_counts))
        .with_extra("delays", format!("{:?}", cfg.delays))
        .with_extra("distances", format!("{:?}", cfg.distances));
    let table = ablation::to_csv(&ablation::run(&cfg)?);
    Ok(FigureRun::new(
        table,
        manifest,
        (cfg.p, cfg.seed0, FaultSpec::Count(1)),
    ))
}

fn run_correlated(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let mut cfg = CorrelatedConfig::quick();
    cfg.p = a.p.unwrap_or(cfg.p);
    cfg.node_size = a.node_size.unwrap_or(cfg.node_size);
    cfg.reps = a.reps.unwrap_or(cfg.reps);
    cfg.seed0 = a.seed.unwrap_or(cfg.seed0);
    let nodes = format!(
        "whole nodes (size {}) in {:?}",
        cfg.node_size, cfg.node_counts
    );
    let manifest = manifest
        .protocol("corrected tree, linear vs shuffled rank numbering")
        .p(cfg.p)
        .seed(cfg.seed0)
        .reps(cfg.reps)
        .faults(nodes);
    let table = correlated::to_csv(&correlated::run(&cfg)?);
    let probe_at = (cfg.p, cfg.seed0, FaultSpec::Count(cfg.node_size));
    Ok(FigureRun::new(table, manifest, probe_at))
}

fn run_fig_scale(a: &FigArgs, manifest: RunManifest) -> FigureResult {
    let mut cfg = a.pick(ScaleConfig::quick, ScaleConfig::paper);
    cfg.max_exp = a.p.map_or(cfg.max_exp, u32::ilog2);
    cfg.reps = a.reps.unwrap_or(cfg.reps);
    cfg.rate = a.rate.unwrap_or(cfg.rate);
    cfg.seed0 = a.seed.unwrap_or(cfg.seed0);
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    let report = run_scale(&cfg)?;
    let max_p = 1 << cfg.max_exp;
    let manifest = manifest
        .protocol("scc + opp4 (binomial)")
        .p(max_p)
        .seed(cfg.seed0)
        .reps(cfg.reps)
        .faults(format!("chunked rate {}", cfg.rate))
        .with_extra("threads", cfg.threads.to_string())
        .with_extra("violations", report.violations.len().to_string());
    let mut run = FigureRun::new(
        report.to_csv(),
        manifest,
        (max_p, cfg.seed0, FaultSpec::None),
    );
    run.failed_claims = report.violations;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A figure of one row whose one claim is false.
    fn false_claim(_: &FigArgs, manifest: RunManifest) -> FigureResult {
        let mut table = CsvTable::new(["p"]);
        table.row(["4"]);
        let mut run = FigureRun::new(table, manifest, (4, 1, FaultSpec::None));
        run.failed_claims.push("2 + 2 = 5".into());
        Ok(run)
    }

    fn claimed() -> Figure {
        Figure {
            name: "claimed",
            about: "a figure whose claim is false",
            min_p: 2,
            flags: &[],
            probe: None,
            run: false_claim,
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ct-figures-{tag}-{}", std::process::id()))
    }

    #[test]
    fn a_false_claim_is_returned_and_the_outputs_are_still_written() {
        let dir = scratch("claim");
        let failed = drive(&[claimed()], &FigArgs::default(), &dir).unwrap();
        assert_eq!(failed, ["claimed: 2 + 2 = 5"]);
        assert_eq!(
            std::fs::read_to_string(dir.join("claimed.csv")).unwrap(),
            "p\n4\n"
        );
        let meta = std::fs::read_to_string(dir.join("claimed.meta.json")).unwrap();
        assert!(meta.starts_with(r#"{"name":"claimed""#), "{meta}");
        assert!(meta.contains(r#""wall_secs":"#), "{meta}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_figure_checks_p_before_any_runs() {
        let dir = scratch("min-p");
        let args = FigArgs {
            p: Some(1024),
            ..FigArgs::default()
        };
        let fig_scale = select("fig_scale").unwrap().pop().unwrap();
        match drive(&[claimed(), fig_scale], &args, &dir) {
            Err(FigError::Usage(e)) => {
                assert_eq!(e, "fig_scale: --p 1024 is below its smallest P, 4096")
            }
            other => panic!("{other:?}"),
        }
        assert!(!dir.exists(), "a figure ran before the usage error");
    }

    #[test]
    fn the_table_names_each_figure_once_and_reads_known_flags() {
        let known = [
            "--paper",
            "--p",
            "--reps",
            "--seed",
            "--threads",
            "--iters",
            "--node-size",
            "--rate",
        ];
        let names: Vec<&str> = table().iter().map(|f| f.name).collect();
        assert_eq!(
            names,
            [
                "fig1b",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "table1",
                "fig11",
                "fig12",
                "ablation",
                "correlated",
                "fig_scale"
            ]
        );
        for f in table() {
            assert!(
                f.flags.iter().all(|flag| known.contains(flag)),
                "{}",
                f.name
            );
        }
        assert_eq!(select("all").unwrap().len(), 12);
        assert!(select("fig13").is_none());
    }

    /// A sweep's first point is its figure's smallest P, so no `--p` the
    /// driver lets through empties it.
    #[test]
    fn sweeps_are_the_powers_of_two_from_the_smallest_p() {
        assert_eq!(sweep(2, 64), [4, 8, 16, 32, 64]);
        assert_eq!(sweep(3, 100), [8, 16, 32, 64]);
        for (name, from) in [("fig7", 10), ("fig11", 2), ("fig12", 3), ("fig_scale", 12)] {
            let fig = select(name).unwrap().pop().unwrap();
            assert_eq!(sweep(from, fig.min_p), [fig.min_p], "{name}");
        }
        assert_eq!(ScaleConfig::quick().min_exp, 12);
    }

    #[test]
    fn zero_counts_and_out_of_range_values_are_usage_errors() {
        let bad = [
            FigArgs {
                reps: Some(0),
                ..FigArgs::default()
            },
            FigArgs {
                threads: Some(0),
                ..FigArgs::default()
            },
            FigArgs {
                p: Some(1 << 31),
                ..FigArgs::default()
            },
            FigArgs {
                rate: Some(1.5),
                ..FigArgs::default()
            },
        ];
        for args in bad {
            assert!(check(&args).is_err(), "{args:?}");
        }
        assert!(check(&FigArgs::default()).is_ok());
    }
}
