//! # ct-bench — figure and table regenerators
//!
//! The binaries (`src/bin/fig*.rs`, `table1.rs`, …) regenerate the
//! paper's tables and figures: each prints the figure's series as an
//! aligned table and writes `results/<name>.csv` plus a
//! `results/<name>.meta.json` provenance manifest (seed, parameters,
//! git revision, wall time — see [`ct_obs::RunManifest`]). Flags:
//! `--paper` switches to the paper's scale, `--p N`, `--reps N`,
//! `--seed N` override individual knobs, `--out DIR` redirects CSV
//! output. This library is what they share: the argv parser, the
//! manifest's analysis block and the CSV / manifest emitters.
//!
//! Speed is measured elsewhere: `benchmark/run.sh` (see
//! `benchmark/README.md`) is the repo's one performance benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use ct_exp::csv::CsvTable;
use ct_exp::{analyze_campaign, Campaign, FaultSpec, Variant};
use ct_logp::LogP;
pub use ct_obs::RunManifest;

/// Tiny argv parser shared by all figure binaries: `--key value` pairs
/// plus boolean flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parse from the process arguments.
    pub fn from_env() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Parse from an explicit list (tests).
    pub fn from_vec(raw: Vec<String>) -> Args {
        Args { raw }
    }

    /// Is the boolean flag present?
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value following `name`, parsed, or `default`.
    ///
    /// # Panics
    /// Panics with a usage message if the value is missing or unparsable.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.raw.iter().position(|a| a == name) {
            None => default,
            Some(i) => {
                let v = self
                    .raw
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("missing value after {name}"));
                v.parse()
                    .unwrap_or_else(|_| panic!("cannot parse {name} value {v:?}"))
            }
        }
    }

    /// The output directory for CSVs (default `results/`).
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("--out", "results".to_owned()))
    }
}

/// The small fixed-seed campaign a figure binary analyzes for its
/// manifest's analysis block: the figure's representative variant and
/// fault regime, capped at 64 processes and 5 repetitions so the
/// causal-DAG pass stays negligible next to the campaign itself.
pub fn analysis_campaign(variant: Variant, p: u32, seed0: u64, faults: FaultSpec) -> Campaign {
    Campaign::new(variant, p.clamp(2, 64), LogP::PAPER)
        .with_faults(faults)
        .with_reps(5)
        .with_seed(seed0)
}

/// Attach the causal-analysis block for `campaign` to `manifest` under
/// the `analysis` key (critical-path attribution, phase split,
/// completion percentiles — see `ct-analyze`), plus the campaign's
/// runtime-telemetry snapshot under `telemetry` (per-rep event/send
/// distributions, `ct-telemetry-v1`). Analysis failures are reported
/// but never fail the figure run.
pub fn with_analysis(manifest: RunManifest, campaign: &Campaign) -> RunManifest {
    match analyze_campaign(campaign) {
        Ok(ca) => manifest
            .with_extra_json("analysis", ca.analysis_json())
            .with_extra_json("telemetry", ca.telemetry.to_json()),
        Err(e) => {
            eprintln!("[analysis block skipped: {e:?}]");
            manifest
        }
    }
}

/// Print a CSV table to stdout as an aligned text table and also write
/// it to `<out>/<name>.csv`.
pub fn emit(name: &str, table: &CsvTable, args: &Args) {
    let _ = emit_csv(name, table, args);
}

/// Like [`emit`], additionally writing a provenance manifest next to
/// the CSV as `<out>/<name>.meta.json`. The manifest is stamped with
/// the current git revision and wall-clock timestamp before writing,
/// so callers only fill in the experiment parameters.
pub fn emit_with_manifest(name: &str, table: &CsvTable, args: &Args, manifest: RunManifest) {
    let Some(csv_path) = emit_csv(name, table, args) else {
        return;
    };
    match manifest.stamped().write_next_to(&csv_path) {
        Ok(path) => println!("[manifest {}]", path.display()),
        Err(e) => eprintln!("[could not write manifest for {}: {e}]", csv_path.display()),
    }
}

/// Shared body of [`emit`]/[`emit_with_manifest`]: print the aligned
/// table, write the CSV, return its path when the write succeeded.
fn emit_csv(name: &str, table: &CsvTable, args: &Args) -> Option<PathBuf> {
    let csv = table.to_csv();
    let rows: Vec<Vec<String>> = csv.lines().map(split_csv_line).collect();
    let widths: Vec<usize> = (0..rows[0].len())
        .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    for (i, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(f, w)| format!("{f:<w$}"))
            .collect();
        println!("{}", line.join("  "));
        if i == 0 {
            println!(
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
            );
        }
    }
    let path = args.out_dir().join(format!("{name}.csv"));
    match table.write_to(&path) {
        Ok(()) => {
            println!("\n[written {}]", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("\n[could not write {}: {e}]", path.display());
            None
        }
    }
}

/// Split one CSV line produced by [`CsvTable::to_csv`] (handles quoting).
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, in_quotes) {
            ('"', false) => in_quotes = true,
            ('"', true) => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            (',', false) => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_values_and_flags() {
        let a = Args::from_vec(vec![
            "--p".into(),
            "4096".into(),
            "--paper".into(),
            "--reps".into(),
            "100".into(),
        ]);
        assert_eq!(a.get("--p", 16u32), 4096);
        assert_eq!(a.get("--reps", 1u32), 100);
        assert_eq!(a.get("--seed", 7u64), 7);
        assert!(a.flag("--paper"));
        assert!(!a.flag("--quick"));
        assert_eq!(a.out_dir(), PathBuf::from("results"));
    }

    #[test]
    fn csv_line_splitting_handles_quotes() {
        assert_eq!(split_csv_line("a,b"), vec!["a", "b"]);
        assert_eq!(split_csv_line("\"x,y\",z"), vec!["x,y", "z"]);
        assert_eq!(
            split_csv_line("\"he said \"\"hi\"\"\",2"),
            vec!["he said \"hi\"", "2"]
        );
    }

    #[test]
    #[should_panic(expected = "missing value")]
    fn missing_value_panics() {
        let a = Args::from_vec(vec!["--p".into()]);
        let _: u32 = a.get("--p", 1);
    }

    #[test]
    fn emit_with_manifest_writes_meta_json_next_to_csv() {
        let dir = std::env::temp_dir().join("ct-bench-emit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let args = Args::from_vec(vec!["--out".into(), dir.display().to_string()]);
        let mut table = CsvTable::new(["p", "latency"]);
        table.row(["64", "22"]);
        let manifest = RunManifest::new("demo").p(64).seed(7).reps(1);
        emit_with_manifest("demo", &table, &args, manifest);
        let body = std::fs::read_to_string(dir.join("demo.meta.json")).unwrap();
        assert!(body.starts_with(r#"{"name":"demo""#), "{body}");
        assert!(body.contains(r#""seed":7"#), "{body}");
        assert!(body.contains(r#""created_unix":"#), "{body}");
        assert!(std::fs::metadata(dir.join("demo.csv")).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
