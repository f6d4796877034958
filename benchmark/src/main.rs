//! The repo benchmark. See README.md for what it measures and why.
//!
//! `bench --workload W --seed N --seconds S --trace 0|1` is one run as
//! the driver of `BENCHMARK.json` makes it; `set`, `trace`, `compare`
//! and `selfcheck` are the commands people use.

mod compare;
mod host;
mod run;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use compare::RunSet;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]   one run of one workload
  bench set [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]  every workload, untraced
  bench trace [--seed N] [--seconds S]                                  every workload, traced
  bench compare A.json B.json                                           apply the bounds to two sets
  bench selfcheck [--seed N] [--seconds S] [--runs R]                   two sets of the same code
  bench list                                                            the workloads and why";

/// `--name value` pairs after an optional subcommand.
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            command: None,
            positional: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut argv = argv.peekable();
        if argv.peek().is_some_and(|a| !a.starts_with("--")) {
            args.command = argv.next();
        }
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some("smoke") => {
                    args.flags.insert("smoke".into(), "1".into());
                }
                Some(name) => {
                    let value = argv.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.insert(name.to_owned(), value);
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }
}

/// Where run records and span files go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What every command shares: seed, length, and the 1/20 smoke scale.
struct Common {
    seed: u64,
    seconds: f64,
    smoke: bool,
    runs: u64,
}

impl Common {
    fn of(args: &Args) -> Result<Common, String> {
        let smoke = args.flags.contains_key("smoke");
        let seconds: f64 = args.get("seconds", compare::contract().run_seconds)?;
        let seconds = if smoke { seconds / 20.0 } else { seconds };
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must be in (0, 60], got {seconds}"));
        }
        Ok(Common {
            seed: args.get("seed", workloads::CANON_SEED)?,
            seconds,
            smoke,
            runs: args.get("runs", 1)?,
        })
    }

    /// Smoke runs measure in one process instead of five.
    fn processes(&self) -> usize {
        if self.smoke {
            1
        } else {
            run::PROCESSES
        }
    }
}

/// `runs` untraced runs of every workload (run `r` uses `seed + r`);
/// prints each report and returns the set as JSON.
fn run_set(c: &Common) -> (String, bool) {
    let mut records = Vec::new();
    let mut correct = true;
    for r in 0..c.runs {
        for w in &WORKLOADS {
            let record = run::run(w, c.seed + r, c.seconds, c.processes());
            print!("{}", record.render());
            correct &= record.correct();
            records.push(record.to_json());
        }
    }
    let json = format!(
        "{{\"schema\":\"ct-benchmark-set-v1\",\"runs\":{}}}",
        run::json_array(records)
    );
    (json, correct)
}

fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn real_main(start: Instant) -> Result<bool, String> {
    host::scrub_ct_env();
    let args = Args::parse(std::env::args().skip(1))?;
    let c = Common::of(&args)?;
    let workload = || -> Result<&'static Workload, String> {
        let name = args.flags.get("workload").ok_or(USAGE)?;
        workloads::find(name).ok_or(format!("unknown workload {name:?}; see `bench list`"))
    };
    match args.command.as_deref() {
        // Internal: the processes a run is made of.
        None if args.flags.contains_key("child") => {
            println!("{}", run::child(workload()?, c.seed, c.seconds, start));
            Ok(true)
        }
        None if args.flags.contains_key("scale-probe") => {
            println!("{}", trace::scale_probe(c.seed));
            Ok(true)
        }
        None => {
            let w = workload()?;
            let record = if args.get("trace", 0u8)? == 1 {
                trace::run(w, c.seed, c.seconds, &out_dir())
            } else {
                run::run(w, c.seed, c.seconds, c.processes())
            };
            print!("{}", record.render());
            println!("{}", record.result_line());
            // A printed result exits 0 even when `correct` is false:
            // the line itself carries the verdict.
            Ok(true)
        }
        Some("set") => {
            let (json, correct) = run_set(&c);
            let path = match args.flags.get("out") {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
                    PathBuf::from(path)
                }
                None => write_out("set.json", &json)?,
            };
            print!("{}", compare::like_for_like(&RunSet::parse(&json)?));
            println!("set written to {}", path.display());
            Ok(correct)
        }
        Some("trace") => {
            // One process per workload, so that no cell inherits
            // another workload's threads, caches or heap.
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let mut ok = true;
            for w in &WORKLOADS {
                let status = Command::new(&exe)
                    .args(["--workload", w.name, "--trace", "1"])
                    .args([
                        "--seed",
                        &c.seed.to_string(),
                        "--seconds",
                        &c.seconds.to_string(),
                    ])
                    .status()
                    .map_err(|e| format!("spawn traced run: {e}"))?;
                ok &= status.success();
            }
            Ok(ok)
        }
        Some("compare") => {
            let [a, b] = args.positional.as_slice() else {
                return Err(USAGE.into());
            };
            let load = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| RunSet::parse(&text))
            };
            let (table, regressed) = compare::compare(&load(a)?, &load(b)?);
            print!("{table}");
            Ok(!regressed)
        }
        Some("selfcheck") => {
            let (a, correct_a) = run_set(&c);
            let (b, correct_b) = run_set(&c);
            write_out("selfcheck_a.json", &a)?;
            write_out("selfcheck_b.json", &b)?;
            let (a, b) = (RunSet::parse(&a)?, RunSet::parse(&b)?);
            // The same code on both sides: "worse" in either direction
            // is a disagreement.
            let (forth, worse_forth) = compare::compare(&a, &b);
            let (_, worse_back) = compare::compare(&b, &a);
            print!("{forth}{}", compare::like_for_like(&b));
            let agree = !(worse_forth || worse_back);
            println!(
                "selfcheck: the two sets {}",
                if agree { "agree" } else { "DISAGREE" }
            );
            Ok(agree && correct_a && correct_b)
        }
        Some("list") => {
            for w in &WORKLOADS {
                println!("{:<24} {}", w.name, w.why);
            }
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    match real_main(start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
