//! `ct fig <name>|all` — regenerate one figure of the evaluation, or
//! every one, from the table in `ct_exp::figures`.

use std::path::PathBuf;

use corrected_trees::exp::figures::{self, FigArgs, FigError};

use crate::cli::Cli;
use crate::{fail, misuse};

pub const USAGE: &str = "\
fig options (regenerate the paper's evaluation):
  ct fig <name>|all [flags] [--out DIR]
                          print each figure's table and write
                          DIR/<name>.csv plus its .meta.json
                          manifest (default DIR results)
  --paper                 the paper's scale (default quick)
  --p <N>                 processes, or the largest P of a sweep
  a flag the figure does not read is a usage error
  exit status: 0 every in-code claim holds, 1 a claim failed,
  2 usage error or failed run
  figures, with the flags each reads (under all, each its own):
";

/// The figure table under [`USAGE`].
pub fn list() {
    for f in figures::table() {
        eprintln!("    {:<11} {:<50} {}", f.name, f.about, f.flags.join(" "));
    }
}

pub fn fig(cli: &Cli) {
    let name = cli.name.as_deref().unwrap_or("");
    let Some(figs) = figures::select(name) else {
        misuse(format_args!(
            "ct fig needs a figure name or all, not {name:?}"
        ))
    };
    let args = FigArgs {
        paper: cli.flag("--paper"),
        p: cli.p(),
        reps: cli.opt("--reps"),
        seed: cli.opt("--seed"),
        threads: cli.opt("--threads"),
        iters: cli.opt("--iters"),
        node_size: cli.opt("--node-size"),
        rate: cli.opt("--rate"),
    };
    let out = PathBuf::from(cli.value("--out").unwrap_or("results"));
    let reads: Vec<String> = figs.iter().map(|f| f.flags.join(" ")).collect();
    cli.only(name, &[&reads.join(" "), "--out"]);
    match figures::drive(&figs, &args, &out) {
        Ok(failed) if failed.is_empty() => {}
        Ok(failed) => {
            for claim in failed {
                eprintln!("claim failed: {claim}");
            }
            std::process::exit(1);
        }
        Err(FigError::Usage(e)) => misuse(e),
        Err(FigError::Failed(e)) => fail(e),
    }
}
