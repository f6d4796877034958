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
//! writing a program. Each command group is a module holding its
//! commands and their usage text; [`cli`] holds what they share.

#![warn(clippy::too_many_lines)]

mod analyze;
mod cli;
mod fig;
mod live;
mod sim;

use cli::Cli;

/// Print the usage text of every command and exit 2.
fn usage() -> ! {
    eprintln!(
        "usage: ct <run|tree|sweep|trace|analyze|check|forensics|pubsub|stats|top|serve|monitor|postmortem|fig> [options]\n\
         a flag the command does not read is a usage error\n"
    );
    for text in [sim::USAGE, analyze::USAGE, live::USAGE, fig::USAGE] {
        eprint!("{text}");
    }
    fig::list();
    std::process::exit(2);
}

/// Print `msg` and the usage text, and exit 2.
fn misuse(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    usage()
}

/// Print `msg` and exit 2: an error in the input or the environment
/// rather than in the command line's shape.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    // `ct fig <name>` and `ct postmortem <dump>` lead with a name.
    let name = match cmd.as_str() {
        "fig" if !args.is_empty() => Some(args.remove(0)),
        "postmortem" if args.first().is_some_and(|a| !a.starts_with("--")) => Some(args.remove(0)),
        _ => None,
    };
    let cli = Cli { name, args };
    match cmd.as_str() {
        "run" => sim::run(&cli),
        "tree" => sim::tree(&cli),
        "sweep" => sim::sweep(&cli),
        "trace" => sim::trace(&cli),
        "analyze" => analyze::analyze(&cli),
        "check" => analyze::check(&cli),
        "forensics" => analyze::forensics(&cli),
        "postmortem" => analyze::postmortem(&cli),
        "pubsub" => live::pubsub(&cli),
        "stats" => live::stats(&cli),
        "top" => live::top(&cli),
        "serve" => live::serve(&cli),
        "monitor" => live::monitor(&cli),
        "fig" => fig::fig(&cli),
        _ => usage(),
    }
}
