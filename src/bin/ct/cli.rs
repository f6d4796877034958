//! What every command shares: the argument reader, the tree,
//! correction and protocol flags, the one fault-flag reader, and input
//! and output plumbing.

use std::io::{self, Write};

use corrected_trees::core::correction::CorrectionKind;
use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::{Ordering, TreeKind};
use corrected_trees::exp::FaultSpec;
use corrected_trees::sim::FaultPlan;

use crate::{fail, misuse, usage};

/// The flags of one simulated broadcast: size, machine, seed, protocol
/// ([`build_spec`]) and random faults ([`Cli::faults`]).
pub const SPEC: &str = "--p --logp --seed --tree --correction --mode --acked --root --shuffle \
                        --faults --rate";

/// Flags that take no value.
const SWITCHES: &str = "--acked --json --runtime --fail-fast --paper";

pub struct Cli {
    /// The leading argument of `ct fig <name>` and `ct postmortem
    /// <dump>`.
    pub name: Option<String>,
    pub args: Vec<String>,
}

impl Cli {
    /// Exit 2 on any argument `cmd` does not read: every flag must be in
    /// one of the space-separated lists `reads`. A switch takes no
    /// value; any other flag takes the next argument unless that is
    /// itself a flag, so a missing value is reported by its own parse.
    pub fn only(&self, cmd: &str, reads: &[&str]) {
        let listed = |list: &str, flag: &str| list.split_whitespace().any(|f| f == flag);
        let mut rest = self.args.iter().peekable();
        while let Some(flag) = rest.next() {
            if !reads.iter().any(|r| listed(r, flag)) {
                misuse(format_args!("{cmd} does not read {flag}"));
            }
            if !listed(SWITCHES, flag) {
                rest.next_if(|v| !v.starts_with("--"));
            }
        }
    }

    /// The value after `key`, if `key` is given; a `key` with nothing
    /// after it is a usage error.
    pub fn value(&self, key: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == key)?;
        let v = self.args.get(i + 1);
        Some(v.unwrap_or_else(|| misuse(format_args!("missing value after {key}"))))
    }

    /// The parsed value after `key`, if `key` is given.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.value(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| misuse(format_args!("cannot parse {key} value {v:?}")))
        })
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// The rank count after `--p`, if given; below 1 is a usage error.
    pub fn p(&self) -> Option<u32> {
        match self.opt("--p") {
            Some(0) => misuse("--p must be at least 1"),
            p => p,
        }
    }

    pub fn flag(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    /// Parse a comma-separated rank list (`--ranks 0,3,7`).
    pub fn ranks(&self, key: &str) -> Option<Vec<u32>> {
        self.value(key).map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(|t| {
                    t.parse()
                        .unwrap_or_else(|_| misuse(format_args!("cannot parse {key} entry {t:?}")))
                })
                .collect()
        })
    }

    /// The failures the fault flags ask for, read one way in every
    /// command: an exact rank list (`--dead` or `--failed`, whichever
    /// the command reads) wins, then `--faults N`, then `--rate F`. A
    /// listed rank at or past `p` exits 2. Each caller draws the random
    /// ones its own way ([`fault_plan`], or the campaign's).
    pub fn faults(&self, p: u32) -> FaultSpec {
        if let Some((key, ranks)) = ["--dead", "--failed"]
            .into_iter()
            .find_map(|key| Some((key, self.ranks(key)?)))
        {
            if let Some(r) = ranks.iter().find(|&&r| r >= p) {
                fail(format_args!("{key} rank {r} out of range (p={p})"));
            }
            FaultSpec::Ranks(ranks)
        } else if let Some(n) = self.value("--faults") {
            FaultSpec::Count(n.parse().unwrap_or_else(|_| usage()))
        } else if let Some(r) = self.value("--rate") {
            FaultSpec::Rate(r.parse().unwrap_or_else(|_| usage()))
        } else {
            FaultSpec::None
        }
    }

    /// [`Cli::faults`] drawn by [`fault_plan`].
    pub fn fault_plan(&self, p: u32, seed: u64, root: u32) -> FaultPlan {
        fault_plan(&self.faults(p), p, seed, root)
    }
}

/// The command line's draw: `n` (or `rate · P`, below P) random ranks
/// sparing the root, or the listed ranks exactly. Exits 2 on a draw the
/// plan rejects.
pub fn fault_plan(faults: &FaultSpec, p: u32, seed: u64, root: u32) -> FaultPlan {
    let plan = match faults {
        FaultSpec::Count(n) => FaultPlan::random_count_protecting(p, *n, seed, root),
        FaultSpec::Rate(r) => {
            let n = ((p as f64 * r).round() as u32).min(p - 1);
            FaultPlan::random_count_protecting(p, n, seed, root)
        }
        FaultSpec::Ranks(ranks) => FaultPlan::from_ranks_protecting(p, ranks, root),
        _ => Ok(FaultPlan::none(p)),
    };
    plan.unwrap_or_else(|e| fail(e))
}

/// The dead-rank mask of `p` ranks the fault flags name: the listed
/// ranks exactly (the root included), else [`fault_plan`]'s draw.
pub fn dead_mask(faults: &FaultSpec, p: u32, seed: u64, root: u32) -> Vec<bool> {
    match faults {
        FaultSpec::Ranks(ranks) => rank_mask(ranks, p),
        _ => fault_plan(faults, p, seed, root).mask().to_vec(),
    }
}

/// A mask of `p` ranks with `ranks` (each below `p`) set.
pub fn rank_mask(ranks: &[u32], p: u32) -> Vec<bool> {
    let mut mask = vec![false; p as usize];
    for &r in ranks {
        mask[r as usize] = true;
    }
    mask
}

pub fn parse_tree(s: &str) -> TreeKind {
    let (name, order) = match s.strip_suffix("-inorder") {
        Some(base) => (base, Ordering::InOrder),
        None => (s, Ordering::Interleaved),
    };
    let k = |k: &str| k.parse().unwrap_or_else(|_| usage());
    if name == "binomial" {
        TreeKind::Binomial { order }
    } else if name == "optimal" {
        TreeKind::Optimal { order }
    } else if let Some(n) = name.strip_prefix("kary") {
        TreeKind::Kary { k: k(n), order }
    } else if let Some(n) = name.strip_prefix("lame") {
        TreeKind::Lame { k: k(n), order }
    } else {
        misuse(format_args!("unknown tree {s:?}"))
    }
}

fn parse_correction(s: &str) -> CorrectionKind {
    let n = |n: &str| n.parse().unwrap_or_else(|_| usage());
    if s == "none" {
        CorrectionKind::None
    } else if s == "checked" {
        CorrectionKind::Checked
    } else if s == "failure-proof" {
        CorrectionKind::FailureProof
    } else if let Some(d) = s.strip_prefix("opp-plain") {
        CorrectionKind::Opportunistic { distance: n(d) }
    } else if let Some(d) = s.strip_prefix("opp") {
        CorrectionKind::OpportunisticOptimized { distance: n(d) }
    } else if let Some(t) = s.strip_prefix("delayed") {
        CorrectionKind::Delayed {
            delay: t.parse().unwrap_or_else(|_| usage()),
        }
    } else {
        misuse(format_args!("unknown correction {s:?}"))
    }
}

pub fn build_spec(cli: &Cli) -> BroadcastSpec {
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

/// Read `path` and parse it with `parse`. A file that cannot be read,
/// is not UTF-8 or does not parse exits 2 with the file name and the
/// error — which names its position — on stderr.
pub fn read_input<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    let fail = |e: String| -> ! { fail(format_args!("{path}: {e}")) };
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(e.to_string()));
    let text = String::from_utf8(bytes).unwrap_or_else(|e| {
        fail(format!(
            "not UTF-8 at byte {}",
            e.utf8_error().valid_up_to()
        ))
    });
    parse(&text).unwrap_or_else(|e| fail(e))
}

/// Write a command's output through one locked, buffered stdout. A
/// reader that goes away early (`ct trace | head -1`) ends the command
/// quietly with status 0; any other write error exits 1.
pub fn write_stdout(body: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
    let mut w = io::BufWriter::new(io::stdout().lock());
    match body(&mut w).and_then(|()| w.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}
