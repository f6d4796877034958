//! One-off simulator commands: `ct run`, `ct trace`, `ct tree` and
//! `ct sweep`.

use std::io::{self, Write};

use corrected_trees::core::tree::{interleaving, stats, Topology};
use corrected_trees::exp::stats::Summary;
use corrected_trees::logp::LogP;
use corrected_trees::obs::{chrome_trace, Event, EventKind};
use corrected_trees::sim::{ascii_timeline, Outcome, Simulation};

use crate::cli::{build_spec, fault_plan, parse_tree, write_stdout, Cli, SPEC};
use crate::misuse;

pub const USAGE: &str = "\
common options:
  --tree <binomial|binomial-inorder|kary<K>|lame<K>|optimal>  (default binomial)
  --p <N>            processes (default 1024)
  --logp <L=2,o=1>   machine model (default paper: L=2,o=1)
run options:
  --correction <none|opp<D>|opp-plain<D>|checked|failure-proof|delayed<T>>
  --mode <sync|overlap>   (default overlap)
  --acked                 acknowledged tree instead of correction
  --root <R>              broadcast root (default 0)
  --shuffle <SEED>        randomize process numbering (§2.1)
  --faults <N> | --rate <F>   random failures (default none)
  --seed <S>              run seed (default 1)
sweep options:
  --reps <N>              repetitions (default 50)
trace options (plus all run options):
  --format <ascii|jsonl|chrome>   (default ascii)
          ascii:  Figure-5-style sender/delivery timeline
          jsonl:  one ct-obs event per line (stable schema)
          chrome: chrome://tracing / Perfetto JSON document
  --ranks <a,b,c>         restrict ascii rows / jsonl events to
                          the given ranks (phase spans kept)
";

pub fn run(cli: &Cli) {
    cli.only("run", &[SPEC]);
    let p = cli.p().unwrap_or(1024);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let seed: u64 = cli.parsed("--seed", 1);
    let spec = build_spec(cli);
    let plan = cli.fault_plan(p, seed, spec.root);
    let failed: Vec<u32> = plan.failed_ranks().collect();

    let sim = Simulation::builder(p, logp).faults(plan).seed(seed).build();
    let out = sim.run(&spec).expect("valid configuration");
    write_stdout(|w| report(w, &out, &failed));
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

/// Does this event mention any of `ranks` (phase spans always pass)?
fn event_involves(event: &Event, ranks: &[u32]) -> bool {
    match event.kind {
        EventKind::SendStart { from, to, .. }
        | EventKind::Arrive { from, to, .. }
        | EventKind::Deliver { from, to, .. }
        | EventKind::DropDead { from, to, .. } => ranks.contains(&from) || ranks.contains(&to),
        EventKind::Colored { rank, .. } => ranks.contains(&rank),
        EventKind::PhaseBegin(_) | EventKind::PhaseEnd(_) => true,
    }
}

pub fn trace(cli: &Cli) {
    cli.only("trace", &[SPEC, "--format --ranks"]);
    let p = cli.p().unwrap_or(16);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let seed: u64 = cli.parsed("--seed", 1);
    let spec = build_spec(cli);
    let plan = cli.fault_plan(p, seed, spec.root);
    let failed: Vec<u32> = plan.failed_ranks().collect();

    let sim = Simulation::builder(p, logp).faults(plan).seed(seed).build();
    let (out, events) = sim.run_with_events(&spec).expect("valid configuration");

    let ranks = cli.ranks("--ranks");
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
        other => misuse(format_args!("unknown trace format {other:?}")),
    });
}

pub fn tree(cli: &Cli) {
    cli.only("tree", &["--p --logp --tree"]);
    let p = cli.p().unwrap_or(16);
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

pub fn sweep(cli: &Cli) {
    cli.only("sweep", &[SPEC, "--reps"]);
    let p = cli.p().unwrap_or(1024);
    let logp: LogP = cli.parsed("--logp", LogP::PAPER);
    let reps: u32 = cli.parsed("--reps", 50);
    let seed0: u64 = cli.parsed("--seed", 1);
    let spec = build_spec(cli);
    let faults = cli.faults(p);
    let mut quiescence = Vec::with_capacity(reps as usize);
    let mut msgs = Vec::with_capacity(reps as usize);
    let mut incomplete = 0u32;
    for rep in 0..reps {
        let seed = seed0 + rep as u64;
        let plan = fault_plan(&faults, p, seed, spec.root);
        let sim = Simulation::builder(p, logp).faults(plan).seed(seed).build();
        let out = sim.run(&spec).expect("valid configuration");
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
