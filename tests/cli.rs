//! The `ct` binary, driven as a process: malformed option values and
//! hostile input files are errors (exit status 2 and a message on
//! stderr), never panics; a reader that closes the pipe early ends a
//! command quietly; and what `ct trace`, `ct forensics` and
//! `ct analyze` print for one faulty run is pinned byte for byte.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// Every subcommand that reads `--logp`.
const LOGP_COMMANDS: [&str; 11] = [
    "run",
    "tree",
    "sweep",
    "trace",
    "analyze",
    "check",
    "forensics",
    "pubsub",
    "stats",
    "top",
    "serve",
];

/// Every `LOGP_COMMANDS` entry refuses `--logp value`: exit 2, the value
/// named on stderr, no panic.
fn assert_logp_refused_everywhere(value: &str) {
    for cmd in LOGP_COMMANDS {
        let out = Command::new(env!("CARGO_BIN_EXE_ct"))
            .args([cmd, "--p", "16", "--logp", value])
            .output()
            .expect("ct runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "ct {cmd} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "ct {cmd} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("cannot parse --logp value {value:?}")),
            "ct {cmd} {value}: {stderr}"
        );
    }
}

#[test]
fn unparsable_logp_is_a_usage_error_in_every_subcommand() {
    assert_logp_refused_everywhere("bogus");
}

#[test]
fn out_of_range_logp_is_a_usage_error_in_every_subcommand() {
    // Past `LogP::MAX_STEPS`, `now + o + L` would saturate at `Time::NEVER`.
    assert_logp_refused_everywhere("L=18446744073709551615,o=1");
    assert_logp_refused_everywhere("L=9223372036854775807,o=9223372036854775807");
}

/// `ct fig` invocations that are usage errors, each with a piece of its
/// message: a missing or unparsable value, an unknown figure, a flag the
/// figure does not read, and a value the figure cannot run with.
const BAD_FIGS: [(&[&str], &str); 19] = [
    (&["fig6", "--p"], "missing value after --p"),
    (&["fig6", "--p", "many"], r#"cannot parse --p value "many""#),
    (
        &["fig6", "--p", "--reps", "3"],
        r#"cannot parse --p value "--reps""#,
    ),
    (&["fig8", "--rate", "0.1"], "fig8 does not read --rate"),
    (&[], r#"ct fig needs a figure name or all, not """#),
    (
        &["fig13"],
        r#"ct fig needs a figure name or all, not "fig13""#,
    ),
    (&["fig11", "--reps", "3"], "fig11 does not read --reps"),
    (&["fig6", "--threads", "4"], "fig6 does not read --threads"),
    (&["ablation", "--paper"], "ablation does not read --paper"),
    (&["fig_scale", "--quick"], "fig_scale does not read --quick"),
    (&["all", "--max-exp", "14"], "all does not read --max-exp"),
    (
        &["fig7", "--p", "512"],
        "fig7: --p 512 is below its smallest P, 1024",
    ),
    (
        &["fig11", "--p", "3"],
        "fig11: --p 3 is below its smallest P, 4",
    ),
    (
        &["fig_scale", "--p", "1024"],
        "fig_scale: --p 1024 is below its smallest P",
    ),
    (
        &["fig_scale", "--p", "4294967295"],
        "--p must be below 2^31",
    ),
    (
        &["fig1b", "--p", "1"],
        "fig1b: --p 1 is below its smallest P, 2",
    ),
    (
        &["correlated", "--node-size", "0"],
        "--node-size must be at least 1",
    ),
    (&["fig6", "--p", "0"], "--p must be at least 1"),
    (
        &["all", "--p", "2048"],
        "fig_scale: --p 2048 is below its smallest P",
    ),
];

#[test]
fn hostile_figure_flags_are_usage_errors_and_run_nothing() {
    let cwd = std::env::temp_dir().join(format!("ct-bad-figs-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    for (args, message) in BAD_FIGS {
        let out = Command::new(env!("CARGO_BIN_EXE_ct"))
            .arg("fig")
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("ct runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("ct fig {}: {stderr}", args.join(" "));
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(stderr.contains(message), "{what}");
        assert!(!stderr.contains("panicked"), "{what}");
        assert!(!cwd.join("results").exists(), "{what}");
    }
    std::fs::remove_dir_all(&cwd).expect("nothing was written");
}

/// The golden four-rank trace, rank 2 dead.
const GOLDEN_P4: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/sim/tests/data/golden_p4.jsonl"
);

/// Command lines every command rejects before it runs anything, each
/// with a piece of its message: a flag the command does not read (one
/// per command), a listed rank past the last one, and no ranks at all
/// (every command that reads `--p`).
const BAD_FLAGS: [(&[&str], &str); 26] = [
    (&["run", "--fautls", "5"], "run does not read --fautls"),
    (&["tree", "--faults", "1"], "tree does not read --faults"),
    (
        &["sweep", "--format", "jsonl"],
        "sweep does not read --format",
    ),
    (&["trace", "--reps", "3"], "trace does not read --reps"),
    (&["analyze", "--dead", "1"], "analyze does not read --dead"),
    (&["check", "--dead", "1"], "check does not read --dead"),
    (
        &["forensics", "--runtime"],
        "forensics does not read --runtime",
    ),
    (&["pubsub", "--rate", "0.1"], "pubsub does not read --rate"),
    (&["stats", "--failed", "1"], "stats does not read --failed"),
    (
        &["top", "--interval-ms", "100"],
        "top does not read --interval-ms",
    ),
    (
        &["serve", "--iters", "1", "extra"],
        "serve does not read extra",
    ),
    (&["monitor", "--p", "4"], "monitor does not read --p"),
    (
        &["postmortem", "dump.json", "--input", "x"],
        "postmortem does not read --input",
    ),
    (
        &["check", "--input", GOLDEN_P4, "--p", "4", "--failed", "9"],
        "--failed rank 9 out of range (p=4)",
    ),
    (
        &["forensics", "--input", GOLDEN_P4, "--failed", "9"],
        "--failed rank 9 out of range (p=4)",
    ),
    (&["run", "--p", "0"], "--p must be at least 1"),
    (&["tree", "--p", "0"], "--p must be at least 1"),
    (&["sweep", "--p", "0"], "--p must be at least 1"),
    (&["trace", "--p", "0"], "--p must be at least 1"),
    (&["analyze", "--p", "0"], "--p must be at least 1"),
    (&["check", "--p", "0"], "--p must be at least 1"),
    (&["forensics", "--p", "0"], "--p must be at least 1"),
    (&["pubsub", "--p", "0"], "--p must be at least 1"),
    (&["stats", "--p", "0"], "--p must be at least 1"),
    (&["top", "--p", "0"], "--p must be at least 1"),
    (&["serve", "--p", "0"], "--p must be at least 1"),
];

#[test]
fn unread_flags_and_unknown_ranks_are_usage_errors_in_every_command() {
    for (args, message) in BAD_FLAGS {
        let out = Command::new(env!("CARGO_BIN_EXE_ct"))
            .args(args)
            .output()
            .expect("ct runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("ct {}: {stderr}", args.join(" "));
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(stderr.contains(message), "{what}");
        assert!(!stderr.contains("panicked"), "{what}");
        assert_eq!(out.stdout, b"", "{what}");
    }
}

/// `ct top` draws the sampler's windows while a campaign runs: at
/// 25 ms windows, 2 000 broadcasts of 32 ranks span several of them,
/// optimized or not.
#[test]
fn top_draws_frames_then_the_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_ct"))
        .args(["top", "--p", "32", "--iters", "2000"])
        .env("CT_SAMPLE_MS", "25")
        .output()
        .expect("ct runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let what = format!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(0), "{what}");
    let frame = stdout.find("ct top — source=cluster").expect(&what);
    let done = stdout
        .find("campaign done: 2000 broadcasts, 0 incomplete")
        .expect(&what);
    let summary = stdout
        .find("scheduler summary (source=cluster")
        .expect(&what);
    assert!(frame < done && done < summary, "{what}");
}

/// Every command that reads a JSON or JSONL file, followed by the file.
const READERS: [&[&str]; 7] = [
    &["analyze", "--input"],
    &["check", "--input"],
    &["forensics", "--input"],
    &["analyze", "--view", "scheduler", "--input"],
    &["analyze", "--view", "series", "--input"],
    &["analyze", "--view", "postmortem", "--input"],
    &["postmortem"],
];

/// A trace naming rank 2^32 − 1: one past it is no process count.
const WIDE_RANK: &[u8] = br#"{"t":0,"kind":"colored","rank":4294967295,"via":"root"}
{"t":1,"kind":"send","from":4294967295,"to":1,"payload":"tree"}
"#;

/// A trace naming rank 2^32 − 2: a process count, but one no reader
/// allocates for.
const HUGE_RANK: &[u8] = br#"{"t":0,"kind":"colored","rank":4294967294,"via":"root"}
"#;

/// A trace opening a span outside the closed phase set.
const UNKNOWN_PHASE: &[u8] = br#"{"t":0,"kind":"phase_begin","name":"rep"}
"#;

/// Hostile files, each with the position markers one of which its
/// error must carry: a byte offset for a document that does not parse,
/// a line or the `schema` field for one that parses but is no schema
/// the reader knows, the rank for a trace that implies no process count.
const HOSTILE: [(&str, &[u8], &[&str]); 6] = [
    (
        "truncated",
        br#"{"schema":"ct-telemetry-v1","source":"clu"#,
        &["at byte "],
    ),
    ("not-utf8", b"{\"schema\":\"\xff\xfe\"}\n", &["at byte "]),
    (
        "wrong-schema",
        br#"{"schema":"ct-bogus-v1","kind":"sample"}"#,
        &["line 1: ", "schema: "],
    ),
    (
        "wide-rank",
        WIDE_RANK,
        &["rank 4294967295", "at byte ", "line 1: "],
    ),
    (
        "huge-rank",
        HUGE_RANK,
        &["rank 4294967294", "line 1: ", "schema: "],
    ),
    (
        "unknown-phase",
        UNKNOWN_PHASE,
        &["unknown phase", "line 1: ", "schema: "],
    ),
];

#[test]
fn hostile_input_is_an_error_with_a_position_in_every_reader() {
    // 200 000 nested arrays: deeper than any stack a recursive reader has.
    let nested = "[".repeat(200_000);
    let inputs = HOSTILE
        .iter()
        .copied()
        .chain([("nested", nested.as_bytes(), &["at byte "][..])]);
    for (name, bytes, positions) in inputs {
        let path = std::env::temp_dir().join(format!("ct-hostile-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).expect("write the input");
        for args in READERS {
            let out = Command::new(env!("CARGO_BIN_EXE_ct"))
                .args(args)
                .arg(&path)
                .output()
                .expect("ct runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("ct {} <{name}>: {stderr}", args.join(" "));
            assert_eq!(out.status.code(), Some(2), "{what}");
            assert!(stderr.contains(&*path.to_string_lossy()), "{what}");
            assert!(positions.iter().any(|p| stderr.contains(p)), "{what}");
            assert!(!stderr.contains("panicked"), "{what}");
            assert!(!stderr.contains("overflowed"), "{what}");
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Traces `ct forensics --input` cannot reconstruct a broadcast from,
/// each with a piece of its message: one naming no rank, and two whose
/// ranks imply no process count.
const NO_BROADCAST: [(&str, &[u8], &str); 3] = [
    ("empty", b"", "no rank to reconstruct a broadcast over"),
    ("wide-rank", WIDE_RANK, "rank 4294967295"),
    ("huge-rank", HUGE_RANK, "rank 4294967294"),
];

#[test]
fn forensics_on_a_trace_without_a_broadcast_is_an_error() {
    for (name, bytes, message) in NO_BROADCAST {
        let path = std::env::temp_dir().join(format!("ct-forensics-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).expect("write the input");
        let out = Command::new(env!("CARGO_BIN_EXE_ct"))
            .args(["forensics", "--input"])
            .arg(&path)
            .output()
            .expect("ct runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("ct forensics --input <{name}>: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(stderr.contains(&*path.to_string_lossy()), "{what}");
        assert!(stderr.contains(message), "{what}");
        assert!(!stderr.contains("panicked"), "{what}");
        let _ = std::fs::remove_file(&path);
    }
}

/// The faulty opportunistic broadcast every golden below runs.
const OPP2_P16: [&str; 10] = [
    "--tree",
    "binomial",
    "--correction",
    "opp2",
    "--p",
    "16",
    "--faults",
    "1",
    "--seed",
    "3",
];

/// Run `ct <args> <OPP2_P16>` and compare its output with `golden`,
/// the file `tests/data/<file>`. Regenerate after an intentional change
/// with `CT_REGEN_GOLDEN=1 cargo test --test cli`.
fn assert_golden(args: &[&str], file: &str, golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ct"))
        .args(args)
        .args(OPP2_P16)
        .output()
        .expect("ct runs");
    let what = format!("ct {}", args.join(" "));
    assert_eq!(out.status.code(), Some(0), "{what}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if std::env::var_os("CT_REGEN_GOLDEN").is_some() {
        let path = format!("{}/tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, &*stdout).expect("write golden");
        return;
    }
    assert_eq!(stdout, golden, "{what}");
}

/// `ct trace` (ASCII timeline plus the run report), with and without a
/// row filter.
const ASCII_GOLDENS: [(&[&str], &str, &str); 2] = [
    (
        &["trace"],
        "trace_ascii_opp2_p16.txt",
        include_str!("data/trace_ascii_opp2_p16.txt"),
    ),
    (
        &["trace", "--ranks", "0,1,2"],
        "trace_ascii_opp2_p16_ranks.txt",
        include_str!("data/trace_ascii_opp2_p16_ranks.txt"),
    ),
];

#[test]
fn ascii_trace_matches_its_golden_output() {
    for (args, file, golden) in ASCII_GOLDENS {
        assert_golden(args, file, golden);
    }
}

/// What reads the run's events back: the chrome export with its
/// send→arrival flow pairs, the forensics report with each orphan's
/// rescuer, and the critical path's o/L/idle segments.
const READER_GOLDENS: [(&[&str], &str, &str); 3] = [
    (
        &["trace", "--format", "chrome"],
        "trace_chrome_opp2_p16.json",
        include_str!("data/trace_chrome_opp2_p16.json"),
    ),
    (
        &["forensics", "--json"],
        "forensics_opp2_p16.json",
        include_str!("data/forensics_opp2_p16.json"),
    ),
    (
        &["analyze", "--view", "critical-path"],
        "critpath_opp2_p16.txt",
        include_str!("data/critpath_opp2_p16.txt"),
    ),
];

#[test]
fn chrome_forensics_and_critical_path_match_their_golden_output() {
    for (args, file, golden) in READER_GOLDENS {
        assert_golden(args, file, golden);
    }
}

/// `ct trace … | head -1`: the reader takes one line and closes the
/// pipe while `ct` still has about 300 KB to write. Then `ct analyze`,
/// `ct check`, `ct forensics` and `ct monitor --input … | true`: the
/// reader closes the pipe before reading anything.
#[test]
fn a_closed_stdout_ends_trace_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ct"))
        .args(["trace", "--p", "256", "--format", "jsonl"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ct runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("one line");
    assert!(first.contains(r#""kind":"phase_begin""#), "{first}");
    assert_quiet_exit(child, "ct trace");
    let live = ["--p", "64", "--faults", "3", "--seed", "5", "--json"];
    let series = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/analyze/tests/data/golden_series.jsonl"
    );
    let runs: [(&str, &[&str]); 4] = [
        ("analyze", &live),
        ("check", &live),
        ("forensics", &live),
        ("monitor", &["--input", series]),
    ];
    for (cmd, args) in runs {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ct"))
            .arg(cmd)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("ct runs");
        drop(child.stdout.take());
        assert_quiet_exit(child, cmd);
    }
}

/// A panic on a closed pipe exits 101 with "panicked" on stderr.
fn assert_quiet_exit(mut child: std::process::Child, what: &str) {
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    let status = child.wait().expect("ct exits");
    assert!(status.success(), "{what}: {status}: {stderr}");
    assert_eq!(stderr, "", "{what}");
}
