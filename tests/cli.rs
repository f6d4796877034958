//! The `ct` binary, driven as a process: malformed option values and
//! hostile input files are errors (exit status 2 and a message on
//! stderr), never panics; a reader that closes the pipe early ends a
//! command quietly; and the ASCII timeline of `ct trace` is pinned
//! byte for byte.

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

#[test]
fn unparsable_logp_is_a_usage_error_in_every_subcommand() {
    for cmd in LOGP_COMMANDS {
        let out = Command::new(env!("CARGO_BIN_EXE_ct"))
            .args([cmd, "--p", "16", "--logp", "bogus"])
            .output()
            .expect("ct runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "ct {cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "ct {cmd}: {stderr}");
        assert!(
            stderr.contains(r#"cannot parse --logp value "bogus""#),
            "ct {cmd}: {stderr}"
        );
    }
}

/// Every command that reads a JSON or JSONL file, followed by the file.
const READERS: [&[&str]; 5] = [
    &["analyze", "--input"],
    &["analyze", "--view", "scheduler", "--input"],
    &["analyze", "--view", "series", "--input"],
    &["analyze", "--view", "postmortem", "--input"],
    &["postmortem"],
];

/// Hostile files, each with the position markers one of which its
/// error must carry: a byte offset for a document that does not parse,
/// a line or the `schema` field for one that parses but is no schema
/// the reader knows.
const HOSTILE: [(&str, &[u8], &[&str]); 3] = [
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

/// `ct trace` (ASCII timeline plus the run report) on a faulty
/// opportunistic broadcast, with and without a row filter.
const ASCII_GOLDENS: [(&[&str], &str); 2] = [
    (&[], include_str!("data/trace_ascii_opp2_p16.txt")),
    (
        &["--ranks", "0,1,2"],
        include_str!("data/trace_ascii_opp2_p16_ranks.txt"),
    ),
];

#[test]
fn ascii_trace_matches_its_golden_output() {
    for (extra, golden) in ASCII_GOLDENS {
        let out = Command::new(env!("CARGO_BIN_EXE_ct"))
            .args([
                "trace",
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
            ])
            .args(extra)
            .output()
            .expect("ct runs");
        assert_eq!(out.status.code(), Some(0), "ct trace {extra:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "ct trace {extra:?}"
        );
    }
}

/// `ct trace … | head -1`: the reader takes one line and closes the
/// pipe while `ct` still has about 300 KB to write.
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
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    // A panic on the closed pipe exits 101 with "panicked" on stderr.
    let status = child.wait().expect("ct exits");
    assert!(status.success(), "{status}: {stderr}");
    assert_eq!(stderr, "");
}
