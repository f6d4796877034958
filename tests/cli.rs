//! The `ct` binary, driven as a process: malformed option values are
//! usage errors (exit status 2 and a message on stderr), never panics.

use std::process::Command;

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
