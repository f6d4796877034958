//! What the benchmark reads from the host: CPU time, peak RSS and the
//! provenance stamped into every result.

use std::process::Command;
use std::sync::OnceLock;

/// CPU seconds the live threads of this process have spent running:
/// the first field of each `/proc/self/task/<tid>/schedstat`, which the
/// kernel keeps in nanoseconds (the 10 ms ticks of `/proc/self/stat`
/// are too coarse for a 40 ms window). A thread that exits takes its
/// share with it, so callers difference two readings only across code
/// that neither spawns nor joins threads.
pub fn cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Asked once per process: a set stamps it into every record.
pub fn rustc_version() -> &'static str {
    static VERSION: OnceLock<String> = OnceLock::new();
    VERSION.get_or_init(|| first_line("rustc", &["--version"]))
}

/// The commit of the checkout the benchmark was built from; "unknown"
/// where the checkout is not a git repository.
pub fn commit() -> &'static str {
    static COMMIT: OnceLock<String> = OnceLock::new();
    COMMIT.get_or_init(|| {
        let here = env!("CARGO_MANIFEST_DIR");
        first_line("git", &["-C", here, "rev-parse", "--short", "HEAD"])
    })
}

/// Remove every `CT_*` variable: `ClusterConfig::new`, the flight
/// recorder default and the sampler default read them, and a stray one
/// must not change what is measured.
pub fn scrub_ct_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("CT_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}
