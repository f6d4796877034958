//! Run manifests: the provenance record written next to every campaign
//! CSV as `results/<name>.meta.json`.
//!
//! A result file without its seed, parameters and code revision cannot
//! be reproduced ("all our simulations are fully reproducible as we
//! keep the random generator seed of every experiment", §4) — the
//! manifest keeps that metadata attached to the data it describes.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::JsonObject;

/// Provenance of one experiment output file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunManifest {
    /// Experiment name (the CSV stem, e.g. `fig6_quick`).
    pub name: String,
    /// Protocol label(s) the experiment ran (factory labels).
    pub protocol: Option<String>,
    /// Process count, when the experiment has a single `P`.
    pub p: Option<u32>,
    /// LogP parameters, rendered as `L=..,o=..,g=..`.
    pub logp: Option<String>,
    /// Base seed driving the run(s).
    pub seed: Option<u64>,
    /// Repetitions per configuration.
    pub reps: Option<u32>,
    /// Fault-injection summary (e.g. `count=3` or `ranks=[1,2,40]`).
    pub faults: Option<String>,
    /// `git rev-parse HEAD` of the producing tree, when available.
    pub git_rev: Option<String>,
    /// Wall-clock duration of the experiment, in seconds.
    pub wall_secs: Option<f64>,
    /// Unix timestamp (seconds) the manifest was written.
    pub created_unix: Option<u64>,
    /// Free-form extra fields, name-sorted in the output.
    pub extra: BTreeMap<String, String>,
    /// Extra fields whose values are pre-rendered JSON (objects/arrays),
    /// embedded verbatim — e.g. the `analysis` block campaigns attach.
    /// Name-sorted in the output, after [`RunManifest::extra`].
    pub extra_json: BTreeMap<String, String>,
}

impl RunManifest {
    /// Start a manifest for the experiment `name`.
    pub fn new(name: impl Into<String>) -> RunManifest {
        RunManifest {
            name: name.into(),
            ..RunManifest::default()
        }
    }

    /// Set the protocol label(s).
    pub fn protocol(mut self, label: impl Into<String>) -> Self {
        self.protocol = Some(label.into());
        self
    }

    /// Set the process count.
    pub fn p(mut self, p: u32) -> Self {
        self.p = Some(p);
        self
    }

    /// Set the LogP parameters (anything `Display`able; `ct_logp::LogP`
    /// renders as `L=..,o=..,g=..`).
    pub fn logp(mut self, logp: impl ToString) -> Self {
        self.logp = Some(logp.to_string());
        self
    }

    /// Set the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Set the repetition count.
    pub fn reps(mut self, reps: u32) -> Self {
        self.reps = Some(reps);
        self
    }

    /// Set the fault-injection summary.
    pub fn faults(mut self, summary: impl Into<String>) -> Self {
        self.faults = Some(summary.into());
        self
    }

    /// Set the experiment wall-clock duration.
    pub fn wall_secs(mut self, secs: f64) -> Self {
        self.wall_secs = Some(secs);
        self
    }

    /// Add one free-form field.
    pub fn with_extra(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra.insert(key.into(), value.into());
        self
    }

    /// Add one extra field whose value is already-rendered JSON; it is
    /// embedded verbatim (not escaped as a string), so structured
    /// blocks like per-rep analysis stats stay machine-readable.
    pub fn with_extra_json(mut self, key: impl Into<String>, json: impl Into<String>) -> Self {
        self.extra_json.insert(key.into(), json.into());
        self
    }

    /// Fill `git_rev` and `created_unix` from the environment (both
    /// best-effort; missing git stays `None`) and attach the
    /// [`host_provenance`] fields, so every stamped manifest records
    /// which machine shape produced it.
    pub fn stamped(mut self) -> Self {
        self.git_rev = current_git_rev();
        self.created_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .ok()
            .map(|d| d.as_secs());
        for (k, v) in host_provenance() {
            self.extra.entry(k).or_insert(v);
        }
        self
    }

    /// Render as a JSON object (fixed field order; absent fields are
    /// `null` so the schema is self-describing).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("name", &self.name);
        match &self.protocol {
            Some(v) => obj.field_str("protocol", v),
            None => obj.field_null("protocol"),
        };
        match self.p {
            Some(v) => obj.field_u64("p", u64::from(v)),
            None => obj.field_null("p"),
        };
        match &self.logp {
            Some(v) => obj.field_str("logp", v),
            None => obj.field_null("logp"),
        };
        match self.seed {
            Some(v) => obj.field_u64("seed", v),
            None => obj.field_null("seed"),
        };
        match self.reps {
            Some(v) => obj.field_u64("reps", u64::from(v)),
            None => obj.field_null("reps"),
        };
        match &self.faults {
            Some(v) => obj.field_str("faults", v),
            None => obj.field_null("faults"),
        };
        match &self.git_rev {
            Some(v) => obj.field_str("git_rev", v),
            None => obj.field_null("git_rev"),
        };
        match self.wall_secs {
            Some(v) => obj.field_f64("wall_secs", v),
            None => obj.field_null("wall_secs"),
        };
        match self.created_unix {
            Some(v) => obj.field_u64("created_unix", v),
            None => obj.field_null("created_unix"),
        };
        let mut extra = JsonObject::new();
        for (k, v) in &self.extra {
            extra.field_str(k, v);
        }
        for (k, v) in &self.extra_json {
            extra.field_raw(k, v);
        }
        obj.field_raw("extra", &extra.finish());
        obj.finish()
    }

    /// The manifest path for a given output file: same directory and
    /// stem, `.meta.json` extension (`results/fig6.csv` →
    /// `results/fig6.meta.json`).
    pub fn path_for(output: &Path) -> PathBuf {
        output.with_extension("meta.json")
    }

    /// Write the manifest next to `output` (see [`RunManifest::path_for`])
    /// and return the path written.
    pub fn write_next_to(&self, output: &Path) -> io::Result<PathBuf> {
        let path = Self::path_for(output);
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// Host-shape provenance: the fields that make perf baselines from
/// different machines distinguishable. Returns sorted key/value pairs:
///
/// * `host.available_parallelism` — what the OS reports (or `unknown`);
/// * `host.ct_threads` / `host.ct_mailbox_cap` — the raw environment
///   overrides, or `unset`;
/// * `host.worker_threads` — what [`default_threads`] resolves to;
/// * `host.peak_rss_kb` — the process's high-water resident set at the
///   time of stamping ([`peak_rss_kb`]; `0` off Linux).
pub fn host_provenance() -> Vec<(String, String)> {
    let avail = std::thread::available_parallelism().ok().map(|n| n.get());
    let ct_threads = std::env::var("CT_THREADS").ok();
    let ct_mailbox = std::env::var("CT_MAILBOX_CAP").ok();
    let workers = parse_positive(ct_threads.as_deref(), avail.map_or(1, |n| n as u64));
    vec![
        (
            "host.available_parallelism".to_owned(),
            avail.map_or_else(|| "unknown".to_owned(), |n| n.to_string()),
        ),
        (
            "host.ct_mailbox_cap".to_owned(),
            ct_mailbox.unwrap_or_else(|| "unset".to_owned()),
        ),
        (
            "host.ct_threads".to_owned(),
            ct_threads.unwrap_or_else(|| "unset".to_owned()),
        ),
        ("host.peak_rss_kb".to_owned(), peak_rss_kb().to_string()),
        ("host.worker_threads".to_owned(), workers.to_string()),
    ]
}

/// The thread count of this process: the `CT_THREADS` environment
/// variable when set to a positive integer, else
/// [`std::thread::available_parallelism`], else 1. The one rule behind
/// the cluster's worker pool, the experiment campaigns, parallel fault
/// plan fills and the simulator's free-core check.
pub fn default_threads() -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    env_positive("CT_THREADS", available) as usize
}

/// The environment variable `name` read as a positive integer, else `default`: how
/// `CT_THREADS`, `CT_MAILBOX_CAP`, `CT_WATCHDOG_MS`, `CT_FLIGHT_CAP` and `CT_SAMPLE_MS` are read.
pub fn env_positive(name: &str, default: u64) -> u64 {
    parse_positive(std::env::var(name).ok().as_deref(), default)
}

/// [`env_positive`] over the raw value, for deterministic tests: trimmed, a positive
/// integer wins, anything else yields `default`.
pub fn parse_positive(raw: Option<&str>, default: u64) -> u64 {
    match raw.and_then(|s| s.trim().parse::<u64>().ok()) {
        Some(n) if n >= 1 => n,
        _ => default,
    }
}

/// Peak resident-set size of this process in KiB: `VmHWM` from
/// `/proc/self/status` on Linux, `0` elsewhere (a recognizable "not
/// measured" sentinel rather than a platform-dependent guess). The
/// kernel's high-water mark is monotone over the process lifetime, so
/// sample it right after the workload whose footprint you want.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            return parse_vm_hwm_kb(&status).unwrap_or(0);
        }
    }
    0
}

/// Extract `VmHWM:    123456 kB` from `/proc/self/status` contents.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// `git rev-parse HEAD` of the current directory's repository, if any.
pub fn current_git_rev() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?;
    let rev = rev.trim();
    (!rev.is_empty()).then(|| rev.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_fixed_field_order_and_nulls() {
        let m = RunManifest::new("fig6_quick")
            .protocol("lame2+opportunistic(4)")
            .p(512)
            .logp("L=2,o=1,g=1")
            .seed(42)
            .reps(10)
            .faults("count=3");
        let json = m.to_json();
        assert!(
            json.starts_with(r#"{"name":"fig6_quick","protocol":"#),
            "{json}"
        );
        assert!(json.contains(r#""p":512"#), "{json}");
        assert!(json.contains(r#""seed":42"#), "{json}");
        assert!(json.contains(r#""git_rev":null"#), "{json}");
        assert!(json.contains(r#""wall_secs":null"#), "{json}");
        assert!(json.ends_with(r#""extra":{}}"#), "{json}");
    }

    #[test]
    fn extra_fields_are_sorted() {
        let m = RunManifest::new("x")
            .with_extra("zz", "1")
            .with_extra("aa", "2");
        let json = m.to_json();
        let a = json.find("\"aa\"").unwrap();
        let z = json.find("\"zz\"").unwrap();
        assert!(a < z, "{json}");
    }

    #[test]
    fn extra_json_embeds_verbatim() {
        let m = RunManifest::new("x")
            .with_extra("note", "hi")
            .with_extra_json("analysis", r#"{"critpath":{"len":24}}"#);
        let json = m.to_json();
        assert!(
            json.contains(r#""analysis":{"critpath":{"len":24}}"#),
            "{json}"
        );
        assert!(json.contains(r#""note":"hi""#), "{json}");
    }

    #[test]
    fn manifest_path_swaps_extension() {
        assert_eq!(
            RunManifest::path_for(Path::new("results/fig6.csv")),
            PathBuf::from("results/fig6.meta.json")
        );
    }

    #[test]
    fn stamped_fills_timestamp() {
        let m = RunManifest::new("x").stamped();
        assert!(m.created_unix.is_some());
        // git_rev is best-effort; either way to_json must not panic.
        let _ = m.to_json();
    }

    #[test]
    fn stamped_attaches_host_provenance() {
        let m = RunManifest::new("x").stamped();
        for key in [
            "host.available_parallelism",
            "host.ct_mailbox_cap",
            "host.ct_threads",
            "host.peak_rss_kb",
            "host.worker_threads",
        ] {
            assert!(m.extra.contains_key(key), "missing {key}");
        }
        // An explicit value wins over the environment-derived one.
        let m = RunManifest::new("x")
            .with_extra("host.worker_threads", "99")
            .stamped();
        assert_eq!(m.extra["host.worker_threads"], "99");
    }

    #[test]
    fn positive_knob_parsing() {
        // (raw value, default, read): the cases of the CT_THREADS,
        // CT_SAMPLE_MS and CT_WATCHDOG_MS readers this one replaced.
        let cases = [
            (None, 8, 8),
            (Some("3"), 8, 3),
            (Some(" 2 "), 1, 2),
            (Some("0"), 8, 8),
            (Some("many"), 8, 8),
            (Some("-1"), 1, 1),
            (None, 1, 1),
            (None, 250, 250),
            (Some("50"), 250, 50),
            (Some(" 125 "), 250, 125),
            (Some("0"), 250, 250),
            (Some("-5"), 250, 250),
            (Some("soon"), 250, 250),
            (None, 30_000, 30_000),
            (Some("250"), 30_000, 250),
            (Some(" 1000 "), 30_000, 1000),
            (Some("0"), 30_000, 30_000),
            (Some("lots"), 30_000, 30_000),
        ];
        for (raw, default, read) in cases {
            assert_eq!(parse_positive(raw, default), read, "{raw:?}");
        }
    }

    #[test]
    fn vm_hwm_parses_from_proc_status_format() {
        let status = "Name:\tct\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 88 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123456));
        assert_eq!(parse_vm_hwm_kb("Name:\tct\n"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_probe_reports_nonzero_on_linux() {
        assert!(peak_rss_kb() > 0, "a running process has a resident set");
    }

    #[test]
    fn write_next_to_creates_sibling() {
        let dir = std::env::temp_dir().join("ct-obs-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("demo.csv");
        let path = RunManifest::new("demo").write_next_to(&csv).unwrap();
        assert_eq!(path, dir.join("demo.meta.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with(r#"{"name":"demo""#), "{body}");
        assert!(body.ends_with('\n'));
        std::fs::remove_dir_all(&dir).ok();
    }
}
