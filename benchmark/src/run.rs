//! One untraced run of one workload: set-up, the timed closed loop, the
//! end-to-end metrics and the run record.

use std::process::Command;
use std::time::Instant;

use ct_analyze::Value;
use ct_obs::json::JsonObject;

use crate::host;
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::workloads::{self, Check, Kind, OpResult, Runner, Taps, Workload};

/// Fresh processes one untraced run is split over.
pub const PROCESSES: usize = 5;

/// Names and units of the end-to-end metrics, in the order of
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("broadcasts_per_s", "1/s"),
    ("ns_per_message", "ns"),
    ("broadcast_latency_p50_us", "us"),
    ("broadcast_latency_p90_us", "us"),
    ("cpu_us_per_broadcast", "us"),
    ("peak_rss_mb", "MB"),
];

/// A reported number. `q1`/`q3`/`n` describe the sample the value is
/// the median (or a percentile) of; a metric taken once per run has
/// `n == 1` and no quartiles.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
    pub n: usize,
}

/// One window of the timed loop: a fixed number of back-to-back
/// operations (the same work in every window of a workload). Also the
/// sum of several windows ([`Window::total`]).
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ops: u64,
    pub messages: u64,
    pub events: u64,
    pub failed: u64,
    /// Latency of every broadcast of the window.
    pub lat_us: Vec<f64>,
}

/// Run `windows` windows of `w.window_ops` operations each, closed
/// loop: the next operation is issued when the previous call returns.
/// Operation counts are fixed, so the work does not depend on how fast
/// the machine happens to be.
pub fn run_windows(runner: &mut Runner, w: &Workload, windows: u64, t: &mut Tracer) -> Vec<Window> {
    let mut out = Vec::with_capacity(windows as usize);
    let mut i = 0u64;
    // One CPU reading per window boundary: the end of a window is the
    // start of the next.
    let mut cpu = host::cpu_seconds();
    for _ in 0..windows {
        if runner.dead() {
            break;
        }
        let mut win = Window::default();
        let start = Instant::now();
        for _ in 0..w.window_ops {
            let r = runner.op(i, t, &mut win.lat_us);
            win.add(r);
            i += 1;
        }
        win.wall_s = start.elapsed().as_secs_f64();
        let cpu_now = host::cpu_seconds();
        win.cpu_s = cpu_now - cpu;
        cpu = cpu_now;
        out.push(win);
    }
    out
}

/// How many windows of `w` fill `seconds` on the reference box.
pub fn windows_for(w: &Workload, seconds: f64) -> u64 {
    ((seconds / w.window_s).round() as u64).max(2)
}

impl Window {
    /// Count what one operation did.
    pub fn add(&mut self, r: OpResult) {
        self.ops += r.ops;
        self.failed += r.failed;
        self.messages += r.messages;
        self.events += r.events;
    }

    pub fn total<'a>(windows: impl IntoIterator<Item = &'a Window>) -> Window {
        let mut t = Window::default();
        for w in windows {
            t.lat_us.extend_from_slice(&w.lat_us);
            t.ops += w.ops;
            t.failed += w.failed;
            t.messages += w.messages;
            t.events += w.events;
            t.wall_s += w.wall_s;
            t.cpu_s += w.cpu_s;
        }
        t
    }

    pub fn broadcasts_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    pub fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events.max(1) as f64
    }
}

/// Everything one run reports.
pub struct RunRecord {
    pub workload: &'static str,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Cluster rows measured with fewer than two cores are not
    /// comparable with the reference numbers.
    pub degraded: bool,
    pub wall_s: f64,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The line the benchmark contract prescribes: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (name → value, unit).
    pub fn result_line(&self) -> String {
        let mut metrics = JsonObject::new();
        for m in &self.metrics {
            let mut o = JsonObject::new();
            o.field_f64("value", m.value).field_str("unit", &m.unit);
            metrics.field_raw(&m.name, &o.finish());
        }
        let mut o = JsonObject::new();
        o.field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted.max(1))
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        o.finish()
    }

    /// The full record `compare` reads: the result plus quartiles,
    /// sample counts, checks and provenance.
    pub fn to_json(&self) -> String {
        let mut metrics = JsonObject::new();
        for m in &self.metrics {
            let mut o = JsonObject::new();
            o.field_f64("value", m.value).field_str("unit", &m.unit);
            if let Some((q1, q3)) = m.quartiles {
                o.field_f64("q1", q1).field_f64("q3", q3);
            }
            o.field_u64("n", m.n as u64);
            metrics.field_raw(&m.name, &o.finish());
        }
        let mut checks = JsonObject::new();
        for c in &self.checks {
            checks.field_bool(&c.name, c.ok);
        }
        let mut prov = JsonObject::new();
        prov.field_u64("seed", self.seed)
            .field_f64("seconds", self.seconds)
            .field_u64("nproc", host::nproc() as u64)
            .field_str("rustc", host::rustc_version())
            .field_str("commit", host::commit())
            .field_u64("threads", workloads::THREADS as u64)
            .field_u64("mailbox_capacity", workloads::MAILBOX_CAPACITY as u64)
            .field_u64("watchdog_ms", workloads::WATCHDOG.as_millis() as u64)
            .field_u64("plans", workloads::PLANS as u64)
            .field_str("logp", &workloads::LOGP.to_string())
            .field_str(
                "spec",
                &workloads::find(self.workload).map_or_else(String::new, workloads::spec_label),
            )
            .field_f64("run_wall_s", self.wall_s);
        let mut o = JsonObject::new();
        o.field_str("schema", "ct-benchmark-run-v1")
            .field_str("workload", self.workload)
            .field_bool("trace", self.trace)
            .field_bool("correct", self.correct())
            .field_bool("degraded", self.degraded)
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_f64("failed_ops_share", self.failed_ops_share())
            .field_raw("checks", &checks.finish())
            .field_raw("provenance", &prov.finish())
            .field_raw("metrics", &metrics.finish());
        o.finish()
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  {} s  trace {}{}\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            if self.degraded {
                "  DEGRADED (nproc < 2)"
            } else {
                ""
            },
        );
        for m in &self.metrics {
            let spread = match m.quartiles {
                Some((q1, q3)) => format!("  [q1 {q1:.4}  q3 {q3:.4}]"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {:<44} {:>16.4} {:<6} n={}{}\n",
                m.name, m.value, m.unit, m.n, spread
            ));
        }
        out.push_str(&format!(
            "  {:<44} {:>16.6} {:<6} {} failed of {} attempted\n",
            "failed_ops_share",
            self.failed_ops_share(),
            "share",
            self.failed,
            self.attempted
        ));
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            out.push_str(&format!("  check {:<12} {verdict}: {}\n", c.name, c.detail));
        }
        out
    }
}

pub fn degraded(w: &Workload) -> bool {
    w.kind != Kind::Sim && host::nproc() < workloads::THREADS
}

/// `[a,b,…]` from already rendered JSON values.
pub fn json_array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// One measuring process: set up `w` (timed from `process_start`), run
/// its share of the windows, and print what it saw as one JSON line for
/// the parent to pool.
pub fn child(w: &Workload, seed: u64, seconds: f64, process_start: Instant) -> String {
    let (mut runner, checks) = Runner::set_up(w, seed, &Taps::of(w), &mut Tracer::off());
    let setup_s = process_start.elapsed().as_secs_f64();
    let windows = run_windows(&mut runner, w, windows_for(w, seconds), &mut Tracer::off());
    child_line(setup_s, host::peak_rss_mb(), &checks, &windows)
}

fn child_line(setup_s: f64, peak_rss_mb: f64, checks: &[Check], windows: &[Window]) -> String {
    let windows = windows.iter().map(|win| {
        let mut o = JsonObject::new();
        o.field_f64("wall_s", win.wall_s)
            .field_f64("cpu_s", win.cpu_s)
            .field_u64("ops", win.ops)
            .field_u64("messages", win.messages)
            .field_u64("failed", win.failed)
            .field_raw(
                "lat_us",
                &json_array(win.lat_us.iter().map(|v| format!("{v:.3}"))),
            );
        o.finish()
    });
    let checks = checks.iter().map(|c| {
        let mut o = JsonObject::new();
        o.field_str("name", &c.name)
            .field_bool("ok", c.ok)
            .field_str("detail", &c.detail);
        o.finish()
    });
    let mut o = JsonObject::new();
    o.field_f64("setup_s", setup_s)
        .field_f64("peak_rss_mb", peak_rss_mb)
        .field_raw("checks", &json_array(checks))
        .field_raw("windows", &json_array(windows));
    o.finish()
}

/// What the parent reads back from one [`child`].
struct ChildReport {
    setup_s: f64,
    peak_rss_mb: f64,
    checks: Vec<Check>,
    windows: Vec<Window>,
}

fn parse_child(line: &str) -> Result<ChildReport, String> {
    let v = Value::parse(line)?;
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let list = |v: &Value, k: &str| v.get(k).and_then(Value::as_arr).unwrap_or(&[]).to_vec();
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
    Ok(ChildReport {
        setup_s: num(&v, "setup_s"),
        peak_rss_mb: num(&v, "peak_rss_mb"),
        checks: list(&v, "checks")
            .iter()
            .map(|c| Check {
                name: text(c, "name"),
                ok: c.get("ok") == Some(&Value::Bool(true)),
                detail: text(c, "detail"),
            })
            .collect(),
        windows: list(&v, "windows")
            .iter()
            .map(|w| Window {
                wall_s: num(w, "wall_s"),
                cpu_s: num(w, "cpu_s"),
                ops: num(w, "ops") as u64,
                messages: num(w, "messages") as u64,
                events: 0,
                failed: num(w, "failed") as u64,
                lat_us: list(w, "lat_us").iter().filter_map(Value::as_f64).collect(),
            })
            .collect(),
    })
}

/// Run [`child`] in a fresh process of this executable.
fn spawn_child(w: &Workload, seed: u64, seconds: f64) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", "1", "--workload", w.name])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn measuring process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_child(
        stdout
            .lines()
            .last()
            .ok_or("measuring process printed nothing")?,
    )
}

/// The untraced run: end-to-end metrics with every tap off (but the
/// taps the observed workload prescribes).
///
/// The windows are split over `processes` fresh processes, one after
/// the other: only a fresh process builds the tree cold and has a peak
/// RSS of its own, so `setup_s` and `peak_rss_mb` are medians over the
/// processes. Every other metric is the median over all windows of the
/// window's own value, so that a burst of a noisy neighbour moves a few
/// windows and not the result; the quartiles of the window values are
/// kept in the record to show what the machine did to the run.
pub fn run(w: &'static Workload, seed: u64, seconds: f64, processes: usize) -> RunRecord {
    let start = Instant::now();
    let mut checks = Vec::new();
    let (mut setups, mut rss, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..processes {
        match spawn_child(w, seed, seconds / processes as f64) {
            Ok(child) => {
                // Every process repeats the same checks; keep the first
                // process's, and any later one that failed.
                checks.extend(child.checks.into_iter().filter(|c| i == 0 || !c.ok));
                setups.push(child.setup_s);
                rss.push(child.peak_rss_mb);
                windows.extend(child.windows);
            }
            Err(e) => checks.push(Check {
                name: "process".into(),
                ok: false,
                detail: e,
            }),
        }
    }
    let all = Window::total(&windows);
    let mut metrics = Vec::new();
    if !windows.is_empty() {
        let per_window =
            |f: &dyn Fn(&Window) -> f64| Summary::of(&windows.iter().map(f).collect::<Vec<f64>>());
        let latency = |q: f64| {
            per_window(&move |w: &Window| stats::quantile_sorted(&stats::sorted(&w.lat_us), q))
        };
        let summaries = [
            Summary::of(&setups),
            per_window(&|w| w.ops as f64 / w.wall_s),
            per_window(&|w| w.wall_s * 1e9 / w.messages.max(1) as f64),
            latency(0.5),
            latency(0.9),
            per_window(&|w| w.cpu_s * 1e6 / w.ops.max(1) as f64),
            Summary::of(&rss),
        ];
        for ((name, unit), s) in END_TO_END.into_iter().zip(summaries) {
            metrics.push(Metric {
                name: name.to_owned(),
                unit: unit.to_owned(),
                value: s.median,
                quartiles: Some((s.q1, s.q3)),
                n: s.n,
            });
        }
    }
    RunRecord {
        workload: w.name,
        trace: false,
        seed,
        seconds,
        attempted: all.ops,
        failed: all.failed,
        checks,
        metrics,
        degraded: degraded(w),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_measuring_process_line_reads_back() {
        let window = Window {
            wall_s: 0.25,
            cpu_s: 0.4,
            ops: 64,
            messages: 700_000,
            events: 0,
            failed: 1,
            lat_us: vec![1500.5, 2000.25],
        };
        let checks = [Check {
            name: "digest".into(),
            ok: false,
            detail: "got \"x\"".into(),
        }];
        let report =
            parse_child(&child_line(0.5, 12.25, &checks, &[window.clone(), window])).unwrap();
        assert_eq!((report.setup_s, report.peak_rss_mb), (0.5, 12.25));
        assert_eq!(report.windows.len(), 2);
        let w = &report.windows[1];
        assert_eq!(
            (w.wall_s, w.cpu_s, w.ops, w.messages, w.failed),
            (0.25, 0.4, 64, 700_000, 1)
        );
        assert_eq!(w.lat_us, vec![1500.5, 2000.25]);
        assert!(!report.checks[0].ok && report.checks[0].detail == "got \"x\"");
    }

    #[test]
    fn end_to_end_metrics_are_those_of_the_contract() {
        let contract = crate::compare::contract();
        let named: Vec<(&str, &str)> = contract
            .end_to_end
            .iter()
            .map(|b| (b.name.as_str(), b.unit.as_str()))
            .collect();
        assert_eq!(named, END_TO_END);
    }

    #[test]
    fn a_result_line_has_exactly_the_prescribed_keys() {
        let record = RunRecord {
            workload: "sim_p1024",
            trace: false,
            seed: 1,
            seconds: 10.0,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: vec![Metric {
                name: "setup_s".into(),
                unit: "s".into(),
                value: 0.5,
                quartiles: None,
                n: 1,
            }],
            degraded: false,
            wall_s: 1.0,
        };
        // Nothing attempted is not correct, and `attempted` is at least 1.
        assert_eq!(
            record.result_line(),
            r#"{"correct":false,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        let set = crate::compare::RunSet::parse(&record.to_json()).unwrap();
        assert_eq!(
            set.rows[&("sim_p1024".to_owned(), "setup_s".to_owned())].values,
            vec![0.5]
        );
    }

    #[test]
    fn seconds_become_a_fixed_number_of_windows() {
        let w = workloads::find("cluster_p1024").unwrap();
        assert_eq!(windows_for(w, 2.0), (2.0 / w.window_s).round() as u64);
        assert_eq!(windows_for(w, 0.01), 2);
    }
}
