//! `bench compare A.json B.json`: apply the bounds of `BENCHMARK.json`
//! to every (end-to-end metric, workload) row of two sets of runs.

use std::collections::BTreeMap;

use ct_analyze::Value;

use crate::stats::Summary;

/// `BENCHMARK.json` is the one place names, units, directions and
/// bounds are written down; the binary carries a copy of it.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bound>,
    pub per_layer: Vec<(String, String)>,
    pub run_seconds: f64,
}

pub fn contract() -> Contract {
    let v = Value::parse(CONTRACT).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| v.get(key).and_then(Value::as_arr).unwrap_or(&[]).to_vec();
    let text = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
    Contract {
        workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: list("end_to_end")
            .iter()
            .map(|m| Bound {
                name: text(m, "name"),
                unit: text(m, "unit"),
                higher_is_better: text(m, "better") == "higher",
                bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
            })
            .collect(),
        per_layer: list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect(),
        run_seconds: v.get("run_seconds").and_then(Value::as_f64).unwrap_or(10.0),
    }
}

/// The values one (workload, metric) row took over the runs of a set.
#[derive(Clone, Debug, Default)]
pub struct Row {
    pub values: Vec<f64>,
    /// Within-run spread, (q3 - q1) / value, of each run that has
    /// quartiles.
    pub within: Vec<f64>,
}

/// A set of untraced runs, as `bench set` writes it.
#[derive(Clone, Debug, Default)]
pub struct RunSet {
    pub rows: BTreeMap<(String, String), Row>,
    pub failed_share: BTreeMap<String, f64>,
    pub degraded: BTreeMap<String, bool>,
}

impl RunSet {
    /// Parse `{"runs":[<run record>, …]}` or a single run record.
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let v = Value::parse(text)?;
        let runs = match v.get("runs").and_then(Value::as_arr) {
            Some(runs) => runs.to_vec(),
            None => vec![v],
        };
        let mut set = RunSet::default();
        for run in &runs {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run record without a workload")?
                .to_owned();
            if run.get("trace") == Some(&Value::Bool(true)) {
                continue;
            }
            let share = run
                .get("failed_ops_share")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            let worst = set.failed_share.entry(workload.clone()).or_insert(0.0);
            *worst = worst.max(share);
            *set.degraded.entry(workload.clone()).or_insert(false) |=
                run.get("degraded") == Some(&Value::Bool(true));
            let Some(Value::Obj(metrics)) = run.get("metrics") else {
                return Err(format!("run of {workload} has no metrics"));
            };
            for (name, m) in metrics {
                let Some(value) = m.get("value").and_then(Value::as_f64) else {
                    continue;
                };
                let row = set
                    .rows
                    .entry((workload.clone(), name.clone()))
                    .or_default();
                row.values.push(value);
                let q = |k: &str| m.get(k).and_then(Value::as_f64);
                if let (Some(q1), Some(q3)) = (q("q1"), q("q3")) {
                    if value != 0.0 {
                        row.within.push((q3 - q1) / value.abs());
                    }
                }
            }
        }
        Ok(set)
    }
}

impl Row {
    pub fn median(&self) -> f64 {
        Summary::of(&self.values).median
    }

    /// Run-to-run spread (IQR / median) with four or more runs;
    /// otherwise the mean within-run spread, which is all there is.
    pub fn spread(&self) -> f64 {
        if self.values.len() >= 4 {
            Summary::of(&self.values).spread()
        } else if self.within.is_empty() {
            0.0
        } else {
            self.within.iter().sum::<f64>() / self.within.len() as f64
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread exceeds the bound, so the row neither agrees nor
    /// disagrees.
    Unresolved,
    /// Measured with fewer cores than worker threads.
    Degraded,
}

/// By which share of `a`'s median `b` is worse (negative: better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

pub fn judge(a: &Row, b: &Row, bound: &Bound) -> Verdict {
    let spread = a.spread().max(b.spread());
    let better = |x: f64, y: f64| {
        if bound.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    // "Every run of B beats every run of A" resolves a noisy row only
    // when there are runs enough for that to mean something.
    let b_always_better = a.values.len().min(b.values.len()) >= 4
        && b.values
            .iter()
            .all(|&y| a.values.iter().all(|&x| better(y, x)));
    if spread > bound.bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by(a.median(), b.median(), bound.higher_is_better) > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The comparison table and whether any row regressed (an increase of
/// `failed_ops_share` counts as one).
pub fn compare(a: &RunSet, b: &RunSet) -> (String, bool) {
    let c = contract();
    let mut out = format!(
        "{:<24} {:<26} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let mut regressed = false;
    for w in &c.workloads {
        for bound in &c.end_to_end {
            let key = (w.clone(), bound.name.clone());
            let (Some(ra), Some(rb)) = (a.rows.get(&key), b.rows.get(&key)) else {
                continue;
            };
            let degraded = [a, b].iter().any(|s| s.degraded.get(w) == Some(&true));
            let verdict = if degraded {
                Verdict::Degraded
            } else {
                judge(ra, rb, bound)
            };
            regressed |= verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{:<24} {:<26} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.0}%  {}\n",
                w,
                bound.name,
                ra.median(),
                rb.median(),
                100.0 * worse_by(ra.median(), rb.median(), bound.higher_is_better),
                100.0 * ra.spread().max(rb.spread()),
                100.0 * bound.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Degraded => "degraded",
                }
            ));
        }
        let (fa, fb) = (a.failed_share.get(w), b.failed_share.get(w));
        if let (Some(&fa), Some(&fb)) = (fa, fb) {
            let verdict = if fb > fa { "REGRESSED" } else { "ok" };
            regressed |= fb > fa;
            out.push_str(&format!(
                "{w:<24} {:<26} {fa:>14.6} {fb:>14.6} {:>9} {:>8} {:>7}  {verdict}\n",
                "failed_ops_share", "", "", "any"
            ));
        }
    }
    (out, regressed)
}

/// The three like-for-like comparisons, readable in one place.
pub fn like_for_like(set: &RunSet) -> String {
    let median = |w: &str, m: &str| set.rows.get(&(w.to_owned(), m.to_owned())).map(Row::median);
    let mut out = String::from("like for like\n");
    let mut line = |what: &str, m: &str, a: &str, b: &str| {
        if let (Some(x), Some(y)) = (median(a, m), median(b, m)) {
            out.push_str(&format!(
                "  {what:<22} {m:<18} {a} {x:.2}  vs  {b} {y:.2}  (x{:.3})\n",
                y / x
            ));
        }
    };
    line(
        "engine: sim vs cluster",
        "ns_per_message",
        "sim_p1024",
        "cluster_p1024",
    );
    line(
        "observability price",
        "broadcasts_per_s",
        "cluster_p1024",
        "cluster_p1024_observed",
    );
    line(
        "multiplexing price",
        "broadcasts_per_s",
        "cluster_p1024",
        "pubsub_p1024_k16",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: b,
        }
    }

    fn row(values: &[f64]) -> Row {
        Row {
            values: values.to_vec(),
            within: Vec::new(),
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 120.0, false) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn a_drop_past_the_bound_is_a_regression() {
        let a = row(&[100.0, 101.0, 99.0, 100.0]);
        let b = row(&[85.0, 86.0, 84.0, 85.0]);
        assert_eq!(judge(&a, &b, &bound(true, 0.10)), Verdict::Regressed);
        assert_eq!(judge(&a, &b, &bound(true, 0.20)), Verdict::Ok);
        // The same numbers are an improvement when lower is better.
        assert_eq!(judge(&a, &b, &bound(false, 0.10)), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = row(&[100.0, 130.0, 80.0, 110.0]);
        let b = row(&[95.0, 125.0, 70.0, 100.0]);
        assert_eq!(judge(&a, &b, &bound(true, 0.10)), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let b = row(&[140.0, 150.0, 135.0, 160.0]);
        assert_eq!(judge(&a, &b, &bound(true, 0.10)), Verdict::Ok);
    }

    #[test]
    fn single_runs_fall_back_to_the_within_run_spread() {
        let a = Row {
            values: vec![100.0],
            within: vec![0.3],
        };
        let b = Row {
            values: vec![80.0],
            within: vec![0.02],
        };
        assert_eq!(judge(&a, &b, &bound(true, 0.10)), Verdict::Unresolved);
        let a = Row {
            values: vec![100.0],
            within: vec![0.03],
        };
        assert_eq!(judge(&a, &b, &bound(true, 0.10)), Verdict::Regressed);
    }

    #[test]
    fn run_sets_parse_and_compare() {
        let run = |w: &str, bps: f64, share: f64| {
            format!(
                r#"{{"workload":"{w}","trace":false,"degraded":false,"failed_ops_share":{share},"metrics":{{"broadcasts_per_s":{{"value":{bps},"unit":"1/s","q1":{bps},"q3":{bps},"n":5}}}}}}"#
            )
        };
        let set = |bps: f64, share: f64| {
            RunSet::parse(&format!(
                r#"{{"runs":[{}]}}"#,
                run("cluster_p1024", bps, share)
            ))
            .unwrap()
        };
        let (table, regressed) = compare(&set(500.0, 0.0), &set(495.0, 0.0));
        assert!(!regressed, "{table}");
        let (table, regressed) = compare(&set(500.0, 0.0), &set(300.0, 0.0));
        assert!(regressed && table.contains("REGRESSED"), "{table}");
        let (_, regressed) = compare(&set(500.0, 0.0), &set(500.0, 0.001));
        assert!(regressed, "any increase of failed_ops_share regresses");
    }

    #[test]
    fn contract_names_what_the_benchmark_emits() {
        let c = contract();
        let names: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(c.workloads, names);
        let setup = c
            .end_to_end
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(c
            .end_to_end
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
        assert!(c.end_to_end.iter().all(|b| b.bound <= setup.bound));
    }
}
