//! `ct fig` regenerates every figure of the table by name at a small
//! size: each run exits 0 and writes `<name>.csv` with at least one row
//! beside a `<name>.meta.json` manifest carrying its blocks.

use std::process::Command;

const SIM: &[&str] = &["--p", "512", "--reps", "2"];
const CLUSTER: &[&str] = &["--p", "32", "--iters", "2"];
const PROBED: &[&str] = &["analysis", "telemetry"];
const WASTE: &[&str] = &["analysis", "telemetry", "waste_probe"];

/// Each figure, its flags and the JSON blocks its manifest carries.
/// fig11 stays at P ≤ 64: round-limited gossip strands iterations at
/// P = 128 and 256, and each waits out the 30 s watchdog.
const FIGURES: [(&str, &[&str], &[&str]); 12] = [
    ("fig1b", SIM, PROBED),
    ("fig6", SIM, PROBED),
    ("fig7", &["--p", "1024", "--reps", "2"], PROBED),
    ("fig8", SIM, WASTE),
    ("fig9", SIM, WASTE),
    ("fig10", SIM, PROBED),
    ("table1", SIM, PROBED),
    ("fig11", CLUSTER, PROBED),
    ("fig12", CLUSTER, PROBED),
    ("ablation", SIM, PROBED),
    ("correlated", SIM, PROBED),
    ("fig_scale", &[], &[]),
];

#[test]
fn every_figure_runs_by_name_and_writes_its_csv_and_manifest() {
    let out = std::env::temp_dir().join(format!("ct-figures-{}", std::process::id()));
    for (name, flags, blocks) in FIGURES {
        let run = Command::new(env!("CARGO_BIN_EXE_ct"))
            .args(["fig", name])
            .args(flags)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("ct runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "ct fig {name}: {stderr}");
        let csv = std::fs::read_to_string(out.join(format!("{name}.csv"))).expect(name);
        assert!(csv.lines().count() >= 2, "{name}: {csv}");
        let meta = std::fs::read_to_string(out.join(format!("{name}.meta.json"))).expect(name);
        assert!(meta.starts_with(&format!(r#"{{"name":"{name}""#)), "{meta}");
        for block in blocks {
            assert!(
                meta.contains(&format!(r#""{block}":{{"#)),
                "{name}: {block}"
            );
        }
    }
    std::fs::remove_dir_all(&out).expect("the outputs were written");
}
