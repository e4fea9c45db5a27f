//! Every experiment binary runs to completion on a small fleet: the table
//! and figure binaries and `exp4_runtime` through `all_experiments`, and
//! `ablation_quality` on its own. A 30-drive fleet is small enough that
//! MC1's survival curve is too short for change-point detection, which is
//! the case a binary must survive rather than panic on.

use std::path::{Path, PathBuf};
use std::process::Command;

const FLAGS: [&str; 7] = [
    "--quick", "--model", "mc1", "--drives", "30", "--census", "3000",
];

/// The reports `all_experiments`' children write under `--out`.
const REPORTS: [&str; 10] = [
    "table1_attributes",
    "table2_summary",
    "figure1_survival",
    "table3_importance",
    "table4_rankings",
    "table5_wearout_rankings",
    "exp1_effectiveness",
    "exp2_automated",
    "exp3_updating",
    "exp4_runtime",
];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wefr_smoke_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Run `binary` with the small-fleet flags plus `extra`, from `dir`, so a
/// stray relative write lands there and not in the workspace.
fn run(binary: &str, dir: &Path, extra: &[&Path]) -> std::process::Output {
    Command::new(binary)
        .args(FLAGS)
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("binary launches")
}

#[test]
fn every_experiment_binary_runs_on_a_small_fleet() {
    let dir = fresh_dir("all");
    let out = dir.join("out");
    let all = run(
        env!("CARGO_BIN_EXE_all_experiments"),
        &dir,
        &[Path::new("--out"), out.as_path()],
    );
    let ablation = run(env!("CARGO_BIN_EXE_ablation_quality"), &dir, &[]);
    let missing: Vec<&str> = REPORTS
        .into_iter()
        .filter(|name| !out.join(format!("{name}.json")).is_file())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        all.status.code(),
        Some(0),
        "all_experiments failed\nstderr:\n{}",
        String::from_utf8_lossy(&all.stderr)
    );
    assert!(missing.is_empty(), "reports not written: {missing:?}");
    assert_eq!(
        ablation.status.code(),
        Some(0),
        "ablation_quality failed\nstderr:\n{}",
        String::from_utf8_lossy(&ablation.stderr)
    );
}
