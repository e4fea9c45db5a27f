//! Table VIII has one source: `exp4_runtime` writes it, the committed
//! `results/exp4_runtime.json` records one run of it, and EXPERIMENTS.md
//! quotes that run. The same schema check covers the committed report and
//! a fresh quick run, and the prose must state the committed ratio.

use std::process::Command;

/// The methods of Table VIII: the five selectors, then WEFR.
const SELECTORS: [&str; 5] = [
    "Pearson correlation",
    "Spearman correlation",
    "J-index",
    "Random Forest",
    "XGBoost",
];

/// The ablation timings EXPERIMENTS.md keeps beside Table VIII.
const ABLATIONS: [&str; 4] = [
    "rf_importance/impurity",
    "changepoint/bocpd",
    "changepoint/binseg",
    "WEFR/threshold_scan",
];

/// Check an `exp4_runtime` report and return its core count and its WEFR /
/// slowest-single-selector ratio.
fn check_report(text: &str) -> (u64, f64) {
    let report = json::parse(text).expect("valid JSON");
    let cores = report
        .field("cores")
        .and_then(json::Value::as_u64)
        .expect("a core count");
    assert!(cores >= 1, "core count {cores}");
    let rounds = report.field("rounds").and_then(json::Value::as_u64);
    assert!(
        rounds.is_some_and(|r| r % 2 == 1),
        "rounds {rounds:?} not odd"
    );
    let rows = report
        .field("rows")
        .and_then(json::Value::as_array)
        .expect("a rows array");
    for row in rows {
        let median = row.field("median_seconds").and_then(json::Value::as_f64);
        assert!(
            median.is_some_and(|m| m.is_finite() && m >= 0.0),
            "row {:?} has median {median:?}",
            row.field("method")
        );
    }
    let median = |method: &str| {
        let found: Vec<f64> = rows
            .iter()
            .filter(|row| row.field("method").and_then(json::Value::as_str) == Some(method))
            .filter_map(|row| row.field("median_seconds").and_then(json::Value::as_f64))
            .collect();
        assert_eq!(found.len(), 1, "{method:?} appears {} times", found.len());
        found[0]
    };
    for method in ABLATIONS {
        median(method);
    }
    let slowest = SELECTORS.map(median).into_iter().fold(0.0, f64::max);
    (cores, median("WEFR") / slowest)
}

#[test]
fn committed_report_matches_experiments_md() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text = std::fs::read_to_string(format!("{root}/results/exp4_runtime.json"))
        .expect("committed exp4_runtime.json");
    let (cores, ratio) = check_report(&text);
    let experiments =
        std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let section = experiments
        .split("\n## ")
        .find(|section| section.starts_with("Exp#4"))
        .expect("an Exp#4 section");
    for claim in [format!("{ratio:.2}×"), format!(" {cores} core")] {
        assert!(
            section.contains(&claim),
            "EXPERIMENTS.md's Exp#4 section does not state {claim:?} from the committed report"
        );
    }
}

#[test]
fn a_quick_run_writes_a_report_of_the_same_schema() {
    let dir = std::env::temp_dir().join(format!("wefr_exp4_report_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_exp4_runtime"))
        .args(["--quick", "--days", "240", "--model", "mc1", "--out"])
        .arg(&dir)
        .output()
        .expect("exp4_runtime launches");
    assert!(
        output.status.success(),
        "exp4_runtime failed\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(dir.join("exp4_runtime.json")).expect("a written report");
    let _ = std::fs::remove_dir_all(&dir);
    check_report(&text);
}
