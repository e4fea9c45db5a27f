//! End-to-end telemetry contract for the quickstart example, run as a real
//! subprocess the way a user would launch it:
//!
//! * with telemetry enabled, stage-level span lines appear on stderr and a
//!   `telemetry_quickstart.json` run report lands in `WEFR_TELEMETRY_OUT`,
//!   parses through `smart-json`, and contains every instrumented stage;
//! * with the whole observability plane on (logger, run report, /metrics
//!   endpoint, watchdog, allocation counters), stdout is bit-identical to a
//!   run with every knob off, and the off run is silent and writes no
//!   report — observability must never perturb the results.

mod common;

use std::path::PathBuf;

use common::run_quickstart;
use telemetry::RunReport;

/// The pipeline stages the run report must contain (DESIGN.md §6).
const REQUIRED_STAGES: [&str; 6] = [
    "rankers",
    "ensemble",
    "threshold_scan",
    "change_point",
    "wearout_split",
    "evaluate",
];

fn temp_out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wefr_telemetry_report_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn quickstart_writes_a_complete_run_report_and_logs_spans() {
    let dir = temp_out_dir("on");
    let output = run_quickstart(&[
        ("WEFR_LOG", "info"),
        ("WEFR_TELEMETRY_OUT", dir.to_str().unwrap()),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    for stage in REQUIRED_STAGES {
        assert!(
            stderr.contains(&format!("span {stage}")),
            "no `span {stage}` line on stderr at WEFR_LOG=info:\n{stderr}"
        );
    }

    let path = dir.join("telemetry_quickstart.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}\nstderr:\n{stderr}", path.display()));
    let report: RunReport = json::from_str(&text).expect("report parses through smart-json");
    report.validate_tree().expect("consistent span tree");
    assert_eq!(report.run, "quickstart");
    let stages = report.stage_names();
    for stage in REQUIRED_STAGES {
        assert!(
            stages.contains(&stage),
            "stage {stage:?} missing from the run report (stages: {stages:?})"
        );
    }
    // One span per instrumented stage at minimum, and the fan-out parent
    // actually has children (the five per-ranker worker spans).
    assert!(report.spans.len() >= REQUIRED_STAGES.len());
    let rankers = report.spans_named("rankers");
    assert!(!rankers.is_empty());
    assert!(
        report.children_of(rankers[0].id).len() >= 2,
        "per-ranker child spans missing under the rankers fan-out"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_never_changes_stdout_or_writes_uninvited() {
    let dir = temp_out_dir("off");
    let baseline = run_quickstart(&[]);
    // The whole plane: stderr logger, run report, live endpoint, watchdog
    // and allocation counters (the last a no-op without obs-alloc).
    let traced = run_quickstart(&[
        ("WEFR_LOG", "debug"),
        ("WEFR_TELEMETRY_OUT", dir.to_str().unwrap()),
        ("WEFR_METRICS_ADDR", "127.0.0.1:0"),
        ("WEFR_WATCHDOG_SECS", "30"),
        ("WEFR_OBS_ALLOC", "1"),
    ]);
    assert_eq!(
        String::from_utf8_lossy(&baseline.stdout),
        String::from_utf8_lossy(&traced.stdout),
        "stdout must be bit-identical with the observability plane on and off"
    );
    // Baseline had telemetry off entirely: stderr silent, no report file.
    assert!(
        baseline.stderr.is_empty(),
        "expected silent stderr with WEFR_LOG unset, got:\n{}",
        String::from_utf8_lossy(&baseline.stderr)
    );
    assert!(
        dir.join("telemetry_quickstart.json").exists(),
        "traced run should have written its report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
