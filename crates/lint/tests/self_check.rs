//! Self-check: the shipped workspace — smart-lint's own source included —
//! must be lint-clean, with every suppression carrying a written reason,
//! and the committed report must be what a fresh run writes.
//! Running under `cargo test` puts workspace cleanliness into tier-1.

use std::path::Path;

use lint::rules::{NET_ALLOWED_FILES, NET_TYPES};
use lint::{lint_workspace, write_report, LintReport, SourceFile, TargetKind};

fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root");
    assert!(
        root.join("crates").is_dir(),
        "expected a crates/ directory under {}",
        root.display()
    );
    root
}

#[test]
fn workspace_is_lint_clean() {
    let outcome = lint_workspace(workspace_root()).expect("workspace lints");
    let rendered: Vec<String> = outcome
        .violations
        .iter()
        .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message))
        .collect();
    assert!(
        rendered.is_empty(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
    assert!(
        outcome.files_scanned > 50,
        "suspiciously few files scanned: {}",
        outcome.files_scanned
    );
}

#[test]
fn every_suppression_has_a_reason() {
    let outcome = lint_workspace(workspace_root()).expect("workspace lints");
    for s in &outcome.suppressions {
        assert!(
            !s.reason.trim().is_empty(),
            "suppression of {} at {}:{} lacks a reason",
            s.rule,
            s.file,
            s.line
        );
    }
}

#[test]
fn report_from_workspace_run_validates() {
    let outcome = lint_workspace(workspace_root()).expect("workspace lints");
    let report = LintReport::from_outcome("self-check", &outcome);
    report.validate().expect("report invariants");
    assert!(report.active_rules() >= 5, "rule set shrank unexpectedly");
    // The concurrency rules behind the model checker (DESIGN.md §13): the
    // smart-sync shim's coverage, condvar predicate loops, and reasoned
    // memory orderings.
    for required in ["sync-hygiene", "condvar-loop", "atomic-ordering"] {
        assert!(
            report.rules.iter().any(|r| r.id == required && r.active),
            "concurrency rule {required:?} is no longer active"
        );
    }
}

#[test]
fn committed_report_is_byte_identical_to_a_fresh_run() {
    let outcome = lint_workspace(workspace_root()).expect("workspace lints");
    let report = LintReport::from_outcome("workspace", &outcome);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_self_check");
    let fresh = write_report(&report, &dir).expect("fresh report written");
    let committed = workspace_root().join("results/lint_workspace.json");
    assert!(
        std::fs::read(&fresh).expect("fresh report")
            == std::fs::read(&committed).expect("committed report"),
        "results/lint_workspace.json is stale: regenerate it with \
         `cargo run --release --offline -p smart-lint -- --deny-warnings` from the workspace root"
    );
}

#[test]
fn every_socket_allowlisted_file_exists_and_names_a_socket_type() {
    for path in NET_ALLOWED_FILES {
        let source = std::fs::read_to_string(workspace_root().join(path))
            .unwrap_or_else(|e| panic!("allowlisted {path} is unreadable: {e}"));
        let file = SourceFile::parse(path, "", TargetKind::Lib, false, &source);
        assert!(
            file.code
                .iter()
                .any(|t| NET_TYPES.contains(&t.text.as_str()) && !file.in_test(t.line)),
            "allowlisted {path} names none of {NET_TYPES:?} outside test code; drop it from \
             NET_ALLOWED_FILES"
        );
    }
}
