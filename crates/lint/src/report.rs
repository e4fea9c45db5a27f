//! The JSON lint report, mirroring the telemetry run-report conventions:
//! `smart-json` serialization to `<out>/lint_<run>.json`, schema pinned by
//! a version string, and validated against the workspace's own run by
//! `tests/self_check.rs`.

use std::path::{Path, PathBuf};

use crate::engine::{LintOutcome, SuppressionRecord};
use crate::rules::{all_rules, Diagnostic};

/// Schema tag written into every report; bump on breaking changes.
pub const SCHEMA: &str = "wefr.lint.v1";

/// One rule as recorded in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleRecord {
    /// Stable rule id.
    pub id: String,
    /// One-line summary.
    pub summary: String,
    /// Whether the rule ran in this invocation (always true today; kept
    /// so a future config layer cannot silently shrink coverage without
    /// the report showing it).
    pub active: bool,
}

json::impl_json!(RuleRecord {
    id,
    summary,
    active
});

/// The exported result of one lint run.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Run label (becomes the `lint_<run>.json` file stem).
    pub run: String,
    /// Every rule the engine ran.
    pub rules: Vec<RuleRecord>,
    /// Number of source files scanned.
    pub files_scanned: u64,
    /// Surviving violations, ordered by (file, line, rule).
    pub violations: Vec<Diagnostic>,
    /// Suppressions that absorbed a diagnostic, with their reasons.
    pub suppressions: Vec<SuppressionRecord>,
}

json::impl_json!(LintReport {
    schema,
    run,
    rules,
    files_scanned,
    violations,
    suppressions
});

impl LintReport {
    /// Assemble a report from an engine outcome.
    pub fn from_outcome(run: &str, outcome: &LintOutcome) -> LintReport {
        LintReport {
            schema: SCHEMA.to_string(),
            run: run.to_string(),
            rules: all_rules()
                .iter()
                .map(|r| RuleRecord {
                    id: r.id.to_string(),
                    summary: r.summary.to_string(),
                    active: true,
                })
                .collect(),
            files_scanned: outcome.files_scanned as u64,
            violations: outcome.violations.clone(),
            suppressions: outcome.suppressions.clone(),
        }
    }

    /// Number of rules that actually ran.
    pub fn active_rules(&self) -> usize {
        self.rules.iter().filter(|r| r.active).count()
    }

    /// Check report invariants: schema tag, a non-empty rule set, files
    /// scanned, and a reason on every suppression.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!(
                "schema mismatch: expected {SCHEMA:?}, found {:?}",
                self.schema
            ));
        }
        if self.files_scanned == 0 {
            return Err("report scanned zero files — wrong --root?".to_string());
        }
        for s in &self.suppressions {
            if s.reason.trim().is_empty() {
                return Err(format!(
                    "suppression of {} at {}:{} has no reason",
                    s.rule, s.file, s.line
                ));
            }
        }
        Ok(())
    }
}

/// Reduce a run label to a safe file stem (the telemetry convention):
/// alphanumerics, `-`, `_`, `.` pass through; everything else becomes
/// `-`.
fn sanitize(run: &str) -> String {
    let cleaned: String = run
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "run".to_string()
    } else {
        cleaned
    }
}

/// Write `lint_<run>.json` under `dir` (created if needed). Returns the
/// written path.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn write_report(report: &LintReport, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("lint_{}.json", sanitize(&report.run)));
    let mut text = json::to_string_pretty(report);
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LintOutcome;

    #[test]
    fn report_round_trips_through_json() {
        let outcome = LintOutcome {
            violations: vec![Diagnostic {
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                rule: "panic-free".to_string(),
                message: "boom".to_string(),
            }],
            suppressions: vec![SuppressionRecord {
                file: "crates/x/src/lib.rs".to_string(),
                line: 9,
                rule: "side-effects".to_string(),
                reason: "deliberate knob".to_string(),
            }],
            files_scanned: 4,
        };
        let report = LintReport::from_outcome("test", &outcome);
        assert!(report.validate().is_ok());
        assert!(report.active_rules() >= 5);
        let text = json::to_string_pretty(&report);
        let back: LintReport = json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn validate_rejects_reasonless_suppressions() {
        let outcome = LintOutcome {
            violations: vec![],
            suppressions: vec![SuppressionRecord {
                file: "f.rs".to_string(),
                line: 1,
                rule: "panic-free".to_string(),
                reason: "  ".to_string(),
            }],
            files_scanned: 1,
        };
        let report = LintReport::from_outcome("test", &outcome);
        assert!(report.validate().is_err());
    }

    #[test]
    fn sanitize_matches_telemetry_convention() {
        assert_eq!(sanitize("workspace"), "workspace");
        assert_eq!(sanitize("ci run/1"), "ci-run-1");
        assert_eq!(sanitize(""), "run");
    }
}
