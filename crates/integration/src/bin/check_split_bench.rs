#![forbid(unsafe_code)]
//! CI gate for the split-strategy timings: parse the row array
//! `exp4_runtime` writes and require that its `rf_train/histogram` row
//! (histogram-engine training) was not slower than its `rf_train/exact`
//! row (exact-engine training).
//!
//! ```text
//! check_split_bench <exp4_runtime.json>
//! ```
//!
//! Exits non-zero (with a reason on stderr) when the file is missing,
//! malformed, lacks either paired row, or shows the histogram engine
//! losing to the exact engine.

use std::process::ExitCode;

fn mean_of(rows: &[json::Value], method: &str, path: &str) -> Result<f64, String> {
    let row = rows
        .iter()
        .find(|r| r.field("method").and_then(json::Value::as_str) == Some(method))
        .ok_or_else(|| format!("row {method:?} missing from {path}"))?;
    row.field("mean_seconds")
        .and_then(json::Value::as_f64)
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("row {method:?} in {path} has no positive mean_seconds"))
}

fn run(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let rows = value
        .as_array()
        .ok_or_else(|| format!("{path} is not a row array"))?;
    let exact = mean_of(rows, "rf_train/exact", path)?;
    let hist = mean_of(rows, "rf_train/histogram", path)?;
    if hist > exact {
        return Err(format!(
            "histogram training ({hist:.3}s) was SLOWER than exact ({exact:.3}s) — \
             the binned engine must not regress"
        ));
    }
    Ok(format!(
        "OK: rf_train histogram {:.3}s vs exact {:.3}s ({:.2}x faster)",
        hist,
        exact,
        exact / hist
    ))
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: check_split_bench <exp4_runtime.json>");
        return ExitCode::FAILURE;
    };
    match run(&path) {
        Ok(message) => {
            println!("{message}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("ERROR: {message}");
            ExitCode::FAILURE
        }
    }
}
