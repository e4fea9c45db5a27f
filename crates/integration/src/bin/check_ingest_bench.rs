#![forbid(unsafe_code)]
//! CI gate for the ingestion benchmark: parse a `BENCH_pr5.json` report
//! (written by `bench_ingest`) and require that the sharded reader at one
//! worker is not slower than the single-threaded reference — the shard
//! split/merge machinery must pay for itself before any parallelism.
//!
//! ```text
//! check_ingest_bench <BENCH_pr5.json>
//! ```
//!
//! The gate compares each row's `min_seconds`, the fastest of its timing
//! rounds, which a busy host inflates far less than the mean; a 10%
//! tolerance absorbs the remaining timer noise. The
//! multi-worker speedup is reported but not gated: it depends on the
//! machine's core count (recorded in the report), which CI cannot assume.
//!
//! Exits non-zero (with a reason on stderr) when the file is missing,
//! malformed, lacks a paired row, or shows the sharded reader losing.

use std::process::ExitCode;

/// Slowdown tolerated before the gate fails, as a ratio.
const TOLERANCE: f64 = 1.10;

fn min_of(rows: &[json::Value], method: &str, path: &str) -> Result<f64, String> {
    let row = rows
        .iter()
        .find(|r| r.field("method").and_then(json::Value::as_str) == Some(method))
        .ok_or_else(|| format!("row {method:?} missing from {path}"))?;
    row.field("min_seconds")
        .and_then(json::Value::as_f64)
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("row {method:?} in {path} has no positive min_seconds"))
}

fn run(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let rows = value
        .field("rows")
        .and_then(json::Value::as_array)
        .ok_or_else(|| format!("{path} has no \"rows\" array"))?;
    let single = min_of(rows, "ingest/single", path)?;
    let sharded_w1 = min_of(rows, "ingest/sharded_w1", path)?;
    let sharded_w4 = min_of(rows, "ingest/sharded_w4", path)?;
    if sharded_w1 > single * TOLERANCE {
        return Err(format!(
            "sharded ingest at 1 worker ({sharded_w1:.3}s) was SLOWER than the \
             single-threaded reader ({single:.3}s) beyond the {TOLERANCE:.2}x tolerance — \
             the shard machinery must not regress"
        ));
    }
    let cores = value
        .field("cores")
        .and_then(json::Value::as_f64)
        .unwrap_or(0.0);
    Ok(format!(
        "OK: ingest single {single:.3}s vs sharded_w1 {sharded_w1:.3}s ({:.2}x) \
         vs sharded_w4 {sharded_w4:.3}s ({:.2}x, {cores:.0} core(s))",
        single / sharded_w1,
        single / sharded_w4
    ))
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: check_ingest_bench <BENCH_pr5.json>");
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
