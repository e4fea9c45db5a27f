//! Runs the benchmark binary at smoke scale and holds its output to
//! `BENCHMARK.json`: every listed metric printed once per workload, with
//! its unit, in both the untraced and the traced run.

use std::path::Path;
use std::process::{Command, Output};

use wefr_perfbench::report::{Metric, Outcome, END_TO_END, PER_LAYER};
use wefr_perfbench::Workload;

fn benchmark(args: &[&str]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("WEFR_") {
            command.env_remove(key);
        }
    }
    command
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn manifest() -> json::Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of the manifest list `key`.
fn listed(manifest: &json::Value, key: &str) -> Vec<(String, String)> {
    manifest
        .field(key)
        .and_then(json::Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|entry| {
            let text = |k: &str| {
                entry
                    .field(k)
                    .and_then(json::Value::as_str)
                    .unwrap()
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn table(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn manifest_matches_the_binary() {
    let manifest = manifest();
    assert_eq!(listed(&manifest, "end_to_end"), table(&END_TO_END));
    assert_eq!(listed(&manifest, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = manifest
        .field("workloads")
        .and_then(json::Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.field("name").and_then(json::Value::as_str).unwrap())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let manifest = manifest();
    for workload in Workload::ALL {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = benchmark(&[
                "--workload",
                workload.name(),
                "--seed",
                "42",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&output.stdout);
            let context = format!(
                "{} --trace {trace}:\n{stdout}\n{}",
                workload.name(),
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(output.status.success(), "{context}");
            let last = stdout.lines().last().expect("some output");
            let outcome = Outcome::parse(last).unwrap_or_else(|e| panic!("{e}: {context}"));
            assert!(outcome.correct && outcome.failed == 0, "{context}");
            assert!(outcome.attempted >= 1);
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.clone(), unit.clone()))
                .collect();
            assert_eq!(printed, listed(&manifest, key), "{context}");
            if trace == "0" {
                assert!(
                    outcome.metrics.iter().all(|(_, v, _)| *v > 0.0),
                    "{context}"
                );
            }
        }
    }
}

#[test]
fn a_set_wefr_variable_aborts_the_run() {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "select", "--smoke"])
        .env("WEFR_SPLIT_STRATEGY", "exact")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("WEFR_SPLIT_STRATEGY"));
    assert!(output.stdout.is_empty());
}

#[test]
fn a_malformed_command_line_exits_2() {
    let output = benchmark(&["--workload", "nope"]);
    assert_eq!(output.status.code(), Some(2));
}
