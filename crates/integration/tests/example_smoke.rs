//! Smoke test: the quickstart example runs end to end against the real
//! pipeline, exactly as `cargo run --example quickstart` would.

mod common;

#[test]
fn quickstart_example_runs() {
    let output = common::run_quickstart(&[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("selected") && stdout.contains("fleet:"),
        "quickstart output missing expected sections:\n{stdout}"
    );
}
