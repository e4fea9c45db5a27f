//! Helpers shared by the test files that launch the repo-root examples as
//! subprocesses.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The observability plane's knobs, scrubbed before every launch so the
/// ambient environment cannot switch any part of it on.
const OBS_VARS: [&str; 5] = [
    "WEFR_LOG",
    "WEFR_TELEMETRY_OUT",
    "WEFR_METRICS_ADDR",
    "WEFR_WATCHDOG_SECS",
    "WEFR_OBS_ALLOC",
];

/// Path of a compiled example. `cargo test` builds the package's example
/// targets before running its tests, so the binary sits in
/// `target/<profile>/examples/` beside this test's own `deps/` directory.
fn example_binary(name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("test executable path");
    path.pop(); // the test binary itself
    if path.ends_with("deps") {
        path.pop();
    }
    path.join("examples").join(name)
}

/// Run the quickstart example with every observability knob scrubbed and
/// then `extra` set; panics unless it exits successfully.
pub fn run_quickstart(extra: &[(&str, &str)]) -> Output {
    let binary = example_binary("quickstart");
    assert!(
        binary.exists(),
        "example binary missing at {} — was the quickstart example built?",
        binary.display()
    );
    let mut command = Command::new(&binary);
    for var in OBS_VARS {
        command.env_remove(var);
    }
    command.envs(extra.iter().copied());
    let output = command.output().expect("example launches");
    assert!(
        output.status.success(),
        "quickstart exited with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    output
}
