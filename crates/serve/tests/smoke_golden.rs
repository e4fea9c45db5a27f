//! Golden test for the daemon: `smart-serve --smoke` replays a fixed-seed
//! fleet, serves a scripted query session over its TCP listener and prints
//! the whole exchange (DESIGN.md §14). The transcript must equal
//! `results/serve_smoke.txt` byte for byte at every ingest worker count.
//!
//! Regenerate with:
//! `cargo run --release -p smart-serve -- --smoke > results/serve_smoke.txt`

use std::process::Command;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/serve_smoke.txt");

#[test]
fn smoke_transcript_matches_the_golden_at_one_and_four_workers() {
    let golden = std::fs::read(GOLDEN_PATH).expect("committed serve_smoke.txt");
    for workers in ["1", "4"] {
        let mut command = Command::new(env!("CARGO_BIN_EXE_smart-serve"));
        // Only the worker count may vary: the other WEFR_* knobs (the
        // predictor's split strategy among them) would change the session.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("WEFR_") {
                command.env_remove(key);
            }
        }
        let output = command
            .arg("--smoke")
            .env("WEFR_WORKERS", workers)
            .output()
            .expect("smart-serve launches");
        assert!(
            output.status.success(),
            "smart-serve --smoke exited with {:?} at WEFR_WORKERS={workers}\nstderr:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            output.stdout == golden,
            "results/serve_smoke.txt is stale or the transcript depends on the worker count \
             (WEFR_WORKERS={workers}); regenerate it with \
             cargo run --release -p smart-serve -- --smoke > results/serve_smoke.txt\n\
             got:\n{}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}
