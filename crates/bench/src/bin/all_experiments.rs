#![forbid(unsafe_code)]
//! Run every table and figure of the paper in sequence, each as its own
//! binary in a child process given this run's arguments, so each builds
//! its own fleet or census from the same options.
//!
//! This is the one-shot reproduction driver behind EXPERIMENTS.md; each
//! artifact is also available as its own binary for focused runs. A child
//! that fails or cannot launch does not stop the others, but the run then
//! exits with status 1.

use std::process::Command;
use wefr_bench::{print_header, RunOptions};

const BINARIES: [&str; 9] = [
    "table1_attributes",
    "table2_summary",
    "figure1_survival",
    "table3_importance",
    "table4_rankings",
    "table5_wearout_rankings",
    "exp1_effectiveness",
    "exp2_automated",
    "exp3_updating",
];

fn main() {
    let opts = RunOptions::from_args();
    print_header("WEFR reproduction: all tables and figures");
    eprintln!(
        "fleet: {} drives/model over {} days (seed {}); quick = {}",
        opts.drives_per_model, opts.days, opts.seed, opts.quick
    );

    // exp4 is last: it is timing-sensitive and benefits from a quiet machine.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failed = false;
    for bin in BINARIES.iter().chain(std::iter::once(&"exp4_runtime")) {
        eprintln!("\n>>> {bin}");
        let status = Command::new(
            std::env::current_exe()
                .expect("self path")
                .with_file_name(bin),
        )
        .args(&args)
        .status();
        match status {
            Ok(s) if s.success() => continue,
            Ok(s) => eprintln!("{bin} exited with {s}"),
            Err(e) => eprintln!(
                "failed to launch {bin}: {e} (build with `cargo build -p wefr-bench --bins`)"
            ),
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
