#![forbid(unsafe_code)]
//! The WEFR workspace benchmark: one command, four workloads, every
//! metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark -- \
//!     --workload select|gen-pipeline|csv-matrix|serve-live \
//!     [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up [`SETUP_REPS`] times
//! (`setup_s` is the median; each build is dropped before the next), then
//! repeats the workload's unit of work — its *op* — for `--seconds`.
//! `op_s` is the median op time, and `peak_heap_mib` the most heap the
//! measured phase held at once, counted by the benchmark's allocator from
//! the end of set-up (so it includes the inputs the op reads, but no
//! set-up leftovers). Outputs are checked every round; a failed check sets
//! `"correct": false`, counts in `failed`, and makes the exit code 1. The
//! last line of standard output is the JSON result.
//!
//! With `--trace 1` the run prints the per-layer metrics instead (a layer
//! the workload never enters reads 0). They come from the program's own
//! telemetry spans where it records them — the stages of `Wefr::select`
//! and of the daemon's update cycle — and otherwise from stopwatches
//! around calls into the crates' public functions. `traced_op_s` against
//! the untraced run's `op_s` is the tracing overhead, and
//! `trace_coverage` is the share of the traced op the timed layers
//! account for.
//!
//! The program gets `available_parallelism()` worker threads wherever it
//! takes a count (generation, ingest, forest training); the benchmark's
//! own load uses at most two threads and one socket at a time. A set
//! `WEFR_*` environment variable aborts the run with exit code 2.
//!
//! # Workloads
//!
//! Sizes are chosen so that a different layer does most of the work in
//! each, and so that the cost of an op changes little from seed to seed.
//!
//! | workload | op | sizes | why |
//! |---|---|---|---|
//! | `select` | `Wefr::select` | 1,000 MC1 drives × 730 days (failures ×4) streamed into the base matrix, cut to 12,000 rows × 38 features, a fifth positive; the wear-out split fires, so 3 groups | The five rankers do almost all the work: no I/O, no generation. |
//! | `gen-pipeline` | `generated_base_matrix` → `Wefr::select` → `RandomForest::fit` | paper-mix census of 6,000 drives × 730 days streamed twice, select and a 50-tree forest on 10,000 MC1 rows; set-up runs the same at a tenth of the census | The only workload where generation and forest fitting carry weight. |
//! | `csv-matrix` | `streaming_base_matrix` | 500 MC1 drives × 730 days exported to an in-memory CSV of about 100 MiB; set-up also builds the reference matrix through `collect_samples` + `base_matrix` | Parser plus sample fold with no selection: the control for ranker changes. |
//! | `serve-live` | how long a re-selecting cycle keeps a `SCORE` waiting: per cycle, the longest latency, from due time, of the queries due while it held the daemon lock | 1,600 MC1 drives × 201 days (failures ×16, 3-day label horizon, any threshold move re-selects); set-up ingests the CSV and replays days 0–130; the live phase replays 7 days/s (one weekly cycle a second) while one client on one kept-open connection sends 100 `SCORE`/s, open loop | Writes (replay, re-selection) beside reads (queries) on one `Arc<Mutex<Daemon>>`. |
//!
//! The replay speed and the query rate are fixed probes, not deployment
//! figures: a real daemon re-selects once a week, so the share of queries
//! that meet a cycle (`serve.query_miss_ratio`, 40–50% here) and the
//! tail over the whole run follow from compressing time, while the stall
//! one cycle imposes does not. That stall is the end-to-end number.
//!
//! First measurements, seeds 1–10, 10 s runs, on 2 Intel Xeon vCPUs of a
//! shared host (median of the ten runs):
//!
//! | workload | `setup_s` | `op_s` | `peak_heap_mib` | where the op goes (`--trace 1`, seed 42) |
//! |---|---|---|---|---|
//! | `select` | 0.20 | 1.05 | 23 | rankers 1.27 s of 1.28; random forest 1.26 and boosting 0.79 of that, on the two workers |
//! | `gen-pipeline` | 0.27 | 2.24 | 29 | matrix 1.27 s (one generation pass alone 0.68), select 1.16, forest 0.06 |
//! | `csv-matrix` | 1.57 | 0.28 | 183 (about 100 of it the CSV) | reader 0.33 s of 0.35, sample fold 0.02 |
//! | `serve-live` | 5.2 | 0.60 | 147 | cycle 0.62 s under the lock: select 0.56, training 0.03; 47% of queries miss 100 ms |
//!
//! The host's speed drifts by 10–15% over minutes (up to 35% between two
//! runs of the same seed at worst), so the ten-seed spread of `op_s` was
//! 0.06–0.16 in a quiet hour and 0.08–0.23 in a busy one.
//!
//! [`SETUP_REPS`]: wefr_perfbench::SETUP_REPS

use std::process::ExitCode;

use wefr_perfbench::{run, wefr_env_var, Options, USAGE};

fn main() -> ExitCode {
    if let Some(name) = wefr_env_var() {
        eprintln!("error: {name} is set; the benchmark measures the program's defaults, unset it");
        return ExitCode::from(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args, cores) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}: cores {cores}, program workers {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.cores
    );
    let result = run(&opts).and_then(|measured| {
        for note in &measured.notes {
            println!("  {note}");
        }
        for problem in &measured.problems {
            println!("  FAILED CHECK: {problem}");
        }
        measured.outcome(opts.trace)
    });
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {} failed: {message}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("  {name} = {value} {unit}");
    }
    println!("{}", outcome.to_json_line());
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
