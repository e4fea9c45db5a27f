//! The workspace's three timing rules. A wall-clock ratio means something
//! only in an optimised build with nothing else running, so the tests are
//! `#[ignore]`d under plain `cargo test`; `scripts/ci.sh` runs them once,
//! in release, one at a time, after building the examples:
//!
//! ```text
//! cargo build --release --examples
//! cargo test --release -p smart-integration --test timing_gates -- --ignored --test-threads=1
//! ```
//!
//! Each test runs both sides once to warm up, then times [`PAIRS`] pairs,
//! alternating which side goes first so drift in machine load hits both
//! alike, and bounds the median of the per-pair ratios. One slow run on a
//! shared host moves that median far less than it moves a min or a mean.

mod common;

use std::cell::OnceCell;
use std::time::Instant;

use smart_dataset::csv::{export_smart_csv, import_smart_csv};
use smart_dataset::{import_smart_csv_sharded, tickets_from_summaries, DriveModel, IngestConfig};
use smart_trees::{ForestConfig, RandomForest, SplitStrategy};
use wefr_bench::{characterization_matrix, RunOptions};

/// Pairs timed per test. On a shared 2-vCPU host the per-pair on/off
/// ratio of quickstart spreads about ±6% around 1.01, so a median of 15
/// pairs crossed the 1.05 bound in 3 of 10 runs; 45 pairs held it in 10
/// of 10 and keep the whole file under a minute.
const PAIRS: usize = 45;

/// Warm both sides up once, time `PAIRS` pairs with alternating order, and
/// return the median of the per-pair ratios `candidate / reference`.
fn median_pair_ratio(label: &str, mut reference: impl FnMut(), mut candidate: impl FnMut()) -> f64 {
    reference();
    candidate();
    let time = |side: &mut dyn FnMut()| {
        let start = Instant::now();
        side();
        start.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let r = time(&mut reference);
                time(&mut candidate) / r
            } else {
                let c = time(&mut candidate);
                c / time(&mut reference)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[PAIRS / 2];
    println!(
        "{label}: median {median:.3} over {PAIRS} pairs (range {:.3}..{:.3})",
        ratios[0],
        ratios[PAIRS - 1]
    );
    median
}

/// The fleet of `exp4_runtime --quick --days 240 --model mc1`.
fn quick_mc1() -> RunOptions {
    let args = ["--quick", "--days", "240", "--model", "mc1"].map(String::from);
    RunOptions::parse(&args).expect("valid flags")
}

#[test]
#[ignore = "timing: run in release with --ignored --test-threads=1"]
fn histogram_forest_fit_is_not_slower_than_exact() {
    let opts = quick_mc1();
    let (matrix, labels, _) = characterization_matrix(&opts.fleet(), DriveModel::Mc1, opts.seed);
    let fit = |config: &ForestConfig| {
        RandomForest::fit(&matrix, &labels, config).expect("two-class data");
    };
    // The forest of exp4_runtime's paired `rf_train` rows.
    let (exact, histogram) = (
        opts.rf_train_config(SplitStrategy::Exact),
        opts.rf_train_config(SplitStrategy::Histogram),
    );
    let ratio = median_pair_ratio(
        "forest fit, histogram / exact",
        || fit(&exact),
        || fit(&histogram),
    );
    assert!(
        ratio <= 1.0,
        "histogram training took {ratio:.3}x the exact engine's time; the binned engine \
         must not be slower"
    );
}

#[test]
#[ignore = "timing: run in release with --ignored --test-threads=1"]
fn sharded_ingest_at_one_worker_keeps_pace_with_the_single_threaded_reader() {
    let fleet = quick_mc1().fleet();
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut csv = Vec::new();
    export_smart_csv(&fleet, &mut csv).expect("in-memory export");
    let single =
        || import_smart_csv(csv.as_slice(), &tickets, fleet.config().clone()).expect("valid CSV");
    let one_worker = IngestConfig {
        workers: 1,
        ..IngestConfig::default()
    };
    let sharded = || {
        import_smart_csv_sharded(
            csv.as_slice(),
            &tickets,
            fleet.config().clone(),
            &one_worker,
        )
        .expect("valid CSV")
    };
    assert!(
        sharded().drives() == single().drives(),
        "the sharded reader returned different drives from the single-threaded reader"
    );
    let ratio = median_pair_ratio(
        "CSV ingest, sharded at 1 worker / single-threaded",
        || drop(single()),
        || drop(sharded()),
    );
    assert!(
        ratio <= 1.10,
        "sharded ingest at 1 worker took {ratio:.3}x the single-threaded reader's time; the \
         shard machinery must pay for itself within 10%"
    );
}

#[test]
#[ignore = "timing: run in release with --ignored --test-threads=1"]
fn full_observability_plane_costs_at_most_five_percent_and_leaves_stdout_alone() {
    let out = std::env::temp_dir().join(format!("wefr_timing_obs_{}", std::process::id()));
    let out_dir = out.to_str().expect("UTF-8 temp dir");
    // Run report, live /metrics endpoint, watchdog and allocation counters.
    let plane = [
        ("WEFR_TELEMETRY_OUT", out_dir),
        ("WEFR_METRICS_ADDR", "127.0.0.1:0"),
        ("WEFR_WATCHDOG_SECS", "30"),
        ("WEFR_OBS_ALLOC", "1"),
    ];
    let first_stdout = OnceCell::new();
    let run = |extra: &[(&str, &str)]| {
        let stdout = common::run_quickstart(extra).stdout;
        assert!(
            stdout == *first_stdout.get_or_init(|| stdout.clone()),
            "quickstart stdout changed between runs (plane on: {})",
            !extra.is_empty()
        );
    };
    let ratio = median_pair_ratio(
        "quickstart, observability plane on / off",
        || run(&[]),
        || run(&plane),
    );
    let _ = std::fs::remove_dir_all(&out);
    assert!(
        ratio <= 1.05,
        "the full observability plane cost {ratio:.3}x wall-clock, over the 1.05x budget"
    );
}
