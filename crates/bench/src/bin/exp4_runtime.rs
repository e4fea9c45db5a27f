#![forbid(unsafe_code)]
//! Exp#4 / Table VIII — wall-clock runtime of the five selectors run
//! sequentially versus WEFR (which runs them in parallel and adds the
//! ensemble + automated-count stages).
//!
//! The paper's claim under test is *relative*: WEFR's runtime tracks the
//! slowest single selector. Absolute times depend on this machine, and our
//! from-scratch selectors have different relative costs than the Python
//! stack the paper used (see EXPERIMENTS.md).
//!
//! All timings come from the telemetry span tree — the same spans the
//! production path records — so the bench reports the numbers a real run
//! would, including a per-stage breakdown of WEFR itself (`WEFR/rankers`,
//! `WEFR/ensemble`, …) instead of one opaque end-to-end figure.
//!
//! With `WEFR_OBS_ALLOC=1` and the `obs-alloc` feature, every row also
//! reports the mean MiB allocated per round inside its spans, attributing
//! heap pressure to the same stages the wall-clock column times.

use smart_dataset::csv::{export_smart_csv, import_smart_csv};
use smart_dataset::{import_smart_csv_sharded, tickets_from_summaries, DriveModel, IngestConfig};
use smart_pipeline::experiment::SelectorKind;
use smart_trees::{ForestConfig, MaxFeatures, RandomForest, SplitStrategy, TreeConfig};
use wefr_bench::{characterization_matrix, print_header, RunOptions};
use wefr_core::{SelectionInput, Wefr, WefrConfig};

struct RuntimeRow {
    method: String,
    mean_seconds: f64,
    rounds: usize,
    /// Mean MiB allocated per round inside the method's spans; 0.0 unless
    /// `WEFR_OBS_ALLOC=1` armed the counting allocator (obs-alloc feature).
    alloc_mib: f64,
}

json::impl_to_json!(RuntimeRow {
    method,
    mean_seconds,
    rounds,
    alloc_mib
});

/// Mean MiB allocated per round across every span named `name`. Spans carry
/// per-thread allocation deltas, so fan-out stages sum their workers.
fn mean_alloc_mib(report: &telemetry::RunReport, name: &str, rounds: usize) -> f64 {
    let bytes: u64 = report
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.alloc_bytes)
        .sum();
    bytes as f64 / (rounds as f64 * 1024.0 * 1024.0)
}

/// Print one timing row; the allocation column appears only when the
/// counting allocator is armed, so default stdout is unchanged.
fn print_row(label: &str, mean: f64, alloc_mib: f64) {
    if telemetry::alloc::tracking_active() {
        println!("{label:<22} {mean:>9.3} s {alloc_mib:>10.1} MiB/round");
    } else {
        println!("{label:<22} {mean:>9.3} s");
    }
}

/// The WEFR stages broken out in the per-stage rows, in pipeline order.
const WEFR_STAGES: [&str; 5] = [
    "rankers",
    "ensemble",
    "threshold_scan",
    "change_point",
    "wearout_split",
];

fn main() {
    let opts = RunOptions::from_args();
    let fleet = opts.fleet();
    // Record spans regardless of WEFR_LOG: the span tree is the stopwatch.
    telemetry::set_collect(true);
    // MC1 — the most numerous model, as in the paper.
    let (matrix, labels, mwi) = characterization_matrix(&fleet, DriveModel::Mc1, opts.seed);
    let survival =
        smart_pipeline::survival_pairs(&fleet, DriveModel::Mc1, fleet.config().days() - 1);
    // The paper averages 20 rounds on a 16-core server; a handful of rounds
    // is all a single-core box can afford, and the relative shape is stable.
    let rounds = if opts.quick { 2 } else { 3 };

    print_header("Exp#4 / Table VIII: selector runtimes on MC1");
    println!(
        "matrix: {} samples x {} features; {} timing rounds\n",
        matrix.n_rows(),
        matrix.n_features(),
        rounds
    );

    let mut rows = Vec::new();
    let mut slowest = 0.0f64;
    for kind in SelectorKind::ALL {
        let ranker = kind.build(opts.seed);
        // One warm-up round outside the measured span set.
        ranker.rank(&matrix, &labels).expect("two-class data");
        telemetry::reset();
        for _ in 0..rounds {
            let _round = telemetry::span!(kind.label());
            ranker.rank(&matrix, &labels).expect("two-class data");
        }
        let report = telemetry::snapshot("exp4_selector");
        let mean = report.total_seconds(kind.label()) / rounds as f64;
        let alloc_mib = mean_alloc_mib(&report, kind.label(), rounds);
        slowest = slowest.max(mean);
        print_row(kind.label(), mean, alloc_mib);
        rows.push(RuntimeRow {
            method: kind.label().to_string(),
            mean_seconds: mean,
            rounds,
            alloc_mib,
        });
    }

    let wefr = Wefr::new(WefrConfig {
        seed: opts.seed,
        ..WefrConfig::default()
    });
    let input = SelectionInput {
        data: &matrix,
        labels: &labels,
        mwi_per_sample: Some(&mwi),
        survival: Some(&survival),
    };
    wefr.select(&input).expect("selection succeeds"); // warm-up
    telemetry::reset();
    for _ in 0..rounds {
        wefr.select(&input).expect("selection succeeds");
    }
    let report = telemetry::snapshot("exp4_wefr");
    let wefr_mean = report.total_seconds("select") / rounds as f64;
    print_row("WEFR", wefr_mean, mean_alloc_mib(&report, "select", rounds));
    rows.push(RuntimeRow {
        method: "WEFR".to_string(),
        mean_seconds: wefr_mean,
        rounds,
        alloc_mib: mean_alloc_mib(&report, "select", rounds),
    });

    // Per-stage breakdown from the same span tree the production path
    // records (a stage spanning several groups — e.g. rankers for the
    // global, low, and high selections — sums across them).
    for stage in WEFR_STAGES {
        let mean = report.total_seconds(stage) / rounds as f64;
        let alloc_mib = mean_alloc_mib(&report, stage, rounds);
        print_row(&format!("WEFR/{stage}"), mean, alloc_mib);
        rows.push(RuntimeRow {
            method: format!("WEFR/{stage}"),
            mean_seconds: mean,
            rounds,
            alloc_mib,
        });
    }

    // Paired prediction-model trainings: the same forest, once per split
    // engine. The histogram engine is the production default; the exact
    // engine is its reference (see DESIGN.md on binned training).
    let forest_config = |strategy: SplitStrategy| ForestConfig {
        n_trees: if opts.quick { 20 } else { 50 },
        tree: TreeConfig {
            max_depth: 13,
            min_samples_leaf: 2,
            max_features: MaxFeatures::Sqrt,
            ..TreeConfig::default()
        },
        seed: opts.seed,
        n_threads: None,
        strategy,
    };
    let mut rf_means = [0.0f64; 2];
    for (slot, (label, strategy)) in [
        ("rf_train/exact", SplitStrategy::Exact),
        ("rf_train/histogram", SplitStrategy::Histogram),
    ]
    .into_iter()
    .enumerate()
    {
        let config = forest_config(strategy);
        RandomForest::fit(&matrix, &labels, &config).expect("two-class data"); // warm-up
        telemetry::reset();
        for _ in 0..rounds {
            let _round = telemetry::span!(label);
            RandomForest::fit(&matrix, &labels, &config).expect("two-class data");
        }
        let report = telemetry::snapshot("exp4_rf_train");
        let mean = report.total_seconds(label) / rounds as f64;
        let alloc_mib = mean_alloc_mib(&report, label, rounds);
        rf_means[slot] = mean;
        print_row(label, mean, alloc_mib);
        rows.push(RuntimeRow {
            method: label.to_string(),
            mean_seconds: mean,
            rounds,
            alloc_mib,
        });
    }

    // Paired ingestion timings: the single-threaded CSV reader versus the
    // sharded streaming reader at its default worker count, on the same
    // in-memory export (these rows put ingestion on the same Table VIII
    // footing as the selectors).
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut csv_buf = Vec::new();
    export_smart_csv(&fleet, &mut csv_buf).expect("in-memory export");
    let ingest_config = IngestConfig::default();
    let mut ingest_means = [0.0f64; 2];
    enum Reader {
        Single,
        Sharded,
    }
    for (slot, (label, reader)) in [
        ("ingest/single", Reader::Single),
        ("ingest/sharded", Reader::Sharded),
    ]
    .into_iter()
    .enumerate()
    {
        let run = || match reader {
            Reader::Single => {
                import_smart_csv(csv_buf.as_slice(), &tickets, fleet.config().clone())
            }
            Reader::Sharded => import_smart_csv_sharded(
                csv_buf.as_slice(),
                &tickets,
                fleet.config().clone(),
                &ingest_config,
            ),
        };
        run().expect("well-formed CSV"); // warm-up
        telemetry::reset();
        for _ in 0..rounds {
            let _round = telemetry::span!(label);
            run().expect("well-formed CSV");
        }
        let report = telemetry::snapshot("exp4_ingest");
        let mean = report.total_seconds(label) / rounds as f64;
        let alloc_mib = mean_alloc_mib(&report, label, rounds);
        ingest_means[slot] = mean;
        print_row(label, mean, alloc_mib);
        rows.push(RuntimeRow {
            method: label.to_string(),
            mean_seconds: mean,
            rounds,
            alloc_mib,
        });
    }

    println!(
        "\nWEFR / slowest single selector = {:.2}x (paper: 22.9s / 20.4s = 1.12x; \
         parallel execution keeps WEFR near the slowest selector)",
        wefr_mean / slowest
    );
    println!(
        "RF training, exact / histogram = {:.2}x",
        rf_means[0] / rf_means[1]
    );
    println!(
        "CSV ingest, single / sharded = {:.2}x",
        ingest_means[0] / ingest_means[1]
    );
    opts.write_json("exp4_runtime", &rows);
}
