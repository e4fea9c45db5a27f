#![forbid(unsafe_code)]
//! Exp#4 / Table VIII — wall-clock runtime of the five selectors run
//! sequentially versus WEFR (which runs them in parallel and adds the
//! ensemble + automated-count stages), plus every other timing
//! EXPERIMENTS.md reports, all on the same MC1 data.
//!
//! The paper's claim under test is *relative*: WEFR's runtime tracks the
//! slowest single selector. Absolute times depend on this machine, and our
//! from-scratch selectors have different relative costs than the Python
//! stack the paper used (see EXPERIMENTS.md).
//!
//! All timings come from the telemetry span tree — the same spans the
//! production path records — so the bench reports the numbers a real run
//! would, including a per-stage breakdown of WEFR itself (`WEFR/rankers`,
//! `WEFR/ensemble`, …) instead of one opaque end-to-end figure. Each row is
//! the median over [`ROUNDS`] rounds of one span; a row whose call takes
//! well under a millisecond runs a fixed batch of calls inside its span and
//! divides, since span durations are whole microseconds.
//!
//! With `WEFR_OBS_ALLOC=1` and the `obs-alloc` feature, every row also
//! reports the median MiB allocated per call inside its spans, attributing
//! heap pressure to the same stages the wall-clock column times.

use smart_changepoint::binseg;
use smart_changepoint::bocpd::{change_probabilities, BocpdConfig};
use smart_changepoint::survival::SurvivalCurve;
use smart_dataset::csv::{export_smart_csv, import_smart_csv};
use smart_dataset::{import_smart_csv_sharded, tickets_from_summaries, DriveModel, IngestConfig};
use smart_pipeline::experiment::SelectorKind;
use smart_trees::{RandomForest, SplitStrategy};
use std::hint::black_box;
use wefr_bench::{characterization_matrix, print_header, RunOptions};
use wefr_core::rankers::forest::ForestRanker;
use wefr_core::wearout::SURVIVAL_MIN_BUCKET;
use wefr_core::{FeatureRanker, SelectionInput, Wefr, WefrConfig};

/// Timed rounds per row (after one warm-up call); odd, so the median is
/// one measured round. `--quick` runs [`QUICK_ROUNDS`].
const ROUNDS: usize = 9;
const QUICK_ROUNDS: usize = 3;

/// The WEFR stages broken out in the per-stage rows, in pipeline order.
const WEFR_STAGES: [&str; 5] = [
    "rankers",
    "ensemble",
    "threshold_scan",
    "change_point",
    "wearout_split",
];

struct RuntimeRow {
    method: String,
    median_seconds: f64,
    /// Calls per timed span; `median_seconds` is per call.
    batch: u32,
    /// Median MiB allocated per call inside the row's spans; 0.0 unless
    /// `WEFR_OBS_ALLOC=1` armed the counting allocator (obs-alloc feature).
    alloc_mib: f64,
}

json::impl_to_json!(RuntimeRow {
    method,
    median_seconds,
    batch,
    alloc_mib
});

/// The whole run: the host, the flags, the matrix shape and the rows.
struct Report {
    cores: usize,
    drives: u32,
    days: u32,
    seed: u64,
    quick: bool,
    samples: usize,
    features: usize,
    rounds: usize,
    rows: Vec<RuntimeRow>,
}

json::impl_to_json!(Report {
    cores,
    drives,
    days,
    seed,
    quick,
    samples,
    features,
    rounds,
    rows
});

/// Times rows on the telemetry span tree and collects them.
struct Stopwatch {
    rounds: usize,
    rows: Vec<RuntimeRow>,
}

impl Stopwatch {
    /// Call `call` once to warm up, then time `self.rounds` rounds, each a
    /// fresh span tree with one span `label` around `batch` calls. Pushes
    /// the row `label` and one `label/stage` row per span name in
    /// `stages` (a stage that runs several times per call, e.g. once per
    /// wear-out group, sums within its round), each the median over
    /// rounds divided by `batch`. Returns the `label` row's seconds.
    fn time<T>(
        &mut self,
        label: &str,
        batch: u32,
        stages: &[&str],
        mut call: impl FnMut() -> T,
    ) -> f64 {
        call();
        let names: Vec<&str> = std::iter::once(label)
            .chain(stages.iter().copied())
            .collect();
        let mut per_round = vec![(Vec::new(), Vec::new()); names.len()];
        for _ in 0..self.rounds {
            telemetry::reset();
            {
                let _round = telemetry::span!(label);
                for _ in 0..batch {
                    black_box(call());
                }
            }
            let report = telemetry::snapshot("exp4_runtime");
            for (name, (micros, bytes)) in names.iter().zip(&mut per_round) {
                let spans = report.spans_named(name);
                micros.push(spans.iter().map(|s| s.duration_us).sum::<u64>());
                bytes.push(spans.iter().map(|s| s.alloc_bytes).sum::<u64>());
            }
        }
        let first = self.rows.len();
        for (i, (name, (micros, bytes))) in names.iter().zip(per_round).enumerate() {
            let method = if i == 0 {
                label.to_string()
            } else {
                format!("{label}/{name}")
            };
            let median_seconds = median(micros) as f64 / 1e6 / f64::from(batch);
            let alloc_mib = median(bytes) as f64 / (1024.0 * 1024.0) / f64::from(batch);
            let per_call = if median_seconds >= 1e-3 {
                format!("{:.3} ms", median_seconds * 1e3)
            } else {
                format!("{:.3} µs", median_seconds * 1e6)
            };
            if telemetry::alloc::tracking_active() {
                println!("{method:<26} {per_call:>14} {alloc_mib:>10.1} MiB/call");
            } else {
                println!("{method:<26} {per_call:>14}");
            }
            self.rows.push(RuntimeRow {
                method,
                median_seconds,
                batch,
                alloc_mib,
            });
        }
        self.rows[first].median_seconds
    }
}

fn median(mut values: Vec<u64>) -> u64 {
    values.sort_unstable();
    values[values.len() / 2]
}

fn main() {
    let opts = RunOptions::from_args();
    let fleet = opts.fleet();
    // Record spans regardless of WEFR_LOG: the span tree is the stopwatch.
    telemetry::set_collect(true);
    // MC1 — the most numerous model, as in the paper.
    let (matrix, labels, mwi) = characterization_matrix(&fleet, DriveModel::Mc1, opts.seed);
    let survival =
        smart_pipeline::survival_pairs(&fleet, DriveModel::Mc1, fleet.config().days() - 1);
    let rounds = if opts.quick { QUICK_ROUNDS } else { ROUNDS };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    print_header("Exp#4 / Table VIII: selector runtimes on MC1");
    println!(
        "matrix: {} samples x {} features; median of {rounds} timing rounds; {cores} cores\n",
        matrix.n_rows(),
        matrix.n_features(),
    );
    let mut watch = Stopwatch {
        rounds,
        rows: Vec::new(),
    };

    let (mut slowest, mut permutation_seconds) = (0.0f64, 0.0);
    for kind in SelectorKind::ALL {
        let ranker = kind.build(opts.seed);
        // Pearson takes about half a millisecond per call at Exp#4 scale.
        let batch = if kind == SelectorKind::Pearson { 20 } else { 1 };
        let seconds = watch.time(kind.label(), batch, &[], || {
            ranker.rank(&matrix, &labels).expect("two-class data")
        });
        slowest = slowest.max(seconds);
        if kind == SelectorKind::RandomForest {
            permutation_seconds = seconds;
        }
    }

    let wefr = Wefr::new(WefrConfig { seed: opts.seed });
    let input = SelectionInput {
        data: &matrix,
        labels: &labels,
        mwi_per_sample: Some(&mwi),
        survival: Some(&survival),
    };
    // The per-stage rows read the same span tree the production path
    // records.
    let wefr_seconds = watch.time("WEFR", 1, &WEFR_STAGES, || {
        wefr.select(&input).expect("selection succeeds")
    });

    // Ablation: the Random Forest selector above ranks by permutation
    // importance; the same forest ranked by impurity importance.
    let impurity = ForestRanker::with_impurity(opts.seed);
    let impurity_seconds = watch.time("rf_importance/impurity", 1, &[], || {
        impurity.rank(&matrix, &labels).expect("two-class data")
    });

    // Ablation: BOCPD against binary segmentation on MC1's smoothed
    // survival curve, built from the pairs WEFR's change-point stage reads.
    let rates =
        SurvivalCurve::from_drives(survival.iter().copied(), SURVIVAL_MIN_BUCKET).smoothed_rates();
    let bocpd = BocpdConfig::default();
    let bocpd_seconds = watch.time("changepoint/bocpd", 100, &[], || {
        change_probabilities(black_box(&rates), &bocpd)
            .expect("survival curve of at least 3 points")
    });
    let binseg_seconds = watch.time("changepoint/binseg", 10_000, &[], || {
        binseg::best_split(black_box(&rates), 4).expect("survival curve of at least 8 points")
    });

    // Paired prediction-model trainings: the same forest, once per split
    // engine. The histogram engine is the production default; the exact
    // engine is its reference (see DESIGN.md on binned training).
    let [exact_seconds, histogram_seconds] = [
        ("rf_train/exact", SplitStrategy::Exact),
        ("rf_train/histogram", SplitStrategy::Histogram),
    ]
    .map(|(label, strategy)| {
        let config = opts.rf_train_config(strategy);
        watch.time(label, 1, &[], || {
            RandomForest::fit(&matrix, &labels, &config).expect("two-class data")
        })
    });

    // Paired ingestion timings: the single-threaded CSV reader versus the
    // sharded streaming reader at its default worker count, on the same
    // in-memory export.
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut csv = Vec::new();
    export_smart_csv(&fleet, &mut csv).expect("in-memory export");
    let single_seconds = watch.time("ingest/single", 1, &[], || {
        import_smart_csv(csv.as_slice(), &tickets, fleet.config().clone()).expect("well-formed CSV")
    });
    let sharded_seconds = watch.time("ingest/sharded", 1, &[], || {
        import_smart_csv_sharded(
            csv.as_slice(),
            &tickets,
            fleet.config().clone(),
            &IngestConfig::default(),
        )
        .expect("well-formed CSV")
    });

    println!(
        "\nWEFR / slowest single selector = {:.2}x (paper: 22.9s / 20.4s = 1.12x; \
         parallel execution keeps WEFR near the slowest selector)",
        wefr_seconds / slowest
    );
    println!(
        "RF importance, permutation / impurity = {:.2}x",
        permutation_seconds / impurity_seconds
    );
    println!(
        "change point on {} points, BOCPD / binary segmentation = {:.0}x",
        rates.len(),
        bocpd_seconds / binseg_seconds
    );
    println!(
        "RF training, exact / histogram = {:.2}x",
        exact_seconds / histogram_seconds
    );
    println!(
        "CSV ingest, single / sharded = {:.2}x",
        single_seconds / sharded_seconds
    );
    opts.write_json(
        "exp4_runtime",
        &Report {
            cores,
            drives: opts.drives_per_model,
            days: opts.days,
            seed: opts.seed,
            quick: opts.quick,
            samples: matrix.n_rows(),
            features: matrix.n_features(),
            rounds,
            rows: watch.rows,
        },
    );
}
