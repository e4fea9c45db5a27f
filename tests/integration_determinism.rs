//! Cross-crate determinism: fixed seeds reproduce byte-identical fleets,
//! selections, and experiment metrics; different seeds do not.

use smart_dataset::csv::{export_smart_csv, import_smart_csv};
use smart_dataset::{
    import_smart_csv_sharded, tickets_from_summaries, Census, DriveModel, Fleet, FleetConfig,
    IngestConfig,
};
use smart_pipeline::experiment::{run_method, ExperimentConfig, Method};
use smart_pipeline::{base_matrix, collect_samples, streaming_base_matrix, SamplingConfig};
use smart_trees::{BoostingConfig, ForestConfig, GradientBoosting, RandomForest, SplitStrategy};
use wefr_core::rankers::default_rankers_with_strategy;
use wefr_core::{SelectionInput, Wefr};

fn config(seed: u64) -> FleetConfig {
    FleetConfig::builder()
        .days(365)
        .seed(seed)
        .drives(DriveModel::Mc1, 100)
        .failure_scale(8.0)
        .build()
        .expect("valid config")
}

#[test]
fn fleet_and_census_are_reproducible() {
    let a = Fleet::generate(&config(7));
    let b = Fleet::generate(&config(7));
    assert_eq!(a, b);
    let ca = Census::generate(&config(7));
    let cb = Census::generate(&config(7));
    assert_eq!(ca, cb);
    let c = Fleet::generate(&config(8));
    assert_ne!(a, c);
}

#[test]
fn selection_is_reproducible_across_runs() {
    let fleet = Fleet::generate(&config(9));
    let samples =
        collect_samples(&fleet, DriveModel::Mc1, 0, 364, &SamplingConfig::default()).unwrap();
    let (matrix, labels, _) = base_matrix(&fleet, DriveModel::Mc1, &samples).unwrap();
    let a = Wefr::default()
        .select(&SelectionInput::basic(&matrix, &labels))
        .unwrap();
    let b = Wefr::default()
        .select(&SelectionInput::basic(&matrix, &labels))
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn experiment_metrics_are_reproducible() {
    let fleet = Fleet::generate(&config(10));
    let exp_config = ExperimentConfig::quick(5);
    let a = run_method(&fleet, DriveModel::Mc1, Method::NoSelection, &exp_config).unwrap();
    let b = run_method(&fleet, DriveModel::Mc1, Method::NoSelection, &exp_config).unwrap();
    assert_eq!(a.overall, b.overall);
    assert_eq!(a.per_phase, b.per_phase);
}

#[test]
fn sharded_ingest_is_bit_identical_at_any_worker_count() {
    // The headline guarantee of the sharded reader: worker count and shard
    // size are performance knobs, never semantics. Every combination must
    // reproduce the single-threaded import byte for byte.
    let fleet = Fleet::generate(&config(7));
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut csv = Vec::new();
    export_smart_csv(&fleet, &mut csv).expect("export");
    let single =
        import_smart_csv(csv.as_slice(), &tickets, fleet.config().clone()).expect("import");
    for workers in [1, 2, 4, 8] {
        for shard_rows in [1, 100, 4_096, 1_000_000] {
            let ingest = IngestConfig {
                shard_rows,
                workers,
                ..IngestConfig::default()
            };
            let sharded =
                import_smart_csv_sharded(csv.as_slice(), &tickets, fleet.config().clone(), &ingest)
                    .expect("sharded import");
            assert_eq!(single, sharded, "workers={workers} shard_rows={shard_rows}");
        }
    }
}

#[test]
fn streamed_matrix_and_wefr_selection_match_the_materialised_path() {
    // End to end: streaming shard batches straight into a FeatureMatrix must
    // give WEFR exactly the inputs — and therefore exactly the selected
    // feature set — that the import-everything-then-collect path gives it.
    let fleet = Fleet::generate(&config(9));
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut csv = Vec::new();
    export_smart_csv(&fleet, &mut csv).expect("export");
    let imported =
        import_smart_csv(csv.as_slice(), &tickets, fleet.config().clone()).expect("import");
    let sampling = SamplingConfig::default();
    let samples = collect_samples(&imported, DriveModel::Mc1, 0, 364, &sampling).unwrap();
    let (matrix, labels, mwi) = base_matrix(&imported, DriveModel::Mc1, &samples).unwrap();

    for workers in [1, 4] {
        let ingest = IngestConfig {
            shard_rows: 500,
            workers,
            ..IngestConfig::default()
        };
        let streamed = streaming_base_matrix(
            csv.as_slice(),
            &tickets,
            DriveModel::Mc1,
            0,
            364,
            &sampling,
            &ingest,
        )
        .expect("streaming matrix");
        assert_eq!(streamed.labels, labels, "workers={workers}");
        assert_eq!(streamed.mwi, mwi, "workers={workers}");
        assert_eq!(
            streamed.matrix.feature_names(),
            matrix.feature_names(),
            "workers={workers}"
        );
        for f in 0..matrix.n_features() {
            assert_eq!(
                streamed.matrix.column(f),
                matrix.column(f),
                "workers={workers} feature {f}"
            );
        }

        let a = Wefr::default()
            .select(&SelectionInput::basic(&streamed.matrix, &streamed.labels))
            .unwrap();
        let b = Wefr::default()
            .select(&SelectionInput::basic(&matrix, &labels))
            .unwrap();
        assert_eq!(
            a.global.selected_names, b.global.selected_names,
            "workers={workers}"
        );
        assert!(!a.global.selected_names.is_empty());
    }
}

/// A small real-fleet training matrix for the split-strategy tests.
fn fleet_matrix() -> (smart_stats::FeatureMatrix, Vec<bool>) {
    let fleet = Fleet::generate(&config(11));
    let samples =
        collect_samples(&fleet, DriveModel::Mc1, 0, 364, &SamplingConfig::default()).unwrap();
    let (matrix, labels, _) = base_matrix(&fleet, DriveModel::Mc1, &samples).unwrap();
    (matrix, labels)
}

#[test]
fn forest_fit_is_bit_identical_across_worker_counts_both_strategies() {
    let (matrix, labels) = fleet_matrix();
    for strategy in [SplitStrategy::Exact, SplitStrategy::Histogram] {
        let fit = |threads: usize| {
            let config = ForestConfig {
                n_trees: 16,
                seed: 3,
                n_threads: Some(threads),
                strategy,
                ..ForestConfig::default()
            };
            RandomForest::fit(&matrix, &labels, &config).unwrap()
        };
        let one = fit(1);
        for threads in [2, 8] {
            let many = fit(threads);
            assert_eq!(one.trees(), many.trees(), "{strategy:?} x{threads}");
            assert_eq!(
                one.predict_proba(&matrix).unwrap(),
                many.predict_proba(&matrix).unwrap(),
                "{strategy:?} x{threads}"
            );
        }
    }
}

#[test]
fn gbt_fit_is_reproducible_both_strategies() {
    // BoostingConfig has no thread knob (rounds are sequential), so the
    // differential here is repeated fits: byte-identical stages and
    // probabilities, for each engine.
    let (matrix, labels) = fleet_matrix();
    for strategy in [SplitStrategy::Exact, SplitStrategy::Histogram] {
        let fit = || {
            let config = BoostingConfig {
                n_rounds: 10,
                seed: 3,
                strategy,
                ..BoostingConfig::default()
            };
            GradientBoosting::fit(&matrix, &labels, &config).unwrap()
        };
        let a = fit();
        let b = fit();
        assert_eq!(a, b, "{strategy:?}");
        assert_eq!(
            a.predict_proba(&matrix).unwrap(),
            b.predict_proba(&matrix).unwrap(),
            "{strategy:?}"
        );
    }
}

#[test]
fn wefr_ranking_matches_between_exact_and_histogram_on_fleet_data() {
    // Restricted to the columns that bin losslessly (≤ 255 distinct values
    // — most SMART counters; the continuous POH/MWI/temperature columns
    // quantize and may legitimately rank differently), the two engines must
    // produce the same aggregated ranking and selection.
    let (full, labels) = fleet_matrix();
    let binned = smart_trees::BinnedMatrix::from_matrix(&full).unwrap();
    let exact_cols: Vec<usize> = (0..full.n_features())
        .filter(|&f| binned.is_exact(f))
        .collect();
    assert!(exact_cols.len() >= 20, "probe: {} exact", exact_cols.len());
    let matrix = smart_stats::FeatureMatrix::from_columns(
        exact_cols
            .iter()
            .map(|&f| full.feature_names()[f].clone())
            .collect(),
        exact_cols
            .iter()
            .map(|&f| full.column(f).to_vec())
            .collect(),
    )
    .unwrap();
    // The Random-Forest ranker must agree ranking-for-ranking: 0/1 labels
    // make every split gain an exact integer ratio, so histogram trees are
    // bit-identical to exact trees here.
    let forest_rank = |strategy: SplitStrategy| {
        let mut ranker = wefr_core::rankers::ForestRanker::with_seed(13);
        ranker.config.strategy = strategy;
        wefr_core::FeatureRanker::rank(&ranker, &matrix, &labels).unwrap()
    };
    assert_eq!(
        forest_rank(SplitStrategy::Exact),
        forest_rank(SplitStrategy::Histogram)
    );

    // End to end, the aggregated WEFR selection must also agree. (The full
    // ensemble *order* may differ in its near-tied tail: the boosting
    // ranker trains on continuous residuals whose sums accumulate in a
    // different order per engine, which can swap essentially-tied noise
    // features — see DESIGN.md on binned training.)
    let select = |strategy: SplitStrategy| {
        let wefr = Wefr::with_rankers(default_rankers_with_strategy(13, strategy));
        wefr.select(&SelectionInput::basic(&matrix, &labels))
            .unwrap()
    };
    let exact = select(SplitStrategy::Exact);
    let hist = select(SplitStrategy::Histogram);
    assert_eq!(exact.global.selected_names, hist.global.selected_names);
    assert!(!exact.global.selected_names.is_empty());
}
