//! Streaming generation (DESIGN.md §12). The chunked generator is
//! bit-identical to the materialized `Fleet::generate` — records, tickets,
//! and the WEFR selected set — at every chunk-size/worker setting,
//! mirroring the ingest determinism matrix; the scenario post-pass applied
//! per batch inside the workers matches the whole-fleet post-pass, and so
//! does the base matrix streamed from it, NaN cells included; and its
//! bounded window stays well under the fleet it never materializes, both
//! at test scale and in the committed 500K-drive report.

use smart_dataset::gen::stream::{generate_fleet_streamed, stream_fleet_batches, GenConfig};
use smart_dataset::{
    apply_scenario, mixed_vendor_config, tickets_from_summaries, DatasetError, DriveModel,
    FirmwareRollout, Fleet, FleetConfig, MissingCoverage, ReplacementChurn, ScenarioConfig,
    SmartAttribute, Vendor,
};
use smart_pipeline::{base_matrix, collect_samples, generated_base_matrix, SamplingConfig};
use wefr_core::{SelectionInput, Wefr, WefrConfig};

const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn parity_config() -> FleetConfig {
    FleetConfig::builder()
        .days(365)
        .seed(11)
        .drives(DriveModel::Mc1, 60)
        .failure_scale(8.0)
        .build()
        .expect("valid config")
}

fn gen_config(chunk_drives: usize, workers: usize) -> GenConfig {
    GenConfig {
        chunk_drives,
        workers,
        max_queued_chunks: 2,
        scenario: None,
    }
}

#[test]
fn streamed_records_and_tickets_match_materialized_at_every_setting() {
    let config = parity_config();
    let reference = Fleet::generate(&config);
    let reference_tickets = tickets_from_summaries(&reference.summaries());
    for workers in WORKER_MATRIX {
        for chunk_drives in [1, 7, 64, 10_000] {
            let streamed = generate_fleet_streamed(&config, &gen_config(chunk_drives, workers))
                .expect("streamed generation");
            assert_eq!(
                streamed.drives(),
                reference.drives(),
                "workers={workers} chunk_drives={chunk_drives}"
            );
            assert_eq!(
                tickets_from_summaries(&streamed.summaries()),
                reference_tickets,
                "workers={workers} chunk_drives={chunk_drives}"
            );
        }
    }
}

#[test]
fn wefr_selected_set_is_identical_from_streamed_and_materialized_sources() {
    let config = parity_config();
    let sampling = SamplingConfig::default();
    let fleet = Fleet::generate(&config);
    let samples = collect_samples(&fleet, DriveModel::Mc1, 0, 364, &sampling).expect("samples");
    let (matrix, labels, mwi) =
        base_matrix(&fleet, DriveModel::Mc1, &samples).expect("base matrix");
    assert!(
        labels.contains(&true),
        "degenerate run: no positive samples"
    );
    let wefr = Wefr::new(WefrConfig { seed: 13 });
    let reference = wefr
        .select(&SelectionInput::basic(&matrix, &labels))
        .expect("materialized selection");
    assert!(
        !reference.global.selected.is_empty(),
        "degenerate run: WEFR selected no features"
    );

    for workers in WORKER_MATRIX {
        let generated = generated_base_matrix(
            &config,
            &gen_config(16, workers),
            DriveModel::Mc1,
            0,
            364,
            &sampling,
        )
        .expect("generated matrix");
        // The inputs are bit-identical...
        assert_eq!(generated.labels, labels, "workers={workers}");
        assert_eq!(generated.mwi, mwi, "workers={workers}");
        for name in matrix.feature_names() {
            let a = matrix.column_index(name).expect("reference column");
            let b = generated
                .matrix
                .column_index(name)
                .expect("generated column");
            assert_eq!(matrix.column(a), generated.matrix.column(b), "{name}");
        }
        // ...and so is the selection computed from them.
        let selection = wefr
            .select(&SelectionInput::basic(&generated.matrix, &generated.labels))
            .expect("streamed selection");
        assert_eq!(
            selection.global.selected, reference.global.selected,
            "workers={workers}"
        );
        assert_eq!(
            selection.global.selected_names,
            reference.global.selected_names
        );
    }
}

#[test]
fn per_batch_scenario_matches_whole_fleet_post_pass_at_every_setting() {
    let config = mixed_vendor_config(150, 3).expect("valid config");
    let scenario = ScenarioConfig {
        seed: 9,
        firmware: Some(FirmwareRollout {
            day: 60,
            model: DriveModel::Mc1,
            attr: SmartAttribute::Rsc,
            raw_scale: 512.0,
            invert_norm: true,
        }),
        missing: Some(MissingCoverage {
            vendor: Vendor::Ma,
            attr: SmartAttribute::Uce,
            batch_fraction: 0.5,
        }),
        churn: Some(ReplacementChurn {
            day: 75,
            fraction: 0.3,
        }),
    };
    let reference =
        apply_scenario(&Fleet::generate(&config), &scenario).expect("whole-fleet post-pass");
    // NaN cells (missing coverage) defeat PartialEq; CSV export, where NaN
    // prints stably, is the byte-faithful comparison.
    let csv = |f: &Fleet| {
        let mut buf = Vec::new();
        smart_dataset::csv::export_smart_csv(f, &mut buf).expect("export");
        String::from_utf8(buf).expect("utf8")
    };
    let reference_csv = csv(&reference);
    // The MA1 base matrix over the scenario fleet carries the blanked UCE
    // cells as NaN; the streamed matrix must carry them bit for bit. No
    // downsampling, so a window without an MA1 failure keeps its rows.
    // MC1 (ids 22–41, after MA1's and MB2's, whose churn victims take
    // replacement ids first) downsamples, so its label pass streams MC1
    // alone under the scenario and must still pick the whole-fleet rows.
    let last_day = config.days() - 1;
    let no_downsampling = SamplingConfig {
        downsample_ratio: None,
        ..SamplingConfig::default()
    };
    let cases = [
        (DriveModel::Ma1, no_downsampling),
        (DriveModel::Mc1, SamplingConfig::default()),
    ];
    let references = cases.map(|(model, sampling)| {
        let samples =
            collect_samples(&reference, model, 0, last_day, &sampling).expect("reference samples");
        base_matrix(&reference, model, &samples).expect("reference matrix")
    });
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let (ma1_matrix, _, _) = &references[0];
    assert!(
        (0..ma1_matrix.n_features()).any(|c| ma1_matrix.column(c).iter().any(|v| v.is_nan())),
        "the MA1 reference matrix has no NaN cell to compare"
    );
    let (_, mc1_labels, _) = &references[1];
    assert!(
        mc1_labels.contains(&true),
        "the MC1 reference has no positive sample to downsample around"
    );
    for workers in WORKER_MATRIX {
        for chunk_drives in [3, 17, 10_000] {
            let gen = GenConfig {
                scenario: Some(scenario),
                ..gen_config(chunk_drives, workers)
            };
            let streamed = generate_fleet_streamed(&config, &gen).expect("streamed generation");
            assert_eq!(
                csv(&streamed),
                reference_csv,
                "workers={workers} chunk_drives={chunk_drives}"
            );
            assert_eq!(streamed.summaries(), reference.summaries());

            for ((model, sampling), (matrix, labels, mwi)) in cases.iter().zip(&references) {
                let generated = generated_base_matrix(&config, &gen, *model, 0, last_day, sampling)
                    .expect("streamed matrix");
                let tag = format!("{model} workers={workers} chunk_drives={chunk_drives}");
                assert_eq!(&generated.labels, labels, "{tag}");
                assert_eq!(bits(&generated.mwi), bits(mwi), "{tag}");
                assert_eq!(generated.matrix.feature_names(), matrix.feature_names());
                for c in 0..matrix.n_features() {
                    assert_eq!(
                        bits(generated.matrix.column(c)),
                        bits(matrix.column(c)),
                        "{tag} column {}",
                        matrix.feature_names()[c]
                    );
                }
            }
        }
    }
}

/// Bytes resident at once in the pipeline are bounded by the largest batch
/// times the batches in flight, `workers + max_queued_chunks + 1`; that
/// window must stay at least 2x under the materialized fleet. The worker
/// count is pinned: the window grows with it while the fleet's 32 chunks
/// do not, so a count taken from the host would put the ratio below 2 on
/// machines with 5 or more cores.
#[test]
fn bounded_window_is_at_least_twice_smaller_than_the_materialized_fleet() {
    let config = FleetConfig::proportional(2000, 42).expect("valid census config");
    let gen = GenConfig {
        chunk_drives: 64,
        workers: 2,
        max_queued_chunks: 8,
        scenario: None,
    };
    let stats = stream_fleet_batches::<DatasetError, _>(&config, &gen, |_| Ok(())).expect("stream");
    let window = stats.peak_batch_bytes * (gen.workers + gen.max_queued_chunks + 1) as u64;
    let ratio = stats.value_bytes as f64 / window as f64;
    assert!(
        ratio >= 2.0,
        "bounded window {window} B is only {ratio:.2}x under the fleet's {} B",
        stats.value_bytes
    );
}

/// The committed paper-scale evidence, written by
/// `bench_gen_stream --census 500000` with allocation tracking on, must
/// back the bounded-memory claim with its own numbers.
#[test]
fn committed_paper_scale_report_backs_the_bounded_memory_claim() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_pr8.json"
    ))
    .expect("committed BENCH_pr8.json");
    let report = json::parse(&text).expect("valid JSON");
    let num = |value: &json::Value, key: &str| {
        value
            .field(key)
            .and_then(json::Value::as_f64)
            .unwrap_or_else(|| panic!("no number {key:?}"))
    };
    let array = |key: &str| {
        report
            .field(key)
            .and_then(json::Value::as_array)
            .unwrap_or_else(|| panic!("no array {key:?}"))
    };

    // 500,000 drives nominal; the population mix rounds per model.
    assert!(num(&report, "drives") >= 499_000.0);
    for key in ["rows", "samples", "positives"] {
        assert!(num(&report, key) > 0.0, "degenerate run: {key} is 0");
    }
    assert!(!array("selected").is_empty(), "WEFR selected no features");
    let identity = array("identity");
    assert!(!identity.is_empty(), "empty bit-identity sweep");
    for cell in identity {
        assert_eq!(
            cell.field("identical").and_then(json::Value::as_bool),
            Some(true),
            "stream diverged from Fleet::generate at workers={} chunk_drives={}",
            num(cell, "workers"),
            num(cell, "chunk_drives")
        );
    }

    let window = num(&report, "bounded_window_bytes");
    let batches = num(&report, "workers") + num(&report, "max_queued_chunks") + 1.0;
    assert_eq!(window, num(&report, "peak_batch_bytes") * batches);
    let ratio = num(&report, "bounded_ratio");
    assert!((ratio - num(&report, "value_bytes") / window).abs() <= 1e-6 * ratio);
    assert!(ratio >= 10.0, "window only {ratio:.1}x under the fleet");

    assert_eq!(
        report.field("alloc_tracked").and_then(json::Value::as_bool),
        Some(true),
        "the memory claim needs allocation receipts (obs-alloc, WEFR_OBS_ALLOC=1)"
    );
    let stages = array("stages");
    assert!(!stages.is_empty(), "no stage rows");
    for stage in stages {
        assert!(
            num(stage, "alloc_bytes") > 0.0,
            "stage {:?} recorded no allocations",
            stage.field("stage")
        );
    }
}
