#![forbid(unsafe_code)]
//! Streaming-generation benchmark (`BENCH_pr8.json`): a paper-scale
//! generate → select → train run fed entirely by the chunked generator
//! (DESIGN.md §12), with the memory evidence that makes the bounded-memory
//! claim checkable.
//!
//! Two parts:
//!
//! 1. **Bit-identity matrix** — at a small scale, `generate_fleet_streamed`
//!    is compared record-for-record against `Fleet::generate` across chunk
//!    sizes × worker counts; the run panics on the first divergent cell,
//!    and the cells land in the report.
//! 2. **Paper-scale run** — the paper population mix at `--census` drives
//!    (500 000 for the committed run, capped at 8 000 by `--quick`) is
//!    streamed through `generated_base_matrix`, WEFR selects on the
//!    downsampled matrix with survival context from the measured census,
//!    and a Random Forest trains on the selected columns. The fleet is
//!    never materialized: the report records the full-fleet value bytes
//!    the run *avoided* holding versus the bounded pipeline window it did.
//!
//! With the `obs-alloc` feature compiled in and `WEFR_OBS_ALLOC=1`, each
//! stage row also carries the counting allocator's per-span byte delta.
//! `--out` additionally rewrites the pinned `census_fig1.json` golden.
//! The committed `results/BENCH_pr8.json` is the 500K-drive run; the
//! `streaming_generation` tests of smart-integration hold the rules it
//! must meet (drive count, identity cells, window arithmetic and ratio,
//! allocation receipts).

use smart_dataset::gen::stream::GenConfig;
use smart_dataset::{DriveModel, Fleet, FleetConfig};
use smart_pipeline::{
    fig1_pinned_config, fig1_report, fig1_report_from_census, generated_base_matrix,
    SamplingConfig, FIG1_MIN_BUCKET,
};
use smart_trees::{ForestConfig, RandomForest};
use wefr_bench::{print_header, RunOptions};
use wefr_core::{SelectionInput, Wefr, WefrConfig};

struct IdentityRow {
    workers: usize,
    chunk_drives: usize,
    identical: bool,
}

json::impl_to_json!(IdentityRow {
    workers,
    chunk_drives,
    identical
});

struct StageRow {
    stage: String,
    seconds: f64,
    alloc_bytes: u64,
}

json::impl_to_json!(StageRow {
    stage,
    seconds,
    alloc_bytes
});

struct GenReport {
    census_total: u32,
    days: u32,
    seed: u64,
    model: String,
    cores: usize,
    workers: usize,
    chunk_drives: usize,
    max_queued_chunks: usize,
    drives: u64,
    rows: u64,
    chunks: u64,
    queue_full_stalls: u64,
    /// Total `f32` telemetry bytes of the population — what a materialized
    /// `Fleet` would hold resident.
    value_bytes: u64,
    /// Largest single batch the stream emitted.
    peak_batch_bytes: u64,
    /// Upper bound on batch bytes resident at once:
    /// `peak_batch_bytes × (workers + max_queued_chunks + 1)`.
    bounded_window_bytes: u64,
    /// `value_bytes / bounded_window_bytes` — how many times larger the
    /// avoided materialized fleet is than the streaming window.
    bounded_ratio: f64,
    samples: usize,
    positives: usize,
    selected: Vec<String>,
    trees: usize,
    alloc_tracked: bool,
    identity: Vec<IdentityRow>,
    stages: Vec<StageRow>,
}

json::impl_to_json!(GenReport {
    census_total,
    days,
    seed,
    model,
    cores,
    workers,
    chunk_drives,
    max_queued_chunks,
    drives,
    rows,
    chunks,
    queue_full_stalls,
    value_bytes,
    peak_batch_bytes,
    bounded_window_bytes,
    bounded_ratio,
    samples,
    positives,
    selected,
    trees,
    alloc_tracked,
    identity,
    stages
});

/// Small-scale bit-identity sweep: every cell must reproduce the
/// materialized fleet exactly.
fn identity_matrix(seed: u64) -> Vec<IdentityRow> {
    let config = FleetConfig::builder()
        .days(240)
        .seed(seed)
        .drives(DriveModel::Mc1, 40)
        .failure_scale(8.0)
        .build()
        .expect("valid identity config");
    let reference = Fleet::generate(&config);
    let mut rows = Vec::new();
    for workers in [1, 2, 4, 8] {
        for chunk_drives in [1, 16, 1024] {
            let gen = GenConfig {
                chunk_drives,
                workers,
                max_queued_chunks: 2,
                scenario: None,
            };
            let streamed =
                smart_dataset::generate_fleet_streamed(&config, &gen).expect("streamed generation");
            let identical = streamed.drives() == reference.drives();
            assert!(
                identical,
                "stream diverged from Fleet::generate at workers={workers} \
                 chunk_drives={chunk_drives}"
            );
            rows.push(IdentityRow {
                workers,
                chunk_drives,
                identical,
            });
        }
    }
    rows
}

fn main() {
    let opts = RunOptions::from_args();
    telemetry::set_collect(true);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    print_header("Streaming generation: paper-scale generate -> select -> train");

    println!("bit-identity sweep (workers x chunk sizes)...");
    let identity = identity_matrix(opts.seed);
    println!("  {} cells, all identical", identity.len());

    // The paper census mix at --census drives, default two-year window.
    let config =
        FleetConfig::proportional(opts.census_total, opts.seed).expect("valid census config");
    let total = config.total_drives();
    let gen = GenConfig {
        chunk_drives: (total as usize / 128).clamp(64, 4096),
        workers: cores.min(8),
        max_queued_chunks: 8,
        scenario: None,
    };
    let model = DriveModel::Mc1;
    let sampling = SamplingConfig::default();
    println!(
        "population: {total} drives x {} days, chunk {} drives, {} worker(s)",
        config.days(),
        gen.chunk_drives,
        gen.workers
    );

    telemetry::reset();
    let generated = {
        let _span = telemetry::span!("gen_matrix");
        generated_base_matrix(&config, &gen, model, 0, config.days() - 1, &sampling)
            .expect("generated matrix")
    };
    let positives = generated.labels.iter().filter(|&&l| l).count();
    println!(
        "matrix: {} samples ({} positive), {} features",
        generated.labels.len(),
        positives,
        generated.matrix.n_features()
    );

    let survival: Vec<(f64, bool)> = generated
        .census
        .summaries_of_model(model)
        .map(|s| (s.final_mwi_n, s.is_failed()))
        .collect();
    // No bench-side span here: `Wefr::select` opens its own span named
    // "select", which is exactly the stage we want to report.
    let selection = {
        let wefr = Wefr::new(WefrConfig { seed: opts.seed });
        wefr.select(&SelectionInput {
            data: &generated.matrix,
            labels: &generated.labels,
            mwi_per_sample: Some(&generated.mwi),
            survival: Some(&survival),
        })
        .expect("selection")
    };
    println!(
        "selected {} of {} features: {:?}",
        selection.global.selected.len(),
        generated.matrix.n_features(),
        selection.global.selected_names
    );

    let forest_config = ForestConfig {
        n_trees: if opts.quick { 25 } else { 50 },
        seed: opts.seed,
        ..ForestConfig::default()
    };
    let forest = {
        let _span = telemetry::span!("train");
        let selected = generated
            .matrix
            .select_columns(&selection.global.selected)
            .expect("selected columns");
        RandomForest::fit(&selected, &generated.labels, &forest_config).expect("training")
    };
    println!("trained {} trees", forest_config.n_trees);
    drop(forest);

    let report_snapshot = telemetry::snapshot("bench_gen_stream");
    let stages = ["gen_matrix", "select", "train"]
        .into_iter()
        .map(|stage| StageRow {
            stage: stage.to_string(),
            seconds: report_snapshot.total_seconds(stage),
            alloc_bytes: report_snapshot
                .spans_named(stage)
                .iter()
                .map(|s| s.alloc_bytes)
                .sum(),
        })
        .collect::<Vec<_>>();
    for row in &stages {
        println!(
            "  {:<10} {:>8.2}s  {:>12} alloc bytes",
            row.stage, row.seconds, row.alloc_bytes
        );
    }

    let stats = &generated.stats;
    let window_batches = (gen.workers + gen.max_queued_chunks + 1) as u64;
    let bounded_window_bytes = stats.peak_batch_bytes * window_batches;
    let bounded_ratio = if bounded_window_bytes > 0 {
        stats.value_bytes as f64 / bounded_window_bytes as f64
    } else {
        0.0
    };
    println!(
        "memory: fleet value bytes {} vs bounded window {} ({:.1}x avoided)",
        stats.value_bytes, bounded_window_bytes, bounded_ratio
    );

    let report = GenReport {
        census_total: total,
        days: config.days(),
        seed: opts.seed,
        model: model.name().to_string(),
        cores,
        workers: gen.workers,
        chunk_drives: gen.chunk_drives,
        max_queued_chunks: gen.max_queued_chunks,
        drives: stats.drives,
        rows: stats.rows,
        chunks: stats.chunks,
        queue_full_stalls: stats.queue_full_stalls,
        value_bytes: stats.value_bytes,
        peak_batch_bytes: stats.peak_batch_bytes,
        bounded_window_bytes,
        bounded_ratio,
        samples: generated.labels.len(),
        positives,
        selected: selection.global.selected_names.clone(),
        trees: forest_config.n_trees,
        alloc_tracked: telemetry::alloc::tracking_active(),
        identity,
        stages,
    };
    opts.write_json("BENCH_pr8", &report);

    // Regenerate the pinned Fig. 1 golden alongside the bench report. At
    // the pinned census scale this reuses nothing from the run above —
    // the golden is fixed by (FIG1_CENSUS_TOTAL, FIG1_SEED) alone. When
    // the run *is* the pinned config, reuse its measured census.
    if opts.out_dir.is_some() {
        let pinned = fig1_pinned_config().expect("pinned fig1 config");
        let fig1 = if *generated.census.config() == pinned {
            fig1_report_from_census(&generated.census, FIG1_MIN_BUCKET).expect("fig1 report")
        } else {
            fig1_report(&pinned, &GenConfig::default(), FIG1_MIN_BUCKET).expect("fig1 report")
        };
        opts.write_json("census_fig1", &fig1);
    }
}
