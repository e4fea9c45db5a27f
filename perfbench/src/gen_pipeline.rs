//! `gen-pipeline`: the paper-scale generate → select → train run at a
//! small fraction of its size. The only workload where streamed fleet
//! generation and forest fitting carry weight.

use std::time::Instant;

use smart_dataset::{stream_fleet_batches, DatasetError, DriveModel, FleetConfig};
use smart_pipeline::generated_base_matrix;
use smart_stats::FeatureMatrix;
use smart_trees::{ForestConfig, RandomForest};
use wefr_core::{SelectionInput, Wefr};

use crate::layers::{Layers, OpTrace};
use crate::{
    bits, err, fixed_rows, gen_config, heap, pick, sampling, set_up, survival_of, wefr_config,
    Deadline, Measured, Options,
};

/// Input sizes.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Drives of the paper-mix census over the paper's two-year window
    /// (all six models are generated).
    census: u32,
    /// Rows of the MC1 matrix WEFR selects on and the forest trains on.
    rows: usize,
    /// Trees of the trained forest.
    trees: usize,
}

const FULL: Sizes = Sizes {
    census: 6_000,
    rows: 10_000,
    trees: 50,
};

const SMOKE: Sizes = Sizes {
    census: 2_000,
    rows: 500,
    trees: 5,
};

/// The set-up round runs the same pipeline on a census this many times
/// smaller, to warm threads, allocator and caches.
const WARM_UP_DIVISOR: u32 = 10;

/// What one round produced.
struct Trained {
    selected: Vec<String>,
    forest: RandomForest,
    training: FeatureMatrix,
}

impl Trained {
    /// The selected features and the forest's scores on its own training
    /// rows: equal across rounds when the pipeline is deterministic.
    fn fingerprint(&self) -> Result<(Vec<String>, Vec<u64>), String> {
        let scores = self.forest.predict_proba(&self.training).map_err(err)?;
        Ok((self.selected.clone(), bits(&scores)))
    }
}

/// One generate → select → train round, each stage timed into `op`.
fn round(sizes: Sizes, opts: &Options, op: &mut OpTrace) -> Result<Trained, String> {
    let config = FleetConfig::proportional(sizes.census, opts.seed).map_err(err)?;
    let generated = op
        .time("pipeline.gen_matrix_s", || {
            generated_base_matrix(
                &config,
                &gen_config(opts.cores),
                DriveModel::Mc1,
                0,
                config.days() - 1,
                &sampling(opts.seed),
            )
        })
        .map_err(err)?;
    op.add("pipeline.samples", generated.labels.len() as f64);
    let keep = fixed_rows(&generated.labels, sizes.rows, opts.seed)?;
    let matrix = generated.matrix.select_rows(&keep).map_err(err)?;
    let labels = pick(&generated.labels, &keep);
    let mwi = pick(&generated.mwi, &keep);
    let survival = survival_of(&generated.census, DriveModel::Mc1);
    let selection = op
        .time("core.select_s", || {
            Wefr::new(wefr_config(opts.seed)).select(&SelectionInput {
                data: &matrix,
                labels: &labels,
                mwi_per_sample: Some(&mwi),
                survival: Some(&survival),
            })
        })
        .map_err(err)?;
    let selected = matrix
        .select_columns(&selection.global.selected)
        .map_err(err)?;
    let forest = op
        .time("trees.forest_fit_s", || {
            RandomForest::fit(
                &selected,
                &labels,
                &ForestConfig {
                    n_trees: sizes.trees,
                    seed: opts.seed,
                    n_threads: Some(opts.cores),
                    ..ForestConfig::default()
                },
            )
        })
        .map_err(err)?;
    Ok(Trained {
        selected: selection.global.selected_names,
        forest,
        training: selected,
    })
}

/// Run the `gen-pipeline` workload.
///
/// # Errors
///
/// When a set-up round fails.
pub fn run(opts: &Options) -> Result<Measured, String> {
    let sizes = if opts.smoke { SMOKE } else { FULL };
    let warm_up = Sizes {
        census: sizes.census / WARM_UP_DIVISOR,
        rows: sizes.rows / WARM_UP_DIVISOR as usize,
        ..sizes
    };
    let mut measured = Measured::default();
    // The warm-up round's product is not used again.
    set_up(
        || round(warm_up, opts, &mut OpTrace::default()),
        Trained::fingerprint,
    )?
    .into_product(&mut measured);
    measured.notes.push(format!(
        "census {} drives, select and train on {} MC1 rows, {} trees",
        sizes.census, sizes.rows, sizes.trees
    ));

    let mut times = Vec::new();
    let mut layers = Layers::default();
    let mut first = None;
    let mut deadline = Deadline::new(opts.seconds, 2);
    heap::reset_peak();
    while deadline.next_round() {
        let mut op = OpTrace::default();
        let start = Instant::now();
        let output = round(sizes, opts, &mut op);
        let wall = start.elapsed().as_secs_f64();
        times.push(wall);
        let fingerprint = output.and_then(|trained| trained.fingerprint());
        let reference = first.get_or_insert_with(|| fingerprint.clone());
        measured.check(
            fingerprint.is_ok() && fingerprint == *reference,
            "rounds selected or trained differently",
        );
        let stages = [
            "pipeline.gen_matrix_s",
            "core.select_s",
            "trees.forest_fit_s",
        ];
        op.add(
            "trace_coverage",
            stages.iter().map(|s| op.get(s)).sum::<f64>() / wall,
        );
        op.add("traced_op_s", wall);
        layers.record(op);
    }
    measured.values.insert("peak_heap_mib", heap::peak_mib());
    measured.values.insert("op_s", crate::stats::median(&times));
    measured.notes.push(crate::stats::describe_times(&times));

    if opts.trace {
        // The generator alone, once: both passes of the matrix build pay
        // this cost.
        let config = FleetConfig::proportional(sizes.census, opts.seed).map_err(err)?;
        let start = Instant::now();
        let stats = stream_fleet_batches(&config, &gen_config(opts.cores), |_batch| {
            Ok::<(), DatasetError>(())
        })
        .map_err(err)?;
        layers.push("dataset.gen_s", start.elapsed().as_secs_f64());
        layers.push("dataset.gen.rows", stats.rows as f64);
        layers.push("dataset.gen.chunks", stats.chunks as f64);
        layers.push(
            "dataset.gen.queue_full_stalls",
            stats.queue_full_stalls as f64,
        );
        layers.push(
            "dataset.gen.peak_batch_mib",
            stats.peak_batch_bytes as f64 / (1024.0 * 1024.0),
        );
        measured.add_layers(layers.medians());
    }
    Ok(measured)
}
