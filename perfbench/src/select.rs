//! `select`: `Wefr::select` again and again on one fixed matrix. No I/O
//! and no generation inside the measured loop, so the five rankers do
//! almost all the work.

use std::time::Instant;

use smart_dataset::{DriveModel, FleetConfig};
use smart_pipeline::generated_base_matrix;
use smart_stats::FeatureMatrix;
use telemetry::RunReport;
use wefr_core::{SelectionInput, Wefr, WefrSelection};

use crate::layers::{Layers, OpTrace};
use crate::{
    digest, err, fixed_rows, gen_config, heap, matrix_digest, pick, sampling, set_up, survival_of,
    wefr_config, Deadline, Measured, Options,
};

/// Input sizes.
struct Sizes {
    /// MC1 drives in the generated fleet.
    drives: u32,
    /// Days of telemetry per drive.
    days: u32,
    /// Rows of the matrix WEFR selects on.
    rows: usize,
}

const FULL: Sizes = Sizes {
    drives: 1_000,
    days: 730,
    rows: 12_000,
};

const SMOKE: Sizes = Sizes {
    drives: 150,
    days: 400,
    rows: 1_000,
};

/// Failure-rate boost of the generated fleet: enough failures that the
/// survival curve has a significant wear-out change point at every seed.
const FAILURE_SCALE: f64 = 4.0;

/// The selection input: a fixed-shape MC1 base matrix plus the fleet's
/// survival pairs.
struct Input {
    matrix: FeatureMatrix,
    labels: Vec<bool>,
    mwi: Vec<f64>,
    survival: Vec<(f64, bool)>,
}

impl Input {
    fn build(sizes: &Sizes, opts: &Options) -> Result<Input, String> {
        let config = FleetConfig::builder()
            .days(sizes.days)
            .seed(opts.seed)
            .drives(DriveModel::Mc1, sizes.drives)
            .failure_scale(FAILURE_SCALE)
            .build()
            .map_err(err)?;
        let generated = generated_base_matrix(
            &config,
            &gen_config(opts.cores),
            DriveModel::Mc1,
            0,
            sizes.days - 1,
            &sampling(opts.seed),
        )
        .map_err(err)?;
        let keep = fixed_rows(&generated.labels, sizes.rows, opts.seed)?;
        Ok(Input {
            matrix: generated.matrix.select_rows(&keep).map_err(err)?,
            labels: pick(&generated.labels, &keep),
            mwi: pick(&generated.mwi, &keep),
            survival: survival_of(&generated.census, DriveModel::Mc1),
        })
    }

    fn fingerprint(&self) -> (u64, u64) {
        let survival: Vec<(u64, bool)> = self
            .survival
            .iter()
            .map(|&(mwi, failed)| (mwi.to_bits(), failed))
            .collect();
        (
            matrix_digest(&self.matrix, &self.labels, &self.mwi),
            digest(&survival),
        )
    }

    fn selection_input(&self) -> SelectionInput<'_> {
        SelectionInput {
            data: &self.matrix,
            labels: &self.labels,
            mwi_per_sample: Some(&self.mwi),
            survival: Some(&self.survival),
        }
    }
}

/// The selected feature names: global, then low and high wear-out groups
/// when the split fired.
type SelectedSets = (Vec<String>, Option<(Vec<String>, Vec<String>)>);

fn selected_sets(selection: &WefrSelection) -> SelectedSets {
    (
        selection.global.selected_names.clone(),
        selection
            .wearout
            .as_ref()
            .map(|w| (w.low.selected_names.clone(), w.high.selected_names.clone())),
    )
}

/// Each ranker's span name in `Wefr::select`'s telemetry, with the
/// per-layer metric it feeds.
const RANKERS: [(&str, &str); 5] = [
    ("pearson", "core.rankers.pearson_s"),
    ("spearman", "core.rankers.spearman_s"),
    ("j-index", "core.rankers.jindex_s"),
    ("random-forest", "core.rankers.forest_s"),
    ("gradient-boosting", "core.rankers.gboost_s"),
];

/// The layers of one traced `Wefr::select`, read from the spans the call
/// recorded: each ranker inside the parallel stage, the stages of lines
/// 1–8 summed over the groups, and the change point. The wear-out split's
/// own time is its span minus the change point and the group selections
/// nested in it: cutting the rows into the two groups.
fn select_layers(report: &RunReport, wall_s: f64, op: &mut OpTrace) {
    let seconds = |us: u64| us as f64 / 1e6;
    let rankers = report.total_seconds("rankers");
    op.add("core.rankers_s", rankers);
    let mut slowest = 0.0f64;
    for (span, metric) in RANKERS {
        let ranker = report.total_seconds(span);
        op.add(metric, ranker);
        slowest = slowest.max(ranker);
    }
    op.add("core.rankers.slowest_share", slowest / rankers);
    let ensemble = report.total_seconds("ensemble");
    let scan = report.total_seconds("threshold_scan");
    let change_point = report.total_seconds("change_point");
    op.add("core.ensemble_s", ensemble);
    op.add("complexity.threshold_scan_s", scan);
    op.add("core.wearout.change_point_s", change_point);
    for split in report.spans_named("wearout_split") {
        let nested: u64 = report
            .children_of(split.id)
            .iter()
            .map(|child| child.duration_us)
            .sum();
        op.add(
            "core.wearout.split_self_s",
            seconds(split.duration_us.saturating_sub(nested)),
        );
    }
    let groups = report.spans_named("select_group");
    op.add("core.select.groups", groups.len() as f64);
    let rows: u64 = groups
        .iter()
        .filter_map(|g| g.fields.iter().find(|(k, _)| k == "rows"))
        .filter_map(|(_, v)| match v {
            telemetry::FieldValue::U64(n) => Some(*n),
            _ => None,
        })
        .sum();
    op.add("core.select.rows", rows as f64);
    op.add("traced_op_s", wall_s);
    op.add(
        "trace_coverage",
        (rankers + ensemble + scan + change_point + op.get("core.wearout.split_self_s")) / wall_s,
    );
}

/// Run the `select` workload.
///
/// # Errors
///
/// When the input cannot be built or the first selection fails.
pub fn run(opts: &Options) -> Result<Measured, String> {
    let sizes = if opts.smoke { SMOKE } else { FULL };
    let mut measured = Measured::default();
    let input =
        set_up(|| Input::build(&sizes, opts), Input::fingerprint)?.into_product(&mut measured);
    let wefr = Wefr::new(wefr_config(opts.seed));
    // Warm-up call; its answer is the reference every round must repeat.
    let reference = selected_sets(&wefr.select(&input.selection_input()).map_err(err)?);
    measured.notes.push(format!(
        "matrix {} rows x {} features, {} wear-out groups",
        input.matrix.n_rows(),
        input.matrix.n_features(),
        if reference.1.is_some() { 3 } else { 1 }
    ));

    // Traced rounds record the program's own spans; untraced rounds leave
    // telemetry off, its default.
    telemetry::set_collect(opts.trace);
    let mut times = Vec::new();
    let mut layers = Layers::default();
    let mut deadline = Deadline::new(opts.seconds, 3);
    heap::reset_peak();
    while deadline.next_round() {
        telemetry::reset();
        let start = Instant::now();
        let result = wefr.select(&input.selection_input());
        let wall_s = start.elapsed().as_secs_f64();
        times.push(wall_s);
        measured.check(
            result.is_ok_and(|s| selected_sets(&s) == reference),
            "selected sets changed between rounds",
        );
        if opts.trace {
            let report = telemetry::snapshot("select");
            measured.check(
                report.validate_tree().is_ok(),
                "the span tree of Wefr::select is malformed",
            );
            let mut op = OpTrace::default();
            select_layers(&report, wall_s, &mut op);
            layers.record(op);
        }
    }
    measured.values.insert("peak_heap_mib", heap::peak_mib());
    measured.values.insert("op_s", crate::stats::median(&times));
    measured.notes.push(crate::stats::describe_times(&times));
    measured.add_layers(layers.medians());
    Ok(measured)
}
