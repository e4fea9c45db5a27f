//! Quickstart: simulate a small SSD fleet, run WEFR, train a failure
//! predictor on the selected features, and evaluate it on the final months.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Set `WEFR_LOG=info` (or `debug`) for stage-level tracing on stderr, and
//! `WEFR_TELEMETRY_OUT=<dir>` to redirect the JSON run report (default
//! `results/telemetry_quickstart.json`) and flamegraph. `WEFR_METRICS_ADDR`
//! serves live `/metrics` and `/report` over TCP while the run is in
//! flight, and `WEFR_WATCHDOG_SECS` arms the stall watchdog (DESIGN.md §6).
//! Telemetry never changes stdout or the computed selections.

use smart_dataset::{DriveModel, Fleet, FleetConfig};
use smart_pipeline::evaluate::metrics_at_threshold;
use smart_pipeline::{
    base_features_at, base_matrix, collect_samples, metrics_at_fixed_recall, score_phase,
    survival_pairs, FailurePredictor, PredictorConfig, SamplingConfig,
};
use wefr_core::{SelectionInput, Wefr};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Live observability plane, all off unless the env knobs are set: a
    // /metrics + /report TCP endpoint and a span-stall watchdog.
    let metrics_server = telemetry::serve::start_from_env("quickstart");
    let watchdog = telemetry::watchdog::start_from_env();

    // 1. Simulate one year of daily SMART logs for 150 MC1 drives.
    let config = FleetConfig::builder()
        .days(365)
        .seed(42)
        .drives(DriveModel::Mc1, 150)
        .failure_scale(8.0)
        .build()?;
    let fleet = Fleet::generate(&config);
    println!(
        "fleet: {} drives, {} failures",
        fleet.drives().len(),
        fleet.n_failures()
    );

    // 2. Collect labeled drive-day samples and the base feature matrix.
    let samples = collect_samples(&fleet, DriveModel::Mc1, 0, 364, &SamplingConfig::default())?;
    let (matrix, labels, mwi) = base_matrix(&fleet, DriveModel::Mc1, &samples)?;
    println!(
        "samples: {} ({} positive), features: {}",
        matrix.n_rows(),
        labels.iter().filter(|&&l| l).count(),
        matrix.n_features()
    );

    // 3. Run WEFR: five rankers in parallel, outlier removal, mean-rank
    //    aggregation, automated count, wear-out grouping.
    let survival = survival_pairs(&fleet, DriveModel::Mc1, 364);
    let wefr = Wefr::default();
    let selection = wefr.select(&SelectionInput {
        data: &matrix,
        labels: &labels,
        mwi_per_sample: Some(&mwi),
        survival: Some(&survival),
    })?;

    println!(
        "\nselected {} of {} features ({:.0}%):",
        selection.global.selected.len(),
        matrix.n_features(),
        selection.global.selected_fraction() * 100.0
    );
    for name in &selection.global.selected_names {
        println!("  {name}");
    }
    for outcome in &selection.global.ensemble.outcomes {
        println!(
            "ranker {:<20} mean Kendall distance {:>7.1} {}",
            outcome.ranker,
            outcome.mean_distance,
            if outcome.kept {
                ""
            } else {
                "(discarded as outlier)"
            }
        );
    }
    match &selection.wearout {
        Some(w) => println!(
            "\nwear-out change point at MWI_N = {}: low group keeps {:?}, high group keeps {:?}",
            w.change_point.mwi_threshold, w.low.selected_names, w.high.selected_names
        ),
        None => println!("\nno wear-out change point at this scale"),
    }

    // 4. Train a Random Forest on the selected features, expanded to the
    //    full learning set, over the first ten months.
    let selected_base = base_features_at(DriveModel::Mc1, &selection.global.selected)?;
    let train_samples =
        collect_samples(&fleet, DriveModel::Mc1, 0, 299, &SamplingConfig::default())?;
    let predictor_config = PredictorConfig {
        n_trees: 40,
        max_depth: 10,
        seed: 7,
        n_threads: None,
        ..PredictorConfig::default()
    };
    let predictor =
        FailurePredictor::train(&fleet, &train_samples, &selected_base, &predictor_config)?;
    println!(
        "\ntrained {} trees on {} samples over {} selected base features",
        predictor_config.n_trees,
        train_samples.len(),
        selected_base.len()
    );

    // 5. Evaluate on the held-out final months: drive-level scoring with a
    //    30-day horizon, at fixed recall when the phase has failures.
    let scores = score_phase(&predictor, &fleet, DriveModel::Mc1, 300, 364, 30)?;
    let metrics = match metrics_at_fixed_recall(&scores, 0.4) {
        Ok((metrics, _threshold)) => metrics,
        // No failed drives in the phase: fall back to a fixed threshold.
        Err(_) => metrics_at_threshold(&scores, 0.5),
    };
    println!(
        "evaluation over {} drives: precision {:.2}, recall {:.2}, F0.5 {:.2} (tp={} fp={} fn={})",
        scores.len(),
        metrics.precision,
        metrics.recall,
        metrics.f_half,
        metrics.tp,
        metrics.fp,
        metrics.fn_
    );

    // Clean-shutdown handshake: both monitors join before the snapshot, so
    // no watchdog tick or scrape races the report below.
    if let Some(w) = watchdog {
        w.stop();
    }
    if let Some(s) = metrics_server {
        eprintln!("metrics endpoint served on {}", s.addr());
        s.stop();
    }

    // Export the telemetry run report and count-weighted flamegraph (no-ops
    // unless an observability knob enabled collection). Stderr only: stdout
    // stays identical with telemetry on or off.
    if let Some(path) = telemetry::write_run_report("quickstart")? {
        eprintln!("telemetry report written to {}", path.display());
    }
    if let Some(path) = telemetry::flame::write_flamegraph("quickstart")? {
        eprintln!("flamegraph written to {}", path.display());
    }
    Ok(())
}
