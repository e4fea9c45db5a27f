//! Fleet monitoring: the production scenario from the paper's introduction.
//!
//! A datacenter operator re-checks the wear-out change point weekly
//! (§IV-D), refreshes the selected features when it moves, trains a
//! predictor, and decommissions the drives flagged in the final month.
//!
//! ```text
//! cargo run --example fleet_monitoring
//! ```

use smart_dataset::{DriveModel, Fleet, FleetConfig};
use smart_pipeline::{
    base_features_at, base_matrix, collect_samples, survival_pairs, FailurePredictor,
    PredictorConfig, SamplingConfig,
};
use wefr_core::{SelectionInput, UpdateMonitor, Wefr};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let days = 365u32;
    let config = FleetConfig::builder()
        .days(days)
        .seed(99)
        .drives(DriveModel::Mc1, 150)
        .failure_scale(8.0)
        .build()?;
    let fleet = Fleet::generate(&config);
    println!(
        "monitoring {} MC1 drives for {days} days",
        fleet.drives().len()
    );

    // --- Weekly change-point monitoring over the operating period ---
    let mut monitor = UpdateMonitor::weekly();
    let wefr = Wefr::default();
    let mut reselections = 0;
    for day in (60..days - 35).step_by(1) {
        if !monitor.due(day) {
            continue;
        }
        let survival = survival_pairs(&fleet, DriveModel::Mc1, day);
        let threshold =
            wefr_core::wearout::detect_wearout_threshold(&survival)?.map(|cp| cp.mwi_threshold);
        let decision = monitor.record_check(day, threshold);
        if decision.requires_reselection() {
            reselections += 1;
            println!("day {day:>3}: {decision:?} -> re-select features");
        }
    }
    println!("{reselections} re-selection events over the window\n");

    // --- Final selection + prediction for the last month ---
    let train_end = days - 31;
    let samples = collect_samples(
        &fleet,
        DriveModel::Mc1,
        0,
        train_end,
        &SamplingConfig::default(),
    )?;
    let (matrix, labels, mwi) = base_matrix(&fleet, DriveModel::Mc1, &samples)?;
    let survival = survival_pairs(&fleet, DriveModel::Mc1, train_end);
    let selection = wefr.select(&SelectionInput {
        data: &matrix,
        labels: &labels,
        mwi_per_sample: Some(&mwi),
        survival: Some(&survival),
    })?;
    let base = base_features_at(DriveModel::Mc1, &selection.global.selected)?;
    println!("selected features: {:?}", selection.global.selected_names);

    let predictor = FailurePredictor::train(
        &fleet,
        &samples,
        &base,
        &PredictorConfig {
            n_trees: 50,
            ..PredictorConfig::default()
        },
    )?;

    // Flag drives in the final month at a fixed alarm threshold.
    let alarm = 0.5;
    let mut flagged = 0;
    let mut caught = 0;
    let mut missed = 0;
    for drive in fleet.drives_of_model(DriveModel::Mc1) {
        let start = (train_end + 1).max(drive.deploy_day);
        let end = drive.last_day();
        if start > end {
            continue;
        }
        let mut alarm_day = None;
        for day in start..=end {
            if predictor.score_drive_day(drive, day)? >= alarm {
                alarm_day = Some(day);
                break; // first prediction wins (paper §V-A)
            }
        }
        let fails = drive.failure.is_some_and(|f| f.day > train_end);
        match (alarm_day, fails) {
            (Some(day), true) => {
                caught += 1;
                flagged += 1;
                let lead = drive.failure.expect("fails").day - day;
                println!(
                    "  {} flagged on day {day} ({lead} days before failure)",
                    drive.id
                );
            }
            (Some(_), false) => flagged += 1,
            (None, true) => missed += 1,
            (None, false) => {}
        }
    }
    println!(
        "\nfinal month: {flagged} drives flagged, {caught} true failures caught, {missed} missed"
    );
    Ok(())
}
