#![forbid(unsafe_code)]
//! Table V — top-five Random-Forest feature rankings per low/high `MWI_N`
//! group, after splitting each model at its survival-rate change point.

use smart_dataset::DriveModel;
use smart_pipeline::experiment::wearout_survival;
use wefr_bench::{characterization_matrix, print_header, RunOptions};
use wefr_core::wearout::{detect_wearout_threshold, split_rows_by_mwi};
use wefr_core::{FeatureRanker, ForestRanker};

struct GroupRanking {
    model: String,
    threshold: u32,
    low_top5: Vec<String>,
    high_top5: Vec<String>,
}

json::impl_to_json!(GroupRanking {
    model,
    threshold,
    low_top5,
    high_top5
});

fn main() {
    let opts = RunOptions::from_args();
    let fleet = opts.fleet();
    print_header("Table V: top-5 RF features per MWI_N group");

    let candidates = [
        DriveModel::Ma1,
        DriveModel::Ma2,
        DriveModel::Mc1,
        DriveModel::Mc2,
    ];
    let mut results = Vec::new();
    for model in opts.models().into_iter().filter(|m| candidates.contains(m)) {
        let survival = wearout_survival(
            &fleet,
            model,
            fleet.config().days() - 1,
            &opts.experiment_config(),
        )
        .expect("census config derived from a valid fleet");
        let cp = detect_wearout_threshold(&survival).expect("valid BOCPD config");
        let Some(cp) = cp else {
            println!("--- {model} --- no change point detected; skipped");
            continue;
        };

        let (matrix, labels, mwi) = characterization_matrix(&fleet, model, opts.seed);
        let split = split_rows_by_mwi(&mwi, cp.mwi_threshold as f64);
        let rank_group = |rows: &[usize]| -> Option<Vec<String>> {
            if rows.len() < 40 {
                return None;
            }
            let sub = matrix.select_rows(rows).ok()?;
            let sub_labels: Vec<bool> = rows.iter().map(|&r| labels[r]).collect();
            if !sub_labels.iter().any(|&l| l) || !sub_labels.iter().any(|&l| !l) {
                return None;
            }
            let ranking = ForestRanker::with_seed(opts.seed)
                .rank(&sub, &sub_labels)
                .ok()?;
            Some(ranking.top_names(5).iter().map(|s| s.to_string()).collect())
        };

        println!("--- {model} (threshold MWI_N = {}) ---", cp.mwi_threshold);
        let low = rank_group(&split.low_rows);
        let high = rank_group(&split.high_rows);
        match (&low, &high) {
            (Some(low), Some(high)) => {
                println!("  low  MWI_N: {}", low.join("  "));
                println!("  high MWI_N: {}", high.join("  "));
                results.push(GroupRanking {
                    model: model.name().to_string(),
                    threshold: cp.mwi_threshold,
                    low_top5: low.clone(),
                    high_top5: high.clone(),
                });
            }
            _ => println!("  a group is too small for ranking at this fleet scale"),
        }
        println!();
    }

    println!("paper reference: MWI_N and POH_R rank higher in the low-MWI groups");
    opts.write_json("table5_wearout_rankings", &results);
}
