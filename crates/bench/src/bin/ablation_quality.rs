#![forbid(unsafe_code)]
//! Quality ablations for the design choices DESIGN.md calls out — not
//! runtimes (`exp4_runtime` times them) but *outcomes*:
//!
//! 1. BOCPD versus binary segmentation: recovered change-point location on
//!    survival curves of known knee.
//! 2. Permutation versus impurity Random-Forest importance: ranking quality
//!    against the planted informative features.
//! 3. Ranking-outlier removal on versus off: effect of one adversarially
//!    bad ranker on the final ensemble ranking.
//! 4. Complexity-ensemble divisor (the paper prints /2, we default /3):
//!    the chosen feature count under both.

use smart_changepoint::binseg;
use smart_changepoint::survival::{SurvivalCurve, MIN_DRIVES_PER_POINT};
use smart_complexity::{automated_feature_count, ThresholdConfig};
use smart_dataset::{Census, DriveModel, FleetConfig};
use wefr_bench::{characterization_matrix, print_header, RunOptions};
use wefr_core::rankers::forest::{ForestImportance, ForestRanker};
use wefr_core::wearout::SURVIVAL_MIN_BUCKET;
use wefr_core::{ensemble_rankings, FeatureRanker, FeatureRanking, PAPER_OUTLIER_SIGMA};

fn main() {
    let opts = RunOptions::from_args();
    ablate_changepoint_detectors(&opts);
    ablate_forest_importance(&opts);
    ablate_outlier_removal(&opts);
    ablate_complexity_divisor(&opts);
}

/// Ablation 1: where do BOCPD and binary segmentation place MC1's wear
/// knee (planted at MWI 30)?
fn ablate_changepoint_detectors(opts: &RunOptions) {
    print_header("Ablation 1: BOCPD vs binary segmentation (MC1 knee planted at MWI 30)");
    let census = Census::generate(
        &FleetConfig::proportional(opts.census_total, opts.seed).expect("valid config"),
    );
    let curve = SurvivalCurve::from_drives(
        census
            .summaries_of_model(DriveModel::Mc1)
            .map(|s| (s.final_mwi_n, s.is_failed())),
        SURVIVAL_MIN_BUCKET,
    );
    // The pooled curve BOCPD analyzes.
    let work = curve.coarsened(MIN_DRIVES_PER_POINT);

    match curve
        .detect_change_point()
        .expect("survival rates are finite")
    {
        Some(cp) => println!(
            "BOCPD + z-score:      MWI_N = {} (z = {:.1})",
            cp.mwi_threshold, cp.z_score
        ),
        None => println!("BOCPD + z-score:      none detected"),
    }
    let rates = work.smoothed_rates();
    match binseg::best_split(&rates) {
        Ok(Some(b)) => println!(
            "binary segmentation:  MWI_N = {} (gain = {:.4})",
            work.points()[b.index].mwi,
            b.gain
        ),
        Ok(None) => println!("binary segmentation:  no split"),
        Err(e) => println!("binary segmentation:  not run ({e})"),
    }
    println!("(both detectors should land near the planted knee; BOCPD additionally\n provides the per-point change probability the paper's z-score rule needs)");
}

/// Ablation 2: does permutation importance beat impurity importance at
/// separating planted signal from a high-cardinality noise feature?
fn ablate_forest_importance(opts: &RunOptions) {
    print_header("Ablation 2: permutation vs impurity RF importance (MC1)");
    let fleet = opts.fleet();
    let (matrix, labels, _) = characterization_matrix(&fleet, DriveModel::Mc1, opts.seed);
    let mechanism_prefixes = ["OCE", "UCE", "CMDT", "EFC", "PFC", "RER"];

    for (name, ranking) in [
        (
            "permutation",
            ForestRanker::with_seed(opts.seed).rank(&matrix, &labels),
        ),
        (
            "impurity",
            ForestRanker {
                importance: ForestImportance::Impurity,
                ..ForestRanker::with_seed(opts.seed)
            }
            .rank(&matrix, &labels),
        ),
    ] {
        let ranking = ranking.expect("two-class data");
        let top8 = ranking.top_names(8);
        let hits = top8
            .iter()
            .filter(|n| mechanism_prefixes.iter().any(|p| n.starts_with(p)))
            .count();
        println!(
            "{name:<12} top-8 = {top8:?}\n{:<12} mechanism-feature hits in top-8: {hits}/8",
            ""
        );
    }
}

/// Ablation 3: inject an adversarial (reversed) ranking into the ensemble
/// and measure how far the final order moves with and without the paper's
/// outlier removal.
fn ablate_outlier_removal(opts: &RunOptions) {
    print_header("Ablation 3: ranking-outlier removal on/off (adversarial ranker injected)");
    let fleet = opts.fleet();
    let (matrix, labels, _) = characterization_matrix(&fleet, DriveModel::Mc1, opts.seed);
    let rankers = wefr_core::default_rankers(opts.seed);
    let mut rankings: Vec<(String, FeatureRanking)> = rankers
        .iter()
        .map(|r| {
            (
                r.name().to_string(),
                r.rank(&matrix, &labels).expect("two-class data"),
            )
        })
        .collect();
    let clean = ensemble_rankings(&rankings, PAPER_OUTLIER_SIGMA).expect("well-formed rankings");

    // Adversary: the exact reverse of the clean ensemble order.
    let n = matrix.n_features();
    let mut scores = vec![0.0; n];
    for (pos, &col) in clean.order.iter().enumerate() {
        scores[col] = pos as f64; // higher score for formerly-worst features
    }
    rankings.push((
        "adversary".to_string(),
        FeatureRanking::from_scores(matrix.feature_names().to_vec(), scores).expect("valid scores"),
    ));

    let with_removal =
        ensemble_rankings(&rankings, PAPER_OUTLIER_SIGMA).expect("well-formed rankings");
    let without_removal = ensemble_rankings(&rankings, 1e9).expect("well-formed rankings"); // threshold never trips

    let dist = |order: &[usize]| {
        smart_stats::kendall::normalized_kendall_tau_distance(&clean.order, order)
            .expect("same features")
    };
    println!(
        "discarded by 1.96-sigma rule: {:?}",
        with_removal.discarded()
    );
    println!(
        "distance from clean ensemble:  with removal = {:.3}, without = {:.3}",
        dist(&with_removal.order),
        dist(&without_removal.order)
    );
    println!("(removal should discard the adversary and keep the ensemble near the clean order)");
}

/// Ablation 4: the complexity-ensemble divisor (2 as printed in the paper
/// vs 3 as the cited source implies). It rescales `F`, and so changes
/// `F`'s weight against the size penalty `ξ` in `e = α·F + (1−α)·ξ` —
/// compare the chosen counts. Equal counts do not show the divisor is
/// inert: the scan stops at its ⌊log₂ n⌋ seed, where no count can move.
fn ablate_complexity_divisor(opts: &RunOptions) {
    print_header("Ablation 4: complexity-ensemble divisor 2 vs 3 (chosen feature count, MC1)");
    let fleet = opts.fleet();
    let (matrix, labels, _) = characterization_matrix(&fleet, DriveModel::Mc1, opts.seed);
    let ranking = ForestRanker::with_seed(opts.seed)
        .rank(&matrix, &labels)
        .expect("two-class data");

    for divisor in [2.0, 3.0] {
        let config = ThresholdConfig { divisor };
        let result = automated_feature_count(&matrix, &labels, ranking.order(), &config)
            .expect("two-class data");
        println!(
            "divisor {divisor}: chose {} of {} features ({:.0}%)",
            result.chosen,
            matrix.n_features(),
            result.chosen as f64 / matrix.n_features() as f64 * 100.0
        );
    }
}
