//! Gradient-boosting importance ranker (the XGBoost stand-in of §II-C).

use crate::error::WefrError;
use crate::ranker::{validate_input, FeatureRanker};
use crate::ranking::FeatureRanking;
use smart_stats::FeatureMatrix;
use smart_trees::{BoostingConfig, GradientBoosting};

/// Ranks features by gradient-boosting feature importance: the mean of
/// the normalized gain and split-count importances, since the paper
/// describes XGBoost importance as combining "the number of splits … and
/// the average gain".
#[derive(Debug, Clone)]
pub struct GradientBoostingRanker {
    /// Boosting hyperparameters.
    pub config: BoostingConfig,
}

impl GradientBoostingRanker {
    /// Default ranker (100 rounds) with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        GradientBoostingRanker {
            config: BoostingConfig {
                seed,
                ..BoostingConfig::default()
            },
        }
    }
}

impl FeatureRanker for GradientBoostingRanker {
    fn name(&self) -> &'static str {
        "gradient-boosting"
    }

    fn rank(&self, data: &FeatureMatrix, labels: &[bool]) -> Result<FeatureRanking, WefrError> {
        validate_input(data, labels)?;
        let model = GradientBoosting::fit(data, labels, &self.config)?;
        let gain = model.gain_importances();
        let count = model.split_count_importances();
        let scores = gain
            .iter()
            .zip(&count)
            .map(|(g, c)| (g + c) / 2.0)
            .collect();
        FeatureRanking::from_scores(data.feature_names().to_vec(), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::rngs::StdRng;
    use rng::{RngExt, SeedableRng};

    fn data() -> (FeatureMatrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 300;
        let labels: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.35).collect();
        let signal: Vec<f64> = labels
            .iter()
            .map(|&l| if l { 1.5 } else { 0.0 } + rng.random::<f64>())
            .collect();
        let noise: Vec<f64> = (0..n).map(|_| rng.random()).collect();
        (
            FeatureMatrix::from_columns(vec!["signal".into(), "noise".into()], vec![signal, noise])
                .unwrap(),
            labels,
        )
    }

    #[test]
    fn blended_importance_finds_signal() {
        let (m, l) = data();
        let r = GradientBoostingRanker::with_seed(2).rank(&m, &l).unwrap();
        assert_eq!(r.top_names(1), vec!["signal"]);
    }

    #[test]
    fn ranker_is_deterministic() {
        let (m, l) = data();
        let a = GradientBoostingRanker::with_seed(4).rank(&m, &l).unwrap();
        let b = GradientBoostingRanker::with_seed(4).rank(&m, &l).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_empty_matrix() {
        let m = FeatureMatrix::from_columns(vec![], vec![]).unwrap();
        assert!(GradientBoostingRanker::with_seed(0).rank(&m, &[]).is_err());
    }
}
