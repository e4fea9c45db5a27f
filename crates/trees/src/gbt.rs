//! Gradient-boosted trees for binary classification (logistic loss), with
//! gain- and split-count feature importances — the stand-in for XGBoost in
//! the paper's selector set (§II-C).

use crate::binned::BinnedMatrix;
use crate::config::{MaxFeatures, SplitStrategy, TreeConfig};
use crate::error::TreesError;
use crate::forest::mix_seed;
use crate::tree::RegressionTree;
use rng::rngs::StdRng;
use rng::SeedableRng;
use smart_stats::sampling::sample_without_replacement;
use smart_stats::FeatureMatrix;

/// Gradient-boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostingConfig {
    /// Number of boosting rounds (paper: 100 trees).
    pub n_rounds: usize,
    /// Shrinkage applied to each stage's contribution.
    pub learning_rate: f64,
    /// Per-stage tree configuration (boosting favours shallow trees).
    pub tree: TreeConfig,
    /// Row subsampling fraction per round (stochastic gradient boosting).
    pub subsample: f64,
    /// RNG seed.
    pub seed: u64,
    /// Split-search engine (default: [`SplitStrategy::Histogram`]). With
    /// `MaxFeatures::All` (the boosting default) the histogram engine also
    /// applies the sibling subtraction trick.
    pub strategy: SplitStrategy,
}

impl Default for BoostingConfig {
    fn default() -> Self {
        BoostingConfig {
            n_rounds: 100,
            learning_rate: 0.1,
            tree: TreeConfig {
                max_depth: 4,
                min_samples_leaf: 5,
                max_features: MaxFeatures::All,
                ..TreeConfig::default()
            },
            subsample: 1.0,
            seed: 0,
            strategy: SplitStrategy::default(),
        }
    }
}

/// A trained gradient-boosted classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    stages: Vec<RegressionTree>,
    base_score: f64,
    learning_rate: f64,
    n_features: usize,
}

impl GradientBoosting {
    /// Train a boosted model on `data` against boolean `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::EmptyTraining`], [`TreesError::LengthMismatch`],
    /// or [`TreesError::InvalidParameter`] for degenerate inputs.
    pub fn fit(
        data: &FeatureMatrix,
        labels: &[bool],
        config: &BoostingConfig,
    ) -> Result<Self, TreesError> {
        config.tree.validate()?;
        if config.n_rounds == 0 {
            return Err(TreesError::InvalidParameter {
                message: "n_rounds must be at least 1".to_string(),
            });
        }
        if !(config.learning_rate > 0.0 && config.learning_rate <= 1.0) {
            return Err(TreesError::InvalidParameter {
                message: "learning_rate must be in (0, 1]".to_string(),
            });
        }
        if !(config.subsample > 0.0 && config.subsample <= 1.0) {
            return Err(TreesError::InvalidParameter {
                message: "subsample must be in (0, 1]".to_string(),
            });
        }
        let n = data.n_rows();
        if n == 0 {
            return Err(TreesError::EmptyTraining);
        }
        if labels.len() != n {
            return Err(TreesError::LengthMismatch {
                features: n,
                targets: labels.len(),
            });
        }

        let y: Vec<f64> = labels.iter().map(|&l| f64::from(u8::from(l))).collect();
        let pos = y.iter().sum::<f64>();
        // Log-odds prior, clamped away from degenerate single-class inputs.
        let prior = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (prior / (1.0 - prior)).ln();

        let mut scores = vec![base_score; n];
        let mut stages = Vec::with_capacity(config.n_rounds);

        // Bin once; every boosting round re-reads the same codes.
        let binned = match config.strategy {
            SplitStrategy::Histogram => Some(BinnedMatrix::from_matrix(data)?),
            SplitStrategy::Exact => None,
        };
        let all_rows: Vec<usize> = (0..n).collect();
        let mut leaves = vec![UNROUTED; n];

        for round in 0..config.n_rounds {
            let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, round as u64));
            // Negative gradient of logistic loss: residual y - p.
            let probs: Vec<f64> = scores.iter().map(|&s| sigmoid(s)).collect();
            let residuals: Vec<f64> = y.iter().zip(&probs).map(|(y, p)| y - p).collect();

            let drawn;
            let rows: &[usize] = if config.subsample < 1.0 {
                let k = ((n as f64 * config.subsample).round() as usize).clamp(1, n);
                drawn = sample_without_replacement(&mut rng, n, k)?;
                &drawn
            } else {
                &all_rows
            };

            // Every row's leaf, found once: relabeling only rewrites leaf
            // values, never the routing. The binned fit files each row it
            // trains on; the rest (outside a subsample draw, or every row
            // under the exact engine) are routed through the tree.
            leaves.fill(UNROUTED);
            let mut tree = match &binned {
                Some(b) => RegressionTree::fit_binned_with_leaves(
                    b,
                    &residuals,
                    rows,
                    &config.tree,
                    &mut rng,
                    Some(&mut leaves),
                ),
                None => RegressionTree::fit(data, &residuals, rows, &config.tree, &mut rng),
            }?;
            for (r, leaf) in leaves.iter_mut().enumerate() {
                if *leaf == UNROUTED {
                    *leaf = tree.apply(data, r);
                }
            }

            // Newton re-labeling: leaf value = Σ(y-p) / Σ p(1-p).
            let mut grad_sum: Vec<f64> = vec![0.0; tree.n_nodes()];
            let mut hess_sum: Vec<f64> = vec![0.0; tree.n_nodes()];
            for &r in rows {
                grad_sum[leaves[r]] += residuals[r];
                hess_sum[leaves[r]] += probs[r] * (1.0 - probs[r]);
            }
            for leaf in 0..tree.n_nodes() {
                if hess_sum[leaf] > 0.0 {
                    tree.set_leaf_value(leaf, grad_sum[leaf] / (hess_sum[leaf] + 1e-9));
                }
            }

            // Update scores on the full training set.
            for (score, &leaf) in scores.iter_mut().zip(&leaves) {
                *score += config.learning_rate * tree.leaf_value(leaf);
            }
            stages.push(tree);
        }

        Ok(GradientBoosting {
            stages,
            base_score,
            learning_rate: config.learning_rate,
            n_features: data.n_features(),
        })
    }

    /// Predicted failure probability per row.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::SchemaMismatch`] when the feature count differs
    /// from training.
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>, TreesError> {
        if data.n_features() != self.n_features {
            return Err(TreesError::SchemaMismatch {
                trained: self.n_features,
                given: data.n_features(),
            });
        }
        let mut scores = vec![self.base_score; data.n_rows()];
        for stage in &self.stages {
            for (row, score) in scores.iter_mut().enumerate() {
                *score += self.learning_rate * stage.predict_row(data, row);
            }
        }
        Ok(scores.into_iter().map(sigmoid).collect())
    }

    /// Total split gain per feature across all stages, normalized to sum to
    /// 1 — XGBoost's "gain" importance.
    pub fn gain_importances(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.n_features];
        for stage in &self.stages {
            for (t, g) in totals.iter_mut().zip(stage.gain_importances()) {
                *t += g;
            }
        }
        normalize(&mut totals);
        totals
    }

    /// Number of splits per feature across all stages, normalized to sum to
    /// 1 — XGBoost's "weight" importance.
    pub fn split_count_importances(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.n_features];
        for stage in &self.stages {
            for (t, c) in totals.iter_mut().zip(stage.split_counts()) {
                *t += *c as f64;
            }
        }
        normalize(&mut totals);
        totals
    }

    /// The boosting stages.
    pub fn stages(&self) -> &[RegressionTree] {
        &self.stages
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// A `leaves` entry no fit has filed yet: never a node index.
const UNROUTED: usize = usize::MAX;

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn normalize(xs: &mut [f64]) {
    let total: f64 = xs.iter().sum();
    if total > 0.0 {
        for x in xs.iter_mut() {
            *x /= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::{RngExt, SeedableRng};

    fn make_data(n: usize, seed: u64) -> (FeatureMatrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.random();
            let x1: f64 = rng.random();
            let x2: f64 = rng.random();
            // Nonlinear: positive inside a band of x0 + interaction with x1.
            labels.push(x0 > 0.6 || (x0 > 0.3 && x1 > 0.7));
            rows.push(vec![x0, x1, x2]);
        }
        (
            FeatureMatrix::from_rows(vec!["x0".into(), "x1".into(), "noise".into()], &rows)
                .unwrap(),
            labels,
        )
    }

    fn small_config() -> BoostingConfig {
        BoostingConfig {
            n_rounds: 40,
            seed: 1,
            ..BoostingConfig::default()
        }
    }

    #[test]
    fn learns_nonlinear_rule() {
        let (data, labels) = make_data(500, 2);
        let model = GradientBoosting::fit(&data, &labels, &small_config()).unwrap();
        let proba = model.predict_proba(&data).unwrap();
        let acc = proba
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == l)
            .count() as f64
            / labels.len() as f64;
        assert!(acc > 0.95, "acc = {acc}");
    }

    #[test]
    fn exact_strategy_learns_too() {
        let (data, labels) = make_data(500, 21);
        let config = BoostingConfig {
            strategy: SplitStrategy::Exact,
            ..small_config()
        };
        let model = GradientBoosting::fit(&data, &labels, &config).unwrap();
        let proba = model.predict_proba(&data).unwrap();
        let acc = proba
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == l)
            .count() as f64
            / labels.len() as f64;
        assert!(acc > 0.95, "acc = {acc}");
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (data, labels) = make_data(200, 3);
        let model = GradientBoosting::fit(&data, &labels, &small_config()).unwrap();
        for p in model.predict_proba(&data).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (data, labels) = make_data(200, 5);
        let a = GradientBoosting::fit(&data, &labels, &small_config()).unwrap();
        let b = GradientBoosting::fit(&data, &labels, &small_config()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn importances_favor_signal() {
        let (data, labels) = make_data(500, 7);
        let model = GradientBoosting::fit(&data, &labels, &small_config()).unwrap();
        let gain = model.gain_importances();
        let count = model.split_count_importances();
        assert!(gain[0] > gain[2], "gain = {gain:?}");
        assert!(count[0] > count[2], "count = {count:?}");
        assert!((gain.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((count.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn subsampling_still_learns() {
        let (data, labels) = make_data(500, 9);
        let config = BoostingConfig {
            subsample: 0.6,
            ..small_config()
        };
        let model = GradientBoosting::fit(&data, &labels, &config).unwrap();
        let proba = model.predict_proba(&data).unwrap();
        let acc = proba
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == l)
            .count() as f64
            / labels.len() as f64;
        assert!(acc > 0.9, "acc = {acc}");
    }

    #[test]
    fn rejects_bad_hyperparameters() {
        let (data, labels) = make_data(50, 11);
        for mutate in [
            |c: &mut BoostingConfig| c.n_rounds = 0,
            |c: &mut BoostingConfig| c.learning_rate = 0.0,
            |c: &mut BoostingConfig| c.learning_rate = 1.5,
            |c: &mut BoostingConfig| c.subsample = 0.0,
        ] {
            let mut c = small_config();
            mutate(&mut c);
            assert!(GradientBoosting::fit(&data, &labels, &c).is_err());
        }
    }

    #[test]
    fn single_class_predicts_near_prior() {
        let (data, _) = make_data(60, 13);
        let labels = vec![true; 60];
        let model = GradientBoosting::fit(&data, &labels, &small_config()).unwrap();
        let proba = model.predict_proba(&data).unwrap();
        assert!(proba.iter().all(|&p| p > 0.95));
    }

    #[test]
    fn predict_rejects_schema_mismatch() {
        let (data, labels) = make_data(50, 17);
        let model = GradientBoosting::fit(&data, &labels, &small_config()).unwrap();
        let narrow = FeatureMatrix::from_columns(vec!["x".into()], vec![vec![1.0]]).unwrap();
        assert!(matches!(
            model.predict_proba(&narrow),
            Err(TreesError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let (data, labels) = make_data(400, 19);
        let err = |rounds: usize| {
            let config = BoostingConfig {
                n_rounds: rounds,
                ..small_config()
            };
            let model = GradientBoosting::fit(&data, &labels, &config).unwrap();
            let proba = model.predict_proba(&data).unwrap();
            proba
                .iter()
                .zip(&labels)
                .map(|(p, &l)| (p - f64::from(u8::from(l))).powi(2))
                .sum::<f64>()
        };
        assert!(err(50) < err(5));
    }
}
