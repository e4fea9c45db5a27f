//! Random Forest classifier: bagged CART trees with per-node feature
//! subsampling, and both impurity-based and out-of-bag permutation feature
//! importances.
//!
//! The paper uses Random Forest both as its prediction model (100 trees,
//! depth 13) and as one of the five preliminary feature-selection approaches
//! (via feature importance, §II-C).

use crate::binned::BinnedMatrix;
use crate::config::{MaxFeatures, SplitStrategy, TreeConfig};
use crate::error::TreesError;
use crate::tree::RegressionTree;
use rng::rngs::StdRng;
use rng::{RngExt, SeedableRng};
use smart_stats::sampling::{bootstrap_indices, out_of_bag_indices};
use smart_stats::FeatureMatrix;

/// Random Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees (paper: 100).
    pub n_trees: usize,
    /// Per-tree configuration. Defaults to depth 13 with √F features per
    /// node.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
    /// Number of worker threads for training and importance computation
    /// (`None` = available parallelism).
    pub n_threads: Option<usize>,
    /// Split-search engine (default: [`SplitStrategy::Histogram`]).
    pub strategy: SplitStrategy,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_features: MaxFeatures::Sqrt,
                ..TreeConfig::default()
            },
            seed: 0,
            n_threads: None,
            strategy: SplitStrategy::default(),
        }
    }
}

/// A trained Random Forest classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    oob_rows: Vec<Vec<usize>>,
    n_features: usize,
    /// Height of the training matrix, which `oob_rows` index.
    n_rows: usize,
    config: ForestConfig,
}

impl RandomForest {
    /// Train a forest on `data` against boolean `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::EmptyTraining`] for an empty matrix,
    /// [`TreesError::LengthMismatch`] when labels don't cover the matrix,
    /// and [`TreesError::InvalidParameter`] for degenerate configuration.
    pub fn fit(
        data: &FeatureMatrix,
        labels: &[bool],
        config: &ForestConfig,
    ) -> Result<Self, TreesError> {
        config.tree.validate()?;
        if config.n_trees == 0 {
            return Err(TreesError::InvalidParameter {
                message: "n_trees must be at least 1".to_string(),
            });
        }
        if data.n_rows() == 0 {
            return Err(TreesError::EmptyTraining);
        }
        if labels.len() != data.n_rows() {
            return Err(TreesError::LengthMismatch {
                features: data.n_rows(),
                targets: labels.len(),
            });
        }
        let targets: Vec<f64> = labels.iter().map(|&l| f64::from(u8::from(l))).collect();

        // Bin once, share read-only across every tree and worker.
        let binned = match config.strategy {
            SplitStrategy::Histogram => Some(BinnedMatrix::from_matrix(data)?),
            SplitStrategy::Exact => None,
        };

        let n_threads = effective_threads(config.n_threads, config.n_trees);
        let results: Vec<Result<(RegressionTree, Vec<usize>), TreesError>> =
            run_indexed_parallel(config.n_trees, n_threads, |tree_idx| {
                let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, tree_idx as u64));
                let bootstrap = bootstrap_indices(&mut rng, data.n_rows())?;
                let oob = out_of_bag_indices(&bootstrap, data.n_rows());
                let tree = match &binned {
                    Some(b) => {
                        RegressionTree::fit_binned(b, &targets, &bootstrap, &config.tree, &mut rng)
                    }
                    None => RegressionTree::fit(data, &targets, &bootstrap, &config.tree, &mut rng),
                }?;
                Ok((tree, oob))
            });

        let (trees, oob_rows) = results
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        Ok(RandomForest {
            trees,
            oob_rows,
            n_features: data.n_features(),
            n_rows: data.n_rows(),
            config: *config,
        })
    }

    /// Predicted failure probability for every row (mean over trees).
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
        let mut sums = vec![0.0; data.n_rows()];
        for tree in &self.trees {
            for (row, sum) in sums.iter_mut().enumerate() {
                *sum += tree.predict_row(data, row);
            }
        }
        let n = self.trees.len() as f64;
        Ok(sums.into_iter().map(|s| s / n).collect())
    }

    /// Mean decrease in impurity (gain) per feature, normalized to sum to 1
    /// (all-zero when the forest made no splits).
    pub fn impurity_importances(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (t, g) in totals.iter_mut().zip(tree.gain_importances()) {
                *t += g;
            }
        }
        normalize(&mut totals);
        totals
    }

    /// Breiman OOB permutation importance: for each tree and feature,
    /// the decrease in OOB accuracy when that feature's values are permuted
    /// within the tree's OOB set, averaged over trees and normalized to sum
    /// to 1 (negative raw scores are clamped to zero first).
    ///
    /// This is the "degree of reduction of classification accuracy after
    /// adding noises to a learning feature" the paper describes (§II-C).
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::SchemaMismatch`] when the feature count differs
    /// from training and [`TreesError::LengthMismatch`] when `data` is not
    /// the training matrix's height or `labels` don't cover it.
    pub fn permutation_importances(
        &self,
        data: &FeatureMatrix,
        labels: &[bool],
    ) -> Result<Vec<f64>, TreesError> {
        self.check_training_matrix(data)?;
        if labels.len() != data.n_rows() {
            return Err(TreesError::LengthMismatch {
                features: data.n_rows(),
                targets: labels.len(),
            });
        }

        // Histogram-trained trees split at bin-upper thresholds, so route
        // on bin uppers: permuting them is exactly a permutation of bin ids,
        // and an unpermuted row routes as its raw value would (value and
        // its bin upper fall on the same side of every threshold).
        let binned = match self.config.strategy {
            SplitStrategy::Histogram => Some(BinnedMatrix::from_matrix(data)?),
            SplitStrategy::Exact => None,
        };

        let n_threads = effective_threads(self.config.n_threads, self.trees.len());
        let per_tree: Vec<Vec<f64>> = run_indexed_parallel(self.trees.len(), n_threads, |t| {
            self.tree_permutation_importance(t, data, binned.as_ref(), labels)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

        let mut totals = vec![0.0; self.n_features];
        for tree_scores in &per_tree {
            for (t, s) in totals.iter_mut().zip(tree_scores) {
                *t += s.max(0.0);
            }
        }
        normalize(&mut totals);
        Ok(totals)
    }

    /// Permutation importance of every feature for one tree's OOB set.
    ///
    /// Permuting feature `f` can only change the answer of a row whose path
    /// tests `f`, so only those rows are re-routed, from the first node that
    /// tests `f`. The shuffle draws depend only on the row count, so the
    /// scores equal those of re-predicting a fully permuted matrix, bit for
    /// bit (DESIGN.md §8).
    fn tree_permutation_importance(
        &self,
        tree_idx: usize,
        data: &FeatureMatrix,
        binned: Option<&BinnedMatrix>,
        labels: &[bool],
    ) -> Result<Vec<f64>, TreesError> {
        // Cap OOB evaluation size to bound cost on large training sets.
        const MAX_OOB: usize = 512;
        let (tree, oob) = (&self.trees[tree_idx], &self.oob_rows[tree_idx]);
        let f_total = self.n_features;
        let mut rng = StdRng::seed_from_u64(mix_seed(self.config.seed ^ 0xA5A5, tree_idx as u64));
        let rows: Vec<usize> = if oob.len() > MAX_OOB {
            smart_stats::sampling::sample_without_replacement(&mut rng, oob.len(), MAX_OOB)?
                .into_iter()
                .map(|i| oob[i])
                .collect()
        } else {
            oob.clone()
        };
        if rows.is_empty() {
            return Ok(vec![0.0; f_total]);
        }

        // Row-major block of the values the tree routes on.
        let cell = |r, f| binned.map_or_else(|| data.value(r, f), |b| b.quantized(r, f));
        let block: Vec<f64> = rows
            .iter()
            .flat_map(|&r| (0..f_total).map(move |f| cell(r, f)))
            .collect();
        let row_values = |i: usize| &block[i * f_total..(i + 1) * f_total];

        // tests[f]: (row, first node testing f) for every row whose path
        // tests f. Rows go in order, so a last entry for row i means f was
        // already recorded on row i's path.
        let mut tests: Vec<Vec<(usize, usize)>> = vec![Vec::new(); f_total];
        let mut correct = Vec::with_capacity(rows.len());
        for (i, &r) in rows.iter().enumerate() {
            let values = row_values(i);
            let leaf = tree.descend(
                0,
                |f| values[f],
                |node, f| {
                    if tests[f].last().is_none_or(|&(j, _)| j != i) {
                        tests[f].push((i, node));
                    }
                },
            );
            correct.push((tree.leaf_value(leaf) >= 0.5) == labels[r]);
        }
        let n_correct = correct.iter().filter(|&&c| c).count();
        let n = rows.len() as f64;

        let mut perm: Vec<usize> = Vec::with_capacity(rows.len());
        Ok(tests
            .iter()
            .enumerate()
            .map(|(feature, tested)| {
                // perm[i] is the row whose value lands in row i.
                perm.clear();
                perm.extend(0..rows.len());
                shuffle(&mut perm, &mut rng);
                let mut permuted_correct = n_correct;
                for &(i, node) in tested {
                    let (values, swapped) = (row_values(i), row_values(perm[i])[feature]);
                    let value = |f| if f == feature { swapped } else { values[f] };
                    let leaf = tree.descend(node, value, |_, _| {});
                    // Each row appears once per feature and still counts its
                    // baseline answer here, so this never underflows.
                    permuted_correct = permuted_correct
                        + usize::from((tree.leaf_value(leaf) >= 0.5) == labels[rows[i]])
                        - usize::from(correct[i]);
                }
                n_correct as f64 / n - permuted_correct as f64 / n
            })
            .collect())
    }

    /// `data` must have the training schema and height: the stored OOB row
    /// ids index the training rows.
    fn check_training_matrix(&self, data: &FeatureMatrix) -> Result<(), TreesError> {
        if data.n_features() != self.n_features {
            return Err(TreesError::SchemaMismatch {
                trained: self.n_features,
                given: data.n_features(),
            });
        }
        if data.n_rows() != self.n_rows {
            return Err(TreesError::LengthMismatch {
                features: data.n_rows(),
                targets: self.n_rows,
            });
        }
        Ok(())
    }

    /// The trained trees.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Number of features the forest was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// Fisher–Yates shuffle; the draws depend only on `xs.len()`.
fn shuffle(xs: &mut [usize], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

fn normalize(xs: &mut [f64]) {
    let total: f64 = xs.iter().sum();
    if total > 0.0 {
        for x in xs.iter_mut() {
            *x /= total;
        }
    }
}

pub(crate) fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

pub(crate) fn effective_threads(requested: Option<usize>, work_items: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(4, usize::from);
    requested.unwrap_or(available).clamp(1, work_items.max(1))
}

/// Run `f(0..n)` across `n_threads` OS threads, preserving index order in
/// the result.
pub(crate) fn run_indexed_parallel<T, F>(n: usize, n_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(n_threads);
    std::thread::scope(|scope| {
        for (start, slice) in (0..n).step_by(chunk).zip(results.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (offset, slot) in slice.iter_mut().enumerate() {
                    *slot = Some(f(start + offset));
                }
            });
        }
    });
    results
        .into_iter()
        // lint:allow(panic-free) the scoped threads above cover 0..n exactly
        // (step_by(chunk) zipped with chunks_mut(chunk)), so every slot is
        // Some by the time the scope joins
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::RngExt;

    /// Synthetic task: y = (x0 > 0.5), x1 correlated, x2 noise.
    fn make_data(n: usize, seed: u64) -> (FeatureMatrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.random();
            let x1 = x0 * 0.7 + rng.random::<f64>() * 0.3;
            let x2: f64 = rng.random();
            labels.push(x0 > 0.5);
            rows.push(vec![x0, x1, x2]);
        }
        (
            FeatureMatrix::from_rows(vec!["signal".into(), "proxy".into(), "noise".into()], &rows)
                .unwrap(),
            labels,
        )
    }

    fn small_config() -> ForestConfig {
        ForestConfig {
            n_trees: 30,
            seed: 1,
            ..ForestConfig::default()
        }
    }

    #[test]
    fn learns_simple_threshold_task() {
        let (data, labels) = make_data(400, 2);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let proba = forest.predict_proba(&data).unwrap();
        let correct = proba
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == l)
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.97);
    }

    #[test]
    fn training_is_deterministic() {
        let (data, labels) = make_data(200, 3);
        let a = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let b = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        assert_eq!(a, b);
    }

    /// The same task with a slice of the signal column knocked out to NaN:
    /// the histogram engine must train, predict, and score permutation
    /// importances end to end on missing data — deterministically.
    fn make_data_with_missing(n: usize, seed: u64) -> (FeatureMatrix, Vec<bool>) {
        let (data, labels) = make_data(n, seed);
        let mut columns: Vec<Vec<f64>> = (0..data.n_features())
            .map(|c| data.column(c).to_vec())
            .collect();
        for (r, v) in columns[0].iter_mut().enumerate() {
            if r % 5 == 0 {
                *v = f64::NAN;
            }
        }
        (
            FeatureMatrix::from_columns_with_missing(data.feature_names().to_vec(), columns)
                .unwrap(),
            labels,
        )
    }

    #[test]
    fn histogram_forest_handles_missing_values_end_to_end() {
        let (data, labels) = make_data_with_missing(400, 2);
        let config = ForestConfig {
            strategy: SplitStrategy::Histogram,
            ..small_config()
        };
        let forest = RandomForest::fit(&data, &labels, &config).unwrap();
        let again = RandomForest::fit(&data, &labels, &config).unwrap();
        assert_eq!(forest, again, "missing-data training is deterministic");
        let proba = forest.predict_proba(&data).unwrap();
        assert!(proba.iter().all(|p| p.is_finite()));
        // 80% of the signal column survives; accuracy should stay high.
        let correct = proba
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == l)
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.9);
        let imp = forest.permutation_importances(&data, &labels).unwrap();
        assert!(imp.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn exact_forest_degrades_gracefully_on_missing_values() {
        // The exact engine cannot split a feature containing NaN; it must
        // still train (using the remaining features), never panic.
        let (data, labels) = make_data_with_missing(200, 4);
        let config = ForestConfig {
            strategy: SplitStrategy::Exact,
            ..small_config()
        };
        let forest = RandomForest::fit(&data, &labels, &config).unwrap();
        let proba = forest.predict_proba(&data).unwrap();
        assert!(proba.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (data, labels) = make_data(200, 3);
        let mut c1 = small_config();
        c1.n_threads = Some(1);
        let mut c4 = small_config();
        c4.n_threads = Some(4);
        let a = RandomForest::fit(&data, &labels, &c1).unwrap();
        let b = RandomForest::fit(&data, &labels, &c4).unwrap();
        assert_eq!(a.trees(), b.trees());
    }

    #[test]
    fn exact_and_histogram_grow_identical_trees_on_exactly_binned_data() {
        // 200 rows → every feature has ≤ 255 distinct values and bins
        // losslessly; targets are 0/1 so every partial sum is an exact
        // integer. The two engines must then grow bit-identical trees
        // from the same RNG stream.
        let (data, labels) = make_data(200, 17);
        let exact = RandomForest::fit(
            &data,
            &labels,
            &ForestConfig {
                strategy: SplitStrategy::Exact,
                ..small_config()
            },
        )
        .unwrap();
        let hist = RandomForest::fit(
            &data,
            &labels,
            &ForestConfig {
                strategy: SplitStrategy::Histogram,
                ..small_config()
            },
        )
        .unwrap();
        assert_eq!(exact.trees(), hist.trees());
    }

    #[test]
    fn histogram_strategy_learns_quantized_data() {
        // 400 rows of continuous features force the quantile binning path.
        let (data, labels) = make_data(400, 19);
        let forest = RandomForest::fit(
            &data,
            &labels,
            &ForestConfig {
                strategy: SplitStrategy::Histogram,
                ..small_config()
            },
        )
        .unwrap();
        let proba = forest.predict_proba(&data).unwrap();
        let correct = proba
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == l)
            .count();
        assert!(
            correct as f64 > 0.9 * labels.len() as f64,
            "correct = {correct}"
        );
        let perm = forest.permutation_importances(&data, &labels).unwrap();
        assert!(perm[0] > perm[2], "perm = {perm:?}");
    }

    #[test]
    fn importances_rank_signal_over_noise() {
        let (data, labels) = make_data(400, 7);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let mdi = forest.impurity_importances();
        assert!(mdi[0] > mdi[2], "mdi = {mdi:?}");
        let perm = forest.permutation_importances(&data, &labels).unwrap();
        assert!(perm[0] > perm[2], "perm = {perm:?}");
        assert!(
            perm[0] > perm[1],
            "signal must beat its noisy proxy: {perm:?}"
        );
        // Normalized.
        assert!((mdi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((perm.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_and_mismatched_input() {
        let (data, labels) = make_data(50, 9);
        assert!(matches!(
            RandomForest::fit(&data, &labels[..10], &small_config()),
            Err(TreesError::LengthMismatch { .. })
        ));
        let mut c = small_config();
        c.n_trees = 0;
        assert!(RandomForest::fit(&data, &labels, &c).is_err());
    }

    #[test]
    fn predict_rejects_schema_mismatch() {
        let (data, labels) = make_data(50, 11);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let narrow = FeatureMatrix::from_columns(vec!["x".into()], vec![vec![1.0]]).unwrap();
        assert!(matches!(
            forest.predict_proba(&narrow),
            Err(TreesError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn single_class_training_predicts_that_class() {
        let (data, _) = make_data(60, 13);
        let labels = vec![false; 60];
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let proba = forest.predict_proba(&data).unwrap();
        assert!(proba.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn run_indexed_parallel_preserves_order() {
        let out = run_indexed_parallel(17, 4, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        let out = run_indexed_parallel(3, 1, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
        let out: Vec<usize> = run_indexed_parallel(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn importances_reject_a_matrix_that_is_not_the_training_one() {
        // OOB row ids index the training rows, so any other height must be
        // refused up front: shorter would index past the end, taller would
        // silently score the wrong rows.
        let (data, labels) = make_data(120, 23);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        for n in [60, 240] {
            let (other, other_labels) = make_data(n, 24);
            let expected = TreesError::LengthMismatch {
                features: n,
                targets: 120,
            };
            assert_eq!(
                forest.permutation_importances(&other, &other_labels),
                Err(expected)
            );
        }
        assert!(forest.permutation_importances(&data, &labels).is_ok());
    }

    /// The per-feature rebuild algorithm the path-based one replaced, kept
    /// as its oracle: per tree, materialize the OOB submatrix, rebuild it
    /// with one column shuffled, and re-predict every row from the root.
    fn oracle_tree_importance(
        forest: &RandomForest,
        tree_idx: usize,
        data: &FeatureMatrix,
        labels: &[bool],
    ) -> Vec<f64> {
        const MAX_OOB: usize = 512;
        let tree = &forest.trees[tree_idx];
        let oob = &forest.oob_rows[tree_idx];
        let mut rng = StdRng::seed_from_u64(mix_seed(forest.config.seed ^ 0xA5A5, tree_idx as u64));
        let rows: Vec<usize> = if oob.len() > MAX_OOB {
            smart_stats::sampling::sample_without_replacement(&mut rng, oob.len(), MAX_OOB)
                .unwrap()
                .into_iter()
                .map(|i| oob[i])
                .collect()
        } else {
            oob.clone()
        };
        if rows.is_empty() {
            return vec![0.0; forest.n_features];
        }
        let sub = data.select_rows(&rows).unwrap();
        let sub_labels: Vec<bool> = rows.iter().map(|&r| labels[r]).collect();
        let accuracy = |m: &FeatureMatrix| {
            let correct = (0..m.n_rows())
                .filter(|&r| (tree.predict_row(m, r) >= 0.5) == sub_labels[r])
                .count();
            correct as f64 / m.n_rows().max(1) as f64
        };
        let baseline = accuracy(&sub);
        (0..forest.n_features)
            .map(|feature| {
                let mut permuted = sub.column(feature).to_vec();
                for i in (1..permuted.len()).rev() {
                    let j = rng.random_range(0..=i);
                    permuted.swap(i, j);
                }
                let mut columns: Vec<Vec<f64>> = (0..sub.n_features())
                    .map(|c| sub.column(c).to_vec())
                    .collect();
                columns[feature] = permuted;
                let shuffled =
                    FeatureMatrix::from_columns_with_missing(sub.feature_names().to_vec(), columns)
                        .unwrap();
                baseline - accuracy(&shuffled)
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A random task: mixed continuous / low-cardinality columns, some with
    /// NaN cells, labels driven by the first column plus label noise.
    fn random_task(g: &mut rng::prop::Gen, n: usize) -> (FeatureMatrix, Vec<bool>) {
        let n_features = g.usize_in(2, 6);
        let columns: Vec<Vec<f64>> = (0..n_features)
            .map(|_| {
                let distinct = if g.bool() { g.usize_in(2, 12) } else { n };
                let nan_rate = if g.bool() { g.f64_in(0.05, 0.3) } else { 0.0 };
                (0..n)
                    .map(|_| {
                        if g.bool_with(nan_rate) {
                            f64::NAN
                        } else {
                            g.usize_in(0, distinct - 1) as f64 / distinct as f64
                        }
                    })
                    .collect()
            })
            .collect();
        let labels = columns[0]
            .iter()
            .map(|&x| if x.is_nan() { g.bool() } else { x > 0.5 } != g.bool_with(0.1))
            .collect();
        let names = (0..n_features).map(|f| format!("f{f}")).collect();
        (
            FeatureMatrix::from_columns_with_missing(names, columns).unwrap(),
            labels,
        )
    }

    #[test]
    fn prop_path_reroute_matches_the_rebuild_oracle_bit_for_bit() {
        rng::prop_check!(|g| {
            // Small sets keep every OOB row; ~1500 rows push the OOB sets
            // past the 512-row cap so the sampled path runs too.
            let n = if g.bool() {
                g.usize_in(8, 300)
            } else {
                g.usize_in(1450, 1700)
            };
            let (data, labels) = random_task(g, n);
            let threads = if g.bool() { 1 } else { 4 };
            let config = ForestConfig {
                n_trees: g.usize_in(1, 6),
                tree: TreeConfig {
                    // Shallow trees leave features untested on every path.
                    max_depth: if g.bool() {
                        g.usize_in(1, 3)
                    } else {
                        g.usize_in(4, 13)
                    },
                    max_features: if g.bool() {
                        MaxFeatures::Sqrt
                    } else {
                        MaxFeatures::All
                    },
                    ..TreeConfig::default()
                },
                seed: g.u64_in(0, u64::MAX),
                n_threads: Some(threads),
                strategy: if g.bool() {
                    SplitStrategy::Histogram
                } else {
                    SplitStrategy::Exact
                },
            };
            let forest = RandomForest::fit(&data, &labels, &config).unwrap();

            let quantized;
            let eval = match config.strategy {
                SplitStrategy::Histogram => {
                    quantized = BinnedMatrix::from_matrix(&data).unwrap().quantized_matrix();
                    &quantized
                }
                SplitStrategy::Exact => &data,
            };
            let binned = (config.strategy == SplitStrategy::Histogram)
                .then(|| BinnedMatrix::from_matrix(&data).unwrap());
            let mut oracle_totals = vec![0.0; data.n_features()];
            for t in 0..forest.trees().len() {
                let oracle = oracle_tree_importance(&forest, t, eval, &labels);
                let fast = forest
                    .tree_permutation_importance(t, &data, binned.as_ref(), &labels)
                    .unwrap();
                assert_eq!(bits(&fast), bits(&oracle), "tree {t}");
                for (total, s) in oracle_totals.iter_mut().zip(&oracle) {
                    *total += s.max(0.0);
                }
            }
            normalize(&mut oracle_totals);

            let imp = forest.permutation_importances(&data, &labels).unwrap();
            assert_eq!(bits(&imp), bits(&oracle_totals));
            let other = RandomForest {
                config: ForestConfig {
                    n_threads: Some(5 - threads),
                    ..config
                },
                ..forest.clone()
            };
            let imp_other = other.permutation_importances(&data, &labels).unwrap();
            assert_eq!(bits(&imp_other), bits(&imp), "thread count changed scores");
        });
    }

    #[test]
    fn mix_seed_spreads_indices() {
        let a = mix_seed(1, 0);
        let b = mix_seed(1, 1);
        assert_ne!(a, b);
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
    }
}
