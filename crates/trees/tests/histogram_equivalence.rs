//! Differential tests: the histogram split engine against the exact engine.
//!
//! On losslessly binned features (≤ 255 distinct values) with 0/1 targets
//! every partial sum is an exact integer, so the two engines must agree
//! **bitwise**: same gain, same threshold, same left count, and — at the
//! tree level — identical trees from the same RNG stream. On quantized
//! features the histogram engine is exactly "the exact engine run on the
//! quantized column", and its gain never exceeds the exact gain on the raw
//! column (its boundaries are a subset of the raw boundaries).

use rng::prop::Gen;
use rng::rngs::StdRng;
use rng::SeedableRng;
use smart_stats::FeatureMatrix;
use smart_trees::split::best_split;
use smart_trees::{BinnedMatrix, MaxFeatures, RegressionTree, TreeConfig};

fn single_column(values: &[f64]) -> FeatureMatrix {
    FeatureMatrix::from_columns(vec!["f0".into()], vec![values.to_vec()]).unwrap()
}

/// Exact-engine best split of one column.
fn exact_split(values: &[f64], targets: &[f64], msl: usize) -> Option<smart_trees::split::Split> {
    let mut pairs: Vec<(f64, f64)> = values
        .iter()
        .copied()
        .zip(targets.iter().copied())
        .collect();
    best_split(&mut pairs, msl)
}

/// A column with at most `max_distinct` distinct values.
fn low_cardinality_column(g: &mut Gen, n: usize, max_distinct: usize) -> Vec<f64> {
    let d = g.usize_in(2, max_distinct);
    let pool: Vec<f64> = (0..d).map(|_| g.f64_in(-50.0, 50.0)).collect();
    (0..n).map(|_| pool[g.usize_in(0, d - 1)]).collect()
}

fn binary_targets(g: &mut Gen, n: usize) -> Vec<f64> {
    (0..n).map(|_| g.usize_in(0, 1) as f64).collect()
}

#[test]
fn prop_exactly_binned_split_is_bitwise_identical() {
    rng::prop_check!(|g| {
        let n = g.usize_in(4, 80);
        let values = low_cardinality_column(g, n, 12);
        let targets = binary_targets(g, n);
        let msl = g.usize_in(1, 3);

        let binned = BinnedMatrix::from_matrix(&single_column(&values)).unwrap();
        assert!(binned.is_exact(0));
        let rows: Vec<usize> = (0..n).collect();
        let hist = binned.best_split(0, &rows, &targets, msl);
        let exact = exact_split(&values, &targets, msl);
        // 0/1 targets: gains are exact integers-over-integers on both
        // sides, so the whole Split must match bit for bit.
        assert_eq!(hist, exact);
    });
}

#[test]
fn prop_exactly_binned_split_matches_with_continuous_targets() {
    rng::prop_check!(|g| {
        let n = g.usize_in(4, 60);
        let values = low_cardinality_column(g, n, 10);
        let targets: Vec<f64> = (0..n).map(|_| g.f64_in(0.0, 1.0)).collect();

        let binned = BinnedMatrix::from_matrix(&single_column(&values)).unwrap();
        let rows: Vec<usize> = (0..n).collect();
        let hist = binned.best_split(0, &rows, &targets, 1);
        let exact = exact_split(&values, &targets, 1);
        match (hist, exact) {
            (Some(h), Some(e)) => {
                // Continuous targets accumulate in different orders, so
                // gains agree only to rounding — but the chosen boundary
                // must be the same.
                assert_eq!(h.threshold, e.threshold);
                assert_eq!(h.n_left, e.n_left);
                assert!((h.gain - e.gain).abs() <= 1e-9 * e.gain.abs().max(1.0));
            }
            (h, e) => assert_eq!(h.map(|s| s.n_left), e.map(|s| s.n_left)),
        }
    });
}

#[test]
fn prop_quantized_split_equals_exact_on_quantized_column() {
    rng::prop_check!(|g| {
        let n = g.usize_in(30, 120);
        let max_bins = g.usize_in(2, 16);
        let values: Vec<f64> = (0..n).map(|_| g.f64_in(-100.0, 100.0)).collect();
        let targets = binary_targets(g, n);
        let msl = g.usize_in(1, 3);

        let binned = BinnedMatrix::with_max_bins(&single_column(&values), max_bins).unwrap();
        let rows: Vec<usize> = (0..n).collect();
        let hist = binned.best_split(0, &rows, &targets, msl);

        // The strong property: the histogram search over raw values IS the
        // exact search over the quantized column (values snapped to their
        // bin upper). With 0/1 targets the match is bitwise.
        let quantized = binned.quantized_matrix();
        let exact_on_quantized = exact_split(quantized.column(0), &targets, msl);
        assert_eq!(hist, exact_on_quantized);

        if let Some(h) = hist {
            // min_samples_leaf is never violated by quantization.
            assert!(h.n_left >= msl && n - h.n_left >= msl);
            // Histogram boundaries are a subset of the raw boundaries, so
            // quantization can only lose gain, never invent it.
            if let Some(e) = exact_split(&values, &targets, msl) {
                assert!(
                    h.gain <= e.gain + 1e-9,
                    "hist {} > exact {}",
                    h.gain,
                    e.gain
                );
            }
        }
    });
}

#[test]
fn prop_trees_are_identical_on_exactly_binned_data() {
    rng::prop_check!(|g| {
        let n = g.usize_in(20, 100);
        let columns: Vec<Vec<f64>> = (0..3).map(|_| low_cardinality_column(g, n, 9)).collect();
        let names = vec!["a".into(), "b".into(), "c".into()];
        let data = FeatureMatrix::from_columns(names, columns).unwrap();
        let targets = binary_targets(g, n);
        // Half the cases draw rows with repetition, as a bootstrap does:
        // the exact engine keeps every copy as its own row, the histogram
        // engine folds the copies into one weighted row.
        let rows: Vec<usize> = if g.bool() {
            (0..n).map(|_| g.usize_in(0, n - 1)).collect()
        } else {
            (0..n).collect()
        };
        let binned = BinnedMatrix::from_matrix(&data).unwrap();
        let seed = g.usize_in(0, u32::MAX as usize) as u64;

        for max_features in [MaxFeatures::All, MaxFeatures::Sqrt] {
            for min_samples_leaf in [1, 3] {
                let config = TreeConfig {
                    max_depth: 5,
                    min_samples_leaf,
                    max_features,
                };
                let mut rng_a = StdRng::seed_from_u64(seed);
                let exact =
                    RegressionTree::fit(&data, &targets, &rows, &config, &mut rng_a).unwrap();
                let mut rng_b = StdRng::seed_from_u64(seed);
                let hist =
                    RegressionTree::fit_binned(&binned, &targets, &rows, &config, &mut rng_b)
                        .unwrap();
                // Same RNG stream + bit-identical split decisions ⇒ the same
                // tree, node for node (leaf values and sizes included) —
                // and both engines must have consumed the same number of
                // RNG draws to stay in lockstep.
                let tag = format!("max_features = {max_features:?}, msl = {min_samples_leaf}");
                assert_eq!(exact, hist, "{tag}");
                assert_eq!(exact.predict(&data).unwrap(), hist.predict(&data).unwrap());
            }
        }
    });
}

#[test]
fn quantized_tree_predicts_raw_rows_like_quantized_rows() {
    // Thresholds of a histogram-trained tree are bin uppers, so a raw value
    // and its quantized image route identically through every node.
    let mut g = Gen::new(0xB17);
    let n = 300;
    let columns: Vec<Vec<f64>> = (0..2)
        .map(|_| (0..n).map(|_| g.f64_in(-10.0, 10.0)).collect())
        .collect();
    let data = FeatureMatrix::from_columns(vec!["x".into(), "y".into()], columns).unwrap();
    let targets = binary_targets(&mut g, n);
    let rows: Vec<usize> = (0..n).collect();
    let binned = BinnedMatrix::with_max_bins(&data, 32).unwrap();
    assert!(!binned.is_exact(0) && !binned.is_exact(1));

    let config = TreeConfig {
        max_depth: 6,
        ..TreeConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let tree = RegressionTree::fit_binned(&binned, &targets, &rows, &config, &mut rng).unwrap();
    assert_eq!(
        tree.predict(&data).unwrap(),
        tree.predict(&binned.quantized_matrix()).unwrap()
    );
}
