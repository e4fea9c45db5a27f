//! Bit pins for the boosted learner and the forest importances.
//!
//! The histogram engine's speed-ups (weighted rows, leaves read from the
//! partition, in-place sibling histograms, the one-candidate boundary
//! scan) promise to move no output bit (DESIGN.md §8). These digests were
//! taken from the engine before those changes, on a seeded matrix that
//! reaches every binning path: a quantile-binned column (more than 255
//! distinct values), a column with NaN cells (the reserved missing bin,
//! which gradient boosting's sibling subtraction carries), and
//! low-cardinality columns. The forest runs with √F candidates per node
//! (fresh histograms) and with every feature (sibling subtraction over
//! bootstrap copies).

use rng::rngs::StdRng;
use rng::{RngExt, SeedableRng};
use smart_stats::FeatureMatrix;
use smart_trees::{
    BoostingConfig, ForestConfig, GradientBoosting, MaxFeatures, RandomForest, TreeConfig,
};

const ROWS: usize = 1_500;

/// Five columns: `wear` (continuous, quantile-binned), `errors` (small
/// integers, a fifth of them missing), `temp` (seven levels), `flag`
/// (binary) and `noise` (continuous). Labels mix a wear threshold, an
/// error count, missingness itself and 5% label noise.
fn fixture() -> (FeatureMatrix, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(0x5EED_B175);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut labels = Vec::with_capacity(ROWS);
    for _ in 0..ROWS {
        let wear: f64 = rng.random();
        let errors = if rng.random_bool(0.2) {
            f64::NAN
        } else {
            f64::from(rng.random_range(0u32..12))
        };
        let temp = f64::from(rng.random_range(0u32..7));
        let flag = f64::from(u8::from(rng.random_bool(0.3)));
        let noise: f64 = rng.random();
        let signal = wear > 0.8
            || (errors >= 8.0 && temp >= 3.0)
            || (errors.is_nan() && flag == 1.0 && wear > 0.5);
        labels.push(signal != rng.random_bool(0.05));
        for (column, value) in columns.iter_mut().zip([wear, errors, temp, flag, noise]) {
            column.push(value);
        }
    }
    let names = ["wear", "errors", "temp", "flag", "noise"]
        .map(String::from)
        .to_vec();
    let data = FeatureMatrix::from_columns_with_missing(names, columns).unwrap();
    (data, labels)
}

/// `data` with every `errors` cell missing: each split's missing-value
/// routing then decides where a row goes.
fn blanked(data: &FeatureMatrix) -> FeatureMatrix {
    let mut columns: Vec<Vec<f64>> = (0..data.n_features())
        .map(|f| data.column(f).to_vec())
        .collect();
    columns[1].fill(f64::NAN);
    FeatureMatrix::from_columns_with_missing(data.feature_names().to_vec(), columns).unwrap()
}

/// FNV-1a over the little-endian bytes of every value's bit pattern.
fn digest(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn boosted_learner_matches_its_pinned_bits() {
    let (data, labels) = fixture();
    // The digests of the gain importances, the split-count importances and
    // `predict_proba` on the training rows and on a copy with one feature
    // blanked.
    let pinned: [u64; 4] = [
        0x8c3b_b05a_d999_067c,
        0x6843_2656_1d20_d367,
        0x9090_5568_a863_bd97,
        0x281a_2727_ca87_6fa7,
    ];
    let config = BoostingConfig {
        seed: 3,
        ..BoostingConfig::default()
    };
    let model = GradientBoosting::fit(&data, &labels, &config).unwrap();
    let got = [
        digest(&model.gain_importances()),
        digest(&model.split_count_importances()),
        digest(&model.predict_proba(&data).unwrap()),
        digest(&model.predict_proba(&blanked(&data)).unwrap()),
    ];
    assert_eq!(got, pinned, "got {got:#018x?}");
}

#[test]
fn forest_importances_match_their_pinned_bits() {
    let (data, labels) = fixture();
    // Per candidate rule: the digests of the permutation and the impurity
    // importances.
    let pinned: [(MaxFeatures, [u64; 2]); 2] = [
        (
            MaxFeatures::Sqrt,
            [0x4062_3d17_49ea_b9be, 0x738b_220d_6155_5854],
        ),
        (
            MaxFeatures::All,
            [0xde2b_4dde_d8bb_ba02, 0x67e3_4af2_e767_0fc8],
        ),
    ];
    let got = pinned.map(|(max_features, _)| {
        let config = ForestConfig {
            n_trees: 20,
            tree: TreeConfig {
                max_features,
                ..TreeConfig::default()
            },
            seed: 5,
            n_threads: Some(2),
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit(&data, &labels, &config).unwrap();
        let digests = [
            digest(&forest.permutation_importances(&data, &labels).unwrap()),
            digest(&forest.impurity_importances()),
        ];
        (max_features, digests)
    });
    assert_eq!(got, pinned, "got {got:#018x?}");
}
