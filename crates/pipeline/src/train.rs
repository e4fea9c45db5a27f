//! The prediction model: Random Forest over expanded features (the paper
//! uses 100 trees of depth 13, §V-A).

use crate::error::PipelineError;
use crate::label::SampleRef;
use crate::matrix::expanded_matrix;
use smart_dataset::{DriveRecord, FeatureId, Fleet};
use smart_stats::FeatureMatrix;
use smart_trees::{ForestConfig, MaxFeatures, RandomForest, SplitStrategy, TreeConfig};

/// Prediction-model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// Number of trees (paper: 100).
    pub n_trees: usize,
    /// Maximum tree depth (paper: 13).
    pub max_depth: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (`None` = available parallelism).
    pub n_threads: Option<usize>,
    /// Split-search engine (default [`SplitStrategy::Histogram`]).
    pub strategy: SplitStrategy,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            n_trees: 100,
            max_depth: 13,
            seed: 0,
            n_threads: None,
            strategy: SplitStrategy::default(),
        }
    }
}

impl PredictorConfig {
    fn to_forest_config(self) -> ForestConfig {
        ForestConfig {
            n_trees: self.n_trees,
            tree: TreeConfig {
                max_depth: self.max_depth,
                min_samples_leaf: 2,
                max_features: MaxFeatures::Sqrt,
                ..TreeConfig::default()
            },
            seed: self.seed,
            n_threads: self.n_threads,
            strategy: self.strategy,
        }
    }
}

/// A trained failure predictor: Random Forest over the expanded statistical
/// features of a fixed base-feature set.
#[derive(Debug, Clone)]
pub struct FailurePredictor {
    forest: RandomForest,
    base: Vec<FeatureId>,
}

impl FailurePredictor {
    /// Train on `samples` from `fleet`, expanding `base` features.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidInput`] for empty samples/features
    /// and propagates training errors.
    pub fn train(
        fleet: &Fleet,
        samples: &[SampleRef],
        base: &[FeatureId],
        config: &PredictorConfig,
    ) -> Result<Self, PipelineError> {
        let span = telemetry::span!(
            "train",
            samples = samples.len(),
            base_features = base.len(),
            trees = config.n_trees,
            max_depth = config.max_depth,
        );
        let (matrix, labels) = expanded_matrix(fleet, samples, base)?;
        span.record("expanded_features", matrix.n_features());
        span.record("positives", labels.iter().filter(|&&l| l).count());
        let forest = RandomForest::fit(&matrix, &labels, &config.to_forest_config())?;
        Ok(FailurePredictor {
            forest,
            base: base.to_vec(),
        })
    }

    /// The base features the predictor expands.
    pub fn base_features(&self) -> &[FeatureId] {
        &self.base
    }

    /// Failure probability of one drive-day.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidInput`] when the drive is not
    /// observed on `day`.
    pub fn score_drive_day(&self, drive: &DriveRecord, day: u32) -> Result<f64, PipelineError> {
        let row = crate::features::expand_sample(drive, day, &self.base)?;
        let names = crate::features::expanded_feature_names(&self.base);
        let matrix = FeatureMatrix::from_rows_with_missing(names, std::slice::from_ref(&row))
            .map_err(PipelineError::Stats)?;
        Ok(self.forest.predict_proba(&matrix)?[0])
    }

    /// Failure probabilities for a batch of samples (much faster than
    /// per-day scoring: one matrix, one forest pass).
    ///
    /// # Errors
    ///
    /// Propagates expansion and prediction errors.
    pub fn score_samples(
        &self,
        fleet: &Fleet,
        samples: &[SampleRef],
    ) -> Result<Vec<f64>, PipelineError> {
        let (matrix, _) = expanded_matrix(fleet, samples, &self.base)?;
        Ok(self.forest.predict_proba(&matrix)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{collect_samples, SamplingConfig};
    use smart_dataset::{DriveModel, FleetConfig, SmartAttribute};

    fn fleet() -> Fleet {
        let config = FleetConfig::builder()
            .days(400)
            .seed(21)
            .drives(DriveModel::Mc1, 60)
            .failure_scale(8.0)
            .build()
            .unwrap();
        Fleet::generate(&config)
    }

    fn quick_config() -> PredictorConfig {
        PredictorConfig {
            n_trees: 20,
            max_depth: 8,
            seed: 1,
            n_threads: Some(2),
            ..PredictorConfig::default()
        }
    }

    #[test]
    fn trained_predictor_separates_classes() {
        let fleet = fleet();
        let samples =
            collect_samples(&fleet, DriveModel::Mc1, 0, 399, &SamplingConfig::default()).unwrap();
        let base = vec![
            FeatureId::raw(SmartAttribute::Oce),
            FeatureId::raw(SmartAttribute::Uce),
            FeatureId::raw(SmartAttribute::Cmdt),
        ];
        let predictor = FailurePredictor::train(&fleet, &samples, &base, &quick_config()).unwrap();
        let scores = predictor.score_samples(&fleet, &samples).unwrap();
        let pos_mean: f64 = scores
            .iter()
            .zip(&samples)
            .filter(|(_, s)| s.label)
            .map(|(p, _)| *p)
            .sum::<f64>()
            / samples.iter().filter(|s| s.label).count() as f64;
        let neg_mean: f64 = scores
            .iter()
            .zip(&samples)
            .filter(|(_, s)| !s.label)
            .map(|(p, _)| *p)
            .sum::<f64>()
            / samples.iter().filter(|s| !s.label).count() as f64;
        assert!(
            pos_mean > neg_mean + 0.2,
            "pos {pos_mean:.3} vs neg {neg_mean:.3}"
        );
    }

    #[test]
    fn single_day_scoring_matches_batch() {
        let fleet = fleet();
        let samples =
            collect_samples(&fleet, DriveModel::Mc1, 0, 300, &SamplingConfig::default()).unwrap();
        let base = vec![FeatureId::raw(SmartAttribute::Uce)];
        let predictor = FailurePredictor::train(&fleet, &samples, &base, &quick_config()).unwrap();
        let batch = predictor.score_samples(&fleet, &samples[..5]).unwrap();
        for (s, expected) in samples[..5].iter().zip(batch) {
            let drive = &fleet.drives()[s.drive_index];
            let single = predictor.score_drive_day(drive, s.day).unwrap();
            assert!((single - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn scoring_tolerates_nan_backfilled_days() {
        // Regression: tolerant ingest (DESIGN.md §11) backfills day gaps
        // with NaN measurements; scoring a drive across such a gap used to
        // fail because WindowStats::compute rejected NaN.
        let fleet = fleet();
        let samples =
            collect_samples(&fleet, DriveModel::Mc1, 0, 300, &SamplingConfig::default()).unwrap();
        let base = vec![FeatureId::raw(SmartAttribute::Uce)];
        let predictor = FailurePredictor::train(&fleet, &samples, &base, &quick_config()).unwrap();
        let clean = &fleet.drives()[samples[0].drive_index];
        let gap_day = clean.deploy_day + 10;
        let drive = with_nan_day(clean, gap_day);
        // The day after the gap sees the NaN cell inside its windows.
        let p = predictor.score_drive_day(&drive, gap_day + 1).unwrap();
        assert!((0.0..=1.0).contains(&p));
        // The backfilled day itself has a NaN current value.
        let p = predictor.score_drive_day(&drive, gap_day).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    /// A copy of `drive` whose measurements on `day` are all NaN — the
    /// shape tolerant ingest produces for a backfilled day gap.
    fn with_nan_day(drive: &smart_dataset::DriveRecord, day: u32) -> smart_dataset::DriveRecord {
        use smart_dataset::{FeatureId, ValueKind};
        let n_days = drive.last_day() - drive.deploy_day + 1;
        let mut values = Vec::new();
        for d in drive.deploy_day..=drive.last_day() {
            for &attr in drive.model.attributes() {
                for kind in [ValueKind::Raw, ValueKind::Normalized] {
                    let v = if d == day {
                        f64::NAN
                    } else {
                        drive.value_on(d, FeatureId { attr, kind }).unwrap()
                    };
                    values.push(v as f32);
                }
            }
        }
        smart_dataset::DriveRecord::from_flat_values(
            drive.id,
            drive.model,
            drive.deploy_day,
            drive.initial_age_days,
            drive.failure,
            values,
            n_days,
        )
    }

    #[test]
    fn training_is_deterministic() {
        let fleet = fleet();
        let samples =
            collect_samples(&fleet, DriveModel::Mc1, 0, 399, &SamplingConfig::default()).unwrap();
        let base = vec![FeatureId::raw(SmartAttribute::Oce)];
        let a = FailurePredictor::train(&fleet, &samples, &base, &quick_config()).unwrap();
        let b = FailurePredictor::train(&fleet, &samples, &base, &quick_config()).unwrap();
        let sa = a.score_samples(&fleet, &samples[..10]).unwrap();
        let sb = b.score_samples(&fleet, &samples[..10]).unwrap();
        assert_eq!(sa, sb);
    }

    /// A sample one past the fleet's last drive, as collected from a
    /// larger fleet.
    fn foreign_sample(fleet: &Fleet) -> SampleRef {
        SampleRef {
            drive_index: fleet.drives().len(),
            day: 10,
            label: true,
        }
    }

    fn is_out_of_range(err: &PipelineError, fleet: &Fleet) -> bool {
        let n = fleet.drives().len();
        let expected = format!("sample drive index {n} is outside a fleet of {n} drives");
        matches!(err, PipelineError::InvalidInput { message } if *message == expected)
    }

    #[test]
    fn train_rejects_a_sample_from_another_fleet() {
        let fleet = fleet();
        let mut samples =
            collect_samples(&fleet, DriveModel::Mc1, 0, 399, &SamplingConfig::default()).unwrap();
        samples.push(foreign_sample(&fleet));
        let base = [FeatureId::raw(SmartAttribute::Uce)];
        let err = FailurePredictor::train(&fleet, &samples, &base, &quick_config()).unwrap_err();
        assert!(is_out_of_range(&err, &fleet), "{err:?}");
    }

    #[test]
    fn score_samples_rejects_a_sample_from_another_fleet() {
        let fleet = fleet();
        let samples =
            collect_samples(&fleet, DriveModel::Mc1, 0, 399, &SamplingConfig::default()).unwrap();
        let base = [FeatureId::raw(SmartAttribute::Uce)];
        let predictor = FailurePredictor::train(&fleet, &samples, &base, &quick_config()).unwrap();
        let err = predictor
            .score_samples(&fleet, &[foreign_sample(&fleet)])
            .unwrap_err();
        assert!(is_out_of_range(&err, &fleet), "{err:?}");
    }

    #[test]
    fn empty_base_is_rejected() {
        let fleet = fleet();
        let samples =
            collect_samples(&fleet, DriveModel::Mc1, 0, 399, &SamplingConfig::default()).unwrap();
        assert!(FailurePredictor::train(&fleet, &samples, &[], &quick_config()).is_err());
    }
}
