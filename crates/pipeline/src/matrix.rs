//! Sample collection and matrix construction: from a simulated fleet to the
//! matrices the rankers and learners consume.

use crate::error::PipelineError;
use crate::label::{labeled_days, SampleRef};
use smart_dataset::{DriveModel, DriveRecord, FeatureId, Fleet, SmartAttribute, ValueKind};
use smart_stats::sampling::downsample_negatives;
use smart_stats::FeatureMatrix;

/// All base learning features of a drive model: the raw and normalized
/// value of every attribute the model reports (§II-B: "we view raw and
/// normalized values of each SMART attribute as two learning features").
pub fn base_features(model: DriveModel) -> Vec<FeatureId> {
    model
        .attributes()
        .iter()
        .flat_map(|&attr| {
            ValueKind::BOTH
                .iter()
                .map(move |&kind| FeatureId { attr, kind })
        })
        .collect()
}

/// The features behind `columns` of `model`'s base matrix, in order: how a
/// selection's column indices become the features a predictor trains on.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidInput`] for a column past the model's
/// base features.
pub fn base_features_at(
    model: DriveModel,
    columns: &[usize],
) -> Result<Vec<FeatureId>, PipelineError> {
    let all = base_features(model);
    columns
        .iter()
        .map(|&c| {
            all.get(c).copied().ok_or_else(|| {
                PipelineError::invalid(format!(
                    "column {c} is past the {} base features of {model}",
                    all.len()
                ))
            })
        })
        .collect()
}

/// Sampling policy for building training matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Prediction horizon in days.
    pub horizon: u32,
    /// Keep every `neg_stride`-th healthy drive-day (positives are always
    /// kept). Must be ≥ 1.
    pub neg_stride: u32,
    /// After striding, downsample negatives to at most this multiple of the
    /// positive count (`None` = keep all strided negatives).
    pub downsample_ratio: Option<f64>,
    /// Seed for the negative downsampling.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            horizon: crate::label::PAPER_HORIZON_DAYS,
            neg_stride: 7,
            downsample_ratio: Some(4.0),
            seed: 0,
        }
    }
}

/// The training sample rule of one window (§II-B): every positive
/// drive-day of `model` in `[from_day, to_day]` plus every
/// `neg_stride`-th negative counted from deployment, then negatives
/// downsampled over the whole window's label sequence. The one copy of the
/// rule; the materialised and both streamed matrix sources apply it.
pub(crate) struct SampleRule<'a> {
    model: DriveModel,
    from_day: u32,
    to_day: u32,
    config: &'a SamplingConfig,
}

impl<'a> SampleRule<'a> {
    /// The rule for `model` over `[from_day, to_day]`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidInput`] when `neg_stride == 0`.
    pub(crate) fn new(
        model: DriveModel,
        from_day: u32,
        to_day: u32,
        config: &'a SamplingConfig,
    ) -> Result<Self, PipelineError> {
        if config.neg_stride == 0 {
            return Err(PipelineError::invalid("neg_stride must be at least 1"));
        }
        Ok(SampleRule {
            model,
            from_day,
            to_day,
            config,
        })
    }

    /// The samples of one drive, in day order (none for another model).
    pub(crate) fn drive_samples<'d>(
        &self,
        drive: &'d DriveRecord,
        drive_index: usize,
    ) -> impl Iterator<Item = SampleRef> + 'd {
        let (from, to, horizon) = (self.from_day, self.to_day, self.config.horizon);
        let stride = self.config.neg_stride;
        (drive.model == self.model)
            .then(|| labeled_days(drive, drive_index, from, to, horizon))
            .into_iter()
            .flatten()
            .filter(move |s| s.label || (s.day - drive.deploy_day).is_multiple_of(stride))
    }

    /// Reject a window that holds `count == 0` samples.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidInput`] when the window holds no
    /// samples.
    pub(crate) fn require_samples(&self, count: usize) -> Result<(), PipelineError> {
        if count == 0 {
            return Err(PipelineError::invalid(format!(
                "no samples of model {} in days {}..={}",
                self.model, self.from_day, self.to_day
            )));
        }
        Ok(())
    }

    /// The indices (ascending) of the window's samples that survive
    /// negative downsampling, given the window's whole label sequence;
    /// `None` when every sample survives.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidInput`] when the window holds no
    /// samples.
    pub(crate) fn downsample(&self, labels: &[bool]) -> Result<Option<Vec<usize>>, PipelineError> {
        self.require_samples(labels.len())?;
        match self.config.downsample_ratio {
            Some(ratio) => Ok(Some(downsample_negatives(labels, ratio, self.config.seed)?)),
            None => Ok(None),
        }
    }
}

/// `MWI_N` of `drive` on `day` — the value wear-out grouping reads.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidInput`] when the drive is not observed
/// on `day`.
pub(crate) fn mwi_on(drive: &DriveRecord, day: u32) -> Result<f64, PipelineError> {
    drive
        .value_on(day, FeatureId::normalized(SmartAttribute::Mwi))
        .ok_or_else(|| PipelineError::invalid(format!("drive {} lacks MWI on day {day}", drive.id)))
}

/// Base-matrix rows under construction: one column per feature of
/// [`base_features`], plus each row's label and `MWI_N`. The one row
/// layout; every base-matrix source builds through it.
pub(crate) struct BaseRows {
    features: Vec<FeatureId>,
    columns: Vec<Vec<f64>>,
    labels: Vec<bool>,
    mwi: Vec<f64>,
}

impl BaseRows {
    /// No rows yet, every column sized for `rows` (0 when unknown).
    pub(crate) fn new(model: DriveModel, rows: usize) -> Self {
        let features = base_features(model);
        BaseRows {
            columns: features.iter().map(|_| Vec::with_capacity(rows)).collect(),
            labels: Vec::with_capacity(rows),
            mwi: Vec::with_capacity(rows),
            features,
        }
    }

    /// The label of every row so far.
    pub(crate) fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Append the row of sample `s` of `drive`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidInput`] when the drive is not
    /// observed on the sample's day.
    pub(crate) fn push(&mut self, drive: &DriveRecord, s: SampleRef) -> Result<(), PipelineError> {
        let day = s.day;
        for (column, f) in self.columns.iter_mut().zip(&self.features) {
            let v = drive.value_on(day, *f).ok_or_else(|| {
                PipelineError::invalid(format!("drive {} lacks {f} on day {day}", drive.id))
            })?;
            column.push(v);
        }
        self.mwi.push(mwi_on(drive, day)?);
        self.labels.push(s.label);
        Ok(())
    }

    /// Keep only the rows at `kept` (ascending indices).
    pub(crate) fn keep(&mut self, kept: &[usize]) {
        for column in &mut self.columns {
            *column = kept.iter().map(|&i| column[i]).collect();
        }
        self.labels = kept.iter().map(|&i| self.labels[i]).collect();
        self.mwi = kept.iter().map(|&i| self.mwi[i]).collect();
    }

    /// The base matrix with its labels and per-row `MWI_N`.
    ///
    /// # Errors
    ///
    /// Propagates matrix-construction failures (infinite cells).
    pub(crate) fn finish(self) -> Result<(FeatureMatrix, Vec<bool>, Vec<f64>), PipelineError> {
        let names = self.features.iter().map(FeatureId::name).collect();
        // `with_missing`: missing-coverage fleets (DESIGN.md §11) carry NaN
        // cells for attributes a vendor batch never reports; on clean fleets
        // the constructed matrix is bit-identical to the strict constructor's.
        let matrix = FeatureMatrix::from_columns_with_missing(names, self.columns)
            .map_err(PipelineError::Stats)?;
        Ok((matrix, self.labels, self.mwi))
    }
}

/// The drive a sample refers to.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidInput`] when the sample's drive index
/// lies outside `fleet` (a sample collected from another fleet).
fn sample_drive<'f>(fleet: &'f Fleet, s: &SampleRef) -> Result<&'f DriveRecord, PipelineError> {
    let (i, n) = (s.drive_index, fleet.drives().len());
    fleet.drives().get(i).ok_or_else(|| {
        PipelineError::invalid(format!(
            "sample drive index {i} is outside a fleet of {n} drives"
        ))
    })
}

/// Collect labeled samples of `model` within `[from_day, to_day]`.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidInput`] when `neg_stride == 0` or the
/// range contains no samples.
pub fn collect_samples(
    fleet: &Fleet,
    model: DriveModel,
    from_day: u32,
    to_day: u32,
    config: &SamplingConfig,
) -> Result<Vec<SampleRef>, PipelineError> {
    let rule = SampleRule::new(model, from_day, to_day, config)?;
    let mut samples = Vec::new();
    for (drive_index, drive) in fleet.drives().iter().enumerate() {
        samples.extend(rule.drive_samples(drive, drive_index));
    }
    let labels: Vec<bool> = samples.iter().map(|s| s.label).collect();
    Ok(match rule.downsample(&labels)? {
        Some(kept) => kept.into_iter().map(|i| samples[i]).collect(),
        None => samples,
    })
}

/// Build the base-feature matrix (one column per raw/normalized attribute
/// value) for `samples`, along with labels and per-sample `MWI_N`.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidInput`] for an empty sample list or
/// samples referencing drives outside `fleet` or days a drive is not
/// observed on.
pub fn base_matrix(
    fleet: &Fleet,
    model: DriveModel,
    samples: &[SampleRef],
) -> Result<(FeatureMatrix, Vec<bool>, Vec<f64>), PipelineError> {
    if samples.is_empty() {
        return Err(PipelineError::invalid("no samples"));
    }
    let mut rows = BaseRows::new(model, samples.len());
    for s in samples {
        rows.push(sample_drive(fleet, s)?, *s)?;
    }
    rows.finish()
}

/// Build the expanded (windowed-statistics) matrix for `samples` over the
/// given base features.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidInput`] for samples referencing drives
/// outside `fleet` and propagates expansion failures (unobserved days,
/// unreported attributes).
pub fn expanded_matrix(
    fleet: &Fleet,
    samples: &[SampleRef],
    base: &[FeatureId],
) -> Result<(FeatureMatrix, Vec<bool>), PipelineError> {
    if samples.is_empty() || base.is_empty() {
        return Err(PipelineError::invalid(
            "expanded_matrix needs samples and at least one base feature",
        ));
    }
    let names = crate::features::expanded_feature_names(base);
    let mut rows = Vec::with_capacity(samples.len());
    let mut labels = Vec::with_capacity(samples.len());
    for s in samples {
        let drive = sample_drive(fleet, s)?;
        rows.push(crate::features::expand_sample(drive, s.day, base)?);
        labels.push(s.label);
    }
    // `with_missing`: NaN-backfilled days (tolerant ingest, DESIGN.md §11)
    // expand to NaN current values and observed-only window statistics;
    // the binned learners route NaN cells to their reserved missing bin.
    let matrix =
        FeatureMatrix::from_rows_with_missing(names, &rows).map_err(PipelineError::Stats)?;
    Ok((matrix, labels))
}

/// Per-drive `(final MWI_N, failed)` pairs *as of* `as_of_day` — the
/// survival snapshot available at training time (no peeking past the
/// training boundary).
pub fn survival_pairs(fleet: &Fleet, model: DriveModel, as_of_day: u32) -> Vec<(f64, bool)> {
    fleet
        .drives_of_model(model)
        .filter(|d| d.deploy_day <= as_of_day)
        .filter_map(|d| {
            let day = d.last_day().min(as_of_day);
            let mwi = d.value_on(day, FeatureId::normalized(SmartAttribute::Mwi))?;
            let failed = d.failure.is_some_and(|f| f.day <= as_of_day);
            Some((mwi, failed))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_dataset::FleetConfig;

    fn fleet() -> Fleet {
        let config = FleetConfig::builder()
            .days(400)
            .seed(5)
            .drives(DriveModel::Mc1, 50)
            .failure_scale(8.0)
            .build()
            .unwrap();
        Fleet::generate(&config)
    }

    #[test]
    fn base_features_cover_both_kinds() {
        let features = base_features(DriveModel::Mc1);
        assert_eq!(features.len(), 2 * DriveModel::Mc1.attributes().len());
        assert!(features.contains(&FeatureId::raw(SmartAttribute::Oce)));
        assert!(features.contains(&FeatureId::normalized(SmartAttribute::Oce)));
    }

    #[test]
    fn base_features_at_maps_columns_and_rejects_one_past_the_end() {
        let all = base_features(DriveModel::Mc1);
        let picked = base_features_at(DriveModel::Mc1, &[3, 0]).unwrap();
        assert_eq!(picked, vec![all[3], all[0]]);
        let err = base_features_at(DriveModel::Mc1, &[0, all.len()]).unwrap_err();
        let expected = format!("column {0} is past the {0} base features of MC1", all.len());
        assert!(
            matches!(&err, PipelineError::InvalidInput { message } if *message == expected),
            "{err:?}"
        );
    }

    #[test]
    fn collect_keeps_all_positives() {
        let fleet = fleet();
        let config = SamplingConfig {
            downsample_ratio: None,
            ..SamplingConfig::default()
        };
        let samples = collect_samples(&fleet, DriveModel::Mc1, 0, 399, &config).unwrap();
        let expected_pos: usize = fleet
            .drives_of_model(DriveModel::Mc1)
            .filter_map(|d| d.failure)
            .map(|f| (f.day.min(399).saturating_sub(0) + 1).min(31) as usize)
            .sum();
        let got_pos = samples.iter().filter(|s| s.label).count();
        // All positive drive-days within the window are kept.
        assert!(
            got_pos >= expected_pos.saturating_sub(31),
            "{got_pos} vs {expected_pos}"
        );
        assert!(got_pos > 0);
    }

    #[test]
    fn downsampling_caps_negatives() {
        let fleet = fleet();
        let config = SamplingConfig {
            downsample_ratio: Some(2.0),
            ..SamplingConfig::default()
        };
        let samples = collect_samples(&fleet, DriveModel::Mc1, 0, 399, &config).unwrap();
        let pos = samples.iter().filter(|s| s.label).count();
        let neg = samples.len() - pos;
        assert!(neg <= 2 * pos + 1, "pos {pos}, neg {neg}");
    }

    #[test]
    fn collect_rejects_missing_model() {
        let fleet = fleet();
        assert!(
            collect_samples(&fleet, DriveModel::Ma1, 0, 399, &SamplingConfig::default()).is_err()
        );
    }

    #[test]
    fn base_matrix_shape_and_mwi() {
        let fleet = fleet();
        let samples =
            collect_samples(&fleet, DriveModel::Mc1, 0, 200, &SamplingConfig::default()).unwrap();
        let (m, labels, mwi) = base_matrix(&fleet, DriveModel::Mc1, &samples).unwrap();
        assert_eq!(m.n_rows(), samples.len());
        assert_eq!(m.n_features(), 2 * DriveModel::Mc1.attributes().len());
        assert_eq!(labels.len(), samples.len());
        assert_eq!(mwi.len(), samples.len());
        assert!(mwi.iter().all(|&v| (1.0..=100.0).contains(&v)));
        assert!(m.column_index("OCE_R").is_some());
    }

    #[test]
    fn expanded_matrix_shape() {
        let fleet = fleet();
        let samples = collect_samples(
            &fleet,
            DriveModel::Mc1,
            100,
            200,
            &SamplingConfig::default(),
        )
        .unwrap();
        let base = vec![
            FeatureId::raw(SmartAttribute::Oce),
            FeatureId::raw(SmartAttribute::Uce),
        ];
        let (m, labels) = expanded_matrix(&fleet, &samples, &base).unwrap();
        assert_eq!(m.n_features(), 2 * crate::features::EXPANSION_FACTOR);
        assert_eq!(m.n_rows(), labels.len());
    }

    /// A sample of drive `fleet.drives().len()`: one past the end, as a
    /// sample collected from a larger fleet refers to.
    fn foreign_sample(fleet: &Fleet) -> SampleRef {
        SampleRef {
            drive_index: fleet.drives().len(),
            day: 10,
            label: false,
        }
    }

    /// `err` is the out-of-range error naming the index and drive count.
    fn assert_out_of_range(err: PipelineError, fleet: &Fleet) {
        let n = fleet.drives().len();
        let expected = format!("sample drive index {n} is outside a fleet of {n} drives");
        assert!(
            matches!(&err, PipelineError::InvalidInput { message } if *message == expected),
            "{err:?}"
        );
    }

    #[test]
    fn base_matrix_rejects_a_sample_from_another_fleet() {
        let fleet = fleet();
        let err = base_matrix(&fleet, DriveModel::Mc1, &[foreign_sample(&fleet)]).unwrap_err();
        assert_out_of_range(err, &fleet);
    }

    #[test]
    fn expanded_matrix_rejects_a_sample_from_another_fleet() {
        let fleet = fleet();
        let base = [FeatureId::raw(SmartAttribute::Uce)];
        let err = expanded_matrix(&fleet, &[foreign_sample(&fleet)], &base).unwrap_err();
        assert_out_of_range(err, &fleet);
    }

    #[test]
    fn expanded_matrix_rejects_empty() {
        let fleet = fleet();
        assert!(expanded_matrix(&fleet, &[], &[FeatureId::raw(SmartAttribute::Uce)]).is_err());
    }

    #[test]
    fn survival_pairs_respect_as_of_day() {
        let fleet = fleet();
        let early = survival_pairs(&fleet, DriveModel::Mc1, 100);
        let late = survival_pairs(&fleet, DriveModel::Mc1, 399);
        let early_failures = early.iter().filter(|(_, f)| *f).count();
        let late_failures = late.iter().filter(|(_, f)| *f).count();
        assert!(late_failures >= early_failures);
        // A drive that fails on day 300 is healthy as of day 100.
        let total_failed = fleet
            .drives_of_model(DriveModel::Mc1)
            .filter(|d| d.is_failed())
            .count();
        assert_eq!(late_failures, total_failed);
    }
}
