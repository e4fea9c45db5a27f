//! The top-level WEFR algorithm (Algorithm 1 of the paper).

use crate::ensemble::{ensemble_rankings, EnsembleRanking, PAPER_OUTLIER_SIGMA};
use crate::error::WefrError;
use crate::parallel::run_rankers;
use crate::ranker::FeatureRanker;
use crate::rankers::default_rankers;
use crate::wearout::{detect_wearout_threshold, split_rows_by_mwi};
use smart_changepoint::survival::WearoutChangePoint;
use smart_complexity::{automated_feature_count, ScanResult, ThresholdConfig};
use smart_stats::FeatureMatrix;

/// Minimum positive samples, and minimum negative samples, each wear-out
/// group needs. A group model trained on a handful of failures is worse
/// than the global model, so WEFR falls back to the global selection below
/// this (the paper's production fleet always has ample failures per group;
/// a small simulated fleet may not).
const MIN_GROUP_POSITIVES: usize = 30;

/// WEFR configuration. Everything else WEFR applies is fixed: the paper's
/// 1.96σ outlier removal ([`PAPER_OUTLIER_SIGMA`]), α = 0.75 in the
/// automated count ([`ThresholdConfig::default`]), the change-point rule of
/// [`detect_wearout_threshold`], and the wear-out groups' minimum size.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WefrConfig {
    /// Seed for the stochastic rankers (Random Forest, boosting).
    pub seed: u64,
}

/// Input to a WEFR selection run.
#[derive(Debug, Clone, Copy)]
pub struct SelectionInput<'a> {
    /// Base learning features (raw/normalized SMART values), one row per
    /// sample.
    pub data: &'a FeatureMatrix,
    /// Failure labels, one per sample.
    pub labels: &'a [bool],
    /// `MWI_N` of each sample (enables wear-out grouping when present).
    pub mwi_per_sample: Option<&'a [f64]>,
    /// Per-drive `(final MWI_N, failed)` pairs for the survival analysis.
    pub survival: Option<&'a [(f64, bool)]>,
}

impl<'a> SelectionInput<'a> {
    /// Input without wear-out context (lines 1–8 of Algorithm 1 only).
    pub fn basic(data: &'a FeatureMatrix, labels: &'a [bool]) -> Self {
        SelectionInput {
            data,
            labels,
            mwi_per_sample: None,
            survival: None,
        }
    }
}

/// The selection produced for one group of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSelection {
    /// The robust ensemble ranking (with per-ranker diagnostics).
    pub ensemble: EnsembleRanking,
    /// Selected feature column indices, best first.
    pub selected: Vec<usize>,
    /// Selected feature names, best first.
    pub selected_names: Vec<String>,
    /// The automated-threshold scan trace.
    pub scan: ScanResult,
}

impl GroupSelection {
    /// Fraction of all features that were selected.
    pub fn selected_fraction(&self) -> f64 {
        self.selected.len() as f64 / self.ensemble.names.len().max(1) as f64
    }
}

/// Per-wear-out-group selections (lines 9–15 of Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct WearoutSelection {
    /// The detected change point.
    pub change_point: WearoutChangePoint,
    /// Selection for samples with `MWI_N <=` threshold.
    pub low: GroupSelection,
    /// Selection for samples with `MWI_N >` threshold.
    pub high: GroupSelection,
}

/// The full output of a WEFR run.
#[derive(Debug, Clone, PartialEq)]
pub struct WefrSelection {
    /// Selection over all samples (always produced).
    pub global: GroupSelection,
    /// Wear-out-specific selections when a significant change point exists
    /// and both groups are viable.
    pub wearout: Option<WearoutSelection>,
}

/// Wear-out-updating Ensemble Feature Ranking.
///
/// # Example
///
/// ```
/// use smart_stats::FeatureMatrix;
/// use wefr_core::{SelectionInput, Wefr};
///
/// # fn main() -> Result<(), wefr_core::WefrError> {
/// // A failure-correlated error counter and a noise feature.
/// let labels: Vec<bool> = (0..80).map(|i| i % 4 == 0).collect();
/// let errors: Vec<f64> = labels.iter().enumerate()
///     .map(|(i, &l)| if l { 40.0 } else { 0.0 } + (i % 5) as f64)
///     .collect();
/// let noise: Vec<f64> = (0..80).map(|i| ((i * 37) % 11) as f64).collect();
/// let data = FeatureMatrix::from_columns(
///     vec!["UCE_R".into(), "PSC_N".into()],
///     vec![errors, noise],
/// ).expect("valid matrix");
///
/// let wefr = Wefr::default();
/// let selection = wefr.select(&SelectionInput::basic(&data, &labels))?;
/// assert_eq!(selection.global.selected_names[0], "UCE_R");
/// # Ok(())
/// # }
/// ```
pub struct Wefr {
    rankers: Vec<Box<dyn FeatureRanker>>,
}

impl Default for Wefr {
    fn default() -> Self {
        Wefr::new(WefrConfig::default())
    }
}

impl std::fmt::Debug for Wefr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wefr")
            .field(
                "rankers",
                &self.rankers.iter().map(|r| r.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Wefr {
    /// WEFR with the paper's five preliminary approaches.
    pub fn new(config: WefrConfig) -> Self {
        Wefr::with_rankers(default_rankers(config.seed))
    }

    /// WEFR with a custom ranker ensemble.
    pub fn with_rankers(rankers: Vec<Box<dyn FeatureRanker>>) -> Self {
        Wefr { rankers }
    }

    /// Run the full Algorithm 1 over `input`.
    ///
    /// # Errors
    ///
    /// Returns [`WefrError::InvalidInput`] for inconsistent inputs and
    /// propagates ranker / complexity / change-point errors.
    pub fn select(&self, input: &SelectionInput<'_>) -> Result<WefrSelection, WefrError> {
        if let Some(mwi) = input.mwi_per_sample {
            if mwi.len() != input.data.n_rows() {
                return Err(WefrError::InvalidInput {
                    message: format!(
                        "mwi_per_sample has {} entries for {} rows",
                        mwi.len(),
                        input.data.n_rows()
                    ),
                });
            }
        }

        let span = telemetry::span!(
            "select",
            rows = input.data.n_rows(),
            features = input.data.n_features(),
        );

        // Lines 1–8: robust + automated selection over all samples.
        let global = self.select_group_labeled(input.data, input.labels, "global")?;

        // Lines 9–15: wear-out updating.
        let wearout = match (input.mwi_per_sample, input.survival) {
            (Some(mwi), Some(survival)) => self.select_wearout(input, mwi, survival)?,
            _ => None,
        };

        span.record("selected", global.selected.len());
        span.record("wearout_groups", wearout.is_some());
        Ok(WefrSelection { global, wearout })
    }

    fn select_wearout(
        &self,
        input: &SelectionInput<'_>,
        mwi: &[f64],
        survival: &[(f64, bool)],
    ) -> Result<Option<WearoutSelection>, WefrError> {
        let span = telemetry::span!("wearout_split", drives = survival.len());
        let Some(change_point) = detect_wearout_threshold(survival)? else {
            span.record("outcome", "no_change_point");
            return Ok(None);
        };
        telemetry::gauge_set("wearout.threshold_mwi", change_point.mwi_threshold as f64);

        let split = split_rows_by_mwi(mwi, change_point.mwi_threshold as f64);
        let positives = |rows: &[usize]| rows.iter().filter(|&&r| input.labels[r]).count();
        telemetry::info!(
            "wearout",
            "split at change point",
            mwi_threshold = change_point.mwi_threshold,
            low_rows = split.low_rows.len(),
            low_positives = positives(&split.low_rows),
            high_rows = split.high_rows.len(),
            high_positives = positives(&split.high_rows),
        );
        if !group_viable(input.labels, &split.low_rows)
            || !group_viable(input.labels, &split.high_rows)
        {
            telemetry::info!(
                "wearout",
                "a wear-out group is too small; falling back to the global selection",
                min_group_positives = MIN_GROUP_POSITIVES,
            );
            span.record("outcome", "fallback_global");
            return Ok(None);
        }

        let low = self.select_rows(input.data, input.labels, &split.low_rows, "low")?;
        let high = self.select_rows(input.data, input.labels, &split.high_rows, "high")?;
        span.record("outcome", "split");
        span.record("mwi_threshold", change_point.mwi_threshold);
        Ok(Some(WearoutSelection {
            change_point,
            low,
            high,
        }))
    }

    fn select_rows(
        &self,
        data: &FeatureMatrix,
        labels: &[bool],
        rows: &[usize],
        group: &'static str,
    ) -> Result<GroupSelection, WefrError> {
        let sub = data.select_rows(rows)?;
        let sub_labels: Vec<bool> = rows.iter().map(|&r| labels[r]).collect();
        self.select_group_labeled(&sub, &sub_labels, group)
    }

    /// Lines 1–8 of Algorithm 1 for one group of samples: run the rankers
    /// in parallel, remove outlier rankings, aggregate by mean rank, and
    /// cut the ranking at the automated feature count.
    pub fn select_group(
        &self,
        data: &FeatureMatrix,
        labels: &[bool],
    ) -> Result<GroupSelection, WefrError> {
        self.select_group_labeled(data, labels, "global")
    }

    fn select_group_labeled(
        &self,
        data: &FeatureMatrix,
        labels: &[bool],
        group: &'static str,
    ) -> Result<GroupSelection, WefrError> {
        let span = telemetry::span!("select_group", group = group, rows = data.n_rows());
        let rankings = run_rankers(&self.rankers, data, labels)?;
        let ensemble = ensemble_rankings(&rankings, PAPER_OUTLIER_SIGMA)?;
        let scan =
            automated_feature_count(data, labels, &ensemble.order, &ThresholdConfig::default())?;
        let selected: Vec<usize> = ensemble.order[..scan.chosen].to_vec();
        let selected_names: Vec<String> = selected
            .iter()
            .map(|&c| ensemble.names[c].clone())
            .collect();
        span.record("selected", selected.len());
        telemetry::info!(
            "select",
            format!("group {group} selected {} features", selected.len()),
            group = group,
            features = selected_names.join(","),
        );
        Ok(GroupSelection {
            ensemble,
            selected,
            selected_names,
            scan,
        })
    }
}

/// Whether a wear-out group holds enough positive and negative samples to
/// select features for separately.
fn group_viable(labels: &[bool], rows: &[usize]) -> bool {
    let positives = rows.iter().filter(|&&r| labels[r]).count();
    positives >= MIN_GROUP_POSITIVES && rows.len() - positives >= MIN_GROUP_POSITIVES
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::rngs::StdRng;
    use rng::{RngExt, SeedableRng};

    /// Matrix, labels, per-sample `MWI_N`, survival pairs.
    type Population = (FeatureMatrix, Vec<bool>, Vec<f64>, Vec<(f64, bool)>);

    /// A synthetic drive-sample population with wear-dependent signal:
    /// below MWI 40 failures follow `wear_feature`; above it they follow
    /// `error_feature`. Plus noise columns.
    fn wearout_population(n: usize, seed: u64) -> Population {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels = Vec::with_capacity(n);
        let mut mwi = Vec::with_capacity(n);
        let mut wear_col = Vec::with_capacity(n);
        let mut err_col = Vec::with_capacity(n);
        let mut noise_col = Vec::with_capacity(n);
        let mut survival = Vec::with_capacity(n);
        for _ in 0..n {
            let m: f64 = 5.0 + rng.random::<f64>() * 90.0;
            let low = m <= 40.0;
            let fail_p = if low { 0.5 } else { 0.08 };
            let failed = rng.random::<f64>() < fail_p;
            let wear_signal = if failed && low { 30.0 } else { 0.0 };
            let err_signal = if failed && !low { 30.0 } else { 0.0 };
            labels.push(failed);
            mwi.push(m);
            wear_col.push(wear_signal + rng.random::<f64>() * 5.0);
            err_col.push(err_signal + rng.random::<f64>() * 5.0);
            noise_col.push(rng.random::<f64>() * 10.0);
            survival.push((m, failed));
        }
        let data = FeatureMatrix::from_columns(
            vec!["EFC_R".into(), "UCE_R".into(), "PSC_N".into()],
            vec![wear_col, err_col, noise_col],
        )
        .unwrap();
        (data, labels, mwi, survival)
    }

    #[test]
    fn global_selection_drops_noise() {
        let (data, labels, _, _) = wearout_population(600, 1);
        let wefr = Wefr::default();
        let sel = wefr.select(&SelectionInput::basic(&data, &labels)).unwrap();
        assert!(sel.wearout.is_none());
        assert!(
            !sel.global.selected_names.contains(&"PSC_N".to_string())
                || sel.global.selected_names.len() < 3
        );
        assert!(sel.global.selected_fraction() <= 1.0);
    }

    #[test]
    fn wearout_groups_pick_different_features() {
        let (data, labels, mwi, survival) = wearout_population(2500, 2);
        let wefr = Wefr::default();
        let sel = wefr
            .select(&SelectionInput {
                data: &data,
                labels: &labels,
                mwi_per_sample: Some(&mwi),
                survival: Some(&survival),
            })
            .unwrap();
        let wearout = sel.wearout.expect("change point must be detected");
        assert!(
            (30..=50).contains(&wearout.change_point.mwi_threshold),
            "threshold = {}",
            wearout.change_point.mwi_threshold
        );
        // The low group is driven by the wear feature, the high group by
        // the error feature.
        assert_eq!(wearout.low.selected_names[0], "EFC_R");
        assert_eq!(wearout.high.selected_names[0], "UCE_R");
    }

    #[test]
    fn selection_is_deterministic() {
        let (data, labels, mwi, survival) = wearout_population(500, 5);
        let input = SelectionInput {
            data: &data,
            labels: &labels,
            mwi_per_sample: Some(&mwi),
            survival: Some(&survival),
        };
        let a = Wefr::default().select(&input).unwrap();
        let b = Wefr::default().select(&input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mismatched_mwi_length_is_rejected() {
        let (data, labels, _, survival) = wearout_population(200, 6);
        let short = vec![50.0; 10];
        let err = Wefr::default()
            .select(&SelectionInput {
                data: &data,
                labels: &labels,
                mwi_per_sample: Some(&short),
                survival: Some(&survival),
            })
            .unwrap_err();
        assert!(matches!(err, WefrError::InvalidInput { .. }));
    }

    #[test]
    fn narrow_mwi_range_skips_grouping() {
        // All samples at MWI 95..100: no change point possible.
        let (data, labels, _, _) = wearout_population(400, 7);
        let mwi: Vec<f64> = (0..data.n_rows()).map(|i| 95.0 + (i % 5) as f64).collect();
        let survival: Vec<(f64, bool)> = mwi.iter().zip(&labels).map(|(&m, &f)| (m, f)).collect();
        let sel = Wefr::default()
            .select(&SelectionInput {
                data: &data,
                labels: &labels,
                mwi_per_sample: Some(&mwi),
                survival: Some(&survival),
            })
            .unwrap();
        assert!(sel.wearout.is_none());
    }

    #[test]
    fn debug_lists_rankers() {
        let repr = format!("{:?}", Wefr::default());
        assert!(repr.contains("pearson") && repr.contains("gradient-boosting"));
    }
}
