//! Wear-out grouping (§IV-D): detect the survival-rate change point over
//! `MWI_N` and split samples into low- and high-wear groups at it.

use smart_changepoint::survival::{SurvivalCurve, WearoutChangePoint};
use smart_changepoint::ChangepointError;

/// Minimum drives per `MWI_N` bucket of the survival curve WEFR detects
/// change points on; thinner buckets are dropped.
pub const SURVIVAL_MIN_BUCKET: usize = 3;

/// The wear-out group rule: a sample or drive-day whose `MWI_N` is at or
/// below the change point's `threshold` is *low wear*. A NaN `MWI_N` (no
/// reading) is not, so it goes with the high-wear group, in training and
/// in scoring alike.
pub fn is_low_wear(mwi_n: f64, threshold: f64) -> bool {
    mwi_n <= threshold
}

/// Sample-row split at an `MWI_N` threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearoutSplit {
    /// The reported `MWI_N` boundary: the largest integer `T` such that
    /// every sample with `MWI_N <= T` landed in the low group — i.e. the
    /// floor of the (possibly fractional) split threshold, clamped at 0.
    pub threshold: u32,
    /// Rows with `MWI_N <= threshold` (the low/high-wear group).
    pub low_rows: Vec<usize>,
    /// Rows with `MWI_N > threshold`.
    pub high_rows: Vec<usize>,
}

/// Detect the most significant survival-rate change point from per-drive
/// `(final MWI_N, failed)` pairs, by the paper's rule: BOCPD over the
/// survival curve (buckets of at least [`SURVIVAL_MIN_BUCKET`] drives),
/// then the z ≥ 2.5 significance test. The one change-point call of WEFR
/// and of the daemon's update cycle.
///
/// Returns `Ok(None)` when the wear-out range is too narrow (the MB1/MB2
/// case) or no significant change exists.
///
/// # Errors
///
/// Propagates BOCPD errors.
pub fn detect_wearout_threshold(
    survival: &[(f64, bool)],
) -> Result<Option<WearoutChangePoint>, ChangepointError> {
    SurvivalCurve::from_drives(survival.iter().copied(), SURVIVAL_MIN_BUCKET)
        .detect_change_point_default()
}

/// Split sample rows by their `MWI_N` value at `threshold` into the
/// [`is_low_wear`] rows and the rest.
///
/// The reported integer boundary is `threshold.floor()` (clamped at 0), so
/// it always agrees with the predicate actually applied: rounding 30.6 up
/// to 31 would claim rows at `MWI_N == 31` are low when the split put them
/// in the high group.
pub fn split_rows_by_mwi(mwi_per_sample: &[f64], threshold: f64) -> WearoutSplit {
    let mut low_rows = Vec::new();
    let mut high_rows = Vec::new();
    for (row, &mwi) in mwi_per_sample.iter().enumerate() {
        if is_low_wear(mwi, threshold) {
            low_rows.push(row);
        } else {
            high_rows.push(row);
        }
    }
    WearoutSplit {
        threshold: threshold.floor().max(0.0) as u32,
        low_rows,
        high_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_rows() {
        let mwi = vec![10.0, 50.0, 30.0, 90.0, 30.0];
        let split = split_rows_by_mwi(&mwi, 30.0);
        assert_eq!(split.low_rows, vec![0, 2, 4]);
        assert_eq!(split.high_rows, vec![1, 3]);
        assert_eq!(split.threshold, 30);
        assert_eq!(split.low_rows.len() + split.high_rows.len(), mwi.len());
    }

    #[test]
    fn fractional_threshold_reports_floor() {
        // With a fractional threshold the reported integer must be the
        // floor: rounding 30.6 to 31 would claim MWI_N == 31 is low-wear
        // even though the split sent it to the high group.
        let mwi = vec![30.0, 30.5, 30.6, 31.0];
        let split = split_rows_by_mwi(&mwi, 30.6);
        assert_eq!(split.low_rows, vec![0, 1, 2]);
        assert_eq!(split.high_rows, vec![3]);
        assert_eq!(split.threshold, 30);
    }

    #[test]
    fn the_threshold_is_low_wear_and_nan_is_high() {
        assert!(is_low_wear(30.0, 30.0));
        assert!(is_low_wear(29.5, 30.0));
        assert!(!is_low_wear(30.5, 30.0));
        assert!(!is_low_wear(f64::NAN, 30.0));
        let split = split_rows_by_mwi(&[30.0, f64::NAN, 31.0], 30.0);
        assert_eq!(split.low_rows, vec![0]);
        assert_eq!(split.high_rows, vec![1, 2]);
    }

    #[test]
    fn split_with_extreme_thresholds() {
        let mwi = vec![10.0, 50.0];
        let all_low = split_rows_by_mwi(&mwi, 100.0);
        assert_eq!(all_low.low_rows.len(), 2);
        assert!(all_low.high_rows.is_empty());
        let all_high = split_rows_by_mwi(&mwi, 0.0);
        assert!(all_high.low_rows.is_empty());
    }

    #[test]
    fn detects_kneed_fleet() {
        let drives: Vec<(f64, bool)> = (5..=95)
            .flat_map(|mwi| (0..25).map(move |i| (mwi as f64, i < if mwi < 35 { 12 } else { 1 })))
            .collect();
        let cp = detect_wearout_threshold(&drives)
            .unwrap()
            .expect("knee must be detected");
        assert!(
            (30..=40).contains(&cp.mwi_threshold),
            "got {}",
            cp.mwi_threshold
        );
    }

    #[test]
    fn narrow_range_gives_none() {
        let drives: Vec<(f64, bool)> = (97..=100)
            .flat_map(|mwi| (0..30).map(move |i| (mwi as f64, i < 2)))
            .collect();
        assert!(detect_wearout_threshold(&drives).unwrap().is_none());
    }
}
