//! Rolling-window statistics for feature generation.
//!
//! The prediction pipeline expands each selected base feature into
//! statistical features over 3-day and 7-day windows: maximum, minimum,
//! mean, standard deviation, max−min range, and weighted moving average
//! (§V-A of the paper). [`WindowStats::compute`] computes all six over a
//! window slice; it is the single implementation, shared by training and
//! the serving daemon through the pipeline's `expand_sample`.
//!
//! # Missing data
//!
//! NaN cells mark *missing* measurements (DESIGN.md §11: tolerant ingest
//! backfills day gaps with NaN). The policy is observed-only: NaN cells
//! are skipped, the statistics are computed over the observed values in
//! order, and a window with no observed values yields all-NaN statistics
//! (which the binned learners route to their reserved missing bin).

use crate::descriptive;
use crate::{Result, StatsError};

/// The six windowed statistics the pipeline derives per base feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Window maximum.
    pub max: f64,
    /// Window minimum.
    pub min: f64,
    /// Window mean.
    pub mean: f64,
    /// Window population standard deviation.
    pub std: f64,
    /// `max - min`.
    pub range: f64,
    /// Weighted moving average (linear weights, most recent heaviest).
    pub wma: f64,
}

/// Names of the six statistics in the order [`WindowStats::to_array`] emits
/// them. Used to build derived-feature names like `OCE_R_max3`.
pub const WINDOW_STAT_NAMES: [&str; 6] = ["max", "min", "mean", "std", "range", "wma"];

impl WindowStats {
    /// The all-NaN statistics of a window with no observed values.
    pub fn missing() -> Self {
        WindowStats {
            max: f64::NAN,
            min: f64::NAN,
            mean: f64::NAN,
            std: f64::NAN,
            range: f64::NAN,
            wma: f64::NAN,
        }
    }

    /// Compute all six statistics over `window` (oldest value first).
    ///
    /// NaN cells are missing measurements: they are skipped and the
    /// statistics are computed over the observed values in order. A window
    /// of only NaN cells yields [`WindowStats::missing`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty window.
    pub fn compute(window: &[f64]) -> Result<Self> {
        if window.is_empty() {
            return Err(StatsError::empty("WindowStats::compute"));
        }
        if window.iter().any(|v| v.is_nan()) {
            let observed: Vec<f64> = window.iter().copied().filter(|v| !v.is_nan()).collect();
            if observed.is_empty() {
                return Ok(WindowStats::missing());
            }
            return Self::compute_observed(&observed);
        }
        Self::compute_observed(window)
    }

    /// The six statistics over a window already known to be NaN-free.
    fn compute_observed(window: &[f64]) -> Result<Self> {
        let max = descriptive::max(window)?;
        let min = descriptive::min(window)?;
        let mean = descriptive::mean(window)?;
        let std = descriptive::population_std(window)?;
        let wma = descriptive::weighted_moving_average(window)?;
        Ok(WindowStats {
            max,
            min,
            mean,
            std,
            range: max - min,
            wma,
        })
    }

    /// The statistics as an array in [`WINDOW_STAT_NAMES`] order.
    pub fn to_array(self) -> [f64; 6] {
        [
            self.max, self.min, self.mean, self.std, self.range, self.wma,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_over_simple_window() {
        let s = WindowStats::compute(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.max, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.range, 2.0);
        // WMA = (1*1 + 2*2 + 3*3)/6 = 14/6
        assert!((s.wma - 14.0 / 6.0).abs() < 1e-12);
        // population std of [1,2,3] = sqrt(2/3)
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_error() {
        assert!(WindowStats::compute(&[]).is_err());
    }

    #[test]
    fn to_array_matches_names() {
        let s = WindowStats::compute(&[4.0, 8.0]).unwrap();
        let arr = s.to_array();
        assert_eq!(arr.len(), WINDOW_STAT_NAMES.len());
        assert_eq!(arr[0], s.max);
        assert_eq!(arr[5], s.wma);
    }

    #[test]
    fn nan_cells_are_skipped() {
        // Observed-only: [1, NaN, 3] behaves exactly like [1, 3].
        let with_gap = WindowStats::compute(&[1.0, f64::NAN, 3.0]).unwrap();
        let dense = WindowStats::compute(&[1.0, 3.0]).unwrap();
        assert_eq!(with_gap, dense);
        assert_eq!(with_gap.max, 3.0);
        assert_eq!(with_gap.mean, 2.0);
    }

    #[test]
    fn all_nan_window_is_missing_stats() {
        let s = WindowStats::compute(&[f64::NAN, f64::NAN]).unwrap();
        for v in s.to_array() {
            assert!(v.is_nan());
        }
    }

    #[test]
    fn prop_stats_consistent() {
        rng::prop_check!(|g| {
            let xs = g.vec_f64(1, 29, -1e4, 1e4);
            let s = WindowStats::compute(&xs).unwrap();
            assert!(s.min <= s.mean + 1e-9);
            assert!(s.mean <= s.max + 1e-9);
            assert!(s.range >= -1e-9);
            assert!(s.std >= 0.0);
            assert!(s.wma >= s.min - 1e-9 && s.wma <= s.max + 1e-9);
        });
    }

    #[test]
    fn prop_constant_window_degenerates() {
        rng::prop_check!(|g| {
            let v = g.f64_in(-1e4, 1e4);
            let n = g.usize_in(1, 19);
            let s = WindowStats::compute(&vec![v; n]).unwrap();
            assert!((s.max - v).abs() < 1e-12);
            assert!((s.min - v).abs() < 1e-12);
            assert!(s.range.abs() < 1e-12);
            assert!(s.std.abs() < 1e-9);
        });
    }
}
