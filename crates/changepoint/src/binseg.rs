//! Least-squares binary segmentation — the ablation baseline against
//! Bayesian online change-point detection (see DESIGN.md §4).

use crate::error::ChangepointError;

/// A change point found by binary segmentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegBoundary {
    /// First index of the right-hand segment.
    pub index: usize,
    /// Sum-of-squared-error reduction achieved by splitting here.
    pub gain: f64,
}

/// Points each side of a split must keep.
const MIN_SEGMENT: usize = 4;

/// The single best split of `series` by SSE reduction, keeping at least 4
/// points on each side. Returns `None` when no admissible split reduces
/// SSE.
///
/// # Errors
///
/// Returns [`ChangepointError::SeriesTooShort`] when the series cannot hold
/// two segments and [`ChangepointError::NonFinite`] for NaN/∞ input.
pub fn best_split(series: &[f64]) -> Result<Option<SegBoundary>, ChangepointError> {
    let n = series.len();
    if n < 2 * MIN_SEGMENT {
        return Err(ChangepointError::SeriesTooShort {
            len: n,
            required: 2 * MIN_SEGMENT,
        });
    }
    if series.iter().any(|x| !x.is_finite()) {
        return Err(ChangepointError::NonFinite);
    }

    let total: f64 = series.iter().sum();
    let base = total * total / n as f64;
    let mut best: Option<SegBoundary> = None;
    let mut left_sum = 0.0;
    for k in MIN_SEGMENT..=(n - MIN_SEGMENT) {
        left_sum = if k == MIN_SEGMENT {
            series[..k].iter().sum()
        } else {
            left_sum + series[k - 1]
        };
        let right_sum = total - left_sum;
        let gain = left_sum * left_sum / k as f64 + right_sum * right_sum / (n - k) as f64 - base;
        if gain > best.map_or(1e-12, |b| b.gain) {
            best = Some(SegBoundary { index: k, gain });
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(n1: usize, v1: f64, n2: usize, v2: f64) -> Vec<f64> {
        let mut xs = vec![v1; n1];
        xs.extend(vec![v2; n2]);
        xs
    }

    #[test]
    fn finds_clean_step() {
        let xs = step(20, 0.0, 30, 4.0);
        let b = best_split(&xs).unwrap().unwrap();
        assert_eq!(b.index, 20);
        assert!(b.gain > 0.0);
    }

    #[test]
    fn constant_series_has_no_split() {
        let xs = vec![3.0; 40];
        assert!(best_split(&xs).unwrap().is_none());
    }

    #[test]
    fn min_segment_is_respected() {
        let xs = step(3, 0.0, 37, 4.0);
        let b = best_split(&xs).unwrap().unwrap();
        assert!(b.index >= MIN_SEGMENT && b.index <= xs.len() - MIN_SEGMENT);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            best_split(&[1.0; 7]),
            Err(ChangepointError::SeriesTooShort { required: 8, .. })
        ));
        let mut xs = vec![1.0; 8];
        xs[2] = f64::NAN;
        assert_eq!(best_split(&xs), Err(ChangepointError::NonFinite));
    }
}
