//! Descriptive statistics: means, variances, quantiles, z-scores.

use crate::{Result, StatsError};

/// Arithmetic mean of `xs`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `xs` is empty.
///
/// ```
/// # use smart_stats::descriptive::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::empty("mean"));
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `xs` is empty.
pub fn population_variance(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Sample variance (divides by `n - 1`); returns 0 for singleton input.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `xs` is empty.
pub fn sample_variance(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::empty("sample_variance"));
    }
    if xs.len() == 1 {
        return Ok(0.0);
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Population standard deviation.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `xs` is empty.
pub fn population_std(xs: &[f64]) -> Result<f64> {
    population_variance(xs).map(f64::sqrt)
}

/// Minimum of `xs`, ignoring NaNs is **not** attempted: NaNs are rejected.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for empty input and
/// [`StatsError::NonFinite`] if any element is NaN.
pub fn min(xs: &[f64]) -> Result<f64> {
    fold_finite(xs, "min", f64::INFINITY, f64::min)
}

/// Maximum of `xs`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for empty input and
/// [`StatsError::NonFinite`] if any element is NaN.
pub fn max(xs: &[f64]) -> Result<f64> {
    fold_finite(xs, "max", f64::NEG_INFINITY, f64::max)
}

fn fold_finite(
    xs: &[f64],
    context: &'static str,
    init: f64,
    op: fn(f64, f64) -> f64,
) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::empty(context));
    }
    let mut acc = init;
    for &x in xs {
        if x.is_nan() {
            return Err(StatsError::NonFinite { context });
        }
        acc = op(acc, x);
    }
    Ok(acc)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `xs`.
///
/// Equivalent to numpy's default (`linear`) method.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for empty input and
/// [`StatsError::InvalidParameter`] if `q` lies outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::empty("quantile"));
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::invalid("quantile", "q must be in [0, 1]"));
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (50th percentile) of `xs`.
///
/// # Errors
///
/// Propagates errors from [`quantile`].
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Z-scores of each element: `(x - mean) / std` (population std).
///
/// When the standard deviation is zero, all z-scores are zero (the series is
/// constant, so no point deviates from the mean).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `xs` is empty.
pub fn z_scores(xs: &[f64]) -> Result<Vec<f64>> {
    let m = mean(xs)?;
    let s = population_std(xs)?;
    if s == 0.0 {
        return Ok(vec![0.0; xs.len()]);
    }
    Ok(xs.iter().map(|x| (x - m) / s).collect())
}

/// Weighted moving average with linearly increasing weights `1..=n`
/// (the most recent observation gets the largest weight).
///
/// This is the WMA used for statistical feature generation in the paper's
/// prediction pipeline.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `xs` is empty.
pub fn weighted_moving_average(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::empty("weighted_moving_average"));
    }
    let n = xs.len();
    let denom = (n * (n + 1)) as f64 / 2.0;
    let num: f64 = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| (i + 1) as f64 * x)
        .sum();
    Ok(num / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constants() {
        assert_eq!(mean(&[5.0; 10]).unwrap(), 5.0);
    }

    #[test]
    fn mean_empty_is_error() {
        assert!(matches!(mean(&[]), Err(StatsError::EmptyInput { .. })));
    }

    #[test]
    fn variance_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((population_variance(&xs).unwrap() - 4.0).abs() < 1e-12);
        assert!((sample_variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_singleton_is_zero() {
        assert_eq!(sample_variance(&[3.0]).unwrap(), 0.0);
    }

    #[test]
    fn min_max_roundtrip() {
        let xs = [3.0, -1.0, 2.5, 9.0, 0.0];
        assert_eq!(min(&xs).unwrap(), -1.0);
        assert_eq!(max(&xs).unwrap(), 9.0);
    }

    #[test]
    fn min_rejects_nan() {
        assert!(matches!(
            min(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite { .. })
        ));
    }

    #[test]
    fn quantile_endpoints_and_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!((median(&xs).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_out_of_range_q() {
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0], -0.1).is_err());
    }

    #[test]
    fn z_scores_standardize() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let zs = z_scores(&xs).unwrap();
        assert!((mean(&zs).unwrap()).abs() < 1e-12);
        assert!((population_std(&zs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_scores_constant_series() {
        assert_eq!(z_scores(&[2.0, 2.0, 2.0]).unwrap(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn wma_weights_recent_more() {
        // WMA of [0, 10] = (1*0 + 2*10) / 3
        assert!((weighted_moving_average(&[0.0, 10.0]).unwrap() - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wma_of_constant_is_constant() {
        assert!((weighted_moving_average(&[4.0; 7]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn prop_mean_bounded_by_min_max() {
        rng::prop_check!(|g| {
            let xs = g.vec_f64(1, 99, -1e6, 1e6);
            let m = mean(&xs).unwrap();
            assert!(m >= min(&xs).unwrap() - 1e-9);
            assert!(m <= max(&xs).unwrap() + 1e-9);
        });
    }

    #[test]
    fn prop_variance_nonnegative() {
        rng::prop_check!(|g| {
            let xs = g.vec_f64(1, 99, -1e6, 1e6);
            assert!(population_variance(&xs).unwrap() >= 0.0);
            assert!(sample_variance(&xs).unwrap() >= 0.0);
        });
    }

    #[test]
    fn prop_quantile_monotone() {
        rng::prop_check!(|g| {
            let xs = g.vec_f64(1, 49, -1e6, 1e6);
            let q1 = g.f64_in(0.0, 1.0);
            let q2 = g.f64_in(0.0, 1.0);
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            assert!(quantile(&xs, lo).unwrap() <= quantile(&xs, hi).unwrap() + 1e-9);
        });
    }

    #[test]
    fn prop_wma_between_min_and_max() {
        rng::prop_check!(|g| {
            let xs = g.vec_f64(1, 49, -1e6, 1e6);
            let w = weighted_moving_average(&xs).unwrap();
            assert!(w >= min(&xs).unwrap() - 1e-9);
            assert!(w <= max(&xs).unwrap() + 1e-9);
        });
    }
}
