//! Automated feature-count selection (§IV-C of the paper, after
//! Seijo-Pardo et al. \[27\]): scan the aggregated ranking top-down, score
//! each prefix with `e = α·F + (1−α)·ξ` (complexity of the prefix plus a
//! linearly growing size penalty), seed with the top `log₂(#features)`
//! features, and stop as soon as `e` stops improving.

use crate::ensemble::ensemble_complexity;
use crate::error::ComplexityError;
use crate::measures::{feature_measures, SubsetMeasures};
use smart_stats::FeatureMatrix;

/// Weight `α` of the complexity term in `e` (the paper's 0.75).
const ALPHA: f64 = 0.75;

/// Configuration of the automated scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdConfig {
    /// Divisor of the ensemble measure `F = (1/F1 + F2 + 1/F3) / divisor`.
    /// The paper prints `/2`; with three ensembled measures the mean (`3`)
    /// is used here — see DESIGN.md §2. It does more than rescale `F`: in
    /// `e = α·F + (1−α)·ξ` it sets `F`'s weight against the size penalty
    /// `ξ`.
    pub divisor: f64,
}

impl Default for ThresholdConfig {
    fn default() -> Self {
        ThresholdConfig { divisor: 3.0 }
    }
}

/// One evaluated prefix of the scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanPoint {
    /// Number of features in the prefix.
    pub count: usize,
    /// Ensemble complexity `F` of the prefix.
    pub complexity: f64,
    /// Size penalty `ξ = count / total`.
    pub xi: f64,
    /// Combined score `e = α·F + (1−α)·ξ`, with the paper's `α = 0.75`.
    pub e: f64,
}

/// Outcome of the automated scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// The selected feature count.
    pub chosen: usize,
    /// Every evaluated prefix, in scan order (useful for diagnostics and
    /// the Fig. 2 style sweep).
    pub trace: Vec<ScanPoint>,
}

/// Determine the number of features to keep from `ranking_order` (feature
/// column indices, best first).
///
/// # Errors
///
/// Returns [`ComplexityError::InvalidParameter`] when the ranking is empty
/// or references out-of-range columns;
/// [`ComplexityError::LengthMismatch`] when labels don't cover the matrix;
/// and [`ComplexityError::SingleClass`] when labels are one-class.
pub fn automated_feature_count(
    data: &FeatureMatrix,
    labels: &[bool],
    ranking_order: &[usize],
    config: &ThresholdConfig,
) -> Result<ScanResult, ComplexityError> {
    if ranking_order.is_empty() {
        return Err(ComplexityError::InvalidParameter {
            message: "ranking is empty".to_string(),
        });
    }
    if labels.len() != data.n_rows() {
        return Err(ComplexityError::LengthMismatch {
            values: data.n_rows(),
            labels: labels.len(),
        });
    }
    if ranking_order.iter().any(|&c| c >= data.n_features()) {
        return Err(ComplexityError::InvalidParameter {
            message: "ranking references a column outside the matrix".to_string(),
        });
    }

    let total = ranking_order.len();
    // Seed: the top log2(#features) features are always kept (they are the
    // highest-ranked ones).
    let seed = ((total as f64).log2().floor() as usize).clamp(1, total);
    let span = telemetry::span!("threshold_scan", total = total, seed = seed);

    let mut subset = SubsetMeasures::empty();
    let mut trace = Vec::with_capacity(total);
    let mut best_e = f64::INFINITY;
    let mut chosen = seed;
    let mut stop_reason = "exhausted";

    for (i, &col) in ranking_order.iter().enumerate() {
        let m = feature_measures(data.column(col), labels)?;
        subset = subset.with_feature(&m);
        let count = i + 1;
        let complexity = ensemble_complexity(&subset, config.divisor);
        let xi = count as f64 / total as f64;
        let e = ALPHA * complexity + (1.0 - ALPHA) * xi;
        telemetry::debug!(
            "threshold_scan",
            format!("prefix {count}: e = {e:.4}"),
            count = count,
            complexity = complexity,
            xi = xi,
            e = e,
        );
        trace.push(ScanPoint {
            count,
            complexity,
            xi,
            e,
        });

        if count < seed {
            continue;
        }
        if count == seed {
            best_e = e;
            chosen = seed;
            continue;
        }
        if e < best_e {
            best_e = e;
            chosen = count;
        } else {
            // First worsening stops the scan (paper's break rule).
            stop_reason = "worsened";
            break;
        }
    }
    span.record("chosen", chosen);
    span.record("scanned", trace.len());
    span.record("stop_reason", stop_reason);
    Ok(ScanResult { chosen, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::rngs::StdRng;
    use rng::{RngExt, SeedableRng};

    /// `n_good` informative features followed by `n_noise` noise features.
    fn make_data(n_good: usize, n_noise: usize, n_rows: usize) -> (FeatureMatrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(7);
        let labels: Vec<bool> = (0..n_rows).map(|i| i % 3 == 0).collect();
        let mut names = Vec::new();
        let mut columns = Vec::new();
        for g in 0..n_good {
            names.push(format!("good{g}"));
            // Informative with decreasing strength and some noise.
            let sep = 3.0 / (g + 1) as f64;
            columns.push(
                labels
                    .iter()
                    .map(|&l| if l { sep } else { 0.0 } + rng.random::<f64>())
                    .collect(),
            );
        }
        for z in 0..n_noise {
            names.push(format!("noise{z}"));
            columns.push((0..n_rows).map(|_| rng.random::<f64>()).collect());
        }
        (FeatureMatrix::from_columns(names, columns).unwrap(), labels)
    }

    #[test]
    fn keeps_good_drops_noise() {
        let (data, labels) = make_data(4, 12, 300);
        let order: Vec<usize> = (0..16).collect(); // good features ranked first
        let result =
            automated_feature_count(&data, &labels, &order, &ThresholdConfig::default()).unwrap();
        assert!(
            (3..=8).contains(&result.chosen),
            "chosen = {} (trace: {:?})",
            result.chosen,
            result.trace.iter().map(|p| p.e).collect::<Vec<_>>()
        );
    }

    #[test]
    fn xi_penalty_grows_linearly() {
        let (data, labels) = make_data(2, 6, 200);
        let order: Vec<usize> = (0..8).collect();
        let result =
            automated_feature_count(&data, &labels, &order, &ThresholdConfig::default()).unwrap();
        for p in &result.trace {
            assert!((p.xi - p.count as f64 / 8.0).abs() < 1e-12);
            assert!(
                (p.e - (0.75 * p.complexity + 0.25 * p.xi)).abs() < 1e-12,
                "e mismatch at count {}",
                p.count
            );
        }
    }

    #[test]
    fn seed_is_log2_of_total() {
        let (data, labels) = make_data(1, 15, 200);
        let order: Vec<usize> = (0..16).collect();
        let result =
            automated_feature_count(&data, &labels, &order, &ThresholdConfig::default()).unwrap();
        // log2(16) = 4: even if e worsens immediately, at least 4 kept.
        assert!(result.chosen >= 4);
    }

    #[test]
    fn partial_rankings_are_supported() {
        // Rank only a subset of the matrix columns.
        let (data, labels) = make_data(2, 6, 150);
        let order = vec![0, 1, 3];
        let result =
            automated_feature_count(&data, &labels, &order, &ThresholdConfig::default()).unwrap();
        assert!(result.chosen <= 3);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (data, labels) = make_data(1, 3, 50);
        let config = ThresholdConfig::default();
        assert!(automated_feature_count(&data, &labels, &[], &config).is_err());
        assert!(automated_feature_count(&data, &labels, &[99], &config).is_err());
        assert!(automated_feature_count(&data, &labels[..10], &[0], &config).is_err());
        let one_class = vec![false; 50];
        assert!(matches!(
            automated_feature_count(&data, &one_class, &[0], &config),
            Err(ComplexityError::SingleClass)
        ));
    }

    #[test]
    fn trace_stops_at_break() {
        let (data, labels) = make_data(2, 10, 200);
        let order: Vec<usize> = (0..12).collect();
        let result =
            automated_feature_count(&data, &labels, &order, &ThresholdConfig::default()).unwrap();
        // The trace covers exactly the scanned prefixes: chosen, possibly
        // plus the one worsening point, never the full tail after a break.
        assert!(result.trace.len() >= result.chosen);
        assert!(result.trace.len() <= order.len());
        let last = result.trace.last().unwrap();
        assert!(last.count == result.trace.len());
    }

    #[test]
    fn single_feature_ranking() {
        let (data, labels) = make_data(1, 1, 80);
        let result =
            automated_feature_count(&data, &labels, &[0], &ThresholdConfig::default()).unwrap();
        assert_eq!(result.chosen, 1);
        assert_eq!(result.trace.len(), 1);
    }
}
