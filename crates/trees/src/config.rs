//! Tree hyperparameter configuration.

use crate::error::TreesError;

/// How a tree searches for the best split of a candidate feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Sort the feature's values at every node and scan every boundary —
    /// O(n log n) per node per feature. The reference engine.
    Exact,
    /// Quantize each feature once per dataset into ≤ 255 bins (see
    /// [`BinnedMatrix`](crate::BinnedMatrix)) and search bin boundaries via
    /// per-node histograms — O(n) accumulation + O(bins) scan, shared
    /// across all trees. Identical to `Exact` on features with ≤ 255
    /// distinct values; thresholds quantized to bin edges otherwise.
    /// The default.
    #[default]
    Histogram,
}

/// How many candidate features a tree node considers when searching splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// All features (plain CART).
    All,
    /// `ceil(sqrt(n_features))` — the Random Forest classification default.
    Sqrt,
    /// `max(1, floor(log2(n_features)))`.
    Log2,
    /// A fixed count (clamped to `n_features`).
    Count(usize),
}

impl MaxFeatures {
    /// Resolve to a concrete count for `n_features`.
    pub fn resolve(self, n_features: usize) -> usize {
        let k = match self {
            MaxFeatures::All => n_features,
            MaxFeatures::Sqrt => (n_features as f64).sqrt().ceil() as usize,
            MaxFeatures::Log2 => (n_features as f64).log2().floor() as usize,
            MaxFeatures::Count(k) => k,
        };
        k.clamp(1, n_features.max(1))
    }
}

/// Hyperparameters of a single tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0). The paper's prediction model
    /// uses 13.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must retain.
    pub min_samples_leaf: usize,
    /// Per-node feature subsampling.
    pub max_features: MaxFeatures,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 13,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

impl TreeConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::InvalidParameter`] when a minimum-sample bound
    /// is zero or `max_features` is `Count(0)`.
    pub fn validate(&self) -> Result<(), TreesError> {
        if self.min_samples_split < 2 {
            return Err(TreesError::InvalidParameter {
                message: "min_samples_split must be at least 2".to_string(),
            });
        }
        if self.min_samples_leaf == 0 {
            return Err(TreesError::InvalidParameter {
                message: "min_samples_leaf must be at least 1".to_string(),
            });
        }
        if let MaxFeatures::Count(0) = self.max_features {
            return Err(TreesError::InvalidParameter {
                message: "max_features count must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_all_and_count() {
        assert_eq!(MaxFeatures::All.resolve(40), 40);
        assert_eq!(MaxFeatures::Count(7).resolve(40), 7);
        assert_eq!(MaxFeatures::Count(99).resolve(40), 40);
    }

    #[test]
    fn resolve_sqrt_and_log2() {
        assert_eq!(MaxFeatures::Sqrt.resolve(36), 6);
        assert_eq!(MaxFeatures::Sqrt.resolve(40), 7); // ceil(6.32)
        assert_eq!(MaxFeatures::Log2.resolve(32), 5);
        assert_eq!(MaxFeatures::Log2.resolve(1), 1); // clamped up
    }

    #[test]
    fn resolve_never_zero() {
        for mf in [MaxFeatures::Sqrt, MaxFeatures::Log2, MaxFeatures::Count(1)] {
            assert_eq!(mf.resolve(1), 1);
        }
    }

    #[test]
    fn default_matches_paper_depth() {
        assert_eq!(TreeConfig::default().max_depth, 13);
        assert!(TreeConfig::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate() {
        for c in [
            TreeConfig {
                min_samples_split: 1,
                ..TreeConfig::default()
            },
            TreeConfig {
                min_samples_leaf: 0,
                ..TreeConfig::default()
            },
            TreeConfig {
                max_features: MaxFeatures::Count(0),
                ..TreeConfig::default()
            },
        ] {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }
}
