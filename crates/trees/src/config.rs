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
}

impl MaxFeatures {
    /// Resolve to a concrete count for `n_features`.
    pub fn resolve(self, n_features: usize) -> usize {
        let k = match self {
            MaxFeatures::All => n_features,
            MaxFeatures::Sqrt => (n_features as f64).sqrt().ceil() as usize,
        };
        k.clamp(1, n_features.max(1))
    }
}

/// Hyperparameters of a single tree. A node of fewer than two samples is
/// never split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0). The paper's prediction model
    /// uses 13.
    pub max_depth: usize,
    /// Minimum samples each child must retain.
    pub min_samples_leaf: usize,
    /// Per-node feature subsampling.
    pub max_features: MaxFeatures,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 13,
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
    /// Returns [`TreesError::InvalidParameter`] when `min_samples_leaf` is
    /// zero.
    pub fn validate(&self) -> Result<(), TreesError> {
        if self.min_samples_leaf == 0 {
            return Err(TreesError::InvalidParameter {
                message: "min_samples_leaf must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_all_and_sqrt() {
        assert_eq!(MaxFeatures::All.resolve(40), 40);
        assert_eq!(MaxFeatures::Sqrt.resolve(36), 6);
        assert_eq!(MaxFeatures::Sqrt.resolve(40), 7); // ceil(6.32)
    }

    #[test]
    fn resolve_never_zero() {
        for mf in [MaxFeatures::All, MaxFeatures::Sqrt] {
            assert_eq!(mf.resolve(1), 1);
            assert_eq!(mf.resolve(0), 1);
        }
    }

    #[test]
    fn default_matches_paper_depth() {
        assert_eq!(TreeConfig::default().max_depth, 13);
        assert!(TreeConfig::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate() {
        let c = TreeConfig {
            min_samples_leaf: 0,
            ..TreeConfig::default()
        };
        assert!(c.validate().is_err(), "{c:?}");
    }
}
