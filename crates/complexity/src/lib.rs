#![forbid(unsafe_code)]
//! Data-complexity measures and the automated feature-count threshold of
//! the WEFR reproduction (§IV-C of the paper).
//!
//! WEFR does not ask the operator how many features to keep. Instead it
//! scans the aggregated feature ranking top-down, scores every prefix with
//! an ensemble of Ho–Basu complexity measures plus a size penalty, and
//! stops when the score stops improving:
//!
//! ```text
//! e(t) = α · F(top-t subset) + (1 − α) · t / total        (α = 0.75)
//! F    = (1/F1 + F2 + 1/F3) / 3
//! ```
//!
//! # Example
//!
//! ```
//! use smart_complexity::{automated_feature_count, ThresholdConfig};
//! use smart_stats::FeatureMatrix;
//!
//! # fn main() -> Result<(), smart_complexity::ComplexityError> {
//! let data = FeatureMatrix::from_columns(
//!     vec!["informative".into(), "noise".into()],
//!     vec![
//!         vec![0.1, 0.2, 5.0, 5.1, 0.15, 5.05],
//!         vec![1.0, 2.0, 1.5, 2.5, 2.2, 1.2],
//!     ],
//! ).expect("valid matrix");
//! let labels = [false, false, true, true, false, true];
//! let result = automated_feature_count(&data, &labels, &[0, 1], &ThresholdConfig::default())?;
//! assert_eq!(result.chosen, 1); // the noise feature is cut
//! # Ok(())
//! # }
//! ```

pub mod ensemble;
pub mod error;
pub mod measures;
pub mod threshold;

pub use ensemble::ensemble_complexity;
pub use error::ComplexityError;
pub use measures::{feature_measures, FeatureMeasures, SubsetMeasures};
pub use threshold::{automated_feature_count, ScanPoint, ScanResult, ThresholdConfig};
