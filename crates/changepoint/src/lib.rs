#![forbid(unsafe_code)]
//! Change-point detection substrate for the WEFR reproduction.
//!
//! WEFR's wear-out-updating step needs to know whether — and where — the
//! survival rate of a drive model changes as a function of the wear-out
//! indicator `MWI_N` (§III-C / §IV-D of the paper). This crate provides:
//!
//! * [`bocpd`] — Bayesian online change-point detection with a Normal-Gamma
//!   observation model, yielding a change probability per position.
//! * [`significance`] — the paper's ±2.5 z-score rule over change
//!   probabilities and most-significant-point selection.
//! * [`survival`] — survival-rate curves over `MWI_N` and end-to-end
//!   change-point detection on them.
//! * [`binseg`] — least-squares binary segmentation, the ablation baseline.
//!
//! # Example
//!
//! ```
//! use smart_changepoint::survival::SurvivalCurve;
//!
//! # fn main() -> Result<(), smart_changepoint::ChangepointError> {
//! // (final MWI_N, failed) pairs with a survival knee at MWI 40.
//! let drives = (5..=95).flat_map(|mwi| {
//!     (0..30).map(move |i| (mwi as f64, i < if mwi < 40 { 15 } else { 1 }))
//! });
//! let curve = SurvivalCurve::from_drives(drives, 3);
//! let cp = curve.detect_change_point()?.expect("knee is detectable");
//! assert!((35..=45).contains(&cp.mwi_threshold));
//! # Ok(())
//! # }
//! ```

pub mod binseg;
pub mod bocpd;
pub mod error;
pub mod normal_gamma;
pub mod significance;
pub mod survival;

pub use bocpd::change_probabilities;
pub use error::ChangepointError;
pub use normal_gamma::NormalGamma;
pub use significance::{
    most_significant_point, significant_points, SignificantPoint, PAPER_Z_THRESHOLD,
};
pub use survival::{SurvivalCurve, SurvivalPoint, WearoutChangePoint, MIN_DRIVES_PER_POINT};
