#![forbid(unsafe_code)]
//! End-to-end SSD failure-prediction pipeline (§II-B / §V-A of the paper):
//! from a simulated fleet's SMART logs to precision/recall/F0.5 at a fixed
//! per-model recall.
//!
//! The stages mirror the paper's offline workflow:
//!
//! 1. **Labeling** ([`label`]) — a drive-day is positive when the drive
//!    fails within the next 30 days.
//! 2. **Sampling & matrices** ([`matrix`]) — positives kept, negatives
//!    strided and downsampled; base matrices for feature selection and
//!    expanded matrices for learning.
//! 3. **Feature generation** ([`features`]) — each base feature expands to
//!    13 learning features (current value + 6 statistics × 2 windows).
//! 4. **Splits** ([`split`]) — test months 22/23/24, trained on everything
//!    before, 8:2 train/validation by day.
//! 5. **Training** ([`train`]) — Random Forest, 100 trees, depth 13.
//! 6. **Evaluation** ([`evaluate`]) — drive-level first-prediction scoring
//!    at the paper's fixed per-model recall; F0.5 as the headline metric.
//! 7. **Experiments** ([`experiment`]) — the method matrix of Tables VI and
//!    VII: no selection, five selectors (fixed or validation-tuned
//!    percentage), WEFR, and WEFR without wear-out updating.
//!
//! # Example
//!
//! ```no_run
//! use smart_dataset::{DriveModel, Fleet, FleetConfig};
//! use smart_pipeline::experiment::{run_method, ExperimentConfig, Method};
//!
//! # fn main() -> Result<(), smart_pipeline::PipelineError> {
//! let fleet = Fleet::generate(&FleetConfig::balanced(250, 42).expect("valid config"));
//! let result = run_method(
//!     &fleet,
//!     DriveModel::Mc1,
//!     Method::Wefr,
//!     &ExperimentConfig::default(),
//! )?;
//! println!("MC1 WEFR: P={:.2} F0.5={:.2}", result.overall.precision, result.overall.f_half);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod evaluate;
pub mod experiment;
pub mod features;
pub mod fig1;
pub mod label;
pub mod matrix;
pub mod report;
pub mod split;
pub mod streaming;
pub mod train;

pub use error::PipelineError;
pub use evaluate::{metrics_at_fixed_recall, score_phase, DriveScore, EvalMetrics};
pub use experiment::{
    paper_target_recall, run_method, ExperimentConfig, Method, MethodResult, SelectorKind,
};
pub use fig1::{
    fig1_pinned_config, fig1_report, fig1_report_from_census, Fig1ModelCurve, Fig1Report,
    FIG1_CENSUS_TOTAL, FIG1_MIN_BUCKET, FIG1_SEED,
};
pub use label::{SampleRef, PAPER_HORIZON_DAYS};
pub use matrix::{
    base_features, base_features_at, base_matrix, collect_samples, survival_pairs, SamplingConfig,
};
pub use split::{paper_phases, Phase};
pub use streaming::{
    generated_base_matrix, streaming_base_matrix, GeneratedMatrix, StreamedMatrix,
};
pub use train::{FailurePredictor, PredictorConfig};
