#![forbid(unsafe_code)]
//! Synthetic SSD fleet simulator: the dataset substrate of the WEFR
//! reproduction.
//!
//! The paper evaluates on ~500 K production SSDs at Alibaba (six drive
//! models, three vendors, two years of daily SMART logs plus trouble
//! tickets). This crate replaces that proprietary-scale dataset with a
//! simulator that reproduces its *statistical structure*:
//!
//! * the per-model SMART attribute coverage of Table I ([`DriveModel`]),
//! * the population mix and AFR ordering of Table II ([`stats::summarize`]),
//! * per-model failure *mechanisms* whose pre-failure counter ramps give
//!   each model its characteristic important features (Table III),
//! * wear-out-dependent failure modes, including MC2's early-firmware bug,
//!   producing the survival-rate-vs-`MWI_N` shapes of Fig. 1.
//!
//! # Quick start
//!
//! ```
//! use smart_dataset::{Fleet, FleetConfig, DriveModel};
//!
//! # fn main() -> Result<(), smart_dataset::DatasetError> {
//! let config = FleetConfig::builder()
//!     .days(365)
//!     .drives(DriveModel::Mc1, 50)
//!     .seed(42)
//!     .build()?;
//! let fleet = Fleet::generate(&config);
//! println!("{} drives, {} failures", fleet.drives().len(), fleet.n_failures());
//! # Ok(())
//! # }
//! ```
//!
//! For fleet-scale lifecycle statistics (AFR, survival curves) use the much
//! cheaper [`Census`], which shares per-drive randomness with [`Fleet`] and
//! therefore agrees with it drive-for-drive on failures.

pub mod attr;
pub mod config;
pub mod csv;
pub mod error;
pub mod fleet;
pub mod gen;
pub mod ingest;
pub mod mechanism;
pub mod model;
pub mod records;
pub mod stats;
pub mod tickets;

pub use attr::{FeatureId, SmartAttribute, ValueKind};
pub use config::FleetConfig;
pub use error::DatasetError;
pub use fleet::{Census, Fleet};
pub use gen::scenario::{
    apply_scenario, inject_csv_chaos, mixed_vendor_config, CsvChaos, FirmwareRollout,
    MissingCoverage, ReplacementChurn, ScenarioConfig,
};
pub use gen::stream::{
    generate_drive_range, generate_fleet_streamed, stream_fleet_batches, stream_model_batches,
    GenConfig, GenStats,
};
pub use ingest::{
    import_smart_csv_sharded, import_smart_csv_sharded_with_stats, stream_drive_batches,
    DriveBatch, IngestConfig, IngestStats, IngestTolerance, SkipCounts,
};
pub use mechanism::FailureMechanism;
pub use model::{DriveModel, FlashTech, Vendor};
pub use records::{DriveId, DriveRecord, DriveSummary, FailureRecord};
pub use tickets::{tickets_from_summaries, TroubleTicket};
