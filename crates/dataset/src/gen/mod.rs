//! Fleet generation: per-drive lifecycle planning and daily SMART
//! simulation.

pub mod drive;
pub mod noise;
pub mod plan;
pub mod scenario;
pub mod stream;

pub use drive::simulate_drive;
pub use plan::{plan_drive, Destiny, DrivePlan};
pub use scenario::{
    apply_scenario, inject_csv_chaos, mixed_vendor_config, CsvChaos, FirmwareRollout,
    MissingCoverage, ReplacementChurn, ScenarioConfig,
};
pub use stream::{
    generate_drive_range, generate_fleet_streamed, stream_fleet_batches, stream_model_batches,
    GenConfig, GenStats,
};
