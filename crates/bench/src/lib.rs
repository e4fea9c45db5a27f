#![forbid(unsafe_code)]
//! Shared harness for the experiment binaries: option parsing, default
//! fleet/census construction, and result output.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --drives N    drives per model for full-simulation fleets (default 400)
//! --census N    total drives for lifecycle-only censuses (default 60000)
//! --days N      dataset window length in days (default 730)
//! --seed N      master seed (default 42)
//! --quick       down-scale everything for a fast smoke run
//! --out DIR     also write machine-readable JSON results under DIR
//! --model M     restrict to one drive model (repeatable; default all)
//! ```

use smart_dataset::{Census, DatasetError, DriveModel, Fleet, FleetConfig};
use smart_pipeline::experiment::ExperimentConfig;
use smart_trees::{ForestConfig, MaxFeatures, SplitStrategy, TreeConfig};
use std::path::PathBuf;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Drives per model for full fleets.
    pub drives_per_model: u32,
    /// Total drives for censuses.
    pub census_total: u32,
    /// Window length in days.
    pub days: u32,
    /// Master seed.
    pub seed: u64,
    /// Fast smoke-run mode.
    pub quick: bool,
    /// Optional JSON output directory.
    pub out_dir: Option<PathBuf>,
    /// Model filter (empty = all models).
    pub models: Vec<DriveModel>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            drives_per_model: 400,
            census_total: 60_000,
            days: 730,
            seed: 42,
            quick: false,
            out_dir: None,
            models: Vec::new(),
        }
    }
}

impl RunOptions {
    /// Parse from `std::env::args`, exiting with usage on malformed input.
    pub fn from_args() -> RunOptions {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match RunOptions::parse(&args) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--drives N] [--census N] [--days N] [--seed N] [--quick] \
                     [--out DIR] [--model MA1|MA2|MB1|MB2|MC1|MC2]..."
                );
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or bad values,
    /// including values the fleet or census configuration rejects.
    pub fn parse(args: &[String]) -> Result<RunOptions, String> {
        let mut opts = RunOptions::default();
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--drives" => {
                    opts.drives_per_model = value(&mut i, "--drives")?
                        .parse()
                        .map_err(|_| "bad --drives value".to_string())?;
                }
                "--census" => {
                    opts.census_total = value(&mut i, "--census")?
                        .parse()
                        .map_err(|_| "bad --census value".to_string())?;
                }
                "--days" => {
                    opts.days = value(&mut i, "--days")?
                        .parse()
                        .map_err(|_| "bad --days value".to_string())?;
                }
                "--seed" => {
                    opts.seed = value(&mut i, "--seed")?
                        .parse()
                        .map_err(|_| "bad --seed value".to_string())?;
                }
                "--quick" => opts.quick = true,
                "--out" => {
                    opts.out_dir = Some(PathBuf::from(value(&mut i, "--out")?));
                }
                "--model" => {
                    let name = value(&mut i, "--model")?;
                    let model = DriveModel::from_name(&name)
                        .ok_or_else(|| format!("unknown model {name:?}"))?;
                    opts.models.push(model);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
            i += 1;
        }
        if opts.quick {
            opts.drives_per_model = opts.drives_per_model.min(120);
            opts.census_total = opts.census_total.min(8_000);
        }
        opts.fleet_config().map_err(|e| e.to_string())?;
        opts.census_config().map_err(|e| e.to_string())?;
        Ok(opts)
    }

    /// The models this run covers, in paper order.
    pub fn models(&self) -> Vec<DriveModel> {
        if self.models.is_empty() {
            DriveModel::ALL.to_vec()
        } else {
            let mut models: Vec<DriveModel> = DriveModel::ALL
                .iter()
                .copied()
                .filter(|m| self.models.contains(m))
                .collect();
            models.dedup();
            models
        }
    }

    /// Build the full-simulation fleet for prediction experiments. Only the
    /// models this run covers are simulated.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (impossible for parsed options).
    pub fn fleet(&self) -> Fleet {
        Fleet::generate(&self.fleet_config().expect("valid fleet config"))
    }

    fn fleet_config(&self) -> Result<FleetConfig, DatasetError> {
        let mut builder = FleetConfig::builder().days(self.days).seed(self.seed);
        for m in self.models() {
            builder = builder.drives(m, self.drives_per_model);
        }
        builder
            .per_model_scale(DriveModel::Ma2, 4.0)
            .per_model_scale(DriveModel::Mb2, 3.0)
            .build()
    }

    /// Build the lifecycle census for fleet-level statistics (Table II,
    /// Fig. 1), using the paper's population mix and unboosted AFRs.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (impossible for parsed options).
    pub fn census(&self) -> Census {
        Census::generate(&self.census_config().expect("valid census config"))
    }

    fn census_config(&self) -> Result<FleetConfig, DatasetError> {
        FleetConfig::proportional(self.census_total, self.seed)
    }

    /// The experiment configuration matching this run's scale.
    ///
    /// The non-quick tier halves the forest (50 trees instead of the
    /// paper's 100, same depth 13) and coarsens the tuning grid to five
    /// fractions — deviations recorded in EXPERIMENTS.md that keep the full
    /// method matrix tractable on a single-core machine without changing
    /// which method wins.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut config = if self.quick {
            ExperimentConfig::quick(self.seed)
        } else {
            let mut c = ExperimentConfig::default();
            c.predictor.n_trees = 50;
            c.tune_grid = vec![0.3, 0.6, 1.0];
            c
        };
        config.seed = self.seed;
        config
    }

    /// The prediction-model forest of Exp#4's paired `rf_train` rows, under
    /// one split engine: 50 trees (20 under `--quick`) of depth 13, leaves
    /// of at least 2 samples, √features per split. The timing gate that
    /// bounds histogram against exact training fits this same forest.
    pub fn rf_train_config(&self, strategy: SplitStrategy) -> ForestConfig {
        ForestConfig {
            n_trees: if self.quick { 20 } else { 50 },
            tree: TreeConfig {
                max_depth: 13,
                min_samples_leaf: 2,
                max_features: MaxFeatures::Sqrt,
                ..TreeConfig::default()
            },
            seed: self.seed,
            n_threads: None,
            strategy,
        }
    }

    /// Write a JSON result file when `--out` was given, exiting with status
    /// 1 when it cannot be written: a run that was asked for a report and
    /// left none has failed.
    pub fn write_json<T: json::ToJson>(&self, name: &str, value: &T) {
        if let Some(dir) = &self.out_dir {
            let path = dir.join(format!("{name}.json"));
            if let Err(e) = smart_pipeline::report::write_json(&path, value) {
                eprintln!("warning: failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Print a section header in the experiment binaries' output style.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Build the full-window base matrix of one model for feature-importance
/// characterization (Tables III–V): all positives plus strided/downsampled
/// negatives over the entire dataset window.
///
/// Returns `(matrix, labels, per-sample MWI_N)`.
///
/// # Panics
///
/// Panics when the fleet contains no usable samples of `model` — the
/// harness treats that as a misconfigured run.
pub fn characterization_matrix(
    fleet: &Fleet,
    model: DriveModel,
    seed: u64,
) -> (smart_stats::FeatureMatrix, Vec<bool>, Vec<f64>) {
    use smart_pipeline::matrix::{base_matrix, collect_samples, SamplingConfig};
    let sampling = SamplingConfig {
        seed,
        ..SamplingConfig::default()
    };
    let samples = collect_samples(fleet, model, 0, fleet.config().days() - 1, &sampling)
        .expect("fleet has samples of the model");
    let (matrix, labels, mwi) =
        base_matrix(fleet, model, &samples).expect("matrix construction succeeds");
    (matrix, labels, mwi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RunOptions::parse(&owned)
    }

    #[test]
    fn defaults_when_no_args() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.drives_per_model, 400);
        assert_eq!(opts.days, 730);
        assert!(!opts.quick);
        assert_eq!(opts.models().len(), 6);
    }

    #[test]
    fn parses_all_flags() {
        let opts = parse(&[
            "--drives", "50", "--census", "1000", "--days", "365", "--seed", "7", "--quick",
            "--out", "/tmp/x", "--model", "mc1", "--model", "MA1",
        ])
        .unwrap();
        assert_eq!(opts.drives_per_model, 50);
        assert_eq!(opts.census_total, 1000);
        assert_eq!(opts.days, 365);
        assert_eq!(opts.seed, 7);
        assert!(opts.quick);
        assert_eq!(
            opts.out_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(opts.models(), vec![DriveModel::Ma1, DriveModel::Mc1]);
    }

    #[test]
    fn quick_caps_sizes() {
        let opts = parse(&["--drives", "9999", "--quick"]).unwrap();
        assert!(opts.drives_per_model <= 120);
        assert!(opts.census_total <= 8000);
    }

    #[test]
    fn rejects_unknown_flag_and_bad_values() {
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--drives"]).is_err());
        assert!(parse(&["--drives", "abc"]).is_err());
        assert!(parse(&["--model", "XY9"]).is_err());
        // Values that parse as numbers but that the fleet or census
        // configuration rejects are usage errors too, not later panics.
        for bad in [
            &["--quick", "--drives", "0"][..],
            &["--quick", "--days", "0"],
            &["--days", "119"],
            &["--census", "0"],
            &["--quick", "--census", "3"],
        ] {
            let err = parse(bad).expect_err("invalid configuration accepted");
            assert!(
                err.contains("invalid fleet configuration"),
                "{bad:?}: {err}"
            );
        }
        assert!(parse(&["--days", "120", "--census", "100"]).is_ok());
    }

    #[test]
    fn quick_experiment_config_is_smaller() {
        let quick = parse(&["--quick"]).unwrap().experiment_config();
        let full = parse(&[]).unwrap().experiment_config();
        assert!(quick.predictor.n_trees < full.predictor.n_trees);
    }
}
