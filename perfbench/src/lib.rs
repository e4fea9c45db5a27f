#![deny(unsafe_code)]
//! The WEFR workspace benchmark as a library: option parsing, the shared
//! set-up and timing helpers, and one module per workload. The binary
//! (`src/main.rs`) documents the workloads and prints the result.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rng::rngs::StdRng;
use rng::SeedableRng;
use smart_dataset::gen::stream::GenConfig;
use smart_dataset::{Census, DriveModel, IngestConfig};
use smart_pipeline::SamplingConfig;
use smart_stats::sampling::sample_without_replacement;
use smart_stats::FeatureMatrix;
use wefr_core::WefrConfig;

pub mod csv_matrix;
pub mod gen_pipeline;
pub mod heap;
pub mod layers;
pub mod report;
pub mod select;
pub mod serve_live;
pub mod stats;

use report::{Outcome, END_TO_END, PER_LAYER};
use stats::median;

/// Every workload's set-up runs this many times; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The workloads, each sized so that a different layer does most of the
/// work (see the binary's documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated `Wefr::select` on one matrix.
    Select,
    /// Streamed generation, selection and forest training.
    GenPipeline,
    /// CSV text to a base matrix through the sharded reader.
    CsvMatrix,
    /// Live replay and re-selection beside an open-loop query stream.
    ServeLive,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Select,
        Workload::GenPipeline,
        Workload::CsvMatrix,
        Workload::ServeLive,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Select => "select",
            Workload::GenPipeline => "gen-pipeline",
            Workload::CsvMatrix => "csv-matrix",
            Workload::ServeLive => "serve-live",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for tests.
    pub smoke: bool,
    /// Worker threads handed to the program (`available_parallelism`).
    pub cores: usize,
}

/// Usage text for malformed command lines.
pub const USAGE: &str = "usage: benchmark --workload select|gen-pipeline|csv-matrix|serve-live \
                         [--seed N] [--seconds N] [--trace 0|1] [--smoke]";

impl Options {
    /// Parse the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Describes an unknown flag, a missing or malformed value, or a
    /// missing `--workload`.
    pub fn parse(args: &[String], cores: usize) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = 42;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut smoke = false;
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let mut value = || {
                i += 1;
                args.get(i)
                    .map(String::as_str)
                    .ok_or(format!("{flag} needs a value"))
            };
            match flag {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == name)
                            .ok_or(format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => seed = value()?.parse().map_err(|_| "bad --seed value")?,
                "--seconds" => {
                    seconds = value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("bad --seconds value")?;
                }
                "--trace" => {
                    trace = match value()? {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    };
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
            i += 1;
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
            cores: cores.max(1),
        })
    }
}

/// The first `WEFR_*` environment variable that is set, if any. Program
/// defaults read some of them (`PredictorConfig::default` reads
/// `WEFR_SPLIT_STRATEGY`; telemetry reads `WEFR_LOG`, `WEFR_OBS_ALLOC`
/// and `WEFR_METRICS_ADDR`), so a run under any of them would measure a
/// different program.
pub fn wefr_env_var() -> Option<String> {
    std::env::vars_os()
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .find(|key| key.starts_with("WEFR_"))
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per distinct failed check.
    pub problems: Vec<String>,
    /// Metric values by name: the end-to-end ones always, per-layer
    /// metrics in traced runs.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable sizes and counts, printed before the result.
    pub notes: Vec<String>,
}

impl Measured {
    /// Count one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if !self.problems.iter().any(|p| p == what) {
                self.problems.push(what.to_string());
            }
        }
    }

    /// Record every per-layer median.
    pub fn add_layers(&mut self, medians: BTreeMap<&'static str, f64>) {
        self.values.extend(medians);
    }

    /// Assemble the result line's content. Untraced runs report every
    /// end-to-end metric, traced runs every per-layer metric; a layer the
    /// workload never entered reads 0.
    ///
    /// # Errors
    ///
    /// An end-to-end metric that is missing, not finite or not positive
    /// is a bug in the workload.
    pub fn outcome(&self, trace: bool) -> Result<Outcome, String> {
        let metrics = if trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let value = self.values.get(m.name).copied().unwrap_or(0.0);
                    let value = if value.is_finite() { value } else { 0.0 };
                    (m.name.to_string(), value, m.unit.to_string())
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| match self.values.get(m.name).copied() {
                    Some(v) if v.is_finite() && v > 0.0 => {
                        Ok((m.name.to_string(), v, m.unit.to_string()))
                    }
                    other => Err(format!("end-to-end metric {} is {other:?}", m.name)),
                })
                .collect::<Result<_, _>>()?
        };
        Ok(Outcome {
            correct: self.problems.is_empty(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        })
    }
}

/// Run the workload `opts` names.
///
/// # Errors
///
/// A set-up or measurement step that could not run at all.
pub fn run(opts: &Options) -> Result<Measured, String> {
    match opts.workload {
        Workload::Select => select::run(opts),
        Workload::GenPipeline => gen_pipeline::run(opts),
        Workload::CsvMatrix => csv_matrix::run(opts),
        Workload::ServeLive => serve_live::run(opts),
    }
}

/// A workload's starting state and what building it cost.
#[derive(Debug)]
pub struct SetUp<T> {
    /// The last build.
    pub product: T,
    /// Median build time (`setup_s`).
    pub seconds: f64,
    /// Median of the most heap each build held (`setup.peak_heap_mib`).
    pub peak_heap_mib: f64,
    /// Whether every build had the same fingerprint.
    pub deterministic: bool,
}

impl<T> SetUp<T> {
    /// Count the determinism check and record `setup_s` and the set-up
    /// heap into `measured`; returns the product.
    pub fn into_product(self, measured: &mut Measured) -> T {
        measured.check(self.deterministic, "set-up is not deterministic");
        measured.values.insert("setup_s", self.seconds);
        measured
            .values
            .insert("setup.peak_heap_mib", self.peak_heap_mib);
        self.product
    }
}

/// Build a workload's starting state [`SETUP_REPS`] times, dropping each
/// build before the next so that only one is ever held, and compare the
/// builds by a small `fingerprint` (set-up must be deterministic).
///
/// # Errors
///
/// The first failed build.
pub fn set_up<T, F: PartialEq>(
    mut build: impl FnMut() -> Result<T, String>,
    fingerprint: impl Fn(&T) -> F,
) -> Result<SetUp<T>, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut heaps = Vec::with_capacity(SETUP_REPS);
    let mut deterministic = true;
    let mut first: Option<F> = None;
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        heap::reset_peak();
        let start = Instant::now();
        let built = build()?;
        times.push(start.elapsed().as_secs_f64());
        heaps.push(heap::peak_mib());
        let print = fingerprint(&built);
        match &first {
            Some(reference) => deterministic &= *reference == print,
            None => first = Some(print),
        }
        last = Some(built);
    }
    Ok(SetUp {
        product: last.ok_or("no set-up ran")?,
        seconds: median(&times),
        peak_heap_mib: median(&heaps),
        deterministic,
    })
}

/// A 64-bit digest of `value`, for comparing large builds cheaply.
pub fn digest(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Repeats a measured operation until the run's time is up.
#[derive(Debug)]
pub struct Deadline {
    start: Instant,
    seconds: f64,
    min_rounds: usize,
    rounds: usize,
}

impl Deadline {
    /// A deadline `seconds` from now that still grants `min_rounds`.
    pub fn new(seconds: f64, min_rounds: usize) -> Deadline {
        Deadline {
            start: Instant::now(),
            seconds,
            min_rounds,
            rounds: 0,
        }
    }

    /// Whether another round should run (and count it).
    pub fn next_round(&mut self) -> bool {
        let go = self.rounds < self.min_rounds || self.start.elapsed().as_secs_f64() < self.seconds;
        self.rounds += usize::from(go);
        go
    }
}

/// The streaming generator's settings: `cores` workers. Small chunks keep
/// the generator's in-flight window, and with it the peak memory, small
/// next to the matrices being built.
pub fn gen_config(cores: usize) -> GenConfig {
    GenConfig {
        chunk_drives: 16,
        workers: cores,
        max_queued_chunks: cores,
        scenario: None,
    }
}

/// The sharded CSV reader's settings: `cores` workers.
pub fn ingest_config(cores: usize) -> IngestConfig {
    IngestConfig {
        workers: cores,
        ..IngestConfig::default()
    }
}

/// The paper's sampling policy, seeded.
pub fn sampling(seed: u64) -> SamplingConfig {
    SamplingConfig {
        seed,
        ..SamplingConfig::default()
    }
}

/// WEFR with the paper's settings, seeded.
pub fn wefr_config(seed: u64) -> WefrConfig {
    WefrConfig {
        seed,
        ..WefrConfig::default()
    }
}

/// Per-drive `(final MWI_N, failed)` of `model` — the survival input.
pub fn survival_of(census: &Census, model: DriveModel) -> Vec<(f64, bool)> {
    census
        .summaries_of_model(model)
        .map(|s| (s.final_mwi_n, s.is_failed()))
        .collect()
}

/// A labeled sample set cut to exactly `rows` rows, a fifth of them
/// positive, drawn with `seed`; returns sorted row indices. A fixed
/// shape keeps the cost of selecting on it steady from seed to seed.
///
/// # Errors
///
/// When the set has too few positives or negatives.
pub fn fixed_rows(labels: &[bool], rows: usize, seed: u64) -> Result<Vec<usize>, String> {
    let positives: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let negatives: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = |pool: &[usize], k: usize| {
        sample_without_replacement(&mut rng, pool.len(), k)
            .map(|picks| picks.into_iter().map(|p| pool[p]).collect::<Vec<_>>())
            .map_err(|_| {
                format!(
                    "need {rows} rows, a fifth positive, from {} positives and {} negatives",
                    positives.len(),
                    negatives.len()
                )
            })
    };
    let mut keep = draw(&positives, rows / 5)?;
    keep.extend(draw(&negatives, rows - rows / 5)?);
    keep.sort_unstable();
    Ok(keep)
}

/// `values` at `rows`.
pub fn pick<T: Copy>(values: &[T], rows: &[usize]) -> Vec<T> {
    rows.iter().map(|&r| values[r]).collect()
}

/// A digest of a labeled matrix: feature names, labels, and the bit
/// patterns of every cell and of `extra` (so NaN equals itself).
pub fn matrix_digest(matrix: &FeatureMatrix, labels: &[bool], extra: &[f64]) -> u64 {
    let mut hasher = DefaultHasher::new();
    matrix.feature_names().hash(&mut hasher);
    labels.hash(&mut hasher);
    let columns = (0..matrix.n_features()).map(|c| matrix.column(c));
    for column in columns.chain(std::iter::once(extra)) {
        column.len().hash(&mut hasher);
        for value in column {
            value.to_bits().hash(&mut hasher);
        }
    }
    hasher.finish()
}

/// The bit patterns of `values`, so NaN compares equal to itself.
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Convert any displayable error into the workloads' error type.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned, 2)
    }

    #[test]
    fn parses_a_full_command_line() {
        let opts = parse(&[
            "--workload",
            "serve-live",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(opts.workload, Workload::ServeLive);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.seconds, 12.0);
        assert!(opts.trace && !opts.smoke);
        assert_eq!(opts.cores, 2);
        let defaults = parse(&["--workload", "select"]).unwrap();
        assert_eq!((defaults.seed, defaults.seconds), (42, 10.0));
        assert!(!defaults.trace);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload"],
            &["--workload", "select", "--trace", "yes"],
            &["--workload", "select", "--seconds", "0"],
            &["--workload", "select", "--seed", "x"],
            &["--workload", "select", "--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fixed_rows_draws_an_exact_fifth_positive() {
        let labels: Vec<bool> = (0..1000).map(|i| i % 3 == 0).collect();
        let rows = fixed_rows(&labels, 500, 1).unwrap();
        assert_eq!(rows.len(), 500);
        assert_eq!(rows.iter().filter(|&&r| labels[r]).count(), 100);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rows, fixed_rows(&labels, 500, 1).unwrap());
        assert_ne!(rows, fixed_rows(&labels, 500, 2).unwrap());
        assert!(fixed_rows(&labels, 2000, 1).is_err());
    }

    #[test]
    fn deadline_grants_minimum_rounds() {
        let mut deadline = Deadline::new(0.0, 3);
        let mut rounds = 0;
        while deadline.next_round() {
            rounds += 1;
        }
        assert_eq!(rounds, 3);
    }

    #[test]
    fn set_up_keeps_one_build_and_compares_fingerprints() {
        let _serial = heap::TEST_LOCK.lock().unwrap();
        let mut builds = 0;
        let steady = set_up(
            || {
                builds += 1;
                Ok(vec![7u8; 1 << 20])
            },
            digest,
        )
        .unwrap();
        assert_eq!(builds, SETUP_REPS);
        assert!(steady.deterministic);
        assert!(steady.seconds >= 0.0 && steady.peak_heap_mib >= 1.0);
        let mut next = 0u32;
        let drifting = set_up(
            || {
                next += 1;
                Ok(next)
            },
            |n| *n,
        )
        .unwrap();
        assert!(!drifting.deterministic);
        assert_eq!(drifting.product, SETUP_REPS as u32);
        let mut measured = Measured::default();
        drifting.into_product(&mut measured);
        assert_eq!(measured.failed, 1);
        assert!(measured.values.contains_key("setup_s"));
        assert!(set_up(|| Err::<u8, _>("broken".to_string()), |n| *n).is_err());
    }

    #[test]
    fn missing_layers_read_zero_and_end_to_end_must_be_positive() {
        let mut measured = Measured::default();
        measured.values.insert("setup_s", 1.5);
        measured.values.insert("op_s", 0.25);
        measured.values.insert("peak_heap_mib", 10.0);
        measured.values.insert("serve.lag_ms", f64::NAN);
        measured.check(true, "fine");
        let traced = measured.outcome(true).unwrap();
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(traced.metrics.iter().all(|(_, v, _)| *v == 0.0));
        let plain = measured.outcome(false).unwrap();
        assert_eq!(plain.metrics.len(), END_TO_END.len());
        assert!(plain.correct && plain.attempted == 1 && plain.failed == 0);
        measured.values.insert("op_s", 0.0);
        assert!(measured.outcome(false).is_err());
        measured.check(false, "broken");
        measured.check(false, "broken");
        assert_eq!(measured.problems, vec!["broken".to_string()]);
        assert_eq!(measured.failed, 2);
    }
}
