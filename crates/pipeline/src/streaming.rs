//! Streaming matrix assembly: drive batches straight into a base feature
//! matrix, without materialising the whole [`smart_dataset::Fleet`].
//!
//! Two sources feed the matrix. [`streaming_base_matrix`] consumes CSV
//! shards via [`smart_dataset::ingest::stream_drive_batches`];
//! [`generated_base_matrix`] consumes the simulator via
//! [`smart_dataset::gen::stream::stream_fleet_batches`] (DESIGN.md §12).
//! Either way each batch's drives are folded into the growing sample
//! columns as they arrive in drive order, and the records are dropped
//! immediately afterwards. Peak memory is the matrix under construction
//! plus the source's bounded batch window, rather than matrix plus fleet.
//!
//! The sample rule and the row layout live in [`crate::matrix`], beside
//! [`crate::matrix::collect_samples`] and [`crate::matrix::base_matrix`],
//! which apply the same two to a materialised fleet; this module keeps
//! only the source plumbing. The result is bit-identical to the
//! materialised path because batches arrive in fleet drive order and
//! negative downsampling sees the same full label sequence: the CSV source
//! downsamples once at the end, and the generated source — whose whole
//! point is never holding all the columns — collects the labels in a cheap
//! first streaming pass over the matrix model's drives alone, computes the
//! kept rows, and assembles only those in a second, bit-identical
//! regeneration pass over the whole fleet.

use crate::error::PipelineError;
use crate::matrix::{BaseRows, SampleRule, SamplingConfig};
use smart_dataset::gen::stream::{stream_fleet_batches, stream_model_batches, GenConfig, GenStats};
use smart_dataset::ingest::{stream_drive_batches, DriveBatch, IngestConfig, IngestStats};
use smart_dataset::{Census, DriveModel, DriveSummary, FleetConfig, TroubleTicket};
use smart_stats::FeatureMatrix;
use std::io::BufRead;

/// A base matrix assembled directly from a CSV stream.
#[derive(Debug, Clone)]
pub struct StreamedMatrix {
    /// One column per raw/normalized attribute value of the model.
    pub matrix: FeatureMatrix,
    /// Failure-within-horizon label per sample row.
    pub labels: Vec<bool>,
    /// `MWI_N` per sample row (for wear-out grouping).
    pub mwi: Vec<f64>,
    /// Ingestion counters for the underlying sharded read.
    pub stats: IngestStats,
}

/// Stream a SMART-log CSV into the base-feature matrix of `model` for
/// samples in `[from_day, to_day]`.
///
/// # Errors
///
/// Returns [`PipelineError::Dataset`] for malformed CSV (same line numbers
/// and messages as the single-threaded importer) and
/// [`PipelineError::InvalidInput`] when the window contains no samples of
/// `model`.
pub fn streaming_base_matrix<R: BufRead + Send>(
    input: R,
    tickets: &[TroubleTicket],
    model: DriveModel,
    from_day: u32,
    to_day: u32,
    sampling: &SamplingConfig,
    ingest: &IngestConfig,
) -> Result<StreamedMatrix, PipelineError> {
    let rule = SampleRule::new(model, from_day, to_day, sampling);
    let mut rows = BaseRows::new(model, 0);
    let stats = stream_drive_batches(input, tickets, ingest, |batch: DriveBatch| {
        for drive in &batch.drives {
            // The drive is in hand, so its fleet index goes unused.
            for s in rule.drive_samples(drive, 0) {
                rows.push(drive, s)?;
            }
        }
        Ok::<(), PipelineError>(())
    })?;
    // Every label is in, so the window downsamples once, at the end.
    if let Some(kept) = rule.downsample(rows.labels())? {
        rows.keep(&kept);
    }
    let (matrix, labels, mwi) = rows.finish()?;
    Ok(StreamedMatrix {
        matrix,
        labels,
        mwi,
        stats,
    })
}

/// A base matrix assembled directly from the streaming generator, plus the
/// measured population census the run observed on the way.
#[derive(Debug, Clone)]
pub struct GeneratedMatrix {
    /// One column per raw/normalized attribute value of the model.
    pub matrix: FeatureMatrix,
    /// Failure-within-horizon label per sample row.
    pub labels: Vec<bool>,
    /// `MWI_N` per sample row (for wear-out grouping).
    pub mwi: Vec<f64>,
    /// Lifecycle census measured from every streamed drive (all models):
    /// the population whose survival pairs feed WEFR's change point at
    /// paper scale, and Fig. 1's census.
    pub census: Census,
    /// Generation counters for the final streaming pass.
    pub stats: GenStats,
}

/// Stream the simulated fleet `config` describes straight into the base
/// feature matrix of `model` for samples in `[from_day, to_day]`, in
/// bounded memory — the generate → scenario → matrix leg of the paper-scale
/// pipeline, never materialising the fleet.
///
/// Negative downsampling needs the full label sequence before any row can
/// be kept, so when [`SamplingConfig::downsample_ratio`] is set the stream
/// runs *twice*: a label-only pass (a few bytes per sample) that generates
/// only `model`'s drives, through [`stream_model_batches`], then a
/// regeneration pass over the whole fleet that assembles only the kept
/// rows and measures the census. Determinism makes the two passes agree
/// bit for bit; the second pass still cross-checks every label against
/// the first and reports an internal error on any mismatch.
///
/// The result is bit-identical to materialising the fleet (plus scenario
/// post-pass) and running the `collect_samples` + `base_matrix` path.
///
/// # Errors
///
/// Returns [`PipelineError::Dataset`] for an invalid scenario and
/// [`PipelineError::InvalidInput`] when the window contains no samples of
/// `model`.
pub fn generated_base_matrix(
    config: &FleetConfig,
    gen: &GenConfig,
    model: DriveModel,
    from_day: u32,
    to_day: u32,
    sampling: &SamplingConfig,
) -> Result<GeneratedMatrix, PipelineError> {
    let rule = SampleRule::new(model, from_day, to_day, sampling);
    let internal = || {
        PipelineError::invalid("generation passes disagree: streamed source is nondeterministic")
    };

    // Pass 1 (downsampling only): the label sequence, nothing else, and
    // from it the kept rows. Only `model`'s drives carry samples, so only
    // they are generated; the pass reads no drive id, the one thing the
    // one-model stream numbers differently.
    let first_pass = if sampling.downsample_ratio.is_some() {
        let mut first_labels: Vec<bool> = Vec::new();
        stream_model_batches(config, gen, model, |batch: DriveBatch| {
            for drive in &batch.drives {
                first_labels.extend(rule.drive_samples(drive, 0).map(|s| s.label));
            }
            Ok::<(), PipelineError>(())
        })?;
        rule.downsample(&first_labels)?
            .map(|kept| (kept, first_labels))
    } else {
        None
    };

    // Pass 2: regenerate (bit-identical by construction), keep only the
    // surviving rows, and measure the population census on the way.
    let mut rows = BaseRows::new(model, first_pass.as_ref().map_or(0, |(kept, _)| kept.len()));
    let mut summaries: Vec<DriveSummary> = Vec::with_capacity(config.total_drives() as usize);
    let mut cursor = 0usize;
    let stats = stream_fleet_batches(config, gen, |batch: DriveBatch| {
        for drive in &batch.drives {
            summaries.push(drive.summary());
            for s in rule.drive_samples(drive, 0) {
                let index = cursor;
                cursor += 1;
                if let Some((kept, first_labels)) = &first_pass {
                    if first_labels.get(index) != Some(&s.label) {
                        return Err(internal());
                    }
                    // `kept` ascends, so the next row to keep is the one
                    // after the rows kept so far.
                    if kept.get(rows.labels().len()) != Some(&index) {
                        continue;
                    }
                }
                rows.push(drive, s)?;
            }
        }
        Ok::<(), PipelineError>(())
    })?;
    if first_pass
        .as_ref()
        .is_some_and(|(_, first_labels)| cursor != first_labels.len())
    {
        return Err(internal());
    }
    rule.require_samples(rows.labels().len())?;
    let (matrix, labels, mwi) = rows.finish()?;
    Ok(GeneratedMatrix {
        matrix,
        labels,
        mwi,
        census: Census::from_summaries(config.clone(), summaries),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{base_matrix, collect_samples};
    use smart_dataset::csv::{export_smart_csv, import_smart_csv};
    use smart_dataset::{tickets_from_summaries, Fleet, FleetConfig};

    fn fixture() -> (String, Vec<TroubleTicket>, FleetConfig) {
        let config = FleetConfig::builder()
            .days(400)
            .seed(5)
            .drives(DriveModel::Mc1, 30)
            .failure_scale(8.0)
            .build()
            .unwrap();
        let fleet = Fleet::generate(&config);
        let tickets = tickets_from_summaries(&fleet.summaries());
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        (String::from_utf8(buf).unwrap(), tickets, config)
    }

    #[test]
    fn streaming_matches_materialised_path() {
        let (text, tickets, config) = fixture();
        let sampling = SamplingConfig::default();
        let imported = import_smart_csv(text.as_bytes(), &tickets, config).unwrap();
        let samples = collect_samples(&imported, DriveModel::Mc1, 0, 399, &sampling).unwrap();
        let (matrix, labels, mwi) = base_matrix(&imported, DriveModel::Mc1, &samples).unwrap();

        for workers in [1, 4] {
            let ingest = IngestConfig {
                shard_rows: 97,
                workers,
                max_queued_shards: 2,
                ..IngestConfig::default()
            };
            let streamed = streaming_base_matrix(
                text.as_bytes(),
                &tickets,
                DriveModel::Mc1,
                0,
                399,
                &sampling,
                &ingest,
            )
            .unwrap();
            assert_eq!(streamed.labels, labels, "workers={workers}");
            assert_eq!(streamed.mwi, mwi);
            assert_eq!(streamed.matrix.n_rows(), matrix.n_rows());
            assert_eq!(streamed.matrix.n_features(), matrix.n_features());
            for name in matrix.feature_names() {
                let a = matrix.column_index(name).unwrap();
                let b = streamed.matrix.column_index(name).unwrap();
                assert_eq!(matrix.column(a), streamed.matrix.column(b), "{name}");
            }
        }
    }

    #[test]
    fn generated_matches_materialised_path() {
        let config = FleetConfig::builder()
            .days(400)
            .seed(5)
            .drives(DriveModel::Mc1, 30)
            .failure_scale(8.0)
            .build()
            .unwrap();
        let fleet = Fleet::generate(&config);
        for sampling in [
            SamplingConfig::default(),
            SamplingConfig {
                downsample_ratio: None,
                ..SamplingConfig::default()
            },
        ] {
            let samples = collect_samples(&fleet, DriveModel::Mc1, 0, 399, &sampling).unwrap();
            let (matrix, labels, mwi) = base_matrix(&fleet, DriveModel::Mc1, &samples).unwrap();
            let gen = GenConfig {
                chunk_drives: 7,
                workers: 3,
                max_queued_chunks: 2,
                scenario: None,
            };
            let generated =
                generated_base_matrix(&config, &gen, DriveModel::Mc1, 0, 399, &sampling).unwrap();
            let tag = format!("downsample={:?}", sampling.downsample_ratio);
            assert_eq!(generated.labels, labels, "{tag}");
            assert_eq!(generated.mwi, mwi, "{tag}");
            assert_eq!(generated.matrix.n_rows(), matrix.n_rows(), "{tag}");
            for name in matrix.feature_names() {
                let a = matrix.column_index(name).unwrap();
                let b = generated.matrix.column_index(name).unwrap();
                assert_eq!(matrix.column(a), generated.matrix.column(b), "{name}");
            }
            // The measured census rides along: one summary per drive, in
            // agreement with the materialised fleet.
            assert_eq!(generated.census.summaries(), fleet.summaries(), "{tag}");
            assert_eq!(generated.stats.drives, 30);
        }
    }

    #[test]
    fn generated_rejects_an_absent_model() {
        let config = FleetConfig::builder()
            .days(200)
            .seed(5)
            .drives(DriveModel::Mc1, 5)
            .build()
            .unwrap();
        let gen = GenConfig::default();
        let err = generated_base_matrix(
            &config,
            &gen,
            DriveModel::Ma1,
            0,
            199,
            &SamplingConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidInput { .. }));
    }

    #[test]
    fn absent_model_is_an_error() {
        let (text, tickets, _config) = fixture();
        let err = streaming_base_matrix(
            text.as_bytes(),
            &tickets,
            DriveModel::Ma1,
            0,
            399,
            &SamplingConfig::default(),
            &IngestConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidInput { .. }));
    }

    #[test]
    fn csv_errors_pass_through_with_line_numbers() {
        let (text, tickets, _config) = fixture();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[10] = "garbage";
        let corrupt = lines.join("\n");
        let err = streaming_base_matrix(
            corrupt.as_bytes(),
            &tickets,
            DriveModel::Mc1,
            0,
            399,
            &SamplingConfig::default(),
            &IngestConfig {
                shard_rows: 16,
                workers: 2,
                max_queued_shards: 2,
                ..IngestConfig::default()
            },
        )
        .unwrap_err();
        match err {
            PipelineError::Dataset(smart_dataset::DatasetError::ParseCsv { line, .. }) => {
                assert_eq!(line, 11);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
