//! Streaming fleet generation with bounded memory (DESIGN.md §12).
//!
//! [`crate::fleet::Fleet::generate`] materializes every drive before the
//! pipeline sees the first one, capping experiments at toy fleet sizes.
//! This module turns the simulator into a *source* that runs on the same
//! ordered worker pipeline as [`crate::ingest::stream_drive_batches`]
//! (`sync::pipeline`, whose module docs describe the threads, the bounded
//! queue and reorder window, and the abort paths) and delivers the same
//! [`DriveBatch`] unit, strictly in drive-id order. Here the producer
//! schedules contiguous-id chunks, each worker generates one, and the
//! merge step collects the churn replacements.
//!
//! Chunk independence: a drive's entire trajectory is a function of
//! `(config, global_index)` only — `fleet::drive_rng` derives the
//! per-drive RNG stream from the master seed and the index, never from
//! fleet iteration state — so any contiguous id range can be generated
//! without touching the rest of the fleet. Merging in id order makes the
//! concatenated output *bit-identical* to
//! [`crate::fleet::Fleet::generate`] at every chunk-size/worker setting.
//!
//! The adversarial scenario post-pass (DESIGN.md §11) is applied inside
//! the workers, per drive: every perturbation except the replacement-id
//! assignment is drive-local, and the replacements are numbered in victim
//! order past the densest original id once the population is merged —
//! matching the whole-fleet [`crate::gen::scenario::apply_scenario`] bit
//! for bit (replacement batches trail the original population, exactly
//! where `apply_scenario` appends them).
//!
//! Models take contiguous id ranges, so one model's drives are one range:
//! [`stream_model_batches`] runs the same scheduler, workers and merge
//! over that range alone. `generated_base_matrix`'s label-only first pass
//! uses it to skip simulating the other models. That pass reads labels,
//! never ids, and must not: a replacement's id in the one-model stream is
//! not its whole-fleet id.

use crate::config::FleetConfig;
use crate::error::DatasetError;
use crate::fleet::{drive_rng, Fleet};
use crate::gen::scenario::{self, apply_scenario_to_drive, PendingReplacement, ScenarioConfig};
use crate::gen::{plan_drive, simulate_drive};
use crate::ingest::{DriveBatch, SkipCounts};
use crate::model::DriveModel;
use crate::records::{DriveId, DriveRecord};
use std::ops::Range;

/// Tuning for the streaming generator. The sizing knobs trade memory and
/// parallelism for latency only — the generated fleet is bit-identical for
/// every setting. `scenario` optionally applies the adversarial post-pass
/// in-stream.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Drives per chunk: the unit of worker hand-off and of the consumer's
    /// batch size. Peak memory is proportional to
    /// `chunk_drives × (workers + max_queued_chunks)`.
    pub chunk_drives: usize,
    /// Generator worker threads.
    pub workers: usize,
    /// Chunk descriptors allowed to wait in the work queue before the
    /// producer stalls; also sized into the reorder window.
    pub max_queued_chunks: usize,
    /// Optional adversarial scenario applied per drive inside the workers.
    pub scenario: Option<ScenarioConfig>,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            // ~9 MiB of f32 telemetry per chunk at a 365-day window: big
            // enough to amortise hand-off costs, small enough that the
            // bounded reorder window stays a sliver of a paper-scale fleet.
            chunk_drives: 512,
            workers: 4,
            max_queued_chunks: 8,
            scenario: None,
        }
    }
}

/// Counters describing one streaming generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Drive records delivered to the consumer (replacements included).
    pub drives: u64,
    /// Batches delivered (original chunks plus trailing replacement
    /// batches).
    pub chunks: u64,
    /// Drive-days delivered — the row count of the equivalent CSV body.
    pub rows: u64,
    /// Churn replacement drives appended after the original population.
    pub replacements: u64,
    /// Times the producer found the work queue full and had to wait.
    pub queue_full_stalls: u64,
    /// Largest single batch's f32 telemetry payload, in bytes: the unit of
    /// the bounded-memory argument (peak residency ≤ this ×
    /// `(workers + max_queued_chunks + 1)`).
    pub peak_batch_bytes: u64,
    /// Total f32 telemetry delivered, in bytes — what a materialized
    /// [`Fleet`] of this run would hold resident all at once.
    pub value_bytes: u64,
}

/// The f32 telemetry payload of one record, in bytes.
fn record_value_bytes(d: &DriveRecord) -> u64 {
    u64::from(d.n_days()) * 2 * d.model.attributes().len() as u64 * 4
}

/// Generate the contiguous drive-id range `start..start + len` of the
/// fleet `config` describes, exactly as [`Fleet::generate`] would — the
/// returned records are bit-identical to the corresponding slice of the
/// materialized fleet. This is the chunk primitive under
/// [`stream_fleet_batches`], exposed for the property suite's arbitrary
/// re-partitions.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidConfig`] when the range reaches past
/// `config.total_drives()`.
pub fn generate_drive_range(
    config: &FleetConfig,
    start: u32,
    len: u32,
) -> Result<Vec<DriveRecord>, DatasetError> {
    let total = config.total_drives();
    let in_range = start.checked_add(len).is_some_and(|end| end <= total);
    if !in_range {
        return Err(DatasetError::InvalidConfig {
            message: format!("drive range {start}+{len} reaches past the fleet of {total} drives"),
        });
    }
    Ok(generate_range_clamped(config, start, start + len))
}

/// [`generate_drive_range`] with the bounds clamped to the fleet — total,
/// so the worker pool (whose producer only ever schedules in-range chunks)
/// stays panic- and error-free.
fn generate_range_clamped(config: &FleetConfig, start: u32, end: u32) -> Vec<DriveRecord> {
    let end = end.min(config.total_drives());
    let start = start.min(end);
    let mut drives = Vec::with_capacity((end - start) as usize);
    let mut first_of_model = 0u32;
    for model in DriveModel::ALL {
        let model_end = first_of_model + config.drives_for(model);
        let lo = start.max(first_of_model);
        let hi = end.min(model_end);
        for global_index in lo..hi {
            let mut rng = drive_rng(config.seed(), global_index);
            let plan = plan_drive(model, config, &mut rng);
            drives.push(simulate_drive(
                DriveId(global_index),
                &plan,
                config.days(),
                &mut rng,
            ));
        }
        first_of_model = model_end;
    }
    drives
}

/// Deliver one batch to the consumer, updating stats and the live
/// counters. `first_line` continues the CSV-equivalent numbering (header
/// is line 1) so generated batches are indistinguishable from ingested
/// ones downstream.
fn emit_batch<E, F>(
    consume: &mut F,
    stats: &mut GenStats,
    drives: Vec<DriveRecord>,
) -> Result<(), E>
where
    F: FnMut(DriveBatch) -> Result<(), E>,
{
    let bytes: u64 = drives.iter().map(record_value_bytes).sum();
    let rows: u64 = drives.iter().map(|d| u64::from(d.n_days())).sum();
    let batch = DriveBatch {
        shard_index: stats.chunks as usize,
        first_line: 2 + stats.rows as usize,
        drives,
        skipped: SkipCounts::default(),
    };
    stats.chunks += 1;
    stats.drives += batch.drives.len() as u64;
    stats.rows += rows;
    stats.value_bytes += bytes;
    stats.peak_batch_bytes = stats.peak_batch_bytes.max(bytes);
    // Counted per batch, not once at the end, so a live /metrics scrape
    // sees generation progress mid-run.
    telemetry::counter_add("gen.drives", batch.drives.len() as u64);
    telemetry::counter_add("gen.rows", rows);
    telemetry::counter_add("gen.chunks", 1);
    consume(batch)
}

/// Stream the fleet `config` describes through the chunked generator
/// pipeline, handing each chunk's drive records to `consume` strictly in
/// drive-id order — the streaming-source twin of
/// [`crate::ingest::stream_drive_batches`].
///
/// The concatenated records are bit-identical to
/// [`Fleet::generate`] (plus [`scenario::apply_scenario`] when
/// `gen.scenario` is set) at every chunk-size/worker setting; consumers
/// that fold batches away as they arrive never hold the whole fleet.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidConfig`] for an invalid scenario, or
/// whatever `consume` returned; in the latter case the pipeline is aborted
/// and drained before returning.
pub fn stream_fleet_batches<E, F>(
    config: &FleetConfig,
    gen: &GenConfig,
    consume: F,
) -> Result<GenStats, E>
where
    E: From<DatasetError>,
    F: FnMut(DriveBatch) -> Result<(), E>,
{
    stream_id_range(config, gen, 0..config.total_drives(), consume)
}

/// Stream only the drives of `model` in the fleet `config` describes: the
/// model's contiguous id range (models take ids in [`DriveModel::ALL`]
/// order) and, under a churn scenario, the replacements of its own
/// victims, in victim order, after them. The sequence is exactly the
/// `model` subsequence of [`stream_fleet_batches`], on the same chunk
/// scheduler, workers and merge.
///
/// Every record is bit-identical to its drive in the whole-fleet stream
/// except a replacement's id. Replacements are numbered past the fleet's
/// densest original id counting only this model's victims, while the
/// whole-fleet stream numbers every model's victims in one sequence, so
/// the ids differ wherever an earlier model lost a drive. Read nothing
/// from a replacement's id here.
///
/// # Errors
///
/// Exactly the errors of [`stream_fleet_batches`].
pub fn stream_model_batches<E, F>(
    config: &FleetConfig,
    gen: &GenConfig,
    model: DriveModel,
    consume: F,
) -> Result<GenStats, E>
where
    E: From<DatasetError>,
    F: FnMut(DriveBatch) -> Result<(), E>,
{
    let first = DriveModel::ALL
        .iter()
        .take_while(|&&m| m != model)
        .map(|&m| config.drives_for(m))
        .sum::<u32>();
    stream_id_range(
        config,
        gen,
        first..first + config.drives_for(model),
        consume,
    )
}

/// The generator pipeline over the contiguous original ids `ids`, then the
/// churn replacements of their victims, numbered from
/// `config.total_drives()` in victim order.
fn stream_id_range<E, F>(
    config: &FleetConfig,
    gen: &GenConfig,
    ids: Range<u32>,
    mut consume: F,
) -> Result<GenStats, E>
where
    E: From<DatasetError>,
    F: FnMut(DriveBatch) -> Result<(), E>,
{
    if let Some(s) = &gen.scenario {
        scenario::validate(s).map_err(E::from)?;
    }
    let workers = gen.workers.max(1);
    let chunk_drives = gen.chunk_drives.max(1);
    let total = config.total_drives();
    let span = telemetry::span!(
        "gen_stream",
        workers = workers,
        chunk_drives = gen.chunk_drives
    );
    let span_id = span.id();

    fn gen_queue_depth(depth: usize) {
        telemetry::gauge_set("gen.queue_depth", depth as f64);
    }
    let mut stats = GenStats::default();
    let mut pending_all: Vec<PendingReplacement> = Vec::new();
    let run = sync::pipeline::run(
        workers,
        gen.max_queued_chunks,
        gen_queue_depth,
        |push| {
            for start in ids.clone().step_by(chunk_drives) {
                if !push((start, chunk_drives.min((ids.end - start) as usize) as u32)) {
                    break; // aborted by the merge step
                }
            }
        },
        |index, (start, len): (u32, u32)| {
            let chunk_span = telemetry::span_child_of(span_id, "gen_chunk");
            chunk_span.record("chunk", index);
            chunk_span.record("drives", len);
            let raw = generate_range_clamped(config, start, start + len);
            match &gen.scenario {
                None => (raw, Vec::new()),
                Some(s) => raw.iter().map(|d| apply_scenario_to_drive(d, s)).unzip(),
            }
        },
        |(drives, pending): (Vec<DriveRecord>, Vec<Option<PendingReplacement>>)| {
            // Churn tails accumulate in victim (= drive-id) order; only
            // their count rides along until the population is complete.
            pending_all.extend(pending.into_iter().flatten());
            emit_batch(&mut consume, &mut stats, drives)
        },
    );
    let outcome = run.merged.and_then(|()| {
        // Replacement ids continue past the densest original id (ids are
        // dense, so that is `total`), in victim order — exactly where and
        // how `apply_scenario` numbers and appends them.
        stats.replacements = pending_all.len() as u64;
        let mut numbered = pending_all.into_iter().zip(total..);
        loop {
            let tail: Vec<DriveRecord> = numbered
                .by_ref()
                .take(chunk_drives)
                .map(|(replacement, id)| replacement.into_record(DriveId(id)))
                .collect();
            if tail.is_empty() {
                return Ok(());
            }
            emit_batch(&mut consume, &mut stats, tail)?;
        }
    });
    stats.queue_full_stalls = run.stalls;

    telemetry::counter_add("gen.queue_full_stalls", stats.queue_full_stalls);
    telemetry::counter_add("gen.replacements", stats.replacements);
    span.record("drives", stats.drives);
    span.record("chunks", stats.chunks);
    span.record("stalls", stats.queue_full_stalls);
    outcome?;
    Ok(stats)
}

/// Materialize a streamed generation run into a [`Fleet`] — the
/// convenience wrapper holding the streamed and materialized paths equal:
/// with no scenario it matches [`Fleet::generate`], with one it matches
/// [`scenario::apply_scenario`] over that fleet, bit for bit.
///
/// # Errors
///
/// Exactly the errors of [`stream_fleet_batches`].
pub fn generate_fleet_streamed(
    config: &FleetConfig,
    gen: &GenConfig,
) -> Result<Fleet, DatasetError> {
    let mut drives = Vec::with_capacity(config.total_drives() as usize);
    stream_fleet_batches(config, gen, |batch: DriveBatch| {
        drives.extend(batch.drives);
        Ok::<(), DatasetError>(())
    })?;
    Ok(Fleet::from_records(config.clone(), drives))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::scenario::mixed_vendor_config;

    fn small_config() -> FleetConfig {
        FleetConfig::builder()
            .days(120)
            .seed(11)
            .drives(DriveModel::Ma1, 9)
            .drives(DriveModel::Mc1, 14)
            .build()
            .unwrap()
    }

    #[test]
    fn streamed_matches_materialized_across_settings() {
        let config = small_config();
        let reference = Fleet::generate(&config);
        for workers in [1, 3] {
            for chunk_drives in [1, 5, 1_000] {
                let gen = GenConfig {
                    chunk_drives,
                    workers,
                    max_queued_chunks: 2,
                    scenario: None,
                };
                let fleet = generate_fleet_streamed(&config, &gen).unwrap();
                assert_eq!(
                    fleet, reference,
                    "workers={workers} chunk_drives={chunk_drives}"
                );
            }
        }
    }

    #[test]
    fn batches_arrive_in_id_order_with_csv_line_numbering() {
        let config = small_config();
        let gen = GenConfig {
            chunk_drives: 4,
            workers: 4,
            max_queued_chunks: 2,
            scenario: None,
        };
        let mut next_index = 0usize;
        let mut next_line = 2usize;
        let mut next_id = 0u32;
        let stats = stream_fleet_batches(&config, &gen, |batch: DriveBatch| {
            assert_eq!(batch.shard_index, next_index);
            assert_eq!(batch.first_line, next_line);
            assert_eq!(batch.skipped, SkipCounts::default());
            for d in &batch.drives {
                assert_eq!(d.id, DriveId(next_id));
                next_id += 1;
                next_line += d.n_days() as usize;
            }
            next_index += 1;
            Ok::<(), DatasetError>(())
        })
        .unwrap();
        assert_eq!(stats.drives, 23);
        assert_eq!(stats.chunks, 6);
        assert_eq!(stats.rows as usize, next_line - 2);
        assert!(stats.value_bytes > 0);
        assert!(stats.peak_batch_bytes <= stats.value_bytes);
    }

    #[test]
    fn streamed_scenario_matches_whole_fleet_post_pass() {
        let config = mixed_vendor_config(150, 3).unwrap();
        let scenario = ScenarioConfig {
            seed: 9,
            firmware: Some(crate::gen::scenario::FirmwareRollout {
                day: 60,
                model: DriveModel::Mc1,
                attr: crate::attr::SmartAttribute::Rsc,
                raw_scale: 512.0,
                invert_norm: true,
            }),
            missing: Some(crate::gen::scenario::MissingCoverage {
                vendor: crate::model::Vendor::Ma,
                attr: crate::attr::SmartAttribute::Uce,
                batch_fraction: 0.5,
            }),
            churn: Some(crate::gen::scenario::ReplacementChurn {
                day: 75,
                fraction: 0.3,
            }),
        };
        let reference = scenario::apply_scenario(&Fleet::generate(&config), &scenario).unwrap();
        let gen = GenConfig {
            chunk_drives: 7,
            workers: 3,
            max_queued_chunks: 2,
            scenario: Some(scenario),
        };
        let streamed = generate_fleet_streamed(&config, &gen).unwrap();
        // NaN cells defeat PartialEq; CSV export (where NaN prints stably)
        // is the byte-faithful comparison.
        let csv = |f: &Fleet| {
            let mut buf = Vec::new();
            crate::csv::export_smart_csv(f, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        assert_eq!(csv(&streamed), csv(&reference));
        assert_eq!(streamed.summaries(), reference.summaries());
    }

    #[test]
    fn model_stream_is_the_model_subsequence_of_the_fleet_stream() {
        let config = mixed_vendor_config(150, 3).unwrap();
        let gen = GenConfig {
            chunk_drives: 4,
            workers: 3,
            max_queued_chunks: 2,
            scenario: Some(ScenarioConfig {
                seed: 9,
                churn: Some(crate::gen::scenario::ReplacementChurn {
                    day: 75,
                    fraction: 0.3,
                }),
                ..ScenarioConfig::default()
            }),
        };
        let fleet = generate_fleet_streamed(&config, &gen).unwrap();
        let total = config.total_drives();
        let mut renumbered = 0;
        for model in DriveModel::ALL {
            let mut streamed = Vec::new();
            stream_model_batches(&config, &gen, model, |batch: DriveBatch| {
                streamed.extend(batch.drives);
                Ok::<(), DatasetError>(())
            })
            .unwrap();
            let expected: Vec<&DriveRecord> =
                fleet.drives().iter().filter(|d| d.model == model).collect();
            assert_eq!(streamed.len(), expected.len(), "{model}");
            // Replacements are numbered past the fleet among this model's
            // victims alone; everything else is the whole-fleet record.
            let mut next_replacement = total;
            for (got, want) in streamed.iter().zip(expected) {
                let mut want = want.clone();
                if want.id.0 >= total {
                    renumbered += usize::from(want.id.0 != next_replacement);
                    want.id = DriveId(next_replacement);
                    next_replacement += 1;
                }
                assert_eq!(got, &want, "{model}");
            }
        }
        assert!(
            renumbered > 0,
            "no replacement id differs between the streams"
        );
    }

    #[test]
    fn drive_range_is_a_slice_of_the_fleet() {
        let config = small_config();
        let reference = Fleet::generate(&config);
        let range = generate_drive_range(&config, 7, 9).unwrap();
        assert_eq!(range.as_slice(), &reference.drives()[7..16]);
        assert!(generate_drive_range(&config, 20, 4).is_err());
        assert!(generate_drive_range(&config, u32::MAX, 2).is_err());
        assert_eq!(generate_drive_range(&config, 23, 0).unwrap(), []);
    }

    #[test]
    fn consumer_error_aborts_cleanly() {
        let config = small_config();
        let gen = GenConfig {
            chunk_drives: 2,
            workers: 2,
            max_queued_chunks: 1,
            scenario: None,
        };
        let mut seen = 0;
        let err = stream_fleet_batches(&config, &gen, |_b: DriveBatch| {
            seen += 1;
            Err(DatasetError::InvalidConfig {
                message: "stop".to_string(),
            })
        })
        .unwrap_err();
        assert_eq!(seen, 1);
        assert!(matches!(err, DatasetError::InvalidConfig { .. }));
    }

    #[test]
    fn invalid_scenario_is_rejected_before_spawning() {
        let config = small_config();
        let gen = GenConfig {
            scenario: Some(ScenarioConfig {
                churn: Some(crate::gen::scenario::ReplacementChurn {
                    day: 10,
                    fraction: 1.5,
                }),
                ..ScenarioConfig::default()
            }),
            ..GenConfig::default()
        };
        assert!(generate_fleet_streamed(&config, &gen).is_err());
    }
}
