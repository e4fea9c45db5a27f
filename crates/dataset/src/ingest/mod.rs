//! Sharded streaming ingestion of SMART-log CSVs with bounded memory.
//!
//! The single-threaded [`crate::csv::import_smart_csv`] reads the whole
//! file line by line on one core. This module splits the same byte stream
//! into *drive-aligned shards* — a drive's contiguous day-rows never
//! straddle a shard boundary — and runs them through `sync::pipeline`, the
//! ordered worker pipeline whose module docs describe the threads, the
//! bounded queue and reorder window, and the abort paths. Here the
//! producer is the shard splitter, each worker parses a shard and joins
//! its trouble tickets, and the merge step enforces the malformed-row cap.
//!
//! Shards are merged strictly in file order, so the resulting drive
//! sequence — and the first reported parse error — is bit-identical to the
//! single-threaded reader at any worker count or shard size.
//! [`crate::csv::import_smart_csv`] remains the reference implementation;
//! the integration suite holds the two paths equal.

mod parse;
mod shard;

use crate::config::FleetConfig;
use crate::csv::check_smart_header;
use crate::error::DatasetError;
use crate::fleet::Fleet;
use crate::records::DriveRecord;
use crate::tickets::{sort_tickets_by_drive, TroubleTicket};
use shard::{Shard, ShardSplitter};
use std::io::BufRead;

/// Environment knob: rows per shard (see [`IngestConfig::from_env`]).
pub const ENV_SHARD_ROWS: &str = "WEFR_INGEST_SHARD_ROWS";
/// Environment knob: parser worker threads (see [`IngestConfig::from_env`]).
pub const ENV_WORKERS: &str = "WEFR_WORKERS";
/// Environment knob: ingest tolerance mode, `"strict"` or `"tolerant"`
/// (see [`IngestConfig::from_env`]).
pub const ENV_TOLERANCE: &str = "WEFR_INGEST_TOLERANCE";

/// Tolerant mode gives up — with a `ParseCsv` error at the breaching line
/// — once a file has accumulated this many skipped malformed rows. Past
/// that point the input is garbage, not telemetry with warts, and
/// silently dropping more of it would hide a systemic problem.
pub const MAX_MALFORMED_ROWS: u64 = 1_000;

/// How the sharded reader treats bad rows (DESIGN.md §11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IngestTolerance {
    /// Fail on the first bad row with exactly the single-threaded reader's
    /// error. The default; bit-identical to the pre-tolerance pipeline.
    #[default]
    Strict,
    /// Skip-and-count duplicate and out-of-order rows, skip malformed rows
    /// up to [`MAX_MALFORMED_ROWS`] per file, and backfill small day gaps
    /// with NaN (missing-measurement) days. On clean input this mode
    /// produces a fleet bit-identical to strict mode.
    Tolerant,
}

/// Rows the tolerant reader dropped or synthesised, by reason. Always all
/// zero under [`IngestTolerance::Strict`], and independent of worker count
/// and shard size under [`IngestTolerance::Tolerant`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipCounts {
    /// Re-deliveries of a drive run's most recent day (dropped).
    pub duplicate_rows: u64,
    /// Rows of an open run older than its most recent day by more than one
    /// (dropped).
    pub out_of_order_rows: u64,
    /// Structurally broken rows: unsplittable lines, bad fields, model or
    /// attribute-presence mismatches, day jumps past the backfill bound
    /// (dropped).
    pub malformed_rows: u64,
    /// NaN days synthesised to keep a run contiguous across a small day
    /// gap (added).
    pub backfilled_days: u64,
}

impl SkipCounts {
    /// Field-wise accumulate `other` into `self`.
    pub fn merge(&mut self, other: SkipCounts) {
        self.duplicate_rows += other.duplicate_rows;
        self.out_of_order_rows += other.out_of_order_rows;
        self.malformed_rows += other.malformed_rows;
        self.backfilled_days += other.backfilled_days;
    }
}

/// Tuning for the sharded reader. The sizing knobs trade memory and
/// parallelism for latency only — the ingested fleet is identical for
/// every setting. `tolerance` selects the error policy; see
/// [`IngestTolerance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestConfig {
    /// Minimum rows per shard; a shard grows past this until the next
    /// drive boundary.
    pub shard_rows: usize,
    /// Parser worker threads.
    pub workers: usize,
    /// Raw shards allowed to wait in the work queue before the reader
    /// stalls.
    pub max_queued_shards: usize,
    /// Error policy for bad rows.
    pub tolerance: IngestTolerance,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            // ~1.4 MiB of CSV at typical row widths: big enough to amortise
            // hand-off costs, small enough that a shard still fits in cache
            // when the worker parses what the reader just copied.
            shard_rows: 4_096,
            workers: 4,
            max_queued_shards: 8,
            tolerance: IngestTolerance::Strict,
        }
    }
}

impl IngestConfig {
    /// Build a config from a key → value lookup, starting from defaults.
    /// Recognises [`ENV_SHARD_ROWS`], [`ENV_WORKERS`] and
    /// [`ENV_TOLERANCE`]; unparseable, zero or unknown values are ignored.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> IngestConfig {
        let mut config = IngestConfig::default();
        let parsed = |name: &str| get(name).and_then(|v| v.trim().parse::<usize>().ok());
        if let Some(rows) = parsed(ENV_SHARD_ROWS).filter(|&v| v > 0) {
            config.shard_rows = rows;
        }
        if let Some(workers) = parsed(ENV_WORKERS).filter(|&v| v > 0) {
            config.workers = workers;
        }
        match get(ENV_TOLERANCE).as_deref().map(str::trim) {
            Some("strict") => config.tolerance = IngestTolerance::Strict,
            Some("tolerant") => config.tolerance = IngestTolerance::Tolerant,
            _ => {}
        }
        config
    }

    /// [`IngestConfig::from_lookup`] over the process environment.
    pub fn from_env() -> IngestConfig {
        // lint:allow(side-effects) the documented contract of this
        // constructor is reading the WEFR_INGEST_* / WEFR_WORKERS knobs;
        // everything else must take the config as a parameter
        IngestConfig::from_lookup(|name| std::env::var(name).ok())
    }
}

/// Counters describing one streaming run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// CSV lines dispatched to parsers (header excluded, blanks included).
    pub rows: u64,
    /// Shards cut from the input.
    pub shards: u64,
    /// Drive runs delivered to the consumer.
    pub drives: u64,
    /// Times the reader found the work queue full and had to wait — a
    /// nonzero value means parsing, not I/O, was the bottleneck.
    pub queue_full_stalls: u64,
    /// Rows dropped or synthesised by tolerant mode (all zero when strict).
    pub skipped: SkipCounts,
}

/// One shard's worth of fully-built drive records, delivered in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveBatch {
    /// Position of the originating shard in file order.
    pub shard_index: usize,
    /// 1-based file line number of the shard's first row.
    pub first_line: usize,
    /// Drive records in file order, tickets already joined.
    pub drives: Vec<DriveRecord>,
    /// Tolerant-mode skip accounting for this shard alone.
    pub skipped: SkipCounts,
}

/// Stream a SMART-log CSV through the sharded pipeline, handing each
/// shard's drive records to `consume` strictly in file order.
///
/// This is the bounded-memory primitive under
/// [`import_smart_csv_sharded`]; consumers that can fold batches away as
/// they arrive (e.g. direct feature-matrix assembly) never hold the whole
/// fleet.
///
/// # Errors
///
/// Returns the first error in file order — `ParseCsv` with the same line
/// number and message the single-threaded reader emits, an I/O error from
/// `input`, or whatever `consume` returned; in every case the pipeline is
/// aborted and drained before returning.
pub fn stream_drive_batches<R, E, F>(
    input: R,
    tickets: &[TroubleTicket],
    config: &IngestConfig,
    mut consume: F,
) -> Result<IngestStats, E>
where
    R: BufRead + Send,
    E: From<DatasetError>,
    F: FnMut(DriveBatch) -> Result<(), E>,
{
    let workers = config.workers.max(1);
    let span = telemetry::span!("ingest", workers = workers, shard_rows = config.shard_rows);
    let span_id = span.id();

    let mut input = input;
    let mut header = String::new();
    let bytes = input.read_line(&mut header).map_err(DatasetError::Io)?;
    if bytes == 0 {
        return Err(E::from(DatasetError::ParseCsv {
            line: 1,
            message: "empty file".to_string(),
        }));
    }
    let trimmed = header.trim_end_matches('\n').trim_end_matches('\r');
    check_smart_header(trimmed)?;

    let by_id = sort_tickets_by_drive(tickets);
    // The watchdog samples this gauge into a histogram, turning
    // backpressure into a distribution.
    fn ingest_queue_depth(depth: usize) {
        telemetry::gauge_set("ingest.queue_depth", depth as f64);
    }
    // The producer thread fills `rows`/`shards`, the merge step `drives`/
    // `skipped`: each closure borrows only its own fields.
    let mut stats = IngestStats::default();
    let mut malformed_seen = 0u64;
    let run = sync::pipeline::run(
        workers,
        config.max_queued_shards,
        ingest_queue_depth,
        |push| {
            let read_span = telemetry::span_child_of(span_id, "ingest_read");
            let mut splitter = ShardSplitter::new(input, config.shard_rows, 2);
            let outcome = loop {
                match splitter.next_shard() {
                    Ok(Some(shard)) => {
                        stats.rows += shard.rows as u64;
                        stats.shards += 1;
                        // Counted per shard, not once at the end, so a live
                        // /metrics scrape sees ingest progress mid-run.
                        telemetry::counter_add("ingest.rows", shard.rows as u64);
                        telemetry::counter_add("ingest.shards", 1);
                        if !push(shard) {
                            break Ok(()); // aborted by the merge step
                        }
                    }
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(DatasetError::Io(e)),
                }
            };
            read_span.record("rows", stats.rows);
            read_span.record("shards", stats.shards);
            outcome
        },
        |index, shard: Shard| {
            let parse_span = telemetry::span_child_of(span_id, "ingest_parse");
            parse_span.record("shard", index);
            parse_span.record("rows", shard.rows);
            // Each batch travels with the absolute line numbers of its
            // malformed skips, so the merge step can enforce the cap in
            // file order.
            parse::parse_shard(&shard.text, shard.first_line, config.tolerance).map(|outcome| {
                let batch = DriveBatch {
                    shard_index: index,
                    first_line: shard.first_line,
                    drives: outcome
                        .drives
                        .into_iter()
                        .map(|r| r.into_record(&by_id))
                        .collect(),
                    skipped: outcome.skipped,
                };
                (batch, outcome.malformed_lines)
            })
        },
        |parsed| {
            let (batch, malformed_lines) = parsed?;
            // Enforce the malformed-row cap in file order, so the breaching
            // line is the same at any worker count or shard size.
            for &line in &malformed_lines {
                malformed_seen += 1;
                if malformed_seen > MAX_MALFORMED_ROWS {
                    return Err(E::from(DatasetError::ParseCsv {
                        line,
                        message: format!(
                            "tolerant ingest gave up: more than {MAX_MALFORMED_ROWS} \
                             malformed rows"
                        ),
                    }));
                }
            }
            stats.skipped.merge(batch.skipped);
            stats.drives += batch.drives.len() as u64;
            telemetry::counter_add("ingest.drives", batch.drives.len() as u64);
            consume(batch)
        },
    );
    stats.queue_full_stalls = run.stalls;

    // rows and shards were already counted live by the producer; the rest
    // is only known once the pipeline has drained.
    telemetry::counter_add("ingest.queue_full_stalls", stats.queue_full_stalls);
    telemetry::counter_add("ingest.skipped_duplicates", stats.skipped.duplicate_rows);
    telemetry::counter_add(
        "ingest.skipped_out_of_order",
        stats.skipped.out_of_order_rows,
    );
    telemetry::counter_add("ingest.skipped_malformed", stats.skipped.malformed_rows);
    telemetry::counter_add("ingest.backfilled_days", stats.skipped.backfilled_days);
    span.record("rows", stats.rows);
    span.record("shards", stats.shards);
    span.record("stalls", stats.queue_full_stalls);
    run.merged.and(run.produced.map_err(E::from))?;
    Ok(stats)
}

/// Sharded, multi-threaded drop-in for [`crate::csv::import_smart_csv`]:
/// same inputs, bit-identical [`Fleet`], same errors — only the wall-clock
/// and peak transient memory differ.
///
/// # Errors
///
/// Exactly the errors of [`crate::csv::import_smart_csv`] on the same
/// input.
pub fn import_smart_csv_sharded<R: BufRead + Send>(
    input: R,
    tickets: &[TroubleTicket],
    config: FleetConfig,
    ingest: &IngestConfig,
) -> Result<Fleet, DatasetError> {
    import_smart_csv_sharded_with_stats(input, tickets, config, ingest).map(|(fleet, _)| fleet)
}

/// [`import_smart_csv_sharded`] that also returns the run's
/// [`IngestStats`] — the only way to observe tolerant-mode
/// [`SkipCounts`] when importing a whole fleet at once.
///
/// # Errors
///
/// Exactly the errors of [`import_smart_csv_sharded`] on the same input.
pub fn import_smart_csv_sharded_with_stats<R: BufRead + Send>(
    input: R,
    tickets: &[TroubleTicket],
    config: FleetConfig,
    ingest: &IngestConfig,
) -> Result<(Fleet, IngestStats), DatasetError> {
    let mut drives: Vec<DriveRecord> = Vec::new();
    let stats = stream_drive_batches(input, tickets, ingest, |batch: DriveBatch| {
        drives.extend(batch.drives);
        Ok::<(), DatasetError>(())
    })?;
    Ok((Fleet::from_records(config, drives), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{export_smart_csv, import_smart_csv};
    use crate::model::DriveModel;
    use crate::tickets::tickets_from_summaries;

    /// The depth-observer wiring end to end: a run publishes its work
    /// queue's depth through [`telemetry::gauge_set`] as
    /// `ingest.queue_depth`.
    #[test]
    fn observed_queue_publishes_depth_gauge() {
        // Leave collection on afterwards: it only makes sibling tests
        // record telemetry they never read.
        telemetry::set_collect(true);
        let (text, tickets, _config) = fixture();
        stream_drive_batches(
            text.as_bytes(),
            &tickets,
            &IngestConfig::default(),
            |_batch: DriveBatch| Ok::<(), DatasetError>(()),
        )
        .unwrap();
        let depth = telemetry::gauge_value("ingest.queue_depth").expect("gauge published");
        let slots = IngestConfig::default().max_queued_shards as f64;
        assert!((0.0..=slots).contains(&depth), "{depth}");
    }

    fn fixture() -> (String, Vec<TroubleTicket>, FleetConfig) {
        let config = FleetConfig::builder()
            .days(120)
            .seed(7)
            .drives(DriveModel::Ma1, 6)
            .drives(DriveModel::Mc2, 5)
            .build()
            .unwrap();
        let fleet = Fleet::generate(&config);
        let tickets = tickets_from_summaries(&fleet.summaries());
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        (String::from_utf8(buf).unwrap(), tickets, config)
    }

    #[test]
    fn sharded_import_matches_single_threaded() {
        let (text, tickets, config) = fixture();
        let reference = import_smart_csv(text.as_bytes(), &tickets, config.clone()).unwrap();
        for workers in [1, 2, 4] {
            for shard_rows in [1, 7, 64, 1_000_000] {
                let ingest = IngestConfig {
                    shard_rows,
                    workers,
                    max_queued_shards: 3,
                    ..IngestConfig::default()
                };
                let fleet =
                    import_smart_csv_sharded(text.as_bytes(), &tickets, config.clone(), &ingest)
                        .unwrap();
                assert_eq!(
                    fleet.drives(),
                    reference.drives(),
                    "workers={workers} shard_rows={shard_rows}"
                );
            }
        }
    }

    #[test]
    fn stats_count_rows_shards_and_drives() {
        let (text, tickets, config) = fixture();
        let _ = config;
        let ingest = IngestConfig {
            shard_rows: 50,
            workers: 2,
            max_queued_shards: 2,
            ..IngestConfig::default()
        };
        let stats =
            stream_drive_batches(text.as_bytes(), &tickets, &ingest, |_batch: DriveBatch| {
                Ok::<(), DatasetError>(())
            })
            .unwrap();
        assert_eq!(stats.rows as usize, text.lines().count() - 1);
        assert_eq!(stats.drives, 11);
        assert!(stats.shards >= 2, "{stats:?}");
    }

    #[test]
    fn batches_arrive_in_file_order() {
        let (text, tickets, _config) = fixture();
        let ingest = IngestConfig {
            shard_rows: 10,
            workers: 4,
            max_queued_shards: 2,
            ..IngestConfig::default()
        };
        let mut last_index = None;
        let mut last_line = 0usize;
        stream_drive_batches(text.as_bytes(), &tickets, &ingest, |batch: DriveBatch| {
            if let Some(prev) = last_index {
                assert_eq!(batch.shard_index, prev + 1);
            } else {
                assert_eq!(batch.shard_index, 0);
            }
            assert!(batch.first_line > last_line);
            last_index = Some(batch.shard_index);
            last_line = batch.first_line;
            Ok::<(), DatasetError>(())
        })
        .unwrap();
        assert!(last_index.is_some());
    }

    #[test]
    fn first_error_in_file_order_wins() {
        let (text, tickets, config) = fixture();
        // Corrupt two rows: the earlier one must be the reported error even
        // though a later shard may finish parsing first.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let a = lines.len() / 3;
        let b = 2 * lines.len() / 3;
        lines[a] = "broken".to_string();
        lines[b] = "also,broken".to_string();
        let corrupt = lines.join("\n");
        let reference = import_smart_csv(corrupt.as_bytes(), &tickets, config.clone());
        for shard_rows in [5, 40] {
            let ingest = IngestConfig {
                shard_rows,
                workers: 4,
                max_queued_shards: 2,
                ..IngestConfig::default()
            };
            let sharded =
                import_smart_csv_sharded(corrupt.as_bytes(), &tickets, config.clone(), &ingest);
            match (&reference, &sharded) {
                (
                    Err(DatasetError::ParseCsv {
                        line: l1,
                        message: m1,
                    }),
                    Err(DatasetError::ParseCsv {
                        line: l2,
                        message: m2,
                    }),
                ) => {
                    assert_eq!(l1, l2);
                    assert_eq!(m1, m2);
                    assert_eq!(*l1, a + 1);
                }
                other => panic!("expected matching ParseCsv errors, got {other:?}"),
            }
        }
    }

    #[test]
    fn consumer_error_aborts_cleanly() {
        let (text, tickets, _config) = fixture();
        let ingest = IngestConfig {
            shard_rows: 5,
            workers: 2,
            max_queued_shards: 1,
            ..IngestConfig::default()
        };
        let mut seen = 0;
        let err = stream_drive_batches(text.as_bytes(), &tickets, &ingest, |_b: DriveBatch| {
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
    fn empty_and_header_only_inputs() {
        let config = FleetConfig::builder()
            .days(120)
            .drives(DriveModel::Ma1, 1)
            .build()
            .unwrap();
        let ingest = IngestConfig::default();
        let err = import_smart_csv_sharded(&b""[..], &[], config.clone(), &ingest).unwrap_err();
        assert!(matches!(err, DatasetError::ParseCsv { line: 1, .. }));

        let mut header_only = Vec::new();
        let fleet = Fleet::generate(&config);
        export_smart_csv(&fleet, &mut header_only).unwrap();
        let header_only = String::from_utf8(header_only).unwrap();
        let header_line = header_only.lines().next().unwrap();
        let imported = import_smart_csv_sharded(
            format!("{header_line}\n").as_bytes(),
            &[],
            config.clone(),
            &ingest,
        )
        .unwrap();
        assert!(imported.drives().is_empty());
    }

    #[test]
    fn config_from_lookup_reads_knobs() {
        let config = IngestConfig::from_lookup(|name| match name {
            ENV_SHARD_ROWS => Some("128".to_string()),
            ENV_WORKERS => Some(" 3 ".to_string()),
            ENV_TOLERANCE => Some(" tolerant ".to_string()),
            _ => None,
        });
        assert_eq!(config.shard_rows, 128);
        assert_eq!(config.workers, 3);
        assert_eq!(config.tolerance, IngestTolerance::Tolerant);
        // Zero and garbage fall back to defaults.
        let config = IngestConfig::from_lookup(|name| match name {
            ENV_SHARD_ROWS => Some("0".to_string()),
            ENV_WORKERS => Some("many".to_string()),
            ENV_TOLERANCE => Some("lenient".to_string()),
            _ => None,
        });
        assert_eq!(config, IngestConfig::default());
    }

    /// Corrupt the fixture with one duplicate row, one out-of-order row and
    /// one unparseable line; return the text and the expected counts.
    fn chaotic_fixture() -> (String, Vec<TroubleTicket>, FleetConfig, SkipCounts) {
        let (text, tickets, config) = fixture();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        // Line 3 (drive 0, day 1) re-delivered right after itself: duplicate.
        lines.insert(4, lines[3].clone());
        // Drive 0's day-0 row re-delivered a few days later: out-of-order.
        lines.insert(8, lines[1].clone());
        // One unsplittable line mid-run: malformed, leaving a clean run
        // because the real row it displaces nothing from is still present.
        lines.insert(12, "###".to_string());
        (
            lines.join("\n"),
            tickets,
            config,
            SkipCounts {
                duplicate_rows: 1,
                out_of_order_rows: 1,
                malformed_rows: 1,
                backfilled_days: 0,
            },
        )
    }

    #[test]
    fn tolerant_counts_are_worker_and_shard_independent() {
        let (text, tickets, config, expected) = chaotic_fixture();
        let reference = {
            let (clean_text, _, _) = fixture();
            import_smart_csv(clean_text.as_bytes(), &tickets, config.clone()).unwrap()
        };
        for workers in [1, 2, 4] {
            for shard_rows in [1, 7, 64, 1_000_000] {
                let ingest = IngestConfig {
                    shard_rows,
                    workers,
                    max_queued_shards: 3,
                    tolerance: IngestTolerance::Tolerant,
                };
                let (fleet, stats) = import_smart_csv_sharded_with_stats(
                    text.as_bytes(),
                    &tickets,
                    config.clone(),
                    &ingest,
                )
                .unwrap();
                assert_eq!(
                    stats.skipped, expected,
                    "workers={workers} shard_rows={shard_rows}"
                );
                // Dropping the bad rows reconstructs the clean fleet exactly.
                assert_eq!(fleet.drives(), reference.drives());
            }
        }
    }

    #[test]
    fn strict_mode_still_errors_on_chaotic_input() {
        let (text, tickets, config, _) = chaotic_fixture();
        let err = import_smart_csv_sharded(
            text.as_bytes(),
            &tickets,
            config,
            &IngestConfig {
                shard_rows: 16,
                workers: 2,
                ..IngestConfig::default()
            },
        )
        .unwrap_err();
        // The first injected fault is the duplicated row at file line 5
        // (vector index 4): its day repeats the previous line's.
        match err {
            DatasetError::ParseCsv { line, message } => {
                assert_eq!(line, 5);
                assert!(message.contains("expected day"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn malformed_cap_errors_at_the_breaching_line() {
        let (text, tickets, config) = fixture();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        // Inject cap + 1 unsplittable lines right after the header; the
        // breach must be reported at the (cap + 1)-th, at any concurrency.
        let n_bad = MAX_MALFORMED_ROWS as usize + 1;
        for _ in 0..n_bad {
            lines.insert(1, "garbage".to_string());
        }
        let body = lines.join("\n");
        for (workers, shard_rows) in [(1, 1_000_000), (4, 17)] {
            let ingest = IngestConfig {
                shard_rows,
                workers,
                max_queued_shards: 3,
                tolerance: IngestTolerance::Tolerant,
            };
            let err = import_smart_csv_sharded(body.as_bytes(), &tickets, config.clone(), &ingest)
                .unwrap_err();
            match err {
                DatasetError::ParseCsv { line, message } => {
                    assert_eq!(line, 1 + n_bad, "workers={workers}");
                    assert!(message.contains("gave up"), "{message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn tolerant_mode_is_bit_identical_on_clean_input() {
        let (text, tickets, config) = fixture();
        let strict = import_smart_csv(text.as_bytes(), &tickets, config.clone()).unwrap();
        let ingest = IngestConfig {
            shard_rows: 23,
            workers: 3,
            max_queued_shards: 2,
            tolerance: IngestTolerance::Tolerant,
        };
        let (fleet, stats) =
            import_smart_csv_sharded_with_stats(text.as_bytes(), &tickets, config, &ingest)
                .unwrap();
        assert_eq!(fleet.drives(), strict.drives());
        assert_eq!(stats.skipped, SkipCounts::default());
    }
}
