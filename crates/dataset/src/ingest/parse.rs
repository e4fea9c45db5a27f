//! Independent parsing of one drive-aligned shard.
//!
//! Byte-for-byte compatible with [`crate::csv::import_smart_csv`]: the same
//! rows produce the same drive runs, and the same malformed input produces
//! the same `ParseCsv` message at the same absolute line number. It is also
//! the fast path — fields are walked with a borrowing iterator instead of
//! collecting a `Vec<&str>` per row, and lines borrow from the shard text
//! instead of allocating a `String` each.

use super::{IngestTolerance, SkipCounts};
use crate::attr::SmartAttribute;
use crate::csv::{expected_smart_cols, parse_day};
use crate::error::DatasetError;
use crate::model::DriveModel;
use crate::records::{DriveId, DriveRecord, FailureRecord};
use crate::tickets::{ticket_for_drive, TroubleTicket};

/// One contiguous run of day-rows for a single drive, as found in a shard.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ParsedDrive {
    pub id: DriveId,
    pub model: DriveModel,
    pub deploy_day: u32,
    pub values: Vec<f32>,
    pub n_days: u32,
}

impl ParsedDrive {
    /// Attach the drive's trouble ticket (if any) and freeze into a record.
    /// `sorted_tickets` must come from
    /// [`crate::tickets::sort_tickets_by_drive`].
    pub fn into_record(self, sorted_tickets: &[TroubleTicket]) -> DriveRecord {
        let failure = ticket_for_drive(sorted_tickets, self.id).map(|t| FailureRecord {
            day: t.day,
            mechanism: t.mechanism,
        });
        DriveRecord::from_flat_values(
            self.id,
            self.model,
            self.deploy_day,
            0,
            failure,
            self.values,
            self.n_days,
        )
    }
}

/// Everything a shard hands back: the drive runs plus the tolerant-mode
/// skip accounting (all zeros under [`IngestTolerance::Strict`]).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ShardOutcome {
    pub drives: Vec<ParsedDrive>,
    pub skipped: SkipCounts,
    /// Absolute line numbers of malformed skipped lines, in shard order —
    /// the merger walks these in file order to enforce the malformed-row
    /// cap with worker- and shard-size-independent diagnostics.
    pub malformed_lines: Vec<usize>,
}

/// Column count of the SMART-log CSV, as a constant so rows can be split
/// into a stack array instead of a heap `Vec<&str>` per row.
const EXPECTED_COLS: usize = 3 + 2 * SmartAttribute::ALL.len();

/// Longest forward day-gap the tolerant mode will backfill with NaN days;
/// anything wider means the day field itself is garbage, so the row is
/// counted malformed instead of allocating an absurd run.
const MAX_BACKFILL_DAYS: u32 = 1_024;

/// One structurally valid row: id/model/day parsed, fields split.
struct RawRow<'a> {
    id: u32,
    model: DriveModel,
    day: u32,
    fields: [&'a str; EXPECTED_COLS],
}

/// Split one line and parse its identity columns. Error strings carry no
/// line number; callers attach it (strict) or count the skip (tolerant).
fn split_row(line: &str) -> Result<RawRow<'_>, String> {
    let expected_cols = expected_smart_cols();
    debug_assert_eq!(expected_cols, EXPECTED_COLS);
    // Split into a stack array in one pass (the single-threaded reader
    // heap-collects a `Vec<&str>` per row). Field-count mismatches take
    // the cold path: recount to report the true total, keeping the
    // error text identical.
    let mut fields = [""; EXPECTED_COLS];
    let mut n_fields = 0usize;
    for field in line.split(',') {
        if n_fields == EXPECTED_COLS {
            n_fields += 1;
            break;
        }
        fields[n_fields] = field;
        n_fields += 1;
    }
    if n_fields != expected_cols {
        let n_fields = line.split(',').count();
        return Err(format!("expected {expected_cols} fields, got {n_fields}"));
    }

    let field = fields[0];
    let id: u32 = field
        .parse()
        .map_err(|_| format!("bad drive_id {field:?}"))?;
    let field = fields[1];
    let model = DriveModel::from_name(field).ok_or_else(|| format!("unknown model {field:?}"))?;
    let day = parse_day(fields[2])?;
    Ok(RawRow {
        id,
        model,
        day,
        fields,
    })
}

/// Parse one row's attribute values into `buf` (cleared first), validating
/// presence against the model. Error strings carry no line number.
fn parse_row_values(row: &RawRow<'_>, buf: &mut Vec<f32>) -> Result<(), String> {
    buf.clear();
    for (a, attr) in SmartAttribute::ALL.into_iter().enumerate() {
        let raw = row.fields[3 + 2 * a];
        let norm = row.fields[4 + 2 * a];
        let reported = row.model.has_attribute(attr);
        match (reported, raw.is_empty(), norm.is_empty()) {
            (true, false, false) => {
                let r: f32 = raw
                    .parse()
                    .map_err(|_| format!("bad {attr}_R value {raw:?}"))?;
                let n: f32 = norm
                    .parse()
                    .map_err(|_| format!("bad {attr}_N value {norm:?}"))?;
                buf.push(r);
                buf.push(n);
            }
            (false, true, true) => {}
            _ => {
                return Err(format!(
                    "drive {}: attribute {attr} presence does not match model {}",
                    row.id, row.model
                ))
            }
        }
    }
    Ok(())
}

/// Parse one shard's raw text into drive runs. `first_line` is the 1-based
/// file line number of the shard's first line, so every diagnostic carries
/// its absolute position.
///
/// # Errors
///
/// Under [`IngestTolerance::Strict`], returns [`DatasetError::ParseCsv`]
/// for the first malformed row in shard order, with the same message the
/// single-threaded reader would emit. Under [`IngestTolerance::Tolerant`],
/// bad rows are skipped and counted instead (see
/// [`parse_shard_tolerant`]); only I/O-level impossibilities remain errors.
pub(super) fn parse_shard(
    text: &str,
    first_line: usize,
    tolerance: IngestTolerance,
) -> Result<ShardOutcome, DatasetError> {
    match tolerance {
        IngestTolerance::Strict => parse_shard_strict(text, first_line),
        IngestTolerance::Tolerant => Ok(parse_shard_tolerant(text, first_line)),
    }
}

fn parse_shard_strict(text: &str, first_line: usize) -> Result<ShardOutcome, DatasetError> {
    let mut drives: Vec<ParsedDrive> = Vec::new();
    let mut next_day: u32 = 0;
    let mut row_buf: Vec<f32> = Vec::new();

    for (i, raw_line) in text.split('\n').enumerate() {
        let line = raw_line.strip_suffix('\r').unwrap_or(raw_line);
        if line.trim().is_empty() {
            continue;
        }
        let line_no = first_line + i;
        let parse_err = |message: String| DatasetError::ParseCsv {
            line: line_no,
            message,
        };

        let row = split_row(line).map_err(parse_err)?;
        let same_run = drives.last().is_some_and(|d| d.id == DriveId(row.id));
        if !same_run {
            drives.push(ParsedDrive {
                id: DriveId(row.id),
                model: row.model,
                deploy_day: row.day,
                values: Vec::new(),
                n_days: 0,
            });
            next_day = row.day;
        }
        // lint:allow(panic-free) non-empty by the push above when no run
        // was open
        let drive = drives.last_mut().expect("run just opened");
        if drive.model != row.model {
            return Err(parse_err(format!(
                "drive {} changes model mid-file",
                row.id
            )));
        }
        if row.day != next_day {
            return Err(parse_err(format!(
                "drive {}: expected day {next_day}, got {}",
                row.id, row.day
            )));
        }
        parse_row_values(&row, &mut row_buf).map_err(parse_err)?;
        drive.values.extend_from_slice(&row_buf);
        drive.n_days += 1;
        next_day += 1;
    }
    Ok(ShardOutcome {
        drives,
        skipped: SkipCounts::default(),
        malformed_lines: Vec::new(),
    })
}

/// The tolerant counterpart of [`parse_shard_strict`]: instead of failing
/// on the first bad row, classify and skip it.
///
/// * **duplicate** — a row of the open run re-reporting the run's most
///   recent day (`day == next_day − 1`), the telemetry re-delivery case.
/// * **out-of-order** — a row of the open run for any older day.
/// * **malformed** — everything else: unsplittable lines, bad identity or
///   value fields, attribute/model presence mismatches, mid-run model
///   changes, and day jumps wider than [`MAX_BACKFILL_DAYS`].
///
/// A *small* forward day-gap inside a run (the usual residue of a corrupted
/// or lost row) is not an error: the missing days are backfilled with NaN
/// values — the missing-measurement marker the rest of the pipeline
/// understands (DESIGN.md §11) — and counted as `backfilled_days`.
///
/// Classification is per drive run, and the shard splitter never lets a
/// run straddle shards, so these counts are independent of worker count
/// and shard size. Cross-run reordering (a stray row of an earlier drive
/// after another drive started) is out of scope: it opens a fresh run,
/// exactly as the strict reader would have errored on it.
fn parse_shard_tolerant(text: &str, first_line: usize) -> ShardOutcome {
    let mut drives: Vec<ParsedDrive> = Vec::new();
    let mut next_day: u32 = 0;
    let mut skipped = SkipCounts::default();
    let mut malformed_lines: Vec<usize> = Vec::new();
    let mut row_buf: Vec<f32> = Vec::new();

    for (i, raw_line) in text.split('\n').enumerate() {
        let line = raw_line.strip_suffix('\r').unwrap_or(raw_line);
        if line.trim().is_empty() {
            continue;
        }
        let line_no = first_line + i;

        let Ok(row) = split_row(line) else {
            skipped.malformed_rows += 1;
            malformed_lines.push(line_no);
            continue;
        };
        let same_run = drives.last().is_some_and(|d| d.id == DriveId(row.id));
        if same_run {
            // lint:allow(panic-free) same_run implies a last element
            let drive = drives.last_mut().expect("open run");
            if drive.model != row.model {
                skipped.malformed_rows += 1;
                malformed_lines.push(line_no);
                continue;
            }
            if row.day < next_day {
                if row.day + 1 == next_day {
                    skipped.duplicate_rows += 1;
                } else {
                    skipped.out_of_order_rows += 1;
                }
                continue;
            }
            let gap = row.day - next_day;
            if gap > MAX_BACKFILL_DAYS {
                skipped.malformed_rows += 1;
                malformed_lines.push(line_no);
                continue;
            }
            if parse_row_values(&row, &mut row_buf).is_err() {
                skipped.malformed_rows += 1;
                malformed_lines.push(line_no);
                continue;
            }
            let stride = row.model.attributes().len() * 2;
            for _ in 0..gap {
                drive.values.extend(std::iter::repeat_n(f32::NAN, stride));
                drive.n_days += 1;
                skipped.backfilled_days += 1;
            }
            drive.values.extend_from_slice(&row_buf);
            drive.n_days += 1;
            next_day = row.day + 1;
        } else {
            if parse_row_values(&row, &mut row_buf).is_err() {
                skipped.malformed_rows += 1;
                malformed_lines.push(line_no);
                continue;
            }
            drives.push(ParsedDrive {
                id: DriveId(row.id),
                model: row.model,
                deploy_day: row.day,
                values: row_buf.clone(),
                n_days: 1,
            });
            next_day = row.day + 1;
        }
    }
    ShardOutcome {
        drives,
        skipped,
        malformed_lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetConfig;
    use crate::csv::export_smart_csv;
    use crate::fleet::Fleet;

    fn fixture_csv() -> String {
        let config = FleetConfig::builder()
            .days(120)
            .seed(11)
            .drives(DriveModel::Ma1, 3)
            .drives(DriveModel::Mc1, 2)
            .build()
            .unwrap();
        let fleet = Fleet::generate(&config);
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn strict(text: &str, first_line: usize) -> Result<ShardOutcome, DatasetError> {
        parse_shard(text, first_line, IngestTolerance::Strict)
    }

    fn tolerant(text: &str, first_line: usize) -> ShardOutcome {
        // lint:allow(panic-free) tolerant parsing is infallible; test glue
        parse_shard(text, first_line, IngestTolerance::Tolerant).unwrap()
    }

    #[test]
    fn parses_exported_rows_into_runs() {
        let text = fixture_csv();
        let body = text.split_once('\n').unwrap().1;
        let outcome = strict(body, 2).unwrap();
        assert_eq!(outcome.drives.len(), 5);
        for (i, d) in outcome.drives.iter().enumerate() {
            assert_eq!(d.id, DriveId(i as u32));
            assert!(d.n_days > 0);
        }
        assert_eq!(outcome.skipped, SkipCounts::default());
        assert!(outcome.malformed_lines.is_empty());
    }

    #[test]
    fn error_line_numbers_are_absolute() {
        // A shard starting at file line 1000 reports errors there, not at
        // its local offset: duplicate drive 0's first row so the second
        // copy breaks day contiguity.
        let text = fixture_csv();
        let row = text.lines().nth(1).unwrap();
        let day: u32 = row.split(',').nth(2).unwrap().parse().unwrap();
        let bad = format!("{row}\n{row}\n");
        let err = strict(&bad, 1000).unwrap_err();
        match err {
            DatasetError::ParseCsv { line, message } => {
                assert_eq!(line, 1001);
                assert_eq!(
                    message,
                    format!("drive 0: expected day {}, got {day}", day + 1)
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn crlf_lines_parse_like_lf() {
        let text = fixture_csv();
        let body = text.split_once('\n').unwrap().1;
        let crlf = body.replace('\n', "\r\n");
        assert_eq!(strict(&crlf, 2).unwrap(), strict(body, 2).unwrap());
    }

    #[test]
    fn tolerant_matches_strict_on_clean_input() {
        let text = fixture_csv();
        let body = text.split_once('\n').unwrap().1;
        assert_eq!(tolerant(body, 2), strict(body, 2).unwrap());
    }

    #[test]
    fn tolerant_skips_duplicate_rows() {
        let text = fixture_csv();
        let clean = strict(text.split_once('\n').unwrap().1, 2).unwrap();
        // Re-deliver the second row of the file (day 1 of drive 0).
        let mut lines: Vec<&str> = text.lines().skip(1).collect();
        let dup = lines[1];
        lines.insert(2, dup);
        let body = lines.join("\n");
        let outcome = tolerant(&body, 2);
        assert_eq!(outcome.drives, clean.drives);
        assert_eq!(outcome.skipped.duplicate_rows, 1);
        assert_eq!(outcome.skipped.out_of_order_rows, 0);
        assert_eq!(outcome.skipped.malformed_rows, 0);
        assert_eq!(outcome.skipped.backfilled_days, 0);
        assert!(outcome.malformed_lines.is_empty());
    }

    #[test]
    fn tolerant_skips_out_of_order_rows() {
        let text = fixture_csv();
        let clean = strict(text.split_once('\n').unwrap().1, 2).unwrap();
        // Re-deliver drive 0's day-0 row after day 4: older than the most
        // recent day by more than one, so it is out-of-order, not a dup.
        let mut lines: Vec<&str> = text.lines().skip(1).collect();
        let stale = lines[0];
        lines.insert(5, stale);
        let body = lines.join("\n");
        let outcome = tolerant(&body, 2);
        assert_eq!(outcome.drives, clean.drives);
        assert_eq!(outcome.skipped.out_of_order_rows, 1);
        assert_eq!(outcome.skipped.duplicate_rows, 0);
        assert_eq!(outcome.skipped.malformed_rows, 0);
    }

    #[test]
    fn tolerant_backfills_small_day_gaps_with_nan() {
        let text = fixture_csv();
        // Drop drive 0's day-2 row: day 3 now follows day 1, a gap of one.
        let lines: Vec<&str> = text
            .lines()
            .skip(1)
            .enumerate()
            .filter_map(|(i, l)| (i != 2).then_some(l))
            .collect();
        let body = lines.join("\n");
        let outcome = tolerant(&body, 2);
        assert_eq!(outcome.skipped.backfilled_days, 1);
        assert_eq!(outcome.skipped.malformed_rows, 0);
        let d0 = &outcome.drives[0];
        let clean = strict(text.split_once('\n').unwrap().1, 2).unwrap();
        assert_eq!(d0.n_days, clean.drives[0].n_days);
        let stride = d0.model.attributes().len() * 2;
        // Day 2's cells are NaN; every other day's cells match the clean run.
        for (i, (got, want)) in d0.values.iter().zip(&clean.drives[0].values).enumerate() {
            if i / stride == 2 {
                assert!(got.is_nan(), "cell {i}");
            } else {
                assert_eq!(got, want, "cell {i}");
            }
        }
    }

    #[test]
    fn tolerant_counts_malformed_rows_with_lines() {
        let text = fixture_csv();
        let clean = strict(text.split_once('\n').unwrap().1, 2).unwrap();
        let mut lines: Vec<String> = text.lines().skip(1).map(String::from).collect();
        lines.insert(3, "garbage".to_string());
        let body = lines.join("\n");
        let outcome = tolerant(&body, 10);
        assert_eq!(outcome.drives, clean.drives);
        assert_eq!(outcome.skipped.malformed_rows, 1);
        // Shard starts at file line 10; the injected line is its 4th row.
        assert_eq!(outcome.malformed_lines, vec![13]);
    }

    #[test]
    fn tolerant_rejects_absurd_day_jumps_as_malformed() {
        let text = fixture_csv();
        let mut lines: Vec<String> = text.lines().skip(1).map(String::from).collect();
        // Rewrite drive 0's day-1 row to a day far past the backfill cap.
        let mut fields: Vec<&str> = lines[1].split(',').collect();
        let day: u32 = fields[2].parse().unwrap();
        let far = format!("{}", day + MAX_BACKFILL_DAYS + 2);
        fields[2] = &far;
        let bad = fields.join(",");
        lines[1] = bad;
        let body = lines.join("\n");
        let outcome = tolerant(&body, 2);
        assert_eq!(outcome.skipped.malformed_rows, 1);
        // The skipped day-1 row leaves a one-day hole before day 2, which
        // is backfilled as usual.
        assert_eq!(outcome.skipped.backfilled_days, 1);
        assert_eq!(outcome.malformed_lines, vec![3]);
    }
}
