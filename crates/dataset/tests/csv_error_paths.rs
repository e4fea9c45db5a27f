//! Table-driven CSV error-path parity: every malformed input must produce
//! the *same* `ParseCsv` line number and message from the single-threaded
//! reader and from the sharded reader at several worker counts — including
//! errors that land deep in a later shard, where the absolute line number
//! proves the shards carry their file offsets correctly.

use smart_dataset::csv::{export_smart_csv, import_smart_csv};
use smart_dataset::{
    import_smart_csv_sharded, import_smart_csv_sharded_with_stats, tickets_from_summaries,
    DatasetError, DriveModel, Fleet, FleetConfig, IngestConfig, IngestTolerance, SkipCounts,
    TroubleTicket,
};

struct Fixture {
    csv: String,
    tickets: Vec<TroubleTicket>,
    config: FleetConfig,
}

/// A two-model fleet exported to CSV, the substrate every case corrupts.
fn fixture() -> Fixture {
    let config = FleetConfig::builder()
        .days(120)
        .seed(23)
        .drives(DriveModel::Ma1, 4)
        .drives(DriveModel::Mc1, 3)
        .failure_scale(8.0)
        .build()
        .expect("valid config");
    let fleet = Fleet::generate(&config);
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut buf = Vec::new();
    export_smart_csv(&fleet, &mut buf).expect("export");
    Fixture {
        csv: String::from_utf8(buf).expect("utf8"),
        tickets,
        config,
    }
}

/// Replace 1-based file line `line_no` with `with` (no trailing newline).
fn corrupt_line(csv: &str, line_no: usize, with: &str) -> String {
    let mut lines: Vec<&str> = csv.lines().collect();
    assert!(line_no <= lines.len(), "fixture has {} lines", lines.len());
    lines[line_no - 1] = with;
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn parse_csv_error(result: Result<Fleet, DatasetError>, context: &str) -> (usize, String) {
    match result {
        Err(DatasetError::ParseCsv { line, message }) => (line, message),
        other => panic!("{context}: expected ParseCsv, got {other:?}"),
    }
}

/// Run one corrupted input through both readers and assert identical
/// diagnostics. Small shards force the error line into a late shard.
fn assert_same_error(fix: &Fixture, input: &str, case: &str) -> (usize, String) {
    let single = parse_csv_error(
        import_smart_csv(input.as_bytes(), &fix.tickets, fix.config.clone()),
        case,
    );
    for workers in [1, 4] {
        for shard_rows in [1, 37, 1_000_000] {
            let ingest = IngestConfig {
                shard_rows,
                workers,
                ..IngestConfig::default()
            };
            let sharded = parse_csv_error(
                import_smart_csv_sharded(
                    input.as_bytes(),
                    &fix.tickets,
                    fix.config.clone(),
                    &ingest,
                ),
                case,
            );
            assert_eq!(
                single, sharded,
                "{case}: single vs sharded (workers={workers}, shard_rows={shard_rows})"
            );
        }
    }
    single
}

/// The largest 1-based line number whose row continues the previous row's
/// drive run — corruptions there hit mid-run checks (day contiguity, model
/// change), not the new-run path.
fn deepest_mid_run_line(csv: &str) -> usize {
    let ids: Vec<&str> = csv
        .lines()
        .map(|l| l.split(',').next().unwrap_or(""))
        .collect();
    (2..ids.len())
        .rev()
        .find(|&i| ids[i] == ids[i - 1])
        .expect("fixture has a multi-day drive")
        + 1
}

/// Index into the comma-split fields of the first attribute column the row
/// actually reports (non-empty), i.e. the raw half of a present pair.
fn first_reported_attr_field(row: &str) -> usize {
    let fields: Vec<&str> = row.split(',').collect();
    (3..fields.len())
        .step_by(2)
        .find(|&j| !fields[j].is_empty())
        .expect("every model reports at least one attribute")
}

#[test]
fn corrupted_rows_report_identical_diagnostics_from_both_readers() {
    let fix = fixture();
    // A mid-run line far into the file: with shard_rows=37 it falls in a
    // late shard, so matching the single-threaded line number proves the
    // absolute-offset bookkeeping.
    let deep = deepest_mid_run_line(&fix.csv);
    let deep_row = fix.csv.lines().nth(deep - 1).unwrap();
    let deep_id = deep_row.split(',').next().unwrap();
    let deep_model = deep_row.split(',').nth(1).unwrap();
    let other_model = if deep_model == "MC1" { "MA1" } else { "MC1" };
    let attr_at = first_reported_attr_field(deep_row);

    // (case name, 1-based line to corrupt, replacement, expected message
    // fragment). The full messages are asserted equal across readers; the
    // fragment pins which check fired.
    let cases: Vec<(&str, usize, String, String)> = vec![
        (
            "truncated row",
            5,
            "0,MA1,3".to_string(),
            "expected 47 fields, got 3".to_string(),
        ),
        (
            "bad drive_id",
            4,
            {
                let row = fix.csv.lines().nth(3).unwrap();
                format!("x{}", &row[1..])
            },
            "bad drive_id".to_string(),
        ),
        (
            "unknown model",
            4,
            fix.csv.lines().nth(3).unwrap().replacen("MA1", "ZZ9", 1),
            "unknown model \"ZZ9\"".to_string(),
        ),
        (
            "bad day",
            deep,
            {
                let mut fields: Vec<&str> = deep_row.split(',').collect();
                fields[2] = "soon";
                fields.join(",")
            },
            "bad day \"soon\"".to_string(),
        ),
        (
            // The first row of a run: its next day would overflow u32.
            "day u32::MAX",
            2,
            max_day_row(&fix.csv),
            "bad day \"4294967295\"".to_string(),
        ),
        (
            "non-contiguous day",
            deep,
            {
                let mut fields: Vec<String> = deep_row.split(',').map(str::to_string).collect();
                let day: u32 = fields[2].parse().unwrap();
                fields[2] = (day + 1).to_string();
                fields.join(",")
            },
            "expected day".to_string(),
        ),
        (
            "model change mid-file",
            deep,
            deep_row.replacen(deep_model, other_model, 1),
            format!("drive {deep_id} changes model mid-file"),
        ),
        (
            "attribute presence mismatch",
            deep,
            {
                // Blank one value of a reported attribute pair: presence no
                // longer matches the model's attribute set.
                let mut fields: Vec<&str> = deep_row.split(',').collect();
                fields[attr_at] = "";
                fields.join(",")
            },
            "presence does not match model".to_string(),
        ),
        (
            "bad raw attribute value",
            deep,
            {
                let mut fields: Vec<&str> = deep_row.split(',').collect();
                fields[attr_at] = "many";
                fields.join(",")
            },
            "_R value \"many\"".to_string(),
        ),
        (
            "bad normalised attribute value",
            deep,
            {
                let mut fields: Vec<&str> = deep_row.split(',').collect();
                fields[attr_at + 1] = "many";
                fields.join(",")
            },
            "_N value \"many\"".to_string(),
        ),
    ];

    for (case, line_no, replacement, fragment) in &cases {
        let input = corrupt_line(&fix.csv, *line_no, replacement);
        let (line, message) = assert_same_error(&fix, &input, case);
        assert_eq!(line, *line_no, "{case}: error line");
        assert!(
            message.contains(fragment.as_str()),
            "{case}: message {message:?} lacks {fragment:?}"
        );
    }
}

/// Line 2 — the first row of drive 0's run — with its day set to
/// `u32::MAX`.
fn max_day_row(csv: &str) -> String {
    let mut fields: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
    fields[2] = "4294967295";
    fields.join(",")
}

#[test]
fn max_day_is_a_bad_day_strict_and_malformed_tolerant() {
    let fix = fixture();
    let input = corrupt_line(&fix.csv, 2, &max_day_row(&fix.csv));
    let (line, message) = assert_same_error(&fix, &input, "day u32::MAX");
    assert_eq!((line, message.as_str()), (2, "bad day \"4294967295\""));
    for workers in [1, 4] {
        for shard_rows in [1, 37, 1_000_000] {
            let ingest = IngestConfig {
                shard_rows,
                workers,
                tolerance: IngestTolerance::Tolerant,
                ..IngestConfig::default()
            };
            let (_, stats) = import_smart_csv_sharded_with_stats(
                input.as_bytes(),
                &fix.tickets,
                fix.config.clone(),
                &ingest,
            )
            .expect("tolerant import skips the row");
            assert_eq!(
                stats.skipped.malformed_rows, 1,
                "workers={workers} shard_rows={shard_rows}"
            );
        }
    }
}

#[test]
fn header_and_empty_file_errors_match() {
    let fix = fixture();
    for (case, input) in [
        ("empty file", String::new()),
        ("bad header", corrupt_line(&fix.csv, 1, "drive_id,model")),
    ] {
        let (line, message) = assert_same_error(&fix, &input, case);
        assert_eq!(line, 1, "{case}");
        assert!(!message.is_empty(), "{case}");
    }
}

/// Insert `line` after 1-based file line `after` (no trailing newline on
/// `line`).
fn insert_after(csv: &str, after: usize, line: &str) -> String {
    let mut lines: Vec<&str> = csv.lines().collect();
    assert!(after <= lines.len(), "fixture has {} lines", lines.len());
    lines.insert(after, line);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// 1-based line number of the first row of the run that line `line_no`
/// belongs to.
fn run_first_line(csv: &str, line_no: usize) -> usize {
    let ids: Vec<&str> = csv
        .lines()
        .map(|l| l.split(',').next().unwrap_or(""))
        .collect();
    let mut i = line_no - 1; // 0-based
    while i > 1 && ids[i - 1] == ids[i] {
        i -= 1;
    }
    i + 1
}

#[test]
fn duplicate_and_out_of_order_rows_error_strict_and_skip_tolerant() {
    let fix = fixture();
    let clean = import_smart_csv(fix.csv.as_bytes(), &fix.tickets, fix.config.clone())
        .expect("clean import");
    let deep = deepest_mid_run_line(&fix.csv);
    let deep_row = fix.csv.lines().nth(deep - 1).unwrap().to_string();
    let first = run_first_line(&fix.csv, deep);
    let first_row = fix.csv.lines().nth(first - 1).unwrap().to_string();
    assert!(deep > first + 1, "need a stale row, not a duplicate");

    // (case, dirty input, expected tolerant counts). The strict error must
    // land on the inserted line with a day-contiguity message.
    let cases = [
        (
            "duplicate row",
            insert_after(&fix.csv, deep, &deep_row),
            SkipCounts {
                duplicate_rows: 1,
                ..SkipCounts::default()
            },
        ),
        (
            "out-of-order row",
            insert_after(&fix.csv, deep, &first_row),
            SkipCounts {
                out_of_order_rows: 1,
                ..SkipCounts::default()
            },
        ),
    ];

    for (case, input, expected) in &cases {
        // Strict: both readers report the inserted line, same message.
        let (line, message) = assert_same_error(&fix, input, case);
        assert_eq!(line, deep + 1, "{case}: error line");
        assert!(message.contains("expected day"), "{case}: {message:?}");

        // Tolerant: identical skip counts at every worker/shard combo, and
        // dropping the row reconstructs the clean fleet bit-for-bit.
        for workers in [1, 4] {
            for shard_rows in [1, 37, 1_000_000] {
                let ingest = IngestConfig {
                    shard_rows,
                    workers,
                    tolerance: IngestTolerance::Tolerant,
                    ..IngestConfig::default()
                };
                let (fleet, stats) = import_smart_csv_sharded_with_stats(
                    input.as_bytes(),
                    &fix.tickets,
                    fix.config.clone(),
                    &ingest,
                )
                .expect(case);
                assert_eq!(
                    stats.skipped, *expected,
                    "{case}: workers={workers} shard_rows={shard_rows}"
                );
                assert_eq!(fleet.drives(), clean.drives(), "{case}");
            }
        }
    }
}

#[test]
fn first_error_in_file_order_wins_across_shards() {
    // Two corrupt rows in different shards: both readers must report the
    // earlier one, whichever worker finishes first.
    let fix = fixture();
    let n_lines = fix.csv.lines().count();
    let early = 6;
    let late = n_lines - 3;
    let input = corrupt_line(&corrupt_line(&fix.csv, late, "9,MC1"), early, "0,MA1");
    let (line, message) = assert_same_error(&fix, &input, "two corrupt rows");
    assert_eq!(line, early);
    assert!(message.contains("expected 47 fields, got 2"), "{message:?}");
}
