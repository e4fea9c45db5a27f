//! CSV export/import in the spirit of the released Alibaba dataset: one
//! daily SMART-log table plus a trouble-ticket table.
//!
//! The SMART table has one row per drive-day with columns
//! `drive_id,model,day` followed by `<ATTR>_R,<ATTR>_N` for all 22
//! attributes; attributes a model does not report are left empty.

use crate::attr::SmartAttribute;
use crate::config::FleetConfig;
use crate::error::DatasetError;
use crate::fleet::Fleet;
use crate::mechanism::FailureMechanism;
use crate::model::DriveModel;
use crate::records::{DriveId, DriveRecord, FailureRecord};
use crate::tickets::{sort_tickets_by_drive, ticket_for_drive, TroubleTicket};
use std::io::{BufRead, Write};

/// Column count of the SMART-log CSV: `drive_id,model,day` plus a raw and a
/// normalized column per attribute.
pub(crate) fn expected_smart_cols() -> usize {
    3 + 2 * SmartAttribute::ALL.len()
}

/// Parse a row's day field; both readers share it, so they report the same
/// message. `u32::MAX` is rejected as unparseable: a run's next day would
/// overflow there.
pub(crate) fn parse_day(field: &str) -> Result<u32, String> {
    field
        .parse()
        .ok()
        .filter(|&day| day < u32::MAX)
        .ok_or_else(|| format!("bad day {field:?}"))
}

/// Validate the SMART-log header row (line 1).
pub(crate) fn check_smart_header(header: &str) -> Result<(), DatasetError> {
    let expected_cols = expected_smart_cols();
    if header.split(',').count() != expected_cols {
        return Err(DatasetError::ParseCsv {
            line: 1,
            message: format!("expected {expected_cols} columns in header"),
        });
    }
    Ok(())
}

/// Write the fleet's daily SMART logs as CSV.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn export_smart_csv<W: Write>(fleet: &Fleet, out: &mut W) -> Result<(), DatasetError> {
    let mut header = String::from("drive_id,model,day");
    for attr in SmartAttribute::ALL {
        header.push_str(&format!(",{code}_R,{code}_N", code = attr.code()));
    }
    writeln!(out, "{header}")?;
    for drive in fleet.drives() {
        for day in drive.deploy_day..=drive.last_day() {
            let mut row = format!("{},{},{}", drive.id.0, drive.model, day);
            for attr in SmartAttribute::ALL {
                match drive.model.attribute_index(attr) {
                    Some(_) => {
                        let r = drive
                            .value_on(day, crate::attr::FeatureId::raw(attr))
                            // lint:allow(panic-free) day iterates deploy_day
                            // ..=last_day, exactly the range value_on covers
                            // for an attribute the model carries
                            .expect("observed day");
                        let n = drive
                            .value_on(day, crate::attr::FeatureId::normalized(attr))
                            // lint:allow(panic-free) same observed-day range
                            // as the raw read above
                            .expect("observed day");
                        row.push_str(&format!(",{r},{n}"));
                    }
                    None => row.push_str(",,"),
                }
            }
            writeln!(out, "{row}")?;
        }
    }
    Ok(())
}

/// Write the fleet's trouble tickets as CSV (`drive_id,model,day,mechanism`).
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn export_tickets_csv<W: Write>(
    tickets: &[TroubleTicket],
    out: &mut W,
) -> Result<(), DatasetError> {
    writeln!(out, "drive_id,model,day,mechanism")?;
    for t in tickets {
        writeln!(
            out,
            "{},{},{},{}",
            t.drive_id.0,
            t.model,
            t.day,
            t.mechanism.name()
        )?;
    }
    Ok(())
}

/// Read a trouble-ticket CSV (as written by [`export_tickets_csv`]) back
/// into a ticket list, preserving each ticket's failure mechanism.
///
/// # Errors
///
/// Returns [`DatasetError::ParseCsv`] on malformed rows, unknown models, or
/// unknown mechanism names.
pub fn import_tickets_csv<R: BufRead>(input: R) -> Result<Vec<TroubleTicket>, DatasetError> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| DatasetError::ParseCsv {
        line: 1,
        message: "empty file".to_string(),
    })?;
    let header = header?;
    if header.split(',').count() != 4 {
        return Err(DatasetError::ParseCsv {
            line: 1,
            message: "expected 4 columns in header (drive_id,model,day,mechanism)".to_string(),
        });
    }
    let mut tickets = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let parse_err = |message: String| DatasetError::ParseCsv {
            line: line_no,
            message,
        };
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(parse_err(format!(
                "expected 4 fields, got {}",
                fields.len()
            )));
        }
        let id: u32 = fields[0]
            .parse()
            .map_err(|_| parse_err(format!("bad drive_id {:?}", fields[0])))?;
        let model = DriveModel::from_name(fields[1])
            .ok_or_else(|| parse_err(format!("unknown model {:?}", fields[1])))?;
        let day: u32 = fields[2]
            .parse()
            .map_err(|_| parse_err(format!("bad day {:?}", fields[2])))?;
        let mechanism = FailureMechanism::from_name(fields[3])
            .ok_or_else(|| parse_err(format!("unknown mechanism {:?}", fields[3])))?;
        tickets.push(TroubleTicket {
            drive_id: DriveId(id),
            model,
            day,
            mechanism,
        });
    }
    Ok(tickets)
}

/// Read a SMART-log CSV (as written by [`export_smart_csv`]) back into a
/// [`Fleet`]. `tickets` marks which drives failed on which day; `config` is
/// attached verbatim (only its `days` bound is validated against the data).
///
/// # Errors
///
/// Returns [`DatasetError::ParseCsv`] on malformed rows, non-contiguous day
/// sequences, or values for attributes the row's model does not report.
pub fn import_smart_csv<R: BufRead>(
    input: R,
    tickets: &[TroubleTicket],
    config: FleetConfig,
) -> Result<Fleet, DatasetError> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| DatasetError::ParseCsv {
        line: 1,
        message: "empty file".to_string(),
    })?;
    let header = header?;
    check_smart_header(&header)?;
    let expected_cols = expected_smart_cols();

    struct Partial {
        id: DriveId,
        model: DriveModel,
        deploy_day: u32,
        next_day: u32,
        values: Vec<f32>,
        n_days: u32,
    }
    let mut partials: Vec<Partial> = Vec::new();

    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != expected_cols {
            return Err(DatasetError::ParseCsv {
                line: line_no,
                message: format!("expected {expected_cols} fields, got {}", fields.len()),
            });
        }
        let parse_err = |message: String| DatasetError::ParseCsv {
            line: line_no,
            message,
        };
        let id: u32 = fields[0]
            .parse()
            .map_err(|_| parse_err(format!("bad drive_id {:?}", fields[0])))?;
        let model = DriveModel::from_name(fields[1])
            .ok_or_else(|| parse_err(format!("unknown model {:?}", fields[1])))?;
        let day = parse_day(fields[2]).map_err(parse_err)?;

        let partial = match partials.last_mut() {
            Some(p) if p.id == DriveId(id) => p,
            _ => {
                partials.push(Partial {
                    id: DriveId(id),
                    model,
                    deploy_day: day,
                    next_day: day,
                    values: Vec::new(),
                    n_days: 0,
                });
                // lint:allow(panic-free) the push on the line above makes
                // last_mut() Some
                partials.last_mut().expect("just pushed")
            }
        };
        if partial.model != model {
            return Err(parse_err(format!("drive {id} changes model mid-file")));
        }
        if day != partial.next_day {
            return Err(parse_err(format!(
                "drive {id}: expected day {}, got {day}",
                partial.next_day
            )));
        }

        for (a, attr) in SmartAttribute::ALL.iter().enumerate() {
            let raw = fields[3 + 2 * a];
            let norm = fields[4 + 2 * a];
            let reported = model.has_attribute(*attr);
            match (reported, raw.is_empty(), norm.is_empty()) {
                (true, false, false) => {
                    let r: f32 = raw
                        .parse()
                        .map_err(|_| parse_err(format!("bad {attr}_R value {raw:?}")))?;
                    let n: f32 = norm
                        .parse()
                        .map_err(|_| parse_err(format!("bad {attr}_N value {norm:?}")))?;
                    partial.values.push(r);
                    partial.values.push(n);
                }
                (false, true, true) => {}
                _ => {
                    return Err(parse_err(format!(
                        "drive {id}: attribute {attr} presence does not match model {model}"
                    )))
                }
            }
        }
        partial.next_day += 1;
        partial.n_days += 1;
    }

    // Sorted-slice binary search instead of a linear scan per drive: the
    // join is O((drives + tickets) log tickets) and stays deterministic
    // (HashMap iteration is banned in order-sensitive crates).
    let by_id = sort_tickets_by_drive(tickets);
    let drives = partials
        .into_iter()
        .map(|p| {
            let failure = ticket_for_drive(&by_id, p.id).map(|t| FailureRecord {
                day: t.day,
                mechanism: t.mechanism,
            });
            DriveRecord::from_flat_values(
                p.id,
                p.model,
                p.deploy_day,
                0,
                failure,
                p.values,
                p.n_days,
            )
        })
        .collect();
    Ok(Fleet::from_records(config, drives))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::FeatureId;
    use crate::tickets::tickets_from_summaries;

    fn small_fleet() -> Fleet {
        let config = FleetConfig::builder()
            .days(150)
            .seed(3)
            .drives(DriveModel::Ma1, 4)
            .drives(DriveModel::Mc2, 4)
            .build()
            .unwrap();
        Fleet::generate(&config)
    }

    #[test]
    fn export_then_import_roundtrips_values() {
        let fleet = small_fleet();
        let tickets = tickets_from_summaries(&fleet.summaries());
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        let imported = import_smart_csv(buf.as_slice(), &tickets, fleet.config().clone()).unwrap();

        assert_eq!(imported.drives().len(), fleet.drives().len());
        for (orig, imp) in fleet.drives().iter().zip(imported.drives()) {
            assert_eq!(orig.id, imp.id);
            assert_eq!(orig.model, imp.model);
            assert_eq!(orig.n_days(), imp.n_days());
            assert_eq!(orig.is_failed(), imp.is_failed());
            let f = FeatureId::raw(SmartAttribute::Uce);
            assert_eq!(orig.series(f), imp.series(f));
        }
    }

    #[test]
    fn header_has_all_attribute_columns() {
        let fleet = small_fleet();
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.contains("OCE_R,OCE_N"));
        assert!(header.contains("MWI_R,MWI_N"));
        assert_eq!(header.split(',').count(), 3 + 44);
    }

    #[test]
    fn unreported_attributes_are_empty() {
        let fleet = small_fleet();
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // MA1 does not report TLW; find an MA1 row and check emptiness.
        let header: Vec<&str> = text.lines().next().unwrap().split(',').collect();
        let tlw_col = header.iter().position(|&c| c == "TLW_R").unwrap();
        let ma1_row = text.lines().find(|l| l.contains(",MA1,")).unwrap();
        let fields: Vec<&str> = ma1_row.split(',').collect();
        assert!(fields[tlw_col].is_empty());
    }

    #[test]
    fn tickets_csv_shape() {
        let fleet = small_fleet();
        let tickets = tickets_from_summaries(&fleet.summaries());
        let mut buf = Vec::new();
        export_tickets_csv(&tickets, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), tickets.len() + 1);
        assert!(text.starts_with("drive_id,model,day,mechanism\n"));
        for line in text.lines().skip(1) {
            assert_eq!(line.split(',').count(), 4, "{line:?}");
        }
    }

    #[test]
    fn tickets_csv_roundtrip_preserves_mechanisms() {
        let fleet = small_fleet();
        let tickets = tickets_from_summaries(&fleet.summaries());
        assert!(!tickets.is_empty(), "fixture fleet must have failures");
        let mut buf = Vec::new();
        export_tickets_csv(&tickets, &mut buf).unwrap();
        let imported = import_tickets_csv(buf.as_slice()).unwrap();
        assert_eq!(imported, tickets);
    }

    #[test]
    fn import_tickets_rejects_malformed_rows() {
        let cases = [
            ("", 1, "empty file"),
            ("drive_id,model,day\n", 1, "expected 4 columns"),
            (
                "drive_id,model,day,mechanism\n0,MA1,5",
                2,
                "expected 4 fields",
            ),
            (
                "drive_id,model,day,mechanism\nx,MA1,5,wear_out",
                2,
                "bad drive_id",
            ),
            (
                "drive_id,model,day,mechanism\n0,ZZ9,5,wear_out",
                2,
                "unknown model",
            ),
            (
                "drive_id,model,day,mechanism\n0,MA1,x,wear_out",
                2,
                "bad day",
            ),
            (
                "drive_id,model,day,mechanism\n0,MA1,5,gremlins",
                2,
                "unknown mechanism",
            ),
        ];
        for (text, line, needle) in cases {
            let err = import_tickets_csv(text.as_bytes()).unwrap_err();
            match err {
                DatasetError::ParseCsv { line: l, message } => {
                    assert_eq!(l, line, "{text:?}");
                    assert!(message.contains(needle), "{text:?}: {message}");
                }
                other => panic!("{text:?}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn import_smart_csv_preserves_ticket_mechanisms() {
        let fleet = small_fleet();
        let tickets = tickets_from_summaries(&fleet.summaries());
        assert!(!tickets.is_empty(), "fixture fleet must have failures");
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        let imported = import_smart_csv(buf.as_slice(), &tickets, fleet.config().clone()).unwrap();
        for (orig, imp) in fleet.drives().iter().zip(imported.drives()) {
            assert_eq!(orig.failure, imp.failure, "drive {}", orig.id);
        }
    }

    #[test]
    fn import_rejects_malformed_rows() {
        let config = FleetConfig::builder()
            .days(150)
            .drives(DriveModel::Ma1, 1)
            .build()
            .unwrap();
        let bad = "drive_id,model,day\n0,MA1";
        assert!(import_smart_csv(bad.as_bytes(), &[], config.clone()).is_err());
        let bad_header = "a,b\n";
        assert!(import_smart_csv(bad_header.as_bytes(), &[], config.clone()).is_err());
        assert!(import_smart_csv(&b""[..], &[], config).is_err());
    }

    #[test]
    fn import_rejects_day_gaps() {
        let fleet = small_fleet();
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(2); // punch a hole in drive 0's day sequence
        let holed = lines.join("\n");
        let err = import_smart_csv(holed.as_bytes(), &[], fleet.config().clone());
        assert!(err.is_err());
    }
}
