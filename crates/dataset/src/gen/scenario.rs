//! Adversarial-fleet scenario engine (DESIGN.md §11).
//!
//! A [`ScenarioConfig`] is a deterministic post-pass over a clean simulated
//! [`Fleet`]: it perturbs the *records* — never the simulator — so every
//! scenario stays bit-reproducible from `(fleet seed, scenario seed)` and
//! the clean baseline is always recoverable by switching the scenario off.
//! Three fleet-level perturbations model the operational chaos observed in
//! large SSD deployments:
//!
//! * [`FirmwareRollout`] — a mid-life firmware update re-maps an
//!   attribute's semantics for one model: raw values change units and/or
//!   the normalized scale flips orientation from the rollout day onward.
//! * [`MissingCoverage`] — a vendor batch that never reports one SMART
//!   attribute: the affected drives' cells become NaN (the
//!   missing-measurement marker the trees and rankers understand).
//! * [`ReplacementChurn`] — drives swapped out mid-window: the original
//!   record is truncated and the remaining telemetry re-appears under a
//!   fresh drive id deployed on the churn day.
//!
//! A separate, stream-level helper — [`inject_csv_chaos`] — corrupts an
//! exported CSV with duplicate, out-of-order and malformed rows and
//! returns the *exact* [`SkipCounts`] tolerant ingestion must report, so
//! the chaos suite can assert skip accounting to the row.

use crate::attr::{FeatureId, SmartAttribute, ValueKind};
use crate::config::FleetConfig;
use crate::error::DatasetError;
use crate::fleet::Fleet;
use crate::ingest::SkipCounts;
use crate::model::{DriveModel, Vendor};
use crate::records::{DriveId, DriveRecord, FailureRecord};
use rng::seq::sample_without_replacement;
use rng::{derive_seed, Rng, SeedableRng, StdRng};

/// A mid-life firmware update that re-maps one attribute's semantics for
/// every drive of one model, from `day` onward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirmwareRollout {
    /// First dataset day the new firmware reports under the new semantics.
    pub day: u32,
    /// The model receiving the rollout.
    pub model: DriveModel,
    /// The attribute whose semantics change.
    pub attr: SmartAttribute,
    /// Unit change of the raw value (e.g. `512.0` for sectors → bytes).
    pub raw_scale: f32,
    /// Whether the normalized scale flips orientation (`n → 100 − n`).
    pub invert_norm: bool,
}

/// A vendor batch whose drives never report one SMART attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissingCoverage {
    /// The vendor whose batch is affected (all models of the vendor).
    pub vendor: Vendor,
    /// The attribute the batch fails to report. Must not be
    /// [`SmartAttribute::Mwi`] — the pipeline's wear-out grouping requires
    /// MWI on every drive.
    pub attr: SmartAttribute,
    /// Fraction of the vendor's drives in the bad batch, in `[0, 1]`;
    /// membership is a deterministic per-drive coin.
    pub batch_fraction: f64,
}

/// Drive replacement churn: a deterministic per-drive fraction of the
/// drives alive on `day` is swapped out that day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplacementChurn {
    /// The day the replacements happen. Only drives deployed before this
    /// day and still observed on it are eligible.
    pub day: u32,
    /// Fraction of eligible drives replaced, in `[0, 1]`.
    pub fraction: f64,
}

/// A full adversarial scenario: any combination of the three fleet
/// perturbations, applied in declaration order (firmware → missing →
/// churn) under one scenario seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScenarioConfig {
    /// Seed for the per-drive scenario coins (batch membership, churn
    /// victims). Independent of the fleet seed.
    pub seed: u64,
    /// Optional firmware rollout.
    pub firmware: Option<FirmwareRollout>,
    /// Optional vendor-batch missing coverage.
    pub missing: Option<MissingCoverage>,
    /// Optional replacement churn.
    pub churn: Option<ReplacementChurn>,
}

/// Stream tags decorrelating the per-drive coins of the different
/// perturbations under one scenario seed.
const STREAM_MISSING: u64 = 0x4D49_5353; // "MISS"
const STREAM_CHURN: u64 = 0x4348_524E; // "CHRN"

/// The per-drive scenario RNG: seeded from the scenario seed, a
/// perturbation stream tag and the drive id, so adding or removing one
/// perturbation never re-rolls another's coins.
fn drive_coin(seed: u64, stream: u64, id: DriveId) -> StdRng {
    StdRng::seed_from_u64(derive_seed(derive_seed(seed, stream), u64::from(id.0)))
}

/// A drive record decomposed into parts the perturbations can edit.
struct EditableDrive {
    id: DriveId,
    model: DriveModel,
    deploy_day: u32,
    initial_age_days: u32,
    failure: Option<FailureRecord>,
    /// Day-major `[attr][raw, norm]` flat values, as stored by
    /// [`DriveRecord`].
    values: Vec<f32>,
    n_days: u32,
}

impl EditableDrive {
    /// Read a record back into its flat-value layout. The f64 → f32 round
    /// trip is exact: the record stores f32 and widens on read.
    fn from_record(d: &DriveRecord) -> EditableDrive {
        let attrs = d.model.attributes();
        let mut values = Vec::with_capacity(d.n_days() as usize * attrs.len() * 2);
        for day in d.deploy_day..=d.last_day() {
            for &attr in attrs {
                for &kind in &ValueKind::BOTH {
                    let v = d
                        .value_on(day, FeatureId { attr, kind })
                        .unwrap_or(f64::NAN);
                    // Narrowing an f64 that holds an
                    // exact f32 back to f32 is lossless
                    values.push(v as f32);
                }
            }
        }
        EditableDrive {
            id: d.id,
            model: d.model,
            deploy_day: d.deploy_day,
            initial_age_days: d.initial_age_days,
            failure: d.failure,
            values,
            n_days: d.n_days(),
        }
    }

    fn into_record(self) -> DriveRecord {
        DriveRecord::from_flat_values(
            self.id,
            self.model,
            self.deploy_day,
            self.initial_age_days,
            self.failure,
            self.values,
            self.n_days,
        )
    }

    /// Flat-value stride of one day.
    fn stride(&self) -> usize {
        2 * self.model.attributes().len()
    }

    /// Mutable `[raw, norm]` pair of `attr` on the day at `day_offset`.
    fn cells_mut(&mut self, day_offset: usize, attr_idx: usize) -> &mut [f32] {
        let base = day_offset * self.stride() + 2 * attr_idx;
        &mut self.values[base..base + 2]
    }
}

/// A churned-out drive's telemetry tail, waiting for its fresh id.
///
/// Every perturbation except the replacement's *id* is decidable per
/// drive, so the streaming generator can apply the scenario inside each
/// worker and only the id assignment (sequential, in victim order, past
/// the densest original id) happens at the in-order merge point.
#[derive(Debug)]
pub(crate) struct PendingReplacement {
    model: DriveModel,
    deploy_day: u32,
    failure: Option<FailureRecord>,
    values: Vec<f32>,
    n_days: u32,
}

impl PendingReplacement {
    /// Materialize the replacement under its assigned id. A replacement is
    /// a fresh drive in the same slot (`initial_age_days == 0`); the
    /// carried telemetry tail is a modelling shortcut, not a wear claim.
    pub(crate) fn into_record(self, id: DriveId) -> DriveRecord {
        DriveRecord::from_flat_values(
            id,
            self.model,
            self.deploy_day,
            0,
            self.failure,
            self.values,
            self.n_days,
        )
    }
}

/// Apply `scenario` to a single drive: the firmware → missing → churn
/// cascade, minus the replacement-id assignment (returned as a
/// [`PendingReplacement`] for the caller to number in victim order).
///
/// Every perturbation is drive-local — firmware and missing edit cells in
/// place, and the churn coin is a fresh per-drive RNG — so applying this
/// per drive (in any grouping) and then numbering the pending replacements
/// in drive order is *bit-identical* to the whole-fleet
/// [`apply_scenario`], which is itself built on this function.
///
/// The caller must have [`validate`]d the scenario.
pub(crate) fn apply_scenario_to_drive(
    record: &DriveRecord,
    scenario: &ScenarioConfig,
) -> (DriveRecord, Option<PendingReplacement>) {
    let mut drive = EditableDrive::from_record(record);
    if let Some(rollout) = &scenario.firmware {
        firmware_drive(&mut drive, rollout);
    }
    if let Some(missing) = &scenario.missing {
        missing_drive(&mut drive, missing, scenario.seed);
    }
    let pending = scenario
        .churn
        .as_ref()
        .and_then(|churn| churn_drive(&mut drive, churn, scenario.seed));
    (drive.into_record(), pending)
}

/// Apply `scenario` to `fleet`, returning the perturbed fleet. The input
/// fleet is untouched; an all-`None` scenario returns a bit-identical
/// copy.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidConfig`] when a fraction lies outside
/// `[0, 1]`, when [`MissingCoverage::attr`] is `MWI`, or when a
/// [`FirmwareRollout::raw_scale`] is not finite.
pub fn apply_scenario(fleet: &Fleet, scenario: &ScenarioConfig) -> Result<Fleet, DatasetError> {
    validate(scenario)?;
    let mut records = Vec::with_capacity(fleet.drives().len());
    let mut pending = Vec::new();
    for record in fleet.drives() {
        let (out, replacement) = apply_scenario_to_drive(record, scenario);
        records.push(out);
        pending.extend(replacement);
    }
    // Replacement ids continue past the densest existing id, in victim
    // order, so the perturbed fleet's ids stay unique and deterministic.
    let first_id = records.iter().map(|d| d.id.0).max().map_or(0, |m| m + 1);
    for (id, replacement) in (first_id..).zip(pending) {
        records.push(replacement.into_record(DriveId(id)));
    }
    Ok(Fleet::from_records(fleet.config().clone(), records))
}

pub(crate) fn validate(scenario: &ScenarioConfig) -> Result<(), DatasetError> {
    let invalid = |message: String| DatasetError::InvalidConfig { message };
    if let Some(r) = &scenario.firmware {
        if !r.raw_scale.is_finite() {
            return Err(invalid(format!(
                "firmware raw_scale must be finite, got {}",
                r.raw_scale
            )));
        }
    }
    if let Some(m) = &scenario.missing {
        if m.attr == SmartAttribute::Mwi {
            return Err(invalid(
                "missing coverage cannot target MWI: the pipeline's wear-out \
                 grouping reads it on every drive"
                    .to_string(),
            ));
        }
        if !(0.0..=1.0).contains(&m.batch_fraction) {
            return Err(invalid(format!(
                "missing batch_fraction must lie in [0, 1], got {}",
                m.batch_fraction
            )));
        }
    }
    if let Some(c) = &scenario.churn {
        if !(0.0..=1.0).contains(&c.fraction) {
            return Err(invalid(format!(
                "churn fraction must lie in [0, 1], got {}",
                c.fraction
            )));
        }
    }
    Ok(())
}

fn firmware_drive(drive: &mut EditableDrive, rollout: &FirmwareRollout) {
    if drive.model != rollout.model {
        return;
    }
    let Some(attr_idx) = drive.model.attribute_index(rollout.attr) else {
        return;
    };
    let first_offset = rollout.day.saturating_sub(drive.deploy_day) as usize;
    if rollout.day < drive.deploy_day {
        // Deployed after the rollout: the whole record is new-firmware.
    } else if first_offset >= drive.n_days as usize {
        return; // retired before the rollout
    }
    for day_offset in first_offset..drive.n_days as usize {
        let cells = drive.cells_mut(day_offset, attr_idx);
        cells[0] *= rollout.raw_scale;
        if rollout.invert_norm {
            cells[1] = 100.0 - cells[1];
        }
    }
}

fn missing_drive(drive: &mut EditableDrive, missing: &MissingCoverage, seed: u64) {
    if drive.model.vendor() != missing.vendor {
        return;
    }
    let Some(attr_idx) = drive.model.attribute_index(missing.attr) else {
        return;
    };
    let in_batch = drive_coin(seed, STREAM_MISSING, drive.id).random_bool(missing.batch_fraction);
    if !in_batch {
        return;
    }
    for day_offset in 0..drive.n_days as usize {
        drive.cells_mut(day_offset, attr_idx).fill(f32::NAN);
    }
}

fn churn_drive(
    drive: &mut EditableDrive,
    churn: &ReplacementChurn,
    seed: u64,
) -> Option<PendingReplacement> {
    let last_day = drive.deploy_day + drive.n_days.saturating_sub(1);
    let eligible = drive.deploy_day < churn.day && last_day >= churn.day;
    if !eligible || !drive_coin(seed, STREAM_CHURN, drive.id).random_bool(churn.fraction) {
        return None;
    }
    let keep_days = (churn.day - drive.deploy_day) as usize;
    let stride = drive.stride();
    let tail = drive.values.split_off(keep_days * stride);
    let tail_days = drive.n_days - keep_days as u32;
    drive.n_days = keep_days as u32;
    Some(PendingReplacement {
        model: drive.model,
        deploy_day: churn.day,
        failure: drive.failure.take(),
        values: tail,
        n_days: tail_days,
    })
}

/// The mixed-vendor fleet preset of the chaos suite: all three vendors,
/// four models, failure rates hot enough that a short window still holds
/// positives.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidConfig`] if `days` is zero (propagated
/// from the fleet builder).
pub fn mixed_vendor_config(days: u32, seed: u64) -> Result<FleetConfig, DatasetError> {
    FleetConfig::builder()
        .days(days)
        .seed(seed)
        .drives(DriveModel::Ma1, 12)
        .drives(DriveModel::Mb2, 10)
        .drives(DriveModel::Mc1, 20)
        .drives(DriveModel::Mc2, 8)
        .failure_scale(8.0)
        .build()
}

/// Row-level corruption to inject into an exported SMART CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CsvChaos {
    /// Rows re-delivered immediately after themselves.
    pub duplicates: usize,
    /// Stale re-deliveries: a run's first row re-inserted later in the run.
    pub out_of_order: usize,
    /// Unparseable lines spliced between rows.
    pub malformed: usize,
}

/// Corrupt `csv` with `chaos` under `seed`, returning the corrupted text
/// and the exact [`SkipCounts`] tolerant ingestion reports for it.
///
/// Every insertion keeps drive runs shard-safe (inserted rows carry the
/// open run's id, or no id at all), so the returned counts hold at any
/// worker count and shard size; strict ingestion fails on the first
/// inserted fault.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidConfig`] when `csv` has no data rows to
/// corrupt, or `out_of_order > 0` with no run of at least two rows.
pub fn inject_csv_chaos(
    csv: &str,
    chaos: &CsvChaos,
    seed: u64,
) -> Result<(String, SkipCounts), DatasetError> {
    let invalid = |message: &str| DatasetError::InvalidConfig {
        message: message.to_string(),
    };
    let lines: Vec<&str> = csv.lines().collect();
    if lines.len() < 2 {
        return Err(invalid("chaos injection needs at least one data row"));
    }
    let data = &lines[1..];
    // Leading drive id per data row; runs are maximal same-id stretches.
    let ids: Vec<Option<&str>> = data.iter().map(|l| l.split(',').next()).collect();
    let run_start: Vec<usize> = (0..data.len())
        .map(|i| {
            if i > 0 && ids[i] == ids[i - 1] {
                0 // patched below: carries the run's start index
            } else {
                i
            }
        })
        .collect();
    let mut run_start = run_start;
    for i in 1..run_start.len() {
        if ids[i] == ids[i - 1] {
            run_start[i] = run_start[i - 1];
        }
    }

    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x4348_414F)); // "CHAO"
                                                                         // Anchors are data-row indices; the extra line goes right after its
                                                                         // anchor. Duplicates may anchor anywhere; out-of-order anchors need a
                                                                         // row that is not its run's first (so the re-inserted first row is
                                                                         // stale by ≥ 2 days, not a plain duplicate).
    let dup_anchors = pick(&mut rng, data.len(), chaos.duplicates)
        .ok_or_else(|| invalid("more duplicates requested than data rows"))?;
    let ooo_candidates: Vec<usize> = (0..data.len()).filter(|&i| run_start[i] != i).collect();
    let ooo_picks = pick(&mut rng, ooo_candidates.len(), chaos.out_of_order)
        .ok_or_else(|| invalid("out-of-order injection needs a run of at least two rows"))?;
    let mal_anchors = pick(&mut rng, data.len(), chaos.malformed)
        .ok_or_else(|| invalid("more malformed rows requested than data rows"))?;

    let mut extra: Vec<Vec<String>> = vec![Vec::new(); data.len()];
    for &i in &dup_anchors {
        extra[i].push(data[i].to_string());
    }
    for &p in &ooo_picks {
        let i = ooo_candidates[p];
        extra[i].push(data[run_start[i]].to_string());
    }
    for &i in &mal_anchors {
        extra[i].push("#chaos#".to_string());
    }

    let mut out = String::with_capacity(csv.len() + 64 * (chaos.total()));
    out.push_str(lines[0]);
    out.push('\n');
    for (i, line) in data.iter().enumerate() {
        out.push_str(line);
        out.push('\n');
        for inserted in &extra[i] {
            out.push_str(inserted);
            out.push('\n');
        }
    }

    let expected = SkipCounts {
        duplicate_rows: chaos.duplicates as u64,
        out_of_order_rows: chaos.out_of_order as u64,
        malformed_rows: chaos.malformed as u64,
        backfilled_days: 0,
    };
    Ok((out, expected))
}

impl CsvChaos {
    /// Total inserted lines.
    pub fn total(&self) -> usize {
        self.duplicates + self.out_of_order + self.malformed
    }
}

/// `k` distinct indices below `n`, or `None` when `k > n` (always `Some`
/// for `k == 0`).
fn pick(rng: &mut StdRng, n: usize, k: usize) -> Option<Vec<usize>> {
    if k == 0 {
        return Some(Vec::new());
    }
    if k > n {
        return None;
    }
    Some(sample_without_replacement(rng, n, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::SmartAttribute;
    use crate::csv::export_smart_csv;
    use crate::ingest::{import_smart_csv_sharded_with_stats, IngestConfig, IngestTolerance};
    use crate::tickets::tickets_from_summaries;

    fn small_fleet() -> Fleet {
        let config = mixed_vendor_config(150, 3).unwrap();
        Fleet::generate(&config)
    }

    #[test]
    fn empty_scenario_is_identity() {
        let fleet = small_fleet();
        let out = apply_scenario(&fleet, &ScenarioConfig::default()).unwrap();
        assert_eq!(out, fleet);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let fleet = small_fleet();
        let scenario = ScenarioConfig {
            seed: 9,
            firmware: Some(FirmwareRollout {
                day: 60,
                model: DriveModel::Mc1,
                attr: SmartAttribute::Rsc,
                raw_scale: 512.0,
                invert_norm: true,
            }),
            missing: Some(MissingCoverage {
                vendor: Vendor::Ma,
                attr: SmartAttribute::Uce,
                batch_fraction: 0.5,
            }),
            churn: Some(ReplacementChurn {
                day: 75,
                fraction: 0.3,
            }),
        };
        let a = apply_scenario(&fleet, &scenario).unwrap();
        let b = apply_scenario(&fleet, &scenario).unwrap();
        // NaN cells defeat PartialEq; CSV export (where NaN prints
        // stably) is the byte-faithful comparison.
        let csv = |f: &Fleet| {
            let mut buf = Vec::new();
            export_smart_csv(f, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        assert_eq!(csv(&a), csv(&b));
        assert_eq!(a.summaries(), b.summaries());
        assert_ne!(csv(&a), csv(&fleet));
    }

    #[test]
    fn firmware_rollout_rescales_from_day_onward() {
        let fleet = small_fleet();
        let scenario = ScenarioConfig {
            firmware: Some(FirmwareRollout {
                day: 60,
                model: DriveModel::Mc1,
                attr: SmartAttribute::Rsc,
                raw_scale: 512.0,
                invert_norm: true,
            }),
            ..ScenarioConfig::default()
        };
        let out = apply_scenario(&fleet, &scenario).unwrap();
        let raw = FeatureId::raw(SmartAttribute::Rsc);
        let norm = FeatureId::normalized(SmartAttribute::Rsc);
        let mut checked_pre = false;
        let mut checked_post = false;
        for (before, after) in fleet.drives().iter().zip(out.drives()) {
            if before.model != DriveModel::Mc1 {
                assert_eq!(before, after);
                continue;
            }
            for day in before.deploy_day..=before.last_day() {
                let (b_raw, a_raw) = (
                    before.value_on(day, raw).unwrap(),
                    after.value_on(day, raw).unwrap(),
                );
                let (b_norm, a_norm) = (
                    before.value_on(day, norm).unwrap(),
                    after.value_on(day, norm).unwrap(),
                );
                if day < 60 {
                    assert_eq!(b_raw, a_raw);
                    assert_eq!(b_norm, a_norm);
                    checked_pre = true;
                } else {
                    // f32 arithmetic widened to f64: compare in f32.
                    // Test-side exactness check.
                    assert_eq!((b_raw as f32) * 512.0, a_raw as f32, "day {day}");
                    assert_eq!(100.0 - (b_norm as f32), a_norm as f32);
                    checked_post = true;
                }
            }
        }
        assert!(checked_pre && checked_post);
    }

    #[test]
    fn missing_coverage_blanks_a_batch_only() {
        let fleet = small_fleet();
        let scenario = ScenarioConfig {
            seed: 4,
            missing: Some(MissingCoverage {
                vendor: Vendor::Mc,
                attr: SmartAttribute::Uce,
                batch_fraction: 0.5,
            }),
            ..ScenarioConfig::default()
        };
        let out = apply_scenario(&fleet, &scenario).unwrap();
        let raw = FeatureId::raw(SmartAttribute::Uce);
        let mut blanked = 0usize;
        let mut intact = 0usize;
        for (before, after) in fleet.drives().iter().zip(out.drives()) {
            if before.model.vendor() != Vendor::Mc {
                assert_eq!(before, after);
                continue;
            }
            let first = after.value_on(after.deploy_day, raw).unwrap();
            if first.is_nan() {
                blanked += 1;
                // Every day of the drive is blanked, raw and normalized.
                for day in after.deploy_day..=after.last_day() {
                    assert!(after.value_on(day, raw).unwrap().is_nan());
                    assert!(after
                        .value_on(day, FeatureId::normalized(SmartAttribute::Uce))
                        .unwrap()
                        .is_nan());
                }
            } else {
                intact += 1;
                assert_eq!(before, after);
            }
        }
        assert!(blanked > 0 && intact > 0, "{blanked} / {intact}");
    }

    #[test]
    fn missing_mwi_is_rejected() {
        let fleet = small_fleet();
        let scenario = ScenarioConfig {
            missing: Some(MissingCoverage {
                vendor: Vendor::Mc,
                attr: SmartAttribute::Mwi,
                batch_fraction: 0.5,
            }),
            ..ScenarioConfig::default()
        };
        assert!(apply_scenario(&fleet, &scenario).is_err());
    }

    #[test]
    fn churn_splits_victims_and_preserves_telemetry() {
        let fleet = small_fleet();
        let scenario = ScenarioConfig {
            seed: 2,
            churn: Some(ReplacementChurn {
                day: 75,
                fraction: 0.4,
            }),
            ..ScenarioConfig::default()
        };
        let out = apply_scenario(&fleet, &scenario).unwrap();
        let n = fleet.drives().len();
        assert!(out.drives().len() > n, "no drive churned");
        let mwi = FeatureId::normalized(SmartAttribute::Mwi);
        for replacement in &out.drives()[n..] {
            assert_eq!(replacement.deploy_day, 75);
            assert_eq!(replacement.initial_age_days, 0);
            // The replacement's telemetry equals the original tail.
            let original = fleet
                .drives()
                .iter()
                .find(|d| {
                    d.observed_on(75)
                        && d.value_on(75, mwi) == replacement.value_on(75, mwi)
                        && d.model == replacement.model
                })
                .expect("matching original");
            assert_eq!(original.last_day(), replacement.last_day());
            // And its truncated front keeps no failure.
            let front = &out.drives()[original.id.0 as usize];
            assert!(front.failure.is_none());
            assert_eq!(front.last_day(), 74);
        }
        // Total observed days are conserved.
        let days = |f: &Fleet| {
            f.drives()
                .iter()
                .map(|d| u64::from(d.n_days()))
                .sum::<u64>()
        };
        assert_eq!(days(&fleet), days(&out));
    }

    #[test]
    fn fraction_bounds_are_validated() {
        let fleet = small_fleet();
        for fraction in [-0.1, 1.1] {
            let scenario = ScenarioConfig {
                churn: Some(ReplacementChurn { day: 10, fraction }),
                ..ScenarioConfig::default()
            };
            assert!(apply_scenario(&fleet, &scenario).is_err(), "{fraction}");
        }
    }

    #[test]
    fn csv_chaos_counts_are_exact_under_tolerant_ingest() {
        let fleet = small_fleet();
        let tickets = tickets_from_summaries(&fleet.summaries());
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        let chaos = CsvChaos {
            duplicates: 5,
            out_of_order: 3,
            malformed: 4,
        };
        let (dirty, expected) = inject_csv_chaos(&clean, &chaos, 17).unwrap();
        for workers in [1, 4] {
            let ingest = IngestConfig {
                shard_rows: 37,
                workers,
                tolerance: IngestTolerance::Tolerant,
                ..IngestConfig::default()
            };
            let (recovered, stats) = import_smart_csv_sharded_with_stats(
                dirty.as_bytes(),
                &tickets,
                fleet.config().clone(),
                &ingest,
            )
            .unwrap();
            assert_eq!(stats.skipped, expected, "workers={workers}");
            assert_eq!(recovered.drives().len(), fleet.drives().len());
        }
    }

    #[test]
    fn csv_chaos_is_rejected_by_strict_ingest() {
        let fleet = small_fleet();
        let tickets = tickets_from_summaries(&fleet.summaries());
        let mut buf = Vec::new();
        export_smart_csv(&fleet, &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        let chaos = CsvChaos {
            duplicates: 1,
            out_of_order: 1,
            malformed: 1,
        };
        let (dirty, _) = inject_csv_chaos(&clean, &chaos, 17).unwrap();
        let err = import_smart_csv_sharded_with_stats(
            dirty.as_bytes(),
            &tickets,
            fleet.config().clone(),
            &IngestConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DatasetError::ParseCsv { .. }));
    }
}
