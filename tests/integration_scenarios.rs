//! Table-driven chaos suite: adversarial fleet scenarios × ingest
//! tolerance modes, end to end through export → (chaos injection) →
//! sharded ingest → sampling → WEFR selection.
//!
//! Every row asserts three invariants:
//!
//! 1. **Fleet determinism** — the ingested fleet is byte-identical at
//!    workers 1 and 4 (compared via CSV export, which prints NaN stably).
//! 2. **Exact skip accounting** — tolerant ingest reports precisely the
//!    injected duplicate/out-of-order/malformed counts, at every worker
//!    count; strict mode reports zero skips on clean input and errors on
//!    corrupted input.
//! 3. **Selection stability** — rows whose corruption is recoverable
//!    (row-level chaos under tolerant ingest) must reproduce the clean
//!    baseline's WEFR selected set exactly; fleet-level perturbations
//!    (firmware re-map, missing vendor batch, churn) must still produce a
//!    deterministic, non-empty selection overlapping the baseline.

use smart_dataset::csv::export_smart_csv;
use smart_dataset::{
    apply_scenario, import_smart_csv_sharded_with_stats, inject_csv_chaos, mixed_vendor_config,
    tickets_from_summaries, CsvChaos, DatasetError, DriveModel, FirmwareRollout, Fleet,
    IngestConfig, IngestTolerance, MissingCoverage, ReplacementChurn, ScenarioConfig, SkipCounts,
    SmartAttribute, TroubleTicket, Vendor,
};
use smart_pipeline::{base_matrix, collect_samples, SamplingConfig};
use wefr_core::{SelectionInput, Wefr};

const DAYS: u32 = 240;
const FLEET_SEED: u64 = 23;
const SCENARIO_SEED: u64 = 9;

/// What a table row expects from ingesting its corrupted CSV.
enum Expect {
    /// Ingest succeeds with exactly these skip counts; when
    /// `recovers_clean`, the ingested fleet — and therefore the WEFR
    /// selected set — must equal the uncorrupted baseline bit for bit.
    Ok {
        skips: SkipCounts,
        recovers_clean: bool,
    },
    /// Strict ingest must refuse the input with a `ParseCsv` error.
    StrictError,
}

struct Row {
    name: &'static str,
    /// Fleet-level perturbation applied before export.
    scenario: ScenarioConfig,
    /// Row-level corruption injected into the exported CSV.
    chaos: CsvChaos,
    tolerance: IngestTolerance,
    expect: Expect,
}

fn firmware() -> FirmwareRollout {
    FirmwareRollout {
        day: DAYS / 2,
        model: DriveModel::Mc1,
        attr: SmartAttribute::Rsc,
        raw_scale: 512.0,
        invert_norm: true,
    }
}

fn missing() -> MissingCoverage {
    MissingCoverage {
        vendor: Vendor::Mc,
        attr: SmartAttribute::Uce,
        batch_fraction: 0.5,
    }
}

fn churn() -> ReplacementChurn {
    ReplacementChurn {
        day: DAYS / 3,
        fraction: 0.3,
    }
}

fn rows() -> Vec<Row> {
    let clean_ok = |recovers_clean| Expect::Ok {
        skips: SkipCounts::default(),
        recovers_clean,
    };
    vec![
        Row {
            name: "clean fleet, strict ingest",
            scenario: ScenarioConfig::default(),
            chaos: CsvChaos::default(),
            tolerance: IngestTolerance::Strict,
            expect: clean_ok(true),
        },
        Row {
            name: "clean fleet, tolerant ingest is bit-identical",
            scenario: ScenarioConfig::default(),
            chaos: CsvChaos::default(),
            tolerance: IngestTolerance::Tolerant,
            expect: clean_ok(true),
        },
        Row {
            name: "duplicate rows, tolerant",
            scenario: ScenarioConfig::default(),
            chaos: CsvChaos {
                duplicates: 6,
                ..CsvChaos::default()
            },
            tolerance: IngestTolerance::Tolerant,
            expect: Expect::Ok {
                skips: SkipCounts {
                    duplicate_rows: 6,
                    ..SkipCounts::default()
                },
                recovers_clean: true,
            },
        },
        Row {
            name: "out-of-order rows, tolerant",
            scenario: ScenarioConfig::default(),
            chaos: CsvChaos {
                out_of_order: 4,
                ..CsvChaos::default()
            },
            tolerance: IngestTolerance::Tolerant,
            expect: Expect::Ok {
                skips: SkipCounts {
                    out_of_order_rows: 4,
                    ..SkipCounts::default()
                },
                recovers_clean: true,
            },
        },
        Row {
            name: "malformed lines, tolerant",
            scenario: ScenarioConfig::default(),
            chaos: CsvChaos {
                malformed: 5,
                ..CsvChaos::default()
            },
            tolerance: IngestTolerance::Tolerant,
            expect: Expect::Ok {
                skips: SkipCounts {
                    malformed_rows: 5,
                    ..SkipCounts::default()
                },
                recovers_clean: true,
            },
        },
        Row {
            name: "every chaos kind at once, tolerant",
            scenario: ScenarioConfig::default(),
            chaos: CsvChaos {
                duplicates: 3,
                out_of_order: 2,
                malformed: 3,
            },
            tolerance: IngestTolerance::Tolerant,
            expect: Expect::Ok {
                skips: SkipCounts {
                    duplicate_rows: 3,
                    out_of_order_rows: 2,
                    malformed_rows: 3,
                    backfilled_days: 0,
                },
                recovers_clean: true,
            },
        },
        Row {
            name: "chaos rejected by strict ingest",
            scenario: ScenarioConfig::default(),
            chaos: CsvChaos {
                duplicates: 1,
                out_of_order: 1,
                malformed: 1,
            },
            tolerance: IngestTolerance::Strict,
            expect: Expect::StrictError,
        },
        Row {
            name: "firmware rollout re-maps RSC mid-window",
            scenario: ScenarioConfig {
                seed: SCENARIO_SEED,
                firmware: Some(firmware()),
                ..ScenarioConfig::default()
            },
            chaos: CsvChaos::default(),
            tolerance: IngestTolerance::Strict,
            expect: clean_ok(false),
        },
        Row {
            name: "vendor batch missing UCE (NaN policy end to end)",
            scenario: ScenarioConfig {
                seed: SCENARIO_SEED,
                missing: Some(missing()),
                ..ScenarioConfig::default()
            },
            chaos: CsvChaos::default(),
            tolerance: IngestTolerance::Tolerant,
            expect: clean_ok(false),
        },
        Row {
            name: "replacement churn mid-window",
            scenario: ScenarioConfig {
                seed: SCENARIO_SEED,
                churn: Some(churn()),
                ..ScenarioConfig::default()
            },
            chaos: CsvChaos::default(),
            tolerance: IngestTolerance::Strict,
            expect: clean_ok(false),
        },
        Row {
            name: "perturbed fleet under full chaos, tolerant",
            scenario: ScenarioConfig {
                seed: SCENARIO_SEED,
                firmware: Some(firmware()),
                missing: Some(missing()),
                churn: Some(churn()),
            },
            chaos: CsvChaos {
                duplicates: 4,
                out_of_order: 2,
                malformed: 4,
            },
            tolerance: IngestTolerance::Tolerant,
            expect: Expect::Ok {
                skips: SkipCounts {
                    duplicate_rows: 4,
                    out_of_order_rows: 2,
                    malformed_rows: 4,
                    backfilled_days: 0,
                },
                recovers_clean: false,
            },
        },
    ]
}

fn fleet_csv(fleet: &Fleet) -> String {
    let mut buf = Vec::new();
    export_smart_csv(fleet, &mut buf).expect("export");
    String::from_utf8(buf).expect("utf8")
}

/// WEFR's globally selected feature names for a fleet, via the default
/// sampling pipeline on the MC1 cohort.
fn selected_names(fleet: &Fleet) -> Vec<String> {
    let samples = collect_samples(
        fleet,
        DriveModel::Mc1,
        0,
        DAYS - 1,
        &SamplingConfig::default(),
    )
    .expect("samples");
    let (matrix, labels, _) = base_matrix(fleet, DriveModel::Mc1, &samples).expect("matrix");
    assert!(labels.iter().any(|&l| l), "cohort needs failures");
    Wefr::default()
        .select(&SelectionInput::basic(&matrix, &labels))
        .expect("selection")
        .global
        .selected_names
}

fn jaccard(a: &[String], b: &[String]) -> f64 {
    let sa: std::collections::BTreeSet<&String> = a.iter().collect();
    let sb: std::collections::BTreeSet<&String> = b.iter().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    if union == 0 {
        1.0
    } else {
        // Set sizes are tiny and exact in f64.
        inter as f64 / union as f64
    }
}

#[test]
fn scenario_table_drives_ingest_and_selection_end_to_end() {
    let clean = Fleet::generate(&mixed_vendor_config(DAYS, FLEET_SEED).expect("config"));
    assert!(clean.n_failures() > 0, "chaos substrate needs failures");
    let tickets: Vec<TroubleTicket> = tickets_from_summaries(&clean.summaries());
    let clean_csv = fleet_csv(&clean);
    let baseline = selected_names(&clean);
    assert!(!baseline.is_empty(), "baseline selection must be non-empty");

    let table = rows();
    assert!(table.len() >= 8, "chaos table must keep at least 8 rows");
    assert!(
        table.iter().any(|row| matches!(
            row.expect,
            Expect::Ok {
                recovers_clean: true,
                ..
            }
        )),
        "no row is recovers_clean, so selection stability is never checked"
    );
    for row in &table {
        // Fleet-level perturbation, then row-level CSV corruption.
        let perturbed = apply_scenario(&clean, &row.scenario).expect(row.name);
        let perturbed_csv = fleet_csv(&perturbed);
        let (dirty, injected) =
            inject_csv_chaos(&perturbed_csv, &row.chaos, SCENARIO_SEED).expect(row.name);

        let ingest_at = |workers: usize| {
            let ingest = IngestConfig {
                shard_rows: 37,
                workers,
                tolerance: row.tolerance,
                ..IngestConfig::default()
            };
            import_smart_csv_sharded_with_stats(
                dirty.as_bytes(),
                &tickets,
                clean.config().clone(),
                &ingest,
            )
        };

        match &row.expect {
            Expect::StrictError => {
                for workers in [1, 4] {
                    let err = ingest_at(workers).expect_err(row.name);
                    assert!(
                        matches!(err, DatasetError::ParseCsv { .. }),
                        "{}: workers={workers}: {err:?}",
                        row.name
                    );
                }
            }
            Expect::Ok {
                skips,
                recovers_clean,
            } => {
                assert_eq!(
                    injected, *skips,
                    "{}: injector's predicted counts disagree with the row",
                    row.name
                );
                let (fleet_1, stats_1) = ingest_at(1).expect(row.name);
                let (fleet_4, stats_4) = ingest_at(4).expect(row.name);
                // Exact skip accounting, identical at every worker count.
                assert_eq!(stats_1.skipped, *skips, "{}: workers=1", row.name);
                assert_eq!(stats_4.skipped, *skips, "{}: workers=4", row.name);
                // Fleet determinism across worker counts (CSV compare:
                // NaN-bearing fleets defeat PartialEq).
                let csv_1 = fleet_csv(&fleet_1);
                assert_eq!(csv_1, fleet_csv(&fleet_4), "{}: workers", row.name);
                // Recoverable chaos reconstructs the uncorrupted bytes.
                assert_eq!(
                    csv_1, perturbed_csv,
                    "{}: tolerant ingest must shed the chaos exactly",
                    row.name
                );

                let selected = selected_names(&fleet_1);
                assert!(!selected.is_empty(), "{}: empty selection", row.name);
                // Selection is deterministic end to end: re-ingesting and
                // re-selecting reproduces the same set.
                assert_eq!(
                    selected,
                    selected_names(&fleet_4),
                    "{}: selection must not depend on worker count",
                    row.name
                );
                let overlap = jaccard(&selected, &baseline);
                if *recovers_clean {
                    assert_eq!(
                        selected, baseline,
                        "{}: recovered fleet must reproduce the baseline set",
                        row.name
                    );
                } else {
                    assert!(
                        overlap > 0.0,
                        "{}: perturbed selection shares nothing with baseline",
                        row.name
                    );
                }
            }
        }
    }

    // The clean CSV itself must round-trip under both modes — anchor for
    // the `recovers_clean` rows above.
    let strict = IngestConfig::default();
    let (round, stats) = import_smart_csv_sharded_with_stats(
        clean_csv.as_bytes(),
        &tickets,
        clean.config().clone(),
        &strict,
    )
    .expect("clean round trip");
    assert_eq!(stats.skipped, SkipCounts::default());
    assert_eq!(fleet_csv(&round), clean_csv);
}
