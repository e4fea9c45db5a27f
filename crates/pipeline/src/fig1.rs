//! Fig. 1 survival census report — the measured (streamed) population's
//! survival rate over `MWI_N`, per model, with the paper's change-point
//! verdict attached (§III-C / Fig. 1 of the paper).
//!
//! This is the golden artifact pinned at a fixed paper-mix seed: the
//! report is fully determined by `(FleetConfig, GenConfig)` because the
//! streaming generator is bit-identical at every chunk-size/worker
//! setting, so `results/census_fig1.json` regenerates byte-identically
//! on any machine (like `flame_quickstart.svg`). The integration golden
//! test recomputes it in-process; `bench_gen_stream --out` rewrites it.

use smart_changepoint::survival::SurvivalCurve;
use smart_dataset::gen::stream::GenConfig;
use smart_dataset::{Census, DriveModel, FleetConfig};

use crate::error::PipelineError;

/// Census population of the pinned report: large enough that every model's
/// curve has a populated wear range, small enough that the committed JSON
/// stays compact and CI can regenerate it in seconds on one core.
pub const FIG1_CENSUS_TOTAL: u32 = 2_000;

/// Fixed seed of the pinned report.
pub const FIG1_SEED: u64 = 2021;

/// Minimum drives per MWI bucket before a survival point is reported —
/// keeps the tails of small per-model populations out of the curve.
pub const FIG1_MIN_BUCKET: usize = 5;

/// One survival point: of `total` drives that ended the window at this
/// `MWI_N`, `survivors` never failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Point {
    /// Wear bucket (rounded `MWI_N`, 1..=100).
    pub mwi: u32,
    /// Drives whose final `MWI_N` rounds into this bucket.
    pub total: usize,
    /// Of those, drives that survived the whole window.
    pub survivors: usize,
    /// `survivors / total`.
    pub rate: f64,
}

json::impl_to_json!(Fig1Point {
    mwi,
    total,
    survivors,
    rate
});

/// The detected survival change point of one model's curve, when the
/// ±2.5 z-score rule finds one.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1ChangePoint {
    /// `MWI_N` bucket where the survival rate shifts.
    pub mwi_threshold: u32,
    /// BOCPD change probability at that bucket.
    pub probability: f64,
    /// Z-score of that probability against the curve's background.
    pub z_score: f64,
}

json::impl_to_json!(Fig1ChangePoint {
    mwi_threshold,
    probability,
    z_score
});

/// One model's measured survival curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1ModelCurve {
    /// Model name (paper spelling, e.g. `"MC1"`).
    pub model: String,
    /// Drives of this model in the census.
    pub drives: usize,
    /// Of those, drives that failed inside the window.
    pub failures: usize,
    /// Change point detected on the curve, when significant.
    pub change_point: Option<Fig1ChangePoint>,
    /// Survival points, descending `MWI_N` (healthy wear first).
    pub points: Vec<Fig1Point>,
}

json::impl_to_json!(Fig1ModelCurve {
    model,
    drives,
    failures,
    change_point,
    points
});

/// The full Fig. 1 report: the generating parameters plus one curve per
/// model, in paper order.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Report {
    /// Total census drives (paper population mix).
    pub census_total: u32,
    /// Dataset window length in days.
    pub days: u32,
    /// Fleet seed.
    pub seed: u64,
    /// Minimum drives per reported MWI bucket.
    pub min_bucket: usize,
    /// Per-model curves, in paper model order.
    pub models: Vec<Fig1ModelCurve>,
}

json::impl_to_json!(Fig1Report {
    census_total,
    days,
    seed,
    min_bucket,
    models
});

/// The pinned configuration behind `results/census_fig1.json`: the paper's
/// population mix at [`FIG1_CENSUS_TOTAL`] drives, seed [`FIG1_SEED`],
/// default two-year window.
///
/// # Errors
///
/// Returns [`PipelineError::Dataset`] if the preset is invalid (impossible
/// for the pinned constants; surfaced rather than unwrapped so callers
/// stay panic-free).
pub fn fig1_pinned_config() -> Result<FleetConfig, PipelineError> {
    Ok(FleetConfig::proportional(FIG1_CENSUS_TOTAL, FIG1_SEED)?)
}

/// Build the Fig. 1 report from a measured (streamed) census of `config`.
///
/// The result is independent of `gen`'s chunking and worker count — that
/// is the streaming generator's bit-identity guarantee, and the golden
/// test exercises it by regenerating the committed report under a
/// different `GenConfig`.
///
/// # Errors
///
/// Returns [`PipelineError::Dataset`] when generation fails and
/// [`PipelineError::InvalidInput`] when change-point detection rejects a
/// curve (degenerate survival data).
pub fn fig1_report(
    config: &FleetConfig,
    gen: &GenConfig,
    min_bucket: usize,
) -> Result<Fig1Report, PipelineError> {
    let census = Census::measured(config, gen)?;
    fig1_report_from_census(&census, min_bucket)
}

/// Build the Fig. 1 report from an already-measured census — the path the
/// benchmark uses so the paper-scale population is generated once.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidInput`] when change-point detection
/// rejects a curve (degenerate survival data).
pub fn fig1_report_from_census(
    census: &Census,
    min_bucket: usize,
) -> Result<Fig1Report, PipelineError> {
    let config = census.config();
    let mut models = Vec::with_capacity(DriveModel::ALL.len());
    for model in DriveModel::ALL {
        if config.drives_for(model) == 0 {
            continue;
        }
        let summaries: Vec<_> = census.summaries_of_model(model).collect();
        let failures = summaries.iter().filter(|s| s.is_failed()).count();
        let curve = SurvivalCurve::from_drives(
            summaries.iter().map(|s| (s.final_mwi_n, s.is_failed())),
            min_bucket,
        );
        let change_point = curve
            .detect_change_point()
            .map_err(|e| PipelineError::invalid(format!("fig1 change point for {model}: {e}")))?
            .map(|cp| Fig1ChangePoint {
                mwi_threshold: cp.mwi_threshold,
                probability: cp.probability,
                z_score: cp.z_score,
            });
        models.push(Fig1ModelCurve {
            model: model.name().to_string(),
            drives: summaries.len(),
            failures,
            change_point,
            points: curve
                .points()
                .iter()
                .map(|p| Fig1Point {
                    mwi: p.mwi,
                    total: p.total,
                    survivors: p.survivors,
                    rate: p.rate,
                })
                .collect(),
        });
    }
    Ok(Fig1Report {
        census_total: config.total_drives(),
        days: config.days(),
        seed: config.seed(),
        min_bucket,
        models,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_independent_of_gen_config() {
        let config = FleetConfig::proportional(400, 7).expect("valid config");
        let a = fig1_report(&config, &GenConfig::default(), 3).expect("report");
        let b = fig1_report(
            &config,
            &GenConfig {
                chunk_drives: 17,
                workers: 3,
                max_queued_chunks: 2,
                scenario: None,
            },
            3,
        )
        .expect("report");
        assert_eq!(a, b);
        assert_eq!(crate::report::to_json(&a), crate::report::to_json(&b));
    }

    #[test]
    fn report_counts_are_consistent() {
        let config = FleetConfig::proportional(400, 7).expect("valid config");
        let report = fig1_report(&config, &GenConfig::default(), 3).expect("report");
        assert_eq!(report.census_total, config.total_drives());
        assert_eq!(report.models.len(), DriveModel::ALL.len());
        let drives: usize = report.models.iter().map(|m| m.drives).sum();
        assert_eq!(drives, config.total_drives() as usize);
        for curve in &report.models {
            assert!(curve.failures <= curve.drives, "{}", curve.model);
            for point in &curve.points {
                assert!(point.total >= 3, "{} bucket {}", curve.model, point.mwi);
                assert!(point.survivors <= point.total);
                let expected = point.survivors as f64 / point.total as f64;
                assert!((point.rate - expected).abs() < 1e-12);
            }
            // Points run healthy-to-worn: descending MWI.
            for pair in curve.points.windows(2) {
                assert!(pair[0].mwi > pair[1].mwi, "{}", curve.model);
            }
        }
    }
}
