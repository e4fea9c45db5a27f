//! Experiment drivers for the paper's evaluation (§V): run one
//! feature-selection method through the full train → validate → test
//! pipeline on one drive model, at the paper's fixed per-model recall.

use crate::error::PipelineError;
use crate::evaluate::{
    metrics_at_fixed_recall, score_phase, score_routed, DriveScore, EvalMetrics,
};
use crate::label::SampleRef;
use crate::matrix::{
    base_features, base_features_at, base_matrix, collect_samples, mwi_on, SamplingConfig,
};
use crate::split::{paper_phases, Phase};
use crate::train::{FailurePredictor, PredictorConfig};
use smart_dataset::{DriveModel, FeatureId, Fleet, SmartAttribute};
use wefr_core::wearout::{is_low_wear, split_rows_by_mwi};
use wefr_core::{
    FeatureRanker, ForestRanker, GradientBoostingRanker, GroupSelection, JIndexRanker,
    PearsonRanker, SelectionInput, SpearmanRanker, WearoutSelection, Wefr, WefrConfig,
    WefrSelection,
};

/// Drives in the *planned* side census that wear-out change-point
/// detection reads. The paper detects change points on the *whole fleet's*
/// survival curve (a population statistic); a small experiment fleet
/// cannot estimate it, so each phase consults a synthetic census of this
/// size with the experiment fleet's failure characteristics.
pub const WEAROUT_CENSUS_DRIVES: u32 = 4000;

/// The five state-of-the-art selectors the paper compares against (§II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// Pearson correlation.
    Pearson,
    /// Spearman correlation.
    Spearman,
    /// J-index (Youden).
    JIndex,
    /// Random-Forest permutation importance.
    RandomForest,
    /// Gradient-boosting importance (XGBoost stand-in).
    XgBoost,
}

impl SelectorKind {
    /// All five, in the paper's order.
    pub const ALL: [SelectorKind; 5] = [
        SelectorKind::Pearson,
        SelectorKind::Spearman,
        SelectorKind::JIndex,
        SelectorKind::RandomForest,
        SelectorKind::XgBoost,
    ];

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            SelectorKind::Pearson => "Pearson correlation",
            SelectorKind::Spearman => "Spearman correlation",
            SelectorKind::JIndex => "J-index",
            SelectorKind::RandomForest => "Random Forest",
            SelectorKind::XgBoost => "XGBoost",
        }
    }

    /// Instantiate the ranker.
    pub fn build(self, seed: u64) -> Box<dyn FeatureRanker> {
        match self {
            SelectorKind::Pearson => Box::new(PearsonRanker::new()),
            SelectorKind::Spearman => Box::new(SpearmanRanker::new()),
            SelectorKind::JIndex => Box::new(JIndexRanker::new()),
            SelectorKind::RandomForest => Box::new(ForestRanker::with_seed(seed)),
            SelectorKind::XgBoost => Box::new(GradientBoostingRanker::with_seed(seed)),
        }
    }
}

/// A feature-selection method under evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// All learning features (the paper's "No feature selection" row).
    NoSelection,
    /// One selector keeping a fraction of features. `percent = None` tunes
    /// the fraction on the validation period (the paper tunes 10%–100%).
    Selector {
        /// Which selector.
        kind: SelectorKind,
        /// Fraction in `(0, 1]`, or `None` to tune.
        percent: Option<f64>,
    },
    /// Full WEFR (Algorithm 1, with wear-out updating).
    Wefr,
}

impl Method {
    /// The label used in the paper's tables.
    pub fn label(&self) -> String {
        match self {
            Method::NoSelection => "No feature selection".to_string(),
            Method::Selector { kind, .. } => kind.label().to_string(),
            Method::Wefr => "WEFR".to_string(),
        }
    }
}

/// The per-model recall the paper fixes in Tables VI/VII.
pub fn paper_target_recall(model: DriveModel) -> f64 {
    match model {
        DriveModel::Ma1 => 0.37,
        DriveModel::Ma2 => 0.32,
        DriveModel::Mb1 => 0.34,
        DriveModel::Mb2 => 0.32,
        DriveModel::Mc1 => 0.18,
        DriveModel::Mc2 => 0.19,
    }
}

/// End-to-end experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Training-sample collection policy.
    pub sampling: SamplingConfig,
    /// Prediction-model hyperparameters.
    pub predictor: PredictorConfig,
    /// Fractions tried when tuning a selector's percentage.
    pub tune_grid: Vec<f64>,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            sampling: SamplingConfig::default(),
            predictor: PredictorConfig::default(),
            tune_grid: (1..=10).map(|i| i as f64 / 10.0).collect(),
            seed: 0,
        }
    }
}

impl ExperimentConfig {
    /// A down-scaled configuration for tests and examples (fewer, shallower
    /// trees; coarser tuning grid).
    pub fn quick(seed: u64) -> Self {
        ExperimentConfig {
            predictor: PredictorConfig {
                n_trees: 25,
                max_depth: 8,
                ..PredictorConfig::default()
            },
            tune_grid: vec![0.2, 0.4, 0.6, 0.8, 1.0],
            seed,
            ..ExperimentConfig::default()
        }
    }
}

/// The outcome of running one method on one model.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label (paper table row name).
    pub method: String,
    /// Drive model.
    pub model: DriveModel,
    /// Metrics per test phase.
    pub per_phase: Vec<EvalMetrics>,
    /// Micro-average over the phases.
    pub overall: EvalMetrics,
    /// Fraction of base features the method kept (averaged over phases);
    /// `None` for methods without a meaningful fraction.
    pub selected_fraction: Option<f64>,
}

json::impl_json!(MethodResult {
    method,
    model,
    per_phase,
    overall,
    selected_fraction
});

/// The predictor(s) trained for one phase: single, or routed by wear-out
/// group.
enum PhasePredictor {
    Single(FailurePredictor),
    Grouped {
        threshold: f64,
        low: FailurePredictor,
        high: FailurePredictor,
    },
}

impl PhasePredictor {
    /// Score drives over a test range, routing each drive-day to the group
    /// predictor matching its current `MWI_N`.
    fn score_phase(
        &self,
        fleet: &Fleet,
        model: DriveModel,
        phase: &Phase,
        horizon: u32,
    ) -> Result<Vec<DriveScore>, PipelineError> {
        match self {
            PhasePredictor::Single(p) => {
                score_phase(p, fleet, model, phase.test_start, phase.test_end, horizon)
            }
            PhasePredictor::Grouped {
                threshold,
                low,
                high,
            } => {
                // Route 0 (low) or 1 (high) by the day's wear-out group.
                let (mut scores, peak_routes) = score_routed(
                    &[low, high],
                    |drive, day| Ok(usize::from(!is_low_wear(mwi_on(drive, day)?, *threshold))),
                    fleet,
                    model,
                    phase.test_start,
                    phase.test_end,
                    horizon,
                )?;
                // The two group models are trained on different populations
                // and are not probability-calibrated against each other;
                // pooling raw scores would let the hotter model's drives
                // crowd the ranking. Replace each drive's score with its
                // quantile *within* the drives scored by the same model.
                let from_low: Vec<bool> = peak_routes.iter().map(|&r| r == 0).collect();
                quantile_normalize(&mut scores, &from_low);
                Ok(scores)
            }
        }
    }
}

/// Run `method` on `model` across the paper's three test phases.
///
/// Drive scores from the three phases are pooled and a single decision
/// threshold is chosen to hit the model's fixed recall; the reported
/// overall metrics are at that pooled threshold, and the per-phase metrics
/// are diagnostics at the same threshold. (The paper's per-model test
/// populations carry hundreds of failures per phase; a laptop-scale fleet
/// does not, so fixing recall per phase would be numerically meaningless.)
///
/// # Errors
///
/// Propagates any pipeline failure (degenerate samples, training errors,
/// no failures across all test phases, …).
pub fn run_method(
    fleet: &Fleet,
    model: DriveModel,
    method: Method,
    config: &ExperimentConfig,
) -> Result<MethodResult, PipelineError> {
    let phases = paper_phases(fleet.config().days())?;
    let mut phase_scores: Vec<Vec<DriveScore>> = Vec::with_capacity(phases.len());
    let mut fractions = Vec::new();
    for (phase_idx, phase) in phases.iter().enumerate() {
        let (scores, fraction) = run_phase(fleet, model, method, config, phase, phase_idx)?;
        phase_scores.push(scores);
        fractions.extend(fraction);
    }
    let pooled: Vec<DriveScore> = phase_scores.iter().flatten().copied().collect();
    let (overall, threshold) = metrics_at_fixed_recall(&pooled, paper_target_recall(model))?;
    let per_phase = phase_scores
        .iter()
        .map(|s| crate::evaluate::metrics_at_threshold(s, threshold))
        .collect();
    Ok(MethodResult {
        method: method.label(),
        model,
        per_phase,
        overall,
        selected_fraction: if fractions.is_empty() {
            None
        } else {
            Some(fractions.iter().sum::<f64>() / fractions.len() as f64)
        },
    })
}

/// The seed of phase `phase_idx`: its sampling, rankers and forests.
fn phase_seed(config: &ExperimentConfig, phase_idx: usize) -> u64 {
    config.seed ^ ((phase_idx as u64).wrapping_mul(0x9E37_79B9)) ^ 0x5EED
}

/// The training samples of `phase`'s fit range.
fn fit_samples(
    fleet: &Fleet,
    model: DriveModel,
    config: &ExperimentConfig,
    phase: &Phase,
    seed: u64,
) -> Result<Vec<SampleRef>, PipelineError> {
    let (fit_start, fit_end) = phase.fit_range();
    let sampling = SamplingConfig {
        seed,
        ..config.sampling
    };
    collect_samples(fleet, model, fit_start, fit_end, &sampling)
}

/// Train `method` for one phase and score its test days (drive-level).
/// Returns the scores and, when meaningful, the fraction of base features
/// kept.
///
/// # Errors
///
/// Propagates sampling, selection, and training failures.
fn run_phase(
    fleet: &Fleet,
    model: DriveModel,
    method: Method,
    config: &ExperimentConfig,
    phase: &Phase,
    phase_idx: usize,
) -> Result<(Vec<DriveScore>, Option<f64>), PipelineError> {
    let seed = phase_seed(config, phase_idx);
    let (predictor, fraction) = match method {
        Method::NoSelection => {
            let samples = fit_samples(fleet, model, config, phase, seed)?;
            let p = train_single(fleet, &samples, &base_features(model), config, seed)?;
            (p, None)
        }
        Method::Selector { kind, percent } => {
            let samples = fit_samples(fleet, model, config, phase, seed)?;
            let (matrix, labels, _) = base_matrix(fleet, model, &samples)?;
            let ranking = kind.build(seed).rank(&matrix, &labels)?;
            let pct = match percent {
                Some(p) => p,
                None => tune_percent(fleet, model, &ranking, config, phase, seed)?,
            };
            let n = percent_to_count(pct, ranking.n_features())?;
            let base = base_features_at(model, &ranking.order()[..n])?;
            let p = train_single(fleet, &samples, &base, config, seed)?;
            (p, Some(n as f64 / ranking.n_features() as f64))
        }
        Method::Wefr => {
            let wefr = WefrPhase::select(fleet, model, config, phase, seed)?;
            match &wefr.selection.wearout {
                Some(w) => {
                    let frac = (w.low.selected_fraction() + w.high.selected_fraction()) / 2.0;
                    (wefr.grouped_predictor(fleet, model, config, w)?, Some(frac))
                }
                None => {
                    let frac = wefr.selection.global.selected_fraction();
                    (wefr.global_predictor(fleet, model, config)?, Some(frac))
                }
            }
        }
    };
    let scores = predictor.score_phase(fleet, model, phase, config.sampling.horizon)?;
    Ok((scores, fraction))
}

/// WEFR's one selection for a phase: Algorithm 1 over the phase's fit
/// samples, with the change point read from [`wearout_survival`]. Both
/// Exp#3 arms train from it.
struct WefrPhase {
    seed: u64,
    samples: Vec<SampleRef>,
    /// `MWI_N` of each fit sample.
    mwi: Vec<f64>,
    selection: WefrSelection,
}

impl WefrPhase {
    fn select(
        fleet: &Fleet,
        model: DriveModel,
        config: &ExperimentConfig,
        phase: &Phase,
        seed: u64,
    ) -> Result<Self, PipelineError> {
        let samples = fit_samples(fleet, model, config, phase, seed)?;
        let (matrix, labels, mwi) = base_matrix(fleet, model, &samples)?;
        let survival = wearout_survival(fleet, model, phase.fit_range().1, config)?;
        let selection = Wefr::new(WefrConfig { seed }).select(&SelectionInput {
            data: &matrix,
            labels: &labels,
            mwi_per_sample: Some(&mwi),
            survival: Some(&survival),
        })?;
        Ok(WefrPhase {
            seed,
            samples,
            mwi,
            selection,
        })
    }

    /// One predictor on the global selection: WEFR without wear-out
    /// updating, and WEFR itself when the split does not fire.
    fn global_predictor(
        &self,
        fleet: &Fleet,
        model: DriveModel,
        config: &ExperimentConfig,
    ) -> Result<PhasePredictor, PipelineError> {
        let base = base_features_at(model, &self.selection.global.selected)?;
        train_single(fleet, &self.samples, &base, config, self.seed)
    }

    /// One predictor per wear-out group of `w`, each on its group's fit
    /// samples, rebalanced to a common class ratio so the two models'
    /// probability scales are comparable.
    fn grouped_predictor(
        &self,
        fleet: &Fleet,
        model: DriveModel,
        config: &ExperimentConfig,
        w: &WearoutSelection,
    ) -> Result<PhasePredictor, PipelineError> {
        let threshold = w.change_point.mwi_threshold as f64;
        let split = split_rows_by_mwi(&self.mwi, threshold);
        let train = |group: &GroupSelection, rows: &[usize], seed| {
            let samples: Vec<SampleRef> = rows.iter().map(|&r| self.samples[r]).collect();
            FailurePredictor::train(
                fleet,
                &rebalance(&samples, &config.sampling)?,
                &base_features_at(model, &group.selected)?,
                &predictor_config(config, seed),
            )
        };
        Ok(PhasePredictor::Grouped {
            threshold,
            low: train(&w.low, &split.low_rows, self.seed)?,
            high: train(&w.high, &split.high_rows, self.seed.wrapping_add(1))?,
        })
    }
}

/// Survival pairs for wear-out change-point detection: a *planned*
/// synthetic side census of [`WEAROUT_CENSUS_DRIVES`] drives of `model`
/// over the days up to `as_of_day`, with the experiment fleet's failure
/// scale, initial ages and arrivals.
///
/// # Errors
///
/// Returns [`PipelineError::Dataset`] when the derived census
/// configuration is invalid.
pub fn wearout_survival(
    fleet: &Fleet,
    model: DriveModel,
    as_of_day: u32,
    config: &ExperimentConfig,
) -> Result<Vec<(f64, bool)>, PipelineError> {
    let days = (as_of_day + 1).max(120);
    let census_config = smart_dataset::FleetConfig::builder()
        .days(days)
        .seed(config.seed ^ 0xCE25)
        .drives(model, WEAROUT_CENSUS_DRIVES)
        .failure_scale(fleet.config().effective_failure_scale(model))
        .max_initial_age_days(fleet.config().max_initial_age_days())
        .arrival_fraction(fleet.config().arrival_fraction())
        .build()?;
    Ok(smart_dataset::Census::generate(&census_config)
        .summaries()
        .iter()
        .map(|s| (s.final_mwi_n, s.is_failed()))
        .collect())
}

fn predictor_config(config: &ExperimentConfig, seed: u64) -> PredictorConfig {
    PredictorConfig {
        seed,
        ..config.predictor
    }
}

fn train_single(
    fleet: &Fleet,
    samples: &[SampleRef],
    base: &[FeatureId],
    config: &ExperimentConfig,
    seed: u64,
) -> Result<PhasePredictor, PipelineError> {
    Ok(PhasePredictor::Single(FailurePredictor::train(
        fleet,
        samples,
        base,
        &predictor_config(config, seed),
    )?))
}

/// Convert a fraction of features into a count (at least 1).
fn percent_to_count(pct: f64, total: usize) -> Result<usize, PipelineError> {
    if !(0.0..=1.0).contains(&pct) || pct == 0.0 {
        return Err(PipelineError::invalid("percent must be in (0, 1]"));
    }
    Ok(((pct * total as f64).round() as usize).clamp(1, total))
}

/// Tune a selector's kept fraction on the validation period: train on the
/// fit range for each grid fraction, pick the one with the best validation
/// F0.5 at the model's fixed recall.
fn tune_percent(
    fleet: &Fleet,
    model: DriveModel,
    ranking: &wefr_core::FeatureRanking,
    config: &ExperimentConfig,
    phase: &Phase,
    seed: u64,
) -> Result<f64, PipelineError> {
    let (val_start, val_end) = phase.validation_range();
    let fit_samples = fit_samples(fleet, model, config, phase, seed ^ 0x7A1)?;

    let mut best = (
        config.tune_grid.first().copied().unwrap_or(1.0),
        f64::NEG_INFINITY,
    );
    for &pct in &config.tune_grid {
        let n = percent_to_count(pct, ranking.n_features())?;
        let base = base_features_at(model, &ranking.order()[..n])?;
        let predictor =
            FailurePredictor::train(fleet, &fit_samples, &base, &predictor_config(config, seed))?;
        let scores = score_phase(
            &predictor,
            fleet,
            model,
            val_start,
            val_end,
            config.sampling.horizon,
        );
        // A validation slice with no failures cannot rank candidates; skip.
        let Ok(scores) = scores else { continue };
        let Ok((metrics, _)) = metrics_at_fixed_recall(&scores, paper_target_recall(model)) else {
            continue;
        };
        if metrics.f_half > best.1 {
            best = (pct, metrics.f_half);
        }
    }
    Ok(best.0)
}

/// Replace each drive's raw score with its mid-rank quantile within the
/// drives scored by the same group model (see the grouped-scoring comment).
fn quantile_normalize(scores: &mut [DriveScore], from_low: &[bool]) {
    for group in [true, false] {
        let idx: Vec<usize> = (0..scores.len())
            .filter(|&i| from_low[i] == group)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let mut order = idx.clone();
        order.sort_by(|&a, &b| scores[a].max_score.total_cmp(&scores[b].max_score));
        let n = order.len();
        // Mid-rank handles ties deterministically enough for pooling; exact
        // tie semantics within a group are preserved by averaging positions.
        let mut pos = 0;
        while pos < n {
            let mut end = pos + 1;
            while end < n && scores[order[end]].max_score == scores[order[pos]].max_score {
                end += 1;
            }
            let q = (pos + end - 1) as f64 / 2.0 / (n.max(2) - 1) as f64;
            for &i in &order[pos..end] {
                scores[i].max_score = q;
            }
            pos = end;
        }
    }
}

/// Downsample a group's negatives to the configured ratio so that both
/// wear-out groups train at the same class balance (comparable probability
/// calibration).
fn rebalance(
    samples: &[SampleRef],
    sampling: &SamplingConfig,
) -> Result<Vec<SampleRef>, PipelineError> {
    let Some(ratio) = sampling.downsample_ratio else {
        return Ok(samples.to_vec());
    };
    let labels: Vec<bool> = samples.iter().map(|s| s.label).collect();
    let kept = smart_stats::sampling::downsample_negatives(&labels, ratio, sampling.seed ^ 0xBA1)
        .map_err(PipelineError::Stats)?;
    Ok(kept.into_iter().map(|i| samples[i]).collect())
}

/// One point of the Exp#2 fixed-percentage sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Fraction of features kept.
    pub percent: f64,
    /// Pooled F0.5 at the model's fixed recall.
    pub f_half: f64,
}

json::impl_json!(SweepPoint { percent, f_half });

/// The Exp#2 result for one model: F0.5 across fixed selected-feature
/// percentages versus WEFR's automatically chosen count, both over the same
/// ensemble ranking (isolating the automated-count component).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Drive model.
    pub model: DriveModel,
    /// The fixed-percentage curve.
    pub points: Vec<SweepPoint>,
    /// WEFR's automatically determined fraction (mean over phases).
    pub wefr_percent: f64,
    /// WEFR's pooled F0.5.
    pub wefr_f_half: f64,
}

json::impl_json!(SweepResult {
    model,
    points,
    wefr_percent,
    wefr_f_half
});

/// Run the Exp#2 sweep on one model: for every fraction in the tune grid,
/// keep that fraction of the *ensemble* ranking and measure pooled F0.5 at
/// the fixed recall; compare against WEFR's automated count.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run_percentage_sweep(
    fleet: &Fleet,
    model: DriveModel,
    config: &ExperimentConfig,
) -> Result<SweepResult, PipelineError> {
    let phases = paper_phases(fleet.config().days())?;
    let n_features = base_features(model).len();

    // Per phase: the ensemble ranking, WEFR's chosen count, and the fit
    // samples (shared across all sweep points).
    struct PhasePrep {
        order: Vec<usize>,
        chosen: usize,
        fit_samples: Vec<SampleRef>,
        phase: Phase,
        seed: u64,
    }
    let mut preps = Vec::with_capacity(phases.len());
    for (phase_idx, phase) in phases.iter().enumerate() {
        let seed = phase_seed(config, phase_idx);
        let fit_samples = fit_samples(fleet, model, config, phase, seed)?;
        let (matrix, labels, _) = base_matrix(fleet, model, &fit_samples)?;
        let selection = Wefr::new(WefrConfig { seed }).select_group(&matrix, &labels)?;
        preps.push(PhasePrep {
            order: selection.ensemble.order.clone(),
            chosen: selection.selected.len(),
            fit_samples,
            phase: *phase,
            seed,
        });
    }

    let evaluate_count = |count_for: &dyn Fn(&PhasePrep) -> usize| -> Result<f64, PipelineError> {
        let mut pooled = Vec::new();
        for prep in &preps {
            let n = count_for(prep).clamp(1, n_features);
            let base = base_features_at(model, &prep.order[..n])?;
            let predictor = FailurePredictor::train(
                fleet,
                &prep.fit_samples,
                &base,
                &predictor_config(config, prep.seed),
            )?;
            pooled.extend(score_phase(
                &predictor,
                fleet,
                model,
                prep.phase.test_start,
                prep.phase.test_end,
                config.sampling.horizon,
            )?);
        }
        let (metrics, _) = metrics_at_fixed_recall(&pooled, paper_target_recall(model))?;
        Ok(metrics.f_half)
    };

    let mut points = Vec::with_capacity(config.tune_grid.len());
    for &pct in &config.tune_grid {
        let f_half = evaluate_count(&|_| ((pct * n_features as f64).round() as usize).max(1))?;
        points.push(SweepPoint {
            percent: pct,
            f_half,
        });
    }
    let wefr_f_half = evaluate_count(&|prep: &PhasePrep| prep.chosen)?;
    let wefr_percent = preps.iter().map(|p| p.chosen as f64).sum::<f64>()
        / (preps.len() as f64 * n_features as f64);

    Ok(SweepResult {
        model,
        points,
        wefr_percent,
        wefr_f_half,
    })
}

/// The Exp#3 comparison on one model: WEFR with and without wear-out
/// updating, on all drives and on the low-MWI cohort.
#[derive(Debug, Clone)]
pub struct UpdatingResult {
    /// Drive model.
    pub model: DriveModel,
    /// WEFR, all drives.
    pub wefr_all: EvalMetrics,
    /// WEFR (No update), all drives.
    pub no_update_all: EvalMetrics,
    /// WEFR, low-MWI cohort (absent when no change point was detected).
    pub wefr_low: Option<EvalMetrics>,
    /// WEFR (No update), low-MWI cohort.
    pub no_update_low: Option<EvalMetrics>,
    /// The change-point thresholds used per phase (where detected).
    pub thresholds: Vec<Option<f64>>,
}

json::impl_json!(UpdatingResult {
    model,
    wefr_all,
    no_update_all,
    wefr_low,
    no_update_low,
    thresholds,
});

/// Run the Exp#3 comparison (Table VII) on one model.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run_updating_comparison(
    fleet: &Fleet,
    model: DriveModel,
    config: &ExperimentConfig,
) -> Result<UpdatingResult, PipelineError> {
    let phases = paper_phases(fleet.config().days())?;
    let mut wefr_scores = Vec::new();
    let mut no_update_scores = Vec::new();
    let mut wefr_low_scores = Vec::new();
    let mut no_update_low_scores = Vec::new();
    let mut thresholds = Vec::new();

    let horizon = config.sampling.horizon;
    for (phase_idx, phase) in phases.iter().enumerate() {
        // One selection serves both arms: WEFR (No update) is its global
        // selection, which is also WEFR whenever the split does not fire.
        let wefr = WefrPhase::select(fleet, model, config, phase, phase_seed(config, phase_idx))?;
        let no_update = wefr
            .global_predictor(fleet, model, config)?
            .score_phase(fleet, model, phase, horizon)?;
        let threshold = match &wefr.selection.wearout {
            Some(w) => {
                let threshold = w.change_point.mwi_threshold as f64;
                let scores = wefr
                    .grouped_predictor(fleet, model, config, w)?
                    .score_phase(fleet, model, phase, horizon)?;
                let cohort = low_cohort_indices(fleet, model, phase, threshold);
                wefr_low_scores.extend(restrict_scores(&scores, &cohort));
                no_update_low_scores.extend(restrict_scores(&no_update, &cohort));
                wefr_scores.extend(scores);
                Some(threshold)
            }
            None => {
                wefr_scores.extend_from_slice(&no_update);
                None
            }
        };
        thresholds.push(threshold);
        no_update_scores.extend(no_update);
    }

    let recall = paper_target_recall(model);
    let (wefr_all, _) = metrics_at_fixed_recall(&wefr_scores, recall)?;
    let (no_update_all, _) = metrics_at_fixed_recall(&no_update_scores, recall)?;
    let low_pair = match (
        metrics_at_fixed_recall(&wefr_low_scores, recall),
        metrics_at_fixed_recall(&no_update_low_scores, recall),
    ) {
        (Ok((w, _)), Ok((n, _))) => Some((w, n)),
        _ => None,
    };
    let (wefr_low, no_update_low) = match low_pair {
        Some((w, n)) => (Some(w), Some(n)),
        None => (None, None),
    };
    Ok(UpdatingResult {
        model,
        wefr_all,
        no_update_all,
        wefr_low,
        no_update_low,
        thresholds,
    })
}

/// The *low-MWI cohort* of a test phase — the drives behind the "Low"
/// columns of Table VII: drives whose `MWI_N` on their last test day is at
/// or below the change point detected from training data.
pub fn low_cohort_indices(
    fleet: &Fleet,
    model: DriveModel,
    phase: &Phase,
    threshold: f64,
) -> Vec<usize> {
    let mwi = FeatureId::normalized(SmartAttribute::Mwi);
    fleet
        .drives()
        .iter()
        .enumerate()
        .filter(|(_, d)| d.model == model)
        .filter(|(_, d)| d.deploy_day <= phase.test_end && d.last_day() >= phase.test_start)
        .filter(|(_, d)| {
            let day = d.last_day().min(phase.test_end);
            d.value_on(day, mwi)
                .is_some_and(|m| is_low_wear(m, threshold))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Restrict drive scores to a cohort of drive indices.
pub fn restrict_scores(scores: &[DriveScore], cohort: &[usize]) -> Vec<DriveScore> {
    scores
        .iter()
        .filter(|s| cohort.contains(&s.drive_index))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_dataset::FleetConfig;

    fn quick_fleet() -> Fleet {
        let config = FleetConfig::builder()
            .days(365)
            .seed(33)
            .drives(DriveModel::Mc1, 120)
            .failure_scale(8.0)
            .build()
            .unwrap();
        Fleet::generate(&config)
    }

    #[test]
    fn percent_to_count_bounds() {
        assert_eq!(percent_to_count(0.5, 10).unwrap(), 5);
        assert_eq!(percent_to_count(0.01, 10).unwrap(), 1);
        assert_eq!(percent_to_count(1.0, 10).unwrap(), 10);
        assert!(percent_to_count(0.0, 10).is_err());
        assert!(percent_to_count(1.5, 10).is_err());
    }

    #[test]
    fn selector_labels_match_paper() {
        assert_eq!(Method::NoSelection.label(), "No feature selection");
        assert_eq!(
            Method::Selector {
                kind: SelectorKind::XgBoost,
                percent: Some(0.5)
            }
            .label(),
            "XGBoost"
        );
        assert_eq!(Method::Wefr.label(), "WEFR");
    }

    #[test]
    fn paper_recalls_are_sane() {
        for m in DriveModel::ALL {
            let r = paper_target_recall(m);
            assert!((0.1..=0.5).contains(&r));
        }
    }

    #[test]
    fn no_selection_runs_end_to_end() {
        let fleet = quick_fleet();
        let config = ExperimentConfig::quick(1);
        let result = run_method(&fleet, DriveModel::Mc1, Method::NoSelection, &config).unwrap();
        assert_eq!(result.per_phase.len(), 3);
        assert!(result.overall.recall > 0.0);
        assert!(result.selected_fraction.is_none());
    }

    #[test]
    fn fixed_percent_selector_runs() {
        let fleet = quick_fleet();
        let config = ExperimentConfig::quick(2);
        let result = run_method(
            &fleet,
            DriveModel::Mc1,
            Method::Selector {
                kind: SelectorKind::Pearson,
                percent: Some(0.3),
            },
            &config,
        )
        .unwrap();
        let frac = result.selected_fraction.unwrap();
        assert!((0.25..=0.35).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn wearout_survival_uses_census_or_fleet() {
        let fleet = quick_fleet();
        let config = ExperimentConfig::quick(1);
        let from_census = wearout_survival(&fleet, DriveModel::Mc1, 300, &config).unwrap();
        assert_eq!(from_census.len(), WEAROUT_CENSUS_DRIVES as usize);
        // Census failure rate must resemble the experiment fleet's scale
        // (same effective failure multiplier), not the nominal AFR.
        let census_failures = from_census.iter().filter(|(_, f)| *f).count();
        assert!(census_failures > 10, "census failures = {census_failures}");
    }

    /// `fleet` with `MWI_N` missing (NaN) on every third day of every other
    /// drive, as on days a vendor batch does not report it.
    fn with_missing_mwi(fleet: &Fleet) -> Fleet {
        let mwi = FeatureId::normalized(SmartAttribute::Mwi);
        let records = fleet
            .drives()
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let features = base_features(d.model);
                let values = (d.deploy_day..=d.last_day())
                    .flat_map(|day| {
                        features.iter().map(move |&f| {
                            if f == mwi && i % 2 == 0 && day % 3 == 0 {
                                f32::NAN
                            } else {
                                d.value_on(day, f).unwrap() as f32
                            }
                        })
                    })
                    .collect();
                smart_dataset::DriveRecord::from_flat_values(
                    d.id,
                    d.model,
                    d.deploy_day,
                    d.initial_age_days,
                    d.failure,
                    values,
                    d.n_days(),
                )
            })
            .collect();
        Fleet::from_records(fleet.config().clone(), records)
    }

    #[test]
    fn grouped_scoring_matches_the_per_day_loop() {
        let fleet = quick_fleet();
        let model = DriveModel::Mc1;
        let horizon = 30;
        let phase = paper_phases(fleet.config().days()).unwrap()[0];
        let (fit_start, fit_end) = phase.fit_range();
        let samples = collect_samples(
            &fleet,
            model,
            fit_start,
            fit_end,
            &SamplingConfig::default(),
        )
        .unwrap();
        let config = PredictorConfig {
            n_trees: 10,
            max_depth: 6,
            n_threads: Some(1),
            ..PredictorConfig::default()
        };
        let train = |base: &[FeatureId], seed| {
            FailurePredictor::train(&fleet, &samples, base, &PredictorConfig { seed, ..config })
                .unwrap()
        };
        let low = train(&[FeatureId::raw(SmartAttribute::Uce)], 1);
        let high = train(&[FeatureId::raw(SmartAttribute::Oce)], 2);
        // Mid-range: the median MWI_N over the phase's test drive-days.
        let mwi = FeatureId::normalized(SmartAttribute::Mwi);
        let mut test_mwi: Vec<f64> = fleet
            .drives_of_model(model)
            .flat_map(|d| {
                (phase.test_start..=phase.test_end).filter_map(|day| d.value_on(day, mwi))
            })
            .collect();
        test_mwi.sort_by(f64::total_cmp);
        let threshold = test_mwi[test_mwi.len() / 2];

        // The oracle: each drive's first maximum over its test days of
        // `score_drive_day`, from the model the day's MWI_N routes to, then
        // quantile normalization grouped by the route of the peak day. A day
        // without an MWI_N reading is high wear, as in training.
        let oracle = |fleet: &Fleet| {
            let mut expected = Vec::new();
            let mut from_low = Vec::new();
            for (drive_index, drive) in fleet.drives().iter().enumerate() {
                let start = phase.test_start.max(drive.deploy_day);
                let end = phase.test_end.min(drive.last_day());
                if drive.model != model || start > end {
                    continue;
                }
                let (mut best, mut peak_day, mut peak_low) = (f64::NEG_INFINITY, start, true);
                for day in start..=end {
                    let m = drive.value_on(day, mwi).unwrap();
                    let is_low = !m.is_nan() && m <= threshold;
                    let predictor = if is_low { &low } else { &high };
                    let score = predictor.score_drive_day(drive, day).unwrap();
                    if score > best {
                        (best, peak_day, peak_low) = (score, day, is_low);
                    }
                }
                let actual = drive.failure.is_some_and(|f| {
                    f.day >= phase.test_start && f.day <= phase.test_end + horizon
                });
                expected.push(DriveScore {
                    drive_index,
                    max_score: best,
                    peak_day,
                    actual,
                });
                from_low.push(peak_low);
            }
            assert!(from_low.contains(&true) && from_low.contains(&false));
            quantile_normalize(&mut expected, &from_low);
            expected
        };
        let missing = with_missing_mwi(&fleet);
        let expected = [oracle(&fleet), oracle(&missing)];

        let grouped = PhasePredictor::Grouped {
            threshold,
            low,
            high,
        };
        for (fleet, expected) in [&fleet, &missing].into_iter().zip(expected) {
            let scores = grouped.score_phase(fleet, model, &phase, horizon).unwrap();
            assert_eq!(scores, expected);
        }
    }

    #[test]
    fn quantile_normalize_equalizes_group_scales() {
        // Group A (low) scores in [0.8, 1.0]; group B (high) in [0.0, 0.2].
        // After normalization both span [0, 1] within their group, so a
        // middling drive of the hot group no longer outranks the top drive
        // of the cold group.
        let mut scores: Vec<DriveScore> = [
            (0, 0.80, true), // low group
            (1, 0.90, true),
            (2, 1.00, true),
            (3, 0.00, false), // high group
            (4, 0.10, false),
            (5, 0.20, false),
        ]
        .iter()
        .map(|&(i, s, _)| DriveScore {
            drive_index: i,
            max_score: s,
            peak_day: 0,
            actual: false,
        })
        .collect();
        let groups = vec![true, true, true, false, false, false];
        quantile_normalize(&mut scores, &groups);
        // Top of each group maps to 1.0, bottom to 0.0.
        assert_eq!(scores[2].max_score, 1.0);
        assert_eq!(scores[0].max_score, 0.0);
        assert_eq!(scores[5].max_score, 1.0);
        assert_eq!(scores[3].max_score, 0.0);
        // Mid-rank in both groups is 0.5.
        assert!((scores[1].max_score - 0.5).abs() < 1e-12);
        assert!((scores[4].max_score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_normalize_averages_ties() {
        let mut scores: Vec<DriveScore> = [0.5, 0.5, 0.9]
            .iter()
            .enumerate()
            .map(|(i, &s)| DriveScore {
                drive_index: i,
                max_score: s,
                peak_day: 0,
                actual: false,
            })
            .collect();
        quantile_normalize(&mut scores, &[true, true, true]);
        // The tied pair shares the mid-rank quantile (positions 0 and 1 of 3).
        assert_eq!(scores[0].max_score, scores[1].max_score);
        assert!((scores[0].max_score - 0.25).abs() < 1e-12);
        assert_eq!(scores[2].max_score, 1.0);
    }

    #[test]
    fn quantile_normalize_single_member_group() {
        let mut scores = vec![DriveScore {
            drive_index: 0,
            max_score: 0.7,
            peak_day: 0,
            actual: true,
        }];
        quantile_normalize(&mut scores, &[true]);
        assert_eq!(scores[0].max_score, 0.0); // rank 0 of 1
    }

    #[test]
    fn rebalance_caps_group_negatives() {
        let samples: Vec<SampleRef> = (0..40)
            .map(|i| SampleRef {
                drive_index: i,
                day: 0,
                label: i < 4, // 4 positives, 36 negatives
            })
            .collect();
        let sampling = SamplingConfig {
            downsample_ratio: Some(2.0),
            ..SamplingConfig::default()
        };
        let kept = rebalance(&samples, &sampling).unwrap();
        let pos = kept.iter().filter(|s| s.label).count();
        let neg = kept.len() - pos;
        assert_eq!(pos, 4, "all positives kept");
        assert!(neg <= 8, "negatives capped at 2x positives, got {neg}");
    }

    #[test]
    fn rebalance_without_ratio_is_identity() {
        let samples: Vec<SampleRef> = (0..5)
            .map(|i| SampleRef {
                drive_index: i,
                day: 0,
                label: i == 0,
            })
            .collect();
        let sampling = SamplingConfig {
            downsample_ratio: None,
            ..SamplingConfig::default()
        };
        assert_eq!(rebalance(&samples, &sampling).unwrap(), samples);
    }

    #[test]
    fn restrict_scores_filters() {
        let scores = vec![
            DriveScore {
                drive_index: 1,
                max_score: 0.5,
                peak_day: 0,
                actual: true,
            },
            DriveScore {
                drive_index: 2,
                max_score: 0.4,
                peak_day: 0,
                actual: false,
            },
        ];
        let r = restrict_scores(&scores, &[2]);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].drive_index, 2);
    }
}
