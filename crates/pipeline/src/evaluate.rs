//! Drive-level evaluation at fixed recall (§V-A): a drive is flagged at the
//! *first* test day its score crosses the decision threshold; precision /
//! recall / F0.5 are computed over drives, with the threshold chosen so
//! that recall matches the per-model operating point the paper reports.

use crate::error::PipelineError;
use crate::label::SampleRef;
use crate::train::FailurePredictor;
use smart_dataset::{DriveModel, DriveRecord, Fleet};

/// The per-drive outcome of scoring one test phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveScore {
    /// Index of the drive within the fleet's drive list.
    pub drive_index: usize,
    /// Highest score across the drive's test days.
    pub max_score: f64,
    /// Whether the drive actually fails within the evaluation window
    /// (test period plus horizon).
    pub actual: bool,
}

/// Precision / recall / F0.5 with the underlying confusion counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// True positives (drives).
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// `tp / (tp + fp)`.
    pub precision: f64,
    /// `tp / (tp + fn)`.
    pub recall: f64,
    /// F0.5-score (precision weighted twice as heavily as recall).
    pub f_half: f64,
}

json::impl_json!(EvalMetrics {
    tp,
    fp,
    fn_,
    precision,
    recall,
    f_half
});

impl EvalMetrics {
    /// Compute metrics from confusion counts.
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> EvalMetrics {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        EvalMetrics {
            tp,
            fp,
            fn_,
            precision,
            recall,
            f_half: f_beta(precision, recall, 0.5),
        }
    }

    /// Micro-average a set of per-phase or per-model metrics by summing
    /// confusion counts.
    pub fn micro_average<'a, I: IntoIterator<Item = &'a EvalMetrics>>(metrics: I) -> EvalMetrics {
        let (mut tp, mut fp, mut fn_) = (0, 0, 0);
        for m in metrics {
            tp += m.tp;
            fp += m.fp;
            fn_ += m.fn_;
        }
        EvalMetrics::from_counts(tp, fp, fn_)
    }
}

/// The Fβ score. β = 0.5 weighs precision twice as heavily as recall — the
/// paper's operating metric, because decommissioning a healthy drive costs
/// more than missing a failing one.
pub fn f_beta(precision: f64, recall: f64, beta: f64) -> f64 {
    let b2 = beta * beta;
    if precision <= 0.0 && recall <= 0.0 {
        return 0.0;
    }
    (1.0 + b2) * precision * recall / (b2 * precision + recall)
}

/// Score every drive of `model` over the test days `[test_start, test_end]`
/// and reduce to drive-level scores. `horizon` extends the actual-failure
/// window past the phase end (a drive failing a few days after the phase is
/// a correct catch for a 30-day-horizon prediction made inside it).
///
/// # Errors
///
/// Propagates scoring failures; returns [`PipelineError::InvalidInput`]
/// when no drive of the model is observed in the phase.
pub fn score_phase(
    predictor: &FailurePredictor,
    fleet: &Fleet,
    model: DriveModel,
    test_start: u32,
    test_end: u32,
    horizon: u32,
) -> Result<Vec<DriveScore>, PipelineError> {
    score_routed(
        &[predictor],
        |_, _| Ok(0),
        fleet,
        model,
        test_start,
        test_end,
        horizon,
    )
    .map(|(scores, _)| scores)
}

/// [`score_phase`] over several predictors, and the one per-drive scoring
/// loop: `route` names the predictor (an index into `predictors`) that
/// scores each drive-day, and beside each drive score comes the route of
/// the drive's peak day. Each predictor scores its days of a drive in one
/// `score_samples` batch; scores are per row, so batching changes none.
pub(crate) fn score_routed(
    predictors: &[&FailurePredictor],
    route: impl Fn(&DriveRecord, u32) -> Result<usize, PipelineError>,
    fleet: &Fleet,
    model: DriveModel,
    test_start: u32,
    test_end: u32,
    horizon: u32,
) -> Result<(Vec<DriveScore>, Vec<usize>), PipelineError> {
    let span = telemetry::span!(
        "evaluate",
        model = model.to_string(),
        test_start = test_start,
        test_end = test_end,
        horizon = horizon,
    );
    let mut drive_scores = Vec::new();
    let mut peak_routes = Vec::new();
    for (drive_index, drive) in fleet.drives().iter().enumerate() {
        if drive.model != model {
            continue;
        }
        // Drives that died before the phase are gone; drives deployed after
        // it are not observable.
        let start = test_start.max(drive.deploy_day);
        let end = test_end.min(drive.last_day());
        if start > end {
            continue;
        }
        let routes = (start..=end)
            .map(|day| route(drive, day))
            .collect::<Result<Vec<usize>, _>>()?;
        let sample = |day| SampleRef {
            drive_index,
            day,
            label: false, // unused for scoring
        };
        let mut scores = vec![f64::NEG_INFINITY; routes.len()];
        for (p, predictor) in predictors.iter().enumerate() {
            let days: Vec<usize> = (0..routes.len()).filter(|&i| routes[i] == p).collect();
            if days.is_empty() {
                continue;
            }
            let samples: Vec<SampleRef> = days.iter().map(|&i| sample(start + i as u32)).collect();
            for (&i, score) in days.iter().zip(predictor.score_samples(fleet, &samples)?) {
                scores[i] = score;
            }
        }
        // The first maximum over the drive's test days.
        let (mut best_idx, mut best) = (0, f64::NEG_INFINITY);
        for (i, &score) in scores.iter().enumerate() {
            if score > best {
                (best_idx, best) = (i, score);
            }
        }
        let actual = drive
            .failure
            .is_some_and(|f| f.day >= test_start && f.day <= test_end.saturating_add(horizon));
        // Per-drive score distribution: its p50/p90/p99 in the run report
        // (and on /metrics) shows how separated the fleet is long before a
        // threshold is picked.
        telemetry::histogram_observe("evaluate.drive_score", best);
        drive_scores.push(DriveScore {
            drive_index,
            max_score: best,
            actual,
        });
        peak_routes.push(routes[best_idx]);
    }
    if drive_scores.is_empty() {
        return Err(PipelineError::invalid(format!(
            "no drives of {model} observed in test days {test_start}..={test_end}"
        )));
    }
    span.record("drives", drive_scores.len());
    span.record(
        "actual_failures",
        drive_scores.iter().filter(|s| s.actual).count(),
    );
    Ok((drive_scores, peak_routes))
}

/// Report a confusion outcome to telemetry: one info event plus cumulative
/// confusion counters (their totals across phases are the micro-average
/// numerators).
fn report_confusion(context: &str, metrics: &EvalMetrics, threshold: f64) {
    telemetry::info!(
        "evaluate",
        format!(
            "{context}: precision = {:.3}, recall = {:.3}",
            metrics.precision, metrics.recall
        ),
        tp = metrics.tp,
        fp = metrics.fp,
        fn_ = metrics.fn_,
        precision = metrics.precision,
        recall = metrics.recall,
        f_half = metrics.f_half,
        threshold = threshold,
    );
    telemetry::counter_add("evaluate.tp", metrics.tp as u64);
    telemetry::counter_add("evaluate.fp", metrics.fp as u64);
    telemetry::counter_add("evaluate.fn", metrics.fn_ as u64);
}

/// Choose the highest decision threshold achieving at least `target_recall`
/// and return the resulting metrics. This pins every method to the same
/// per-model recall (the fixed-recall rows of Tables VI/VII) so that
/// precision and F0.5 are comparable across methods.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidInput`] when `scores` is empty, has no
/// actual positives, or `target_recall` is outside `(0, 1]`.
pub fn metrics_at_fixed_recall(
    scores: &[DriveScore],
    target_recall: f64,
) -> Result<(EvalMetrics, f64), PipelineError> {
    if scores.is_empty() {
        return Err(PipelineError::invalid("no drive scores"));
    }
    if !(0.0..=1.0).contains(&target_recall) || target_recall == 0.0 {
        return Err(PipelineError::invalid("target recall must be in (0, 1]"));
    }
    let positives = scores.iter().filter(|s| s.actual).count();
    if positives == 0 {
        return Err(PipelineError::invalid("no failed drives in the phase"));
    }

    // Candidate thresholds: the distinct drive scores, descending. Flagged
    // set = drives with score >= threshold.
    let mut order: Vec<&DriveScore> = scores.iter().collect();
    order.sort_by(|a, b| b.max_score.total_cmp(&a.max_score));

    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0;
    while i < order.len() {
        let threshold = order[i].max_score;
        // Consume the tie group.
        while i < order.len() && order[i].max_score == threshold {
            if order[i].actual {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        let recall = tp as f64 / positives as f64;
        if recall + 1e-12 >= target_recall {
            let metrics = EvalMetrics::from_counts(tp, fp, positives - tp);
            report_confusion("fixed-recall operating point", &metrics, threshold);
            return Ok((metrics, threshold));
        }
    }
    // All drives flagged: recall is 1.0 by construction.
    let metrics = EvalMetrics::from_counts(positives, scores.len() - positives, 0);
    report_confusion("fixed-recall operating point", &metrics, f64::NEG_INFINITY);
    Ok((metrics, f64::NEG_INFINITY))
}

/// Metrics at an explicit decision threshold (flag drives with
/// `score >= threshold`). Unlike [`metrics_at_fixed_recall`] this tolerates
/// score sets without positives — used for per-phase diagnostics once the
/// pooled threshold has been fixed.
pub fn metrics_at_threshold(scores: &[DriveScore], threshold: f64) -> EvalMetrics {
    let mut tp = 0;
    let mut fp = 0;
    let mut fn_ = 0;
    for s in scores {
        let flagged = s.max_score >= threshold;
        match (flagged, s.actual) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let metrics = EvalMetrics::from_counts(tp, fp, fn_);
    report_confusion("explicit threshold", &metrics, threshold);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(i: usize, score: f64, actual: bool) -> DriveScore {
        DriveScore {
            drive_index: i,
            max_score: score,
            actual,
        }
    }

    #[test]
    fn f_beta_known_values() {
        assert!((f_beta(1.0, 1.0, 0.5) - 1.0).abs() < 1e-12);
        assert_eq!(f_beta(0.0, 0.0, 0.5), 0.0);
        // F0.5 with P=0.6, R=0.3: 1.25*0.18/(0.15+0.3) = 0.5
        assert!((f_beta(0.6, 0.3, 0.5) - 0.5).abs() < 1e-12);
        // F0.5 weighs precision more: P=0.8,R=0.2 beats P=0.2,R=0.8.
        assert!(f_beta(0.8, 0.2, 0.5) > f_beta(0.2, 0.8, 0.5));
    }

    #[test]
    fn fixed_recall_picks_minimal_flag_set() {
        let scores = vec![
            ds(0, 0.9, true),
            ds(1, 0.8, false),
            ds(2, 0.7, true),
            ds(3, 0.6, false),
            ds(4, 0.5, true),
            ds(5, 0.4, false),
        ];
        // Target recall 2/3: threshold lands at 0.7 -> tp=2, fp=1.
        let (m, threshold) = metrics_at_fixed_recall(&scores, 0.66).unwrap();
        assert_eq!(threshold, 0.7);
        assert_eq!((m.tp, m.fp, m.fn_), (2, 1, 1));
        assert!((m.recall - 2.0 / 3.0).abs() < 1e-9);
        assert!((m.precision - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_separation_gives_perfect_precision() {
        let scores = vec![
            ds(0, 0.9, true),
            ds(1, 0.8, true),
            ds(2, 0.1, false),
            ds(3, 0.2, false),
        ];
        let (m, _) = metrics_at_fixed_recall(&scores, 1.0).unwrap();
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f_half, 1.0);
    }

    #[test]
    fn recall_one_always_achievable() {
        let scores = vec![ds(0, 0.1, true), ds(1, 0.9, false)];
        let (m, _) = metrics_at_fixed_recall(&scores, 1.0).unwrap();
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.fp, 1);
    }

    #[test]
    fn ties_are_flagged_together() {
        let scores = vec![
            ds(0, 0.5, true),
            ds(1, 0.5, false),
            ds(2, 0.5, false),
            ds(3, 0.1, true),
        ];
        let (m, threshold) = metrics_at_fixed_recall(&scores, 0.5).unwrap();
        assert_eq!(threshold, 0.5);
        assert_eq!((m.tp, m.fp), (1, 2));
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(metrics_at_fixed_recall(&[], 0.5).is_err());
        let no_pos = vec![ds(0, 0.5, false)];
        assert!(metrics_at_fixed_recall(&no_pos, 0.5).is_err());
        let ok = vec![ds(0, 0.5, true)];
        assert!(metrics_at_fixed_recall(&ok, 0.0).is_err());
        assert!(metrics_at_fixed_recall(&ok, 1.5).is_err());
    }

    #[test]
    fn threshold_metrics_tolerate_no_positives() {
        let scores = vec![ds(0, 0.9, false), ds(1, 0.2, false)];
        let m = metrics_at_threshold(&scores, 0.5);
        assert_eq!((m.tp, m.fp, m.fn_), (0, 1, 0));
        let m = metrics_at_threshold(&[], 0.5);
        assert_eq!((m.tp, m.fp, m.fn_), (0, 0, 0));
    }

    #[test]
    fn threshold_metrics_match_fixed_recall_at_same_threshold() {
        let scores = vec![
            ds(0, 0.9, true),
            ds(1, 0.8, false),
            ds(2, 0.7, true),
            ds(3, 0.6, false),
        ];
        let (fixed, threshold) = metrics_at_fixed_recall(&scores, 1.0).unwrap();
        let at = metrics_at_threshold(&scores, threshold);
        assert_eq!(fixed, at);
    }

    #[test]
    fn micro_average_sums_counts() {
        let a = EvalMetrics::from_counts(2, 1, 2);
        let b = EvalMetrics::from_counts(3, 2, 1);
        let m = EvalMetrics::micro_average([&a, &b]);
        assert_eq!((m.tp, m.fp, m.fn_), (5, 3, 3));
        assert!((m.precision - 5.0 / 8.0).abs() < 1e-12);
        assert!((m.recall - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn from_counts_handles_zeroes() {
        let m = EvalMetrics::from_counts(0, 0, 0);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f_half, 0.0);
    }
}
