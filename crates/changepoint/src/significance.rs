//! The paper's z-score significance rule over change probabilities: a point
//! is a significant change when its change probability sits `±2.5` standard
//! deviations from the mean (confidence ≈ 98.76%); among significant points
//! the most significant one is selected (§III-C).

use crate::error::ChangepointError;
use smart_stats::descriptive::z_scores;

/// The paper's z-score threshold.
pub const PAPER_Z_THRESHOLD: f64 = 2.5;

/// A significant change point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignificantPoint {
    /// Index into the analyzed series.
    pub index: usize,
    /// Change probability at the point.
    pub probability: f64,
    /// Z-score of the change probability.
    pub z_score: f64,
}

/// All indices whose change probability deviates at least
/// [`PAPER_Z_THRESHOLD`] standard deviations from the mean, ordered by
/// descending |z|.
///
/// # Errors
///
/// Returns [`ChangepointError::SeriesTooShort`] for an empty input.
pub fn significant_points(change_probs: &[f64]) -> Result<Vec<SignificantPoint>, ChangepointError> {
    if change_probs.is_empty() {
        return Err(ChangepointError::SeriesTooShort {
            len: 0,
            required: 1,
        });
    }
    let zs = z_scores(change_probs)?;
    let mut points: Vec<SignificantPoint> = zs
        .iter()
        .enumerate()
        .filter(|(_, z)| z.abs() >= PAPER_Z_THRESHOLD)
        .map(|(index, &z)| SignificantPoint {
            index,
            probability: change_probs[index],
            z_score: z,
        })
        .collect();
    points.sort_by(|a, b| {
        b.z_score
            .abs()
            .total_cmp(&a.z_score.abs())
            .then(a.index.cmp(&b.index))
    });
    Ok(points)
}

/// The single most significant change point, if any crosses
/// [`PAPER_Z_THRESHOLD`] — "if we detect multiple change points, we select
/// the point with the most significant change" (§III-C).
///
/// # Errors
///
/// Same conditions as [`significant_points`].
pub fn most_significant_point(
    change_probs: &[f64],
) -> Result<Option<SignificantPoint>, ChangepointError> {
    Ok(significant_points(change_probs)?.into_iter().next())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_spike_is_significant() {
        let mut probs = vec![0.01; 60];
        probs[30] = 0.9;
        let points = significant_points(&probs).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].index, 30);
        assert!(points[0].z_score > PAPER_Z_THRESHOLD);
    }

    #[test]
    fn flat_series_has_no_significant_points() {
        let probs = vec![0.02; 40];
        assert!(significant_points(&probs).unwrap().is_empty());
        assert!(most_significant_point(&probs).unwrap().is_none());
    }

    #[test]
    fn most_significant_wins_among_several() {
        let mut probs = vec![0.01; 100];
        probs[20] = 0.5;
        probs[70] = 0.9;
        let best = most_significant_point(&probs).unwrap().unwrap();
        assert_eq!(best.index, 70);
    }

    #[test]
    fn ordering_is_by_absolute_z() {
        let mut probs = vec![0.01; 100];
        probs[20] = 0.5;
        probs[70] = 0.9;
        let points = significant_points(&probs).unwrap();
        assert!(points.len() >= 2);
        assert_eq!(points[0].index, 70);
        assert_eq!(points[1].index, 20);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(significant_points(&[]).is_err());
    }

    #[test]
    fn threshold_gates_detection() {
        // Alternating values sit exactly one σ from their mean: none counts.
        let mut probs: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 0.1 } else { 0.3 })
            .collect();
        assert!(significant_points(&probs).unwrap().is_empty());
        // A spike among them clears 2.5σ, and only the spike counts.
        probs[5] = 0.9;
        let points = significant_points(&probs).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].index, 5);
    }
}
