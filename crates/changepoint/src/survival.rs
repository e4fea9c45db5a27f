//! Survival-rate curves over the wear-out indicator `MWI_N` and change-point
//! detection on them (the paper's Fig. 1 machinery).
//!
//! The survival rate at a value `v` of `MWI_N` is the fraction of drives
//! whose final `MWI_N` equals `v` that were still healthy at the end of the
//! dataset (§III-C).

use crate::bocpd::change_probabilities;
use crate::error::ChangepointError;
use crate::significance::most_significant_point;

/// Minimum drives per point that change-point detection analyzes: it
/// pools sparser adjacent buckets first ([`SurvivalCurve::coarsened`]).
pub const MIN_DRIVES_PER_POINT: usize = 25;

/// One point of a survival curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivalPoint {
    /// The `MWI_N` value (integer bucket, 1..=100).
    pub mwi: u32,
    /// Number of drives whose final `MWI_N` falls in this bucket.
    pub total: usize,
    /// How many of them survived the window.
    pub survivors: usize,
    /// `survivors / total`.
    pub rate: f64,
}

/// A survival curve over `MWI_N`, ordered by *descending* `MWI_N` (the
/// direction of wear progression, matching how the paper reads Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalCurve {
    points: Vec<SurvivalPoint>,
}

/// A change point detected on a survival curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearoutChangePoint {
    /// The `MWI_N` value at which the survival behaviour changes — the
    /// threshold WEFR uses to split low- and high-wear groups.
    pub mwi_threshold: u32,
    /// Change probability at the point.
    pub probability: f64,
    /// Z-score of the change probability.
    pub z_score: f64,
}

impl SurvivalCurve {
    /// Build a curve from per-drive `(final MWI_N, failed)` pairs. Buckets
    /// with fewer than `min_count` drives are dropped (tiny buckets make the
    /// rate estimate meaningless). `MWI_N` values are rounded to integers
    /// and clamped to `1..=100`.
    pub fn from_drives<I>(drives: I, min_count: usize) -> SurvivalCurve
    where
        I: IntoIterator<Item = (f64, bool)>,
    {
        let mut total = [0usize; 101];
        let mut survivors = [0usize; 101];
        for (mwi, failed) in drives {
            let bucket = mwi.round().clamp(1.0, 100.0) as usize;
            total[bucket] += 1;
            if !failed {
                survivors[bucket] += 1;
            }
        }
        let points = (1..=100u32)
            .rev()
            .filter(|&v| total[v as usize] >= min_count.max(1))
            .map(|v| SurvivalPoint {
                mwi: v,
                total: total[v as usize],
                survivors: survivors[v as usize],
                rate: survivors[v as usize] as f64 / total[v as usize] as f64,
            })
            .collect();
        SurvivalCurve { points }
    }

    /// The curve's points, ordered by descending `MWI_N`.
    pub fn points(&self) -> &[SurvivalPoint] {
        &self.points
    }

    /// The survival rates alone, in curve order.
    pub fn rates(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.rate).collect()
    }

    /// The span of observed `MWI_N` values `(min, max)`, or `None` for an
    /// empty curve.
    pub fn mwi_range(&self) -> Option<(u32, u32)> {
        let max = self.points.first()?.mwi;
        let min = self.points.last()?.mwi;
        Some((min, max))
    }

    /// Whether the curve spans at least `width` distinct `MWI_N` values —
    /// the paper skips change-point analysis for MB1/MB2 because their
    /// `MWI_N` range is too small.
    pub fn has_meaningful_range(&self, width: u32) -> bool {
        self.mwi_range()
            .is_some_and(|(min, max)| max - min >= width)
    }

    /// Detect the most significant change point of the survival rate using
    /// Bayesian change-point detection plus the paper's z ≥ 2.5 rule, on
    /// the curve pooled to [`MIN_DRIVES_PER_POINT`] drives per point.
    ///
    /// Returns `Ok(None)` when the curve is too short / too narrow or no
    /// point crosses the significance threshold.
    ///
    /// # Errors
    ///
    /// Propagates errors from the BOCPD pass.
    pub fn detect_change_point(&self) -> Result<Option<WearoutChangePoint>, ChangepointError> {
        // Need a handful of points for the z-score over change
        // probabilities to mean anything.
        const MIN_POINTS: usize = 8;
        const MIN_RANGE: u32 = 10;
        // A z-score outlier among uniformly tiny change probabilities is
        // burn-in noise, not a regime change; require real posterior mass.
        const MIN_PROBABILITY: f64 = 0.03;
        let span = telemetry::span!("change_point", points = self.points.len());
        let work = self.coarsened(MIN_DRIVES_PER_POINT);
        if work.points.len() < MIN_POINTS || !work.has_meaningful_range(MIN_RANGE) {
            span.record("outcome", "skipped");
            telemetry::info!(
                "change_point",
                "survival curve too short or narrow for detection",
                coarse_points = work.points.len(),
            );
            return Ok(None);
        }
        // Smooth with a short centered moving average: small fleets have
        // sparse MWI buckets whose binomial noise would otherwise out-spike
        // the real regime change (the paper's 500K-drive buckets are dense
        // enough not to need this).
        let rates = smooth3(&work.rates());
        let probs = change_probabilities(&rates)?;
        if telemetry::event_active(telemetry::Level::Debug) {
            for (point, prob) in work.points().iter().zip(&probs) {
                telemetry::debug!(
                    "change_point",
                    format!("mwi {}: change probability {prob:.4}", point.mwi),
                    mwi = point.mwi,
                    rate = point.rate,
                    probability = *prob,
                );
            }
        }
        let candidate = most_significant_point(&probs)?;
        if let Some(p) = &candidate {
            span.record("probability", p.probability);
            span.record("z_score", p.z_score);
        }
        let result = candidate
            .filter(|p| p.probability >= MIN_PROBABILITY)
            .map(|p| WearoutChangePoint {
                mwi_threshold: work.points[p.index].mwi,
                probability: p.probability,
                z_score: p.z_score,
            });
        match &result {
            Some(cp) => {
                span.record("outcome", "detected");
                span.record("mwi_threshold", cp.mwi_threshold);
                telemetry::info!(
                    "change_point",
                    format!("survival change point at MWI {}", cp.mwi_threshold),
                    mwi_threshold = cp.mwi_threshold,
                    probability = cp.probability,
                    z_score = cp.z_score,
                );
            }
            None => span.record("outcome", "insignificant"),
        }
        Ok(result)
    }

    /// Rates after the 3-point smoothing used by change-point detection.
    pub fn smoothed_rates(&self) -> Vec<f64> {
        smooth3(&self.rates())
    }

    /// Merge adjacent points (in wear order) until every merged point
    /// covers at least `min_total` drives. Sparse `MWI_N` buckets have
    /// binomial noise large enough to out-spike a real regime change;
    /// coarsening pools them while leaving dense regions untouched.
    ///
    /// The merged point keeps the population-weighted mean `MWI_N`
    /// (rounded).
    pub fn coarsened(&self, min_total: usize) -> SurvivalCurve {
        let mut points: Vec<SurvivalPoint> = Vec::new();
        let mut acc: Option<(f64, usize, usize)> = None; // (Σ mwi·n, total, survivors)
        for p in &self.points {
            let (mwi_weighted, total, survivors) = match acc.take() {
                None => (p.mwi as f64 * p.total as f64, p.total, p.survivors),
                Some((w, t, s)) => (
                    w + p.mwi as f64 * p.total as f64,
                    t + p.total,
                    s + p.survivors,
                ),
            };
            if total >= min_total {
                points.push(SurvivalPoint {
                    mwi: (mwi_weighted / total as f64).round() as u32,
                    total,
                    survivors,
                    rate: survivors as f64 / total as f64,
                });
            } else {
                acc = Some((mwi_weighted, total, survivors));
            }
        }
        // A trailing under-populated group folds into the last emitted
        // point (or becomes the only point).
        if let Some((w, t, s)) = acc {
            match points.last_mut() {
                Some(last) => {
                    let total = last.total + t;
                    let survivors = last.survivors + s;
                    last.mwi =
                        ((last.mwi as f64 * last.total as f64 + w) / total as f64).round() as u32;
                    last.total = total;
                    last.survivors = survivors;
                    last.rate = survivors as f64 / total as f64;
                }
                None if t > 0 => points.push(SurvivalPoint {
                    mwi: (w / t as f64).round() as u32,
                    total: t,
                    survivors: s,
                    rate: s as f64 / t as f64,
                }),
                None => {}
            }
        }
        SurvivalCurve { points }
    }
}

/// Centered 3-point moving average (endpoints average their two neighbours).
fn smooth3(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    if n < 3 {
        return xs.to_vec();
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(n - 1);
            xs[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::significance::PAPER_Z_THRESHOLD;

    /// Synthetic fleet: survival high above the knee, dropping below it.
    fn kneed_drives(knee: u32, per_bucket: usize) -> Vec<(f64, bool)> {
        let mut drives = Vec::new();
        for mwi in 5..=95u32 {
            for i in 0..per_bucket {
                let fail_rate = if mwi < knee { 0.5 } else { 0.05 };
                let failed = (i as f64 / per_bucket as f64) < fail_rate;
                drives.push((mwi as f64, failed));
            }
        }
        drives
    }

    #[test]
    fn curve_orders_descending() {
        let curve = SurvivalCurve::from_drives(kneed_drives(40, 10), 3);
        let mwis: Vec<u32> = curve.points().iter().map(|p| p.mwi).collect();
        for w in mwis.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert_eq!(curve.mwi_range(), Some((5, 95)));
    }

    #[test]
    fn rates_match_construction() {
        let drives = vec![(80.0, false), (80.0, false), (80.0, true), (80.0, false)];
        let curve = SurvivalCurve::from_drives(drives, 1);
        assert_eq!(curve.points().len(), 1);
        let p = curve.points()[0];
        assert_eq!(p.total, 4);
        assert_eq!(p.survivors, 3);
        assert!((p.rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn min_count_drops_sparse_buckets() {
        let drives = vec![(80.0, false), (80.0, false), (30.0, true)];
        let curve = SurvivalCurve::from_drives(drives, 2);
        assert_eq!(curve.points().len(), 1);
        assert_eq!(curve.points()[0].mwi, 80);
    }

    #[test]
    fn detects_knee_near_truth() {
        let curve = SurvivalCurve::from_drives(kneed_drives(40, 30), 3);
        let cp = curve.detect_change_point().unwrap().unwrap();
        assert!(
            (35..=45).contains(&cp.mwi_threshold),
            "threshold = {}",
            cp.mwi_threshold
        );
        assert!(cp.z_score.abs() >= PAPER_Z_THRESHOLD);
    }

    #[test]
    fn narrow_range_yields_none() {
        // All drives end with MWI in 97..=100 (the MB1/MB2 situation).
        let mut drives = Vec::new();
        for mwi in 97..=100u32 {
            for i in 0..20 {
                drives.push((mwi as f64, i < 1));
            }
        }
        let curve = SurvivalCurve::from_drives(drives, 3);
        assert!(curve.detect_change_point().unwrap().is_none());
        assert!(!curve.has_meaningful_range(10));
    }

    #[test]
    fn flat_curve_yields_none() {
        let mut drives = Vec::new();
        for mwi in 10..=90u32 {
            for i in 0..20 {
                drives.push((mwi as f64, i < 2)); // uniform 10% failures
            }
        }
        let curve = SurvivalCurve::from_drives(drives, 3);
        assert!(curve.detect_change_point().unwrap().is_none());
    }

    #[test]
    fn clamps_out_of_range_mwi() {
        let drives = vec![(150.0, false), (-5.0, true)];
        let curve = SurvivalCurve::from_drives(drives, 1);
        let mwis: Vec<u32> = curve.points().iter().map(|p| p.mwi).collect();
        assert_eq!(mwis, vec![100, 1]);
    }

    #[test]
    fn coarsen_pools_sparse_buckets() {
        // 10 buckets of 10 drives each, alternating failures.
        let drives: Vec<(f64, bool)> = (50..60)
            .flat_map(|mwi| (0..10).map(move |i| (mwi as f64, i < 2)))
            .collect();
        let curve = SurvivalCurve::from_drives(drives, 1);
        assert_eq!(curve.points().len(), 10);
        let coarse = curve.coarsened(25);
        // Total population is preserved.
        let total: usize = coarse.points().iter().map(|p| p.total).sum();
        assert_eq!(total, 100);
        // Every merged point has at least 25 drives.
        assert!(coarse.points().iter().all(|p| p.total >= 25));
        // Pooled rate matches construction (2 of 10 fail everywhere).
        for p in coarse.points() {
            assert!((p.rate - 0.8).abs() < 1e-12);
        }
    }

    #[test]
    fn coarsen_keeps_dense_buckets_intact() {
        let drives: Vec<(f64, bool)> = (70..73)
            .flat_map(|mwi| (0..50).map(move |i| (mwi as f64, i < 5)))
            .collect();
        let curve = SurvivalCurve::from_drives(drives, 1);
        let coarse = curve.coarsened(25);
        assert_eq!(coarse.points().len(), 3);
        assert_eq!(coarse.points(), curve.points());
    }

    #[test]
    fn coarsen_folds_trailing_remainder() {
        // 30 drives at MWI 90, then a sparse tail of 5 at MWI 10.
        let mut drives: Vec<(f64, bool)> = (0..30).map(|i| (90.0, i < 3)).collect();
        drives.extend((0..5).map(|i| (10.0, i < 1)));
        let curve = SurvivalCurve::from_drives(drives, 1);
        let coarse = curve.coarsened(25);
        // The 5-drive tail folds into the previous point.
        assert_eq!(coarse.points().len(), 1);
        let p = coarse.points()[0];
        assert_eq!(p.total, 35);
        assert_eq!(p.survivors, 31);
        // Weighted-mean MWI sits between the sources, nearer the big bucket.
        assert!((70..=90).contains(&p.mwi), "mwi = {}", p.mwi);
    }

    #[test]
    fn coarsen_of_empty_curve_is_empty() {
        let curve = SurvivalCurve::from_drives(Vec::<(f64, bool)>::new(), 1);
        assert!(curve.coarsened(25).points().is_empty());
    }

    #[test]
    fn empty_curve_behaves() {
        let curve = SurvivalCurve::from_drives(Vec::<(f64, bool)>::new(), 1);
        assert!(curve.points().is_empty());
        assert_eq!(curve.mwi_range(), None);
        assert!(curve.detect_change_point().unwrap().is_none());
    }
}
