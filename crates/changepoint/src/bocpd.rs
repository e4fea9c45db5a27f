//! Bayesian online change-point detection (Adams & MacKay style) with a
//! Normal-Gamma observation model.
//!
//! The paper computes, for each point of the survival-rate sequence, "the
//! change probability (i.e., the posterior distribution of the sequence up
//! to a survival rate given the sequence before the point)" [§III-C]. BOCPD
//! provides exactly that quantity: `P(run length = 0 | x₁..xₜ)` — the
//! posterior probability that a new segment starts at `t`.

use crate::error::ChangepointError;
use crate::normal_gamma::NormalGamma;
use smart_stats::descriptive::{mean, population_std};

/// Constant hazard: the prior probability of a change at each step
/// (`1 / expected run length`).
const HAZARD: f64 = 1.0 / 50.0;

/// The prior over each segment's mean and precision: weakly informative
/// for the z-scored series the detector analyzes.
const PRIOR: NormalGamma = NormalGamma {
    mu: 0.0,
    kappa: 1.0,
    alpha: 1.0,
    beta: 1.0,
};

/// Run-length probabilities below this are pruned for speed.
const PRUNE_THRESHOLD: f64 = 1e-9;

/// Per-position change probabilities for `series`: element `i` is the
/// posterior probability that a new segment *started at observation `i`*.
///
/// The series is standardized (z-scored) first, so one weakly informative
/// prior (μ 0, κ 1, α 1, β 1) fits any scale; the hazard is 1/50.
///
/// With a constant hazard, `P(rₜ = 0)` equals the hazard identically (the
/// normalizer cancels the likelihoods), so the informative statistic is the
/// run-length posterior one step later: `P(r_{i+1} = 1 | x₁..x_{i+1})` — the
/// probability that the run began at `xᵢ`, evaluated once the next
/// observation has had a chance to confirm the new regime. The first and
/// last positions carry no such evidence (a segment trivially starts at 0;
/// the last point has no follow-up) and are reported as 0.
///
/// # Errors
///
/// Returns [`ChangepointError::SeriesTooShort`] for fewer than 3 points and
/// [`ChangepointError::NonFinite`] for NaN/∞ inputs.
pub fn change_probabilities(series: &[f64]) -> Result<Vec<f64>, ChangepointError> {
    if series.len() < 3 {
        return Err(ChangepointError::SeriesTooShort {
            len: series.len(),
            required: 3,
        });
    }
    if series.iter().any(|x| !x.is_finite()) {
        return Err(ChangepointError::NonFinite);
    }

    let span = telemetry::span!("bocpd", n = series.len());

    let m = mean(series)?;
    let s = population_std(series)?;
    let s = if s > 0.0 { s } else { 1.0 };
    let xs: Vec<f64> = series.iter().map(|x| (x - m) / s).collect();

    // run_probs[r] = P(current run began at observation t-r | x₀..xₜ);
    // models[r] = posterior for that run (lagging by its first observation,
    // the standard online simplification).
    let mut run_probs: Vec<f64> = vec![1.0];
    let mut models: Vec<NormalGamma> = vec![PRIOR];
    let mut cp_probs = vec![0.0; xs.len()];

    for (t, &x) in xs.iter().enumerate().skip(1) {
        let predictive: Vec<f64> = models.iter().map(|m| m.log_predictive(x).exp()).collect();

        // Growth: run continues. Change: any run ends, a new one starts.
        let mut grown: Vec<f64> = run_probs
            .iter()
            .zip(&predictive)
            .map(|(p, like)| p * like * (1.0 - HAZARD))
            .collect();
        let changed: f64 = run_probs
            .iter()
            .zip(&predictive)
            .map(|(p, like)| p * like * HAZARD)
            .sum();

        let mut next_probs = Vec::with_capacity(grown.len() + 1);
        next_probs.push(changed);
        next_probs.append(&mut grown);

        let total: f64 = next_probs.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            // Numerical underflow across the board: restart mass at r = 0.
            telemetry::counter_add("bocpd.underflow_restarts", 1);
            run_probs = vec![1.0];
            models = vec![PRIOR];
            cp_probs[t] = 1.0;
            continue;
        }
        for p in &mut next_probs {
            *p /= total;
        }

        // Posterior update: run r at t extends run r-1's model with x; run 0
        // restarts from the prior (it will absorb x at the next step).
        let mut next_models = Vec::with_capacity(models.len() + 1);
        next_models.push(PRIOR);
        for m in &models {
            next_models.push(m.update(x));
        }

        run_probs = next_probs;
        models = next_models;

        // Tail pruning: drop negligible long run lengths (tail-only, so the
        // short-run indices the statistic reads stay aligned).
        let last_kept = run_probs
            .iter()
            .rposition(|&p| p > PRUNE_THRESHOLD)
            .unwrap_or(0);
        let keep_len = (last_kept + 1).max(2).min(run_probs.len());
        run_probs.truncate(keep_len);
        models.truncate(keep_len);
        let renorm: f64 = run_probs.iter().sum();
        if renorm > 0.0 {
            for p in &mut run_probs {
                *p /= renorm;
            }
        }

        // P(run began at x_{t-1}) — attribute it to position t-1. Skip the
        // trivial attribution to position 0.
        if t >= 2 {
            cp_probs[t - 1] = run_probs.get(1).copied().unwrap_or(0.0);
        }
    }
    let peak = cp_probs.iter().copied().fold(0.0f64, f64::max);
    span.record("peak_probability", peak);
    Ok(cp_probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::rngs::StdRng;
    use rng::SeedableRng;
    use smart_stats::gaussian::sample_normal;

    fn step_series(n1: usize, mu1: f64, n2: usize, mu2: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n1 + n2);
        for _ in 0..n1 {
            xs.push(sample_normal(&mut rng, mu1, 0.3));
        }
        for _ in 0..n2 {
            xs.push(sample_normal(&mut rng, mu2, 0.3));
        }
        xs
    }

    #[test]
    fn detects_obvious_step() {
        let xs = step_series(40, 0.0, 40, 5.0, 1);
        let probs = change_probabilities(&xs).unwrap();
        // The change probability at the step (index 40, ±2) must dominate.
        let peak = (38..=42).map(|i| probs[i]).fold(0.0, f64::max);
        let elsewhere = probs[10..30].iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(peak > 0.5, "peak = {peak}");
        assert!(
            peak > 5.0 * elsewhere,
            "peak {peak} vs elsewhere {elsewhere}"
        );
    }

    #[test]
    fn flat_series_has_low_probabilities() {
        let xs = step_series(80, 1.0, 0, 0.0, 2);
        let probs = change_probabilities(&xs).unwrap();
        // After burn-in, change probability should hover near the hazard.
        let late_max = probs[10..].iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(late_max < 0.4, "late_max = {late_max}");
    }

    #[test]
    fn probabilities_are_probabilities() {
        let xs = step_series(30, 0.0, 30, 2.0, 3);
        let probs = change_probabilities(&xs).unwrap();
        assert_eq!(probs.len(), xs.len());
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert_eq!(probs[0], 0.0);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(matches!(
            change_probabilities(&[1.0]),
            Err(ChangepointError::SeriesTooShort { .. })
        ));
        assert!(matches!(
            change_probabilities(&[1.0, f64::NAN, 2.0]),
            Err(ChangepointError::NonFinite)
        ));
    }

    #[test]
    fn constant_series_is_stable() {
        let xs = vec![0.7; 60];
        let probs = change_probabilities(&xs).unwrap();
        assert!(probs.iter().all(|p| p.is_finite()));
        let late_max = probs[10..].iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(late_max < 0.5, "late_max = {late_max}");
    }

    #[test]
    fn detects_variance_change_too() {
        // Same mean, variance jumps 0.1 -> 3.0: a mean-only detector misses
        // this; the Normal-Gamma model must not.
        let mut rng = StdRng::seed_from_u64(5);
        let mut xs: Vec<f64> = (0..50).map(|_| sample_normal(&mut rng, 0.0, 0.1)).collect();
        xs.extend((0..50).map(|_| sample_normal(&mut rng, 0.0, 3.0)));
        let probs = change_probabilities(&xs).unwrap();
        let peak = (48..=56).map(|i| probs[i]).fold(0.0, f64::max);
        let baseline = probs[10..40].iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(peak > baseline, "peak {peak} vs baseline {baseline}");
    }
}
