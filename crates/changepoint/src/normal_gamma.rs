//! Normal-Gamma conjugate model for Gaussian sequences with unknown mean
//! and precision, including the Student-t posterior-predictive density that
//! Bayesian online change-point detection needs.

/// Parameters of a Normal-Gamma distribution over (mean, precision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalGamma {
    /// Prior mean.
    pub mu: f64,
    /// Pseudo-observations backing the mean.
    pub kappa: f64,
    /// Gamma shape.
    pub alpha: f64,
    /// Gamma rate.
    pub beta: f64,
}

impl Default for NormalGamma {
    /// A weakly informative prior suited to z-scored inputs.
    fn default() -> Self {
        NormalGamma {
            mu: 0.0,
            kappa: 1.0,
            alpha: 1.0,
            beta: 1.0,
        }
    }
}

impl NormalGamma {
    /// Posterior after observing `x` (standard conjugate update).
    pub fn update(&self, x: f64) -> NormalGamma {
        let kappa1 = self.kappa + 1.0;
        NormalGamma {
            mu: (self.kappa * self.mu + x) / kappa1,
            kappa: kappa1,
            alpha: self.alpha + 0.5,
            beta: self.beta + self.kappa * (x - self.mu) * (x - self.mu) / (2.0 * kappa1),
        }
    }

    /// Log posterior-predictive density of the next observation `x`: a
    /// Student-t with `2α` degrees of freedom, location `μ`, and scale²
    /// `β(κ+1)/(ακ)`.
    pub fn log_predictive(&self, x: f64) -> f64 {
        let df = 2.0 * self.alpha;
        let scale2 = self.beta * (self.kappa + 1.0) / (self.alpha * self.kappa);
        student_t_log_pdf(x, df, self.mu, scale2.sqrt())
    }
}

/// Log-pdf of a location-scale Student-t distribution.
pub fn student_t_log_pdf(x: f64, df: f64, loc: f64, scale: f64) -> f64 {
    let z = (x - loc) / scale;
    ln_gamma((df + 1.0) / 2.0)
        - ln_gamma(df / 2.0)
        - 0.5 * (df * std::f64::consts::PI).ln()
        - scale.ln()
        - (df + 1.0) / 2.0 * (1.0 + z * z / df).ln()
}

/// Log-gamma via the Lanczos approximation (g = 7, 9 coefficients);
/// accurate to ~1e-13 over the positive reals.
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x·Γ(x).
        for x in [0.7, 1.3, 2.9, 7.5, 20.0] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-9, "x = {x}");
        }
    }

    #[test]
    fn student_t_matches_cauchy_at_df_one() {
        // t(df=1) is standard Cauchy: pdf(0) = 1/π.
        let lp = student_t_log_pdf(0.0, 1.0, 0.0, 1.0);
        assert!((lp.exp() - 1.0 / std::f64::consts::PI).abs() < 1e-10);
    }

    #[test]
    fn student_t_approaches_normal_at_high_df() {
        let lp = student_t_log_pdf(1.0, 1e6, 0.0, 1.0);
        let normal = smart_stats::gaussian::std_normal_pdf(1.0).ln();
        assert!((lp - normal).abs() < 1e-3);
    }

    #[test]
    fn update_shifts_mean_toward_observation() {
        let prior = NormalGamma::default();
        let post = prior.update(10.0);
        assert!(post.mu > prior.mu);
        assert_eq!(post.kappa, 2.0);
        assert_eq!(post.alpha, 1.5);
        assert!(post.beta > prior.beta);
    }

    #[test]
    fn repeated_updates_concentrate() {
        let mut ng = NormalGamma::default();
        for _ in 0..100 {
            ng = ng.update(3.0);
        }
        assert!((ng.mu - 3.0).abs() < 0.1);
        // Predictive mass at the data value beats the prior's.
        assert!(ng.log_predictive(3.0) > NormalGamma::default().log_predictive(3.0));
    }

    #[test]
    fn predictive_is_normalized_enough() {
        // Numerically integrate the predictive over a wide grid.
        let ng = NormalGamma::default().update(0.5).update(-0.2);
        let step = 0.01;
        let total: f64 = (-4000..4000)
            .map(|i| ng.log_predictive(i as f64 * step).exp() * step)
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "total = {total}");
    }
}
