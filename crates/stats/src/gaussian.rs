//! Normal distribution utilities: pdf, cdf, erf approximation, and seeded
//! Box–Muller sampling (used by the fleet simulator, which deliberately
//! avoids extra distribution crates).

use rng::Rng;

/// Standard normal probability density at `x`.
pub fn std_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, max absolute
/// error ~1.5e-7 — ample for significance filtering).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function at `x`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Draw one sample from `N(mean, std²)` using the Box–Muller transform.
///
/// `std` may be zero (returns `mean`); a negative `std` is treated as its
/// absolute value.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    let std = std.abs();
    if std == 0.0 {
        return mean;
    }
    // Box–Muller: u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::rngs::StdRng;
    use rng::SeedableRng;

    #[test]
    fn pdf_peak_at_zero() {
        assert!((std_normal_pdf(0.0) - 0.398_942_280_401_432_7).abs() < 1e-12);
        assert!(std_normal_pdf(1.0) < std_normal_pdf(0.0));
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_909_503_001_4).abs() < 1e-6);
    }

    #[test]
    fn cdf_symmetry_and_tails() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(std_normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn sampling_matches_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn zero_std_returns_mean() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_normal(&mut rng, 5.0, 0.0), 5.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert_eq!(
                sample_normal(&mut a, 0.0, 1.0).to_bits(),
                sample_normal(&mut b, 0.0, 1.0).to_bits()
            );
        }
    }
}
