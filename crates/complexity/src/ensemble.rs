//! The ensemble complexity measure `F` of Seijo-Pardo et al. \[26\]:
//! `F = (1/F1 + F2 + 1/F3) / d`, oriented so that *higher F = harder
//! problem*.

use crate::measures::SubsetMeasures;

/// Cap on the reciprocal terms `1/F1` and `1/F3`, so that a useless
/// feature set yields a large-but-finite complexity.
const RECIPROCAL_CAP: f64 = 10.0;

/// The ensemble complexity `F` of a feature subset, divided by `divisor`.
/// Higher = harder.
pub fn ensemble_complexity(m: &SubsetMeasures, divisor: f64) -> f64 {
    let r1 = capped_reciprocal(m.f1);
    let r3 = capped_reciprocal(m.f3);
    (r1 + m.f2 + r3) / divisor
}

fn capped_reciprocal(x: f64) -> f64 {
    if x <= 0.0 {
        RECIPROCAL_CAP
    } else {
        (1.0 / x).min(RECIPROCAL_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn easy_subset_has_low_complexity() {
        let easy = SubsetMeasures {
            f1: 50.0,
            f2: 0.0,
            f3: 1.0,
        };
        let hard = SubsetMeasures {
            f1: 0.01,
            f2: 1.0,
            f3: 0.05,
        };
        assert!(ensemble_complexity(&easy, 3.0) < ensemble_complexity(&hard, 3.0));
    }

    #[test]
    fn empty_subset_hits_the_cap() {
        let f = ensemble_complexity(&SubsetMeasures::empty(), 3.0);
        // (cap + 1 + cap) / 3 = 7.0.
        assert!((f - 7.0).abs() < 1e-12, "f = {f}");
    }

    #[test]
    fn divisor_rescales_only() {
        let m = SubsetMeasures {
            f1: 2.0,
            f2: 0.5,
            f3: 0.5,
        };
        let d3 = ensemble_complexity(&m, 3.0);
        let d2 = ensemble_complexity(&m, 2.0);
        assert!((d2 / d3 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        let m = SubsetMeasures {
            f1: 2.0,
            f2: 0.5,
            f3: 0.5,
        };
        // (0.5 + 0.5 + 2.0) / 3 = 1.0
        let f = ensemble_complexity(&m, 3.0);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complexity_is_nonnegative_and_finite() {
        for f1 in [0.0, 0.1, 1e9] {
            for f2 in [0.0, 0.5, 1.0] {
                for f3 in [0.0, 0.5, 1.0] {
                    let f = ensemble_complexity(&SubsetMeasures { f1, f2, f3 }, 3.0);
                    assert!(f.is_finite() && f >= 0.0);
                }
            }
        }
    }
}
