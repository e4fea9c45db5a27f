//! Time-based train/validation/test splits (§V-A): the last three months of
//! the 24-month window form three test phases; each phase trains on every
//! month before it, with the last 20% of training days held out for
//! validation.

use crate::error::PipelineError;

/// The paper's month count over the dataset window.
pub const MONTHS: u32 = 24;

/// One evaluation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Training days `[0, train_end]` (inclusive), minus the validation
    /// tail.
    pub train_end: u32,
    /// Validation days `[validation_start, train_end]` (the last 20% of the
    /// training period, split by day).
    pub validation_start: u32,
    /// Test days `[test_start, test_end]` (inclusive).
    pub test_start: u32,
    /// Last test day (inclusive).
    pub test_end: u32,
}

impl Phase {
    /// Training days excluding validation: `[0, validation_start - 1]`.
    pub fn fit_range(&self) -> (u32, u32) {
        (0, self.validation_start.saturating_sub(1))
    }

    /// Validation days.
    pub fn validation_range(&self) -> (u32, u32) {
        (self.validation_start, self.train_end)
    }
}

/// The first day of month `m` (0-based) in a window of `days` days split
/// into [`MONTHS`] equal months.
pub fn month_start(days: u32, m: u32) -> u32 {
    (m as u64 * days as u64 / MONTHS as u64) as u32
}

/// The paper's three test phases for a window of `days` days: test months
/// 21, 22, 23 (0-based), each trained on all preceding months with an 8:2
/// train/validation day split.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidInput`] when the window is too short for
/// 24 months of at least ~5 days each.
pub fn paper_phases(days: u32) -> Result<Vec<Phase>, PipelineError> {
    if days < 120 {
        return Err(PipelineError::invalid(format!(
            "window of {days} days is too short for 24-month phases"
        )));
    }
    Ok((21..24)
        .map(|test_month| {
            let train_end = month_start(days, test_month) - 1;
            let test_start = month_start(days, test_month);
            let test_end = month_start(days, test_month + 1) - 1;
            let train_len = train_end + 1;
            let validation_start = train_len - train_len / 5;
            Phase {
                train_end,
                validation_start,
                test_start,
                test_end,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn month_boundaries_partition_the_window() {
        let days = 730;
        assert_eq!(month_start(days, 0), 0);
        assert_eq!(month_start(days, 24), 730);
        for m in 0..24 {
            let len = month_start(days, m + 1) - month_start(days, m);
            assert!((30..=31).contains(&len), "month {m} has {len} days");
        }
    }

    #[test]
    fn three_phases_cover_last_three_months() {
        let phases = paper_phases(730).unwrap();
        assert_eq!(phases.len(), 3);
        // Phases are consecutive and end at the window end.
        assert_eq!(phases[2].test_end, 729);
        for pair in phases.windows(2) {
            assert_eq!(pair[0].test_end + 1, pair[1].test_start);
        }
        // Each phase trains strictly before its test period.
        for p in &phases {
            assert_eq!(p.train_end + 1, p.test_start);
        }
    }

    #[test]
    fn validation_is_twenty_percent_of_training() {
        for p in paper_phases(730).unwrap() {
            let train_len = p.train_end + 1;
            let val_len = p.train_end - p.validation_start + 1;
            let frac = val_len as f64 / train_len as f64;
            assert!((frac - 0.2).abs() < 0.01, "frac = {frac}");
            let (fit_start, fit_end) = p.fit_range();
            assert_eq!(fit_start, 0);
            assert_eq!(fit_end + 1, p.validation_start);
        }
    }

    #[test]
    fn phases_scale_with_window_length() {
        let phases = paper_phases(240).unwrap();
        assert_eq!(phases[0].test_start, month_start(240, 21));
        assert_eq!(phases[2].test_end, 239);
    }

    #[test]
    fn short_window_is_rejected() {
        assert!(paper_phases(100).is_err());
    }
}
