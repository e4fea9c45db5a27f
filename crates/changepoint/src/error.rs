//! Error type for change-point detection.

use std::fmt;

/// Errors produced by change-point routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChangepointError {
    /// The input series was too short for the requested analysis.
    SeriesTooShort {
        /// Observed length.
        len: usize,
        /// Minimum required length.
        required: usize,
    },
    /// The input contained a non-finite value.
    NonFinite,
}

impl fmt::Display for ChangepointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangepointError::SeriesTooShort { len, required } => {
                write!(
                    f,
                    "series of length {len} is too short (need at least {required})"
                )
            }
            ChangepointError::NonFinite => write!(f, "series contains a non-finite value"),
        }
    }
}

impl std::error::Error for ChangepointError {}

/// The statistics this crate takes (mean, standard deviation, z-scores)
/// fail only on an empty series, which every caller rejects first.
impl From<smart_stats::StatsError> for ChangepointError {
    fn from(_: smart_stats::StatsError) -> ChangepointError {
        ChangepointError::SeriesTooShort {
            len: 0,
            required: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ChangepointError::SeriesTooShort {
            len: 2,
            required: 8,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('8'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ChangepointError>();
    }
}
