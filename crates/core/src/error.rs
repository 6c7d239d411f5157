use std::error::Error;
use std::fmt;

/// Errors raised when constructing or feeding the shared-state cache model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// The cache size in lines was outside `2..=ModelParams::MAX_LINES`:
    /// `k = (N-1)/N` needs at least 2 lines to be a meaningful decay
    /// factor, and the priority tables hold one entry per line.
    CacheOutOfRange {
        /// The rejected number of lines.
        lines: usize,
    },
    /// A sharing coefficient was outside the `[0, 1]` interval.
    InvalidSharingCoefficient {
        /// The rejected coefficient.
        q: f64,
    },
    /// A sharing coefficient was NaN or infinite. Distinct from
    /// [`ModelError::InvalidSharingCoefficient`] so callers (and lints)
    /// can tell a bad-but-real value from a corrupted one.
    NonFiniteSharingCoefficient {
        /// The rejected coefficient.
        q: f64,
    },
    /// A fill fraction passed to
    /// [`FootprintModel::misses_to_fill`](crate::FootprintModel::misses_to_fill)
    /// was NaN. `ceil() as u64` on a NaN quietly produces 0, so the old
    /// code turned a corrupted input into "already full" — reject it
    /// instead.
    NonFiniteFillFraction {
        /// The rejected fraction.
        frac: f64,
    },
    /// A per-set estimator geometry was invalid: zero lines, ways, or
    /// processors, or more ways than lines.
    BadEstimatorGeometry {
        /// Human-readable description of the rejected geometry.
        reason: String,
    },
    /// A self-edge `at_share(t, t, q)` was requested; a thread trivially
    /// shares all of its state with itself and such edges are rejected to
    /// keep the dependency graph meaningful.
    SelfSharing {
        /// The offending thread.
        thread: u64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::CacheOutOfRange { lines } => {
                let size = if *lines < 2 { "small" } else { "large" };
                let max = crate::ModelParams::MAX_LINES;
                write!(f, "cache of {lines} lines is too {size} for the model (need 2..={max})")
            }
            ModelError::InvalidSharingCoefficient { q } => {
                write!(f, "sharing coefficient {q} is outside [0, 1]")
            }
            ModelError::NonFiniteSharingCoefficient { q } => {
                write!(f, "sharing coefficient {q} is not a finite number")
            }
            ModelError::NonFiniteFillFraction { frac } => {
                write!(f, "fill fraction {frac} is not a number")
            }
            ModelError::BadEstimatorGeometry { reason } => {
                write!(f, "bad estimator geometry: {reason}")
            }
            ModelError::SelfSharing { thread } => {
                write!(f, "thread t{thread} cannot share state with itself")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ModelError::CacheOutOfRange { lines: 1 };
        assert!(e.to_string().contains("1 lines is too small"));
        let e = ModelError::CacheOutOfRange { lines: usize::MAX };
        assert!(e.to_string().contains("too large"));
        let e = ModelError::InvalidSharingCoefficient { q: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = ModelError::NonFiniteSharingCoefficient { q: f64::NAN };
        assert!(e.to_string().contains("not a finite"));
        let e = ModelError::NonFiniteFillFraction { frac: f64::NAN };
        assert!(e.to_string().contains("not a number"));
        let e = ModelError::SelfSharing { thread: 4 };
        assert!(e.to_string().contains("t4"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ModelError>();
    }
}
