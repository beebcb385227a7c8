//! Error type shared by all estimators in this crate.

/// Why a statistic could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// Fewer samples than the estimator's minimum (`needed`) were supplied.
    TooFewSamples {
        /// Minimum number of samples the estimator requires.
        needed: usize,
        /// Number of samples that were actually supplied.
        got: usize,
    },
    /// The paired input slices have different lengths.
    LengthMismatch {
        /// Length of the first slice.
        left: usize,
        /// Length of the second slice.
        right: usize,
    },
    /// One of the variables is (numerically) constant, so correlation is
    /// undefined (zero variance appears in the denominator).
    ZeroVariance,
    /// An input contained a non-finite value (NaN or ±∞).
    NonFiniteInput,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewSamples { needed, got } => {
                write!(f, "too few samples: estimator needs {needed}, got {got}")
            }
            Self::LengthMismatch { left, right } => {
                write!(f, "paired slices differ in length: {left} vs {right}")
            }
            Self::ZeroVariance => write!(f, "zero variance: correlation undefined"),
            Self::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Validate that `x` and `y` form a usable paired sample of at least
/// `min_len` observations with only finite values.
pub(crate) fn validate_pairs(x: &[f64], y: &[f64], min_len: usize) -> Result<(), StatsError> {
    validate_shape(x, y, min_len)?;
    validate_finite(x, y)
}

/// The shape half of [`validate_pairs`]: equal lengths, at least
/// `min_len` observations.
pub(crate) fn validate_shape(x: &[f64], y: &[f64], min_len: usize) -> Result<(), StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < min_len {
        return Err(StatsError::TooFewSamples {
            needed: min_len,
            got: x.len(),
        });
    }
    Ok(())
}

/// The value half of [`validate_pairs`]: no NaN or ±∞ anywhere.
pub(crate) fn validate_finite(x: &[f64], y: &[f64]) -> Result<(), StatsError> {
    if !x.iter().chain(y.iter()).all(|v| v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StatsError::TooFewSamples { needed: 3, got: 1 };
        assert!(e.to_string().contains("needs 3"));
        let e = StatsError::LengthMismatch { left: 2, right: 5 };
        assert!(e.to_string().contains("2 vs 5"));
        assert!(StatsError::ZeroVariance.to_string().contains("variance"));
        assert!(StatsError::NonFiniteInput.to_string().contains("NaN"));
    }

    #[test]
    fn validate_rejects_mismatched_lengths() {
        assert_eq!(
            validate_pairs(&[1.0], &[1.0, 2.0], 1),
            Err(StatsError::LengthMismatch { left: 1, right: 2 })
        );
    }

    #[test]
    fn validate_rejects_nan() {
        assert_eq!(
            validate_pairs(&[1.0, f64::NAN], &[1.0, 2.0], 2),
            Err(StatsError::NonFiniteInput)
        );
        assert_eq!(
            validate_pairs(&[1.0, 2.0], &[f64::INFINITY, 2.0], 2),
            Err(StatsError::NonFiniteInput)
        );
    }

    #[test]
    fn validate_accepts_good_input() {
        assert!(validate_pairs(&[1.0, 2.0], &[3.0, 4.0], 2).is_ok());
    }
}
