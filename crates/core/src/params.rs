use crate::ModelError;

/// Parameters of the shared-state cache model.
///
/// The model targets large physically-indexed **direct-mapped** secondary
/// caches (paper §2.1): the only parameter it needs is the cache size `N`
/// in lines. All probabilities derive from the single-miss survival factor
/// `k = (N − 1) / N`.
///
/// ```
/// use locality_core::ModelParams;
/// let p = ModelParams::new(8192)?; // 512 KiB cache, 64-byte lines
/// assert_eq!(p.lines(), 8192);
/// assert!(p.k() < 1.0 && p.k() > 0.999);
/// # Ok::<(), locality_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    lines: usize,
    k: f64,
    log_k: f64,
}

impl ModelParams {
    /// The largest cache the model describes, in lines (64 MiB of 64-byte
    /// lines). The priority tables hold one `log F` per line, so an
    /// unbounded `N` is an allocation the process cannot survive; the
    /// simulator's `CacheGeometry::MAX_LINES` is this constant.
    pub const MAX_LINES: usize = 1 << 20;

    /// Creates model parameters for a direct-mapped cache of `lines` lines.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CacheOutOfRange`] unless
    /// `2 ≤ lines ≤` [`MAX_LINES`](Self::MAX_LINES).
    pub fn new(lines: usize) -> Result<Self, ModelError> {
        if !(2..=Self::MAX_LINES).contains(&lines) {
            return Err(ModelError::CacheOutOfRange { lines });
        }
        let n = lines as f64;
        let k = (n - 1.0) / n;
        Ok(ModelParams { lines, k, log_k: k.ln() })
    }

    /// The cache size `N` in lines.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// The cache size `N` as a float, for use in the closed forms.
    pub fn n(&self) -> f64 {
        self.lines as f64
    }

    /// The per-miss survival probability `k = (N − 1) / N`: the probability
    /// that a single randomly-placed miss does *not* displace a given line.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Natural logarithm of `k`; a negative constant used by the log-space
    /// priority schemes (paper §4.1).
    pub fn log_k(&self) -> f64 {
        self.log_k
    }

    /// `kⁿ` computed directly (no table). Exact for any `n`.
    ///
    /// `kⁿ = exp(n · ln k)` decays to zero: after `N·lnN` misses virtually
    /// no unreferenced line survives.
    pub fn k_pow(&self, n: u64) -> f64 {
        (self.log_k * n as f64).exp()
    }
}

/// Validates a sharing coefficient.
///
/// # Errors
///
/// Returns [`ModelError::NonFiniteSharingCoefficient`] for NaN or
/// infinite values, and [`ModelError::InvalidSharingCoefficient`] for
/// finite values outside `[0, 1]`.
pub fn check_coefficient(q: f64) -> Result<(), ModelError> {
    if !q.is_finite() {
        return Err(ModelError::NonFiniteSharingCoefficient { q });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(ModelError::InvalidSharingCoefficient { q });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_caches_out_of_range() {
        for lines in [0, 1, ModelParams::MAX_LINES + 1, usize::MAX] {
            assert_eq!(ModelParams::new(lines), Err(ModelError::CacheOutOfRange { lines }));
        }
        assert!(ModelParams::new(2).is_ok());
        assert!(ModelParams::new(ModelParams::MAX_LINES).is_ok());
    }

    #[test]
    fn k_matches_definition() {
        let p = ModelParams::new(8192).unwrap();
        assert!((p.k() - 8191.0 / 8192.0).abs() < 1e-15);
        assert!(p.log_k() < 0.0);
    }

    #[test]
    fn k_pow_decays_monotonically() {
        let p = ModelParams::new(128).unwrap();
        let mut prev = 1.0;
        for n in 1..2000 {
            let v = p.k_pow(n);
            assert!(v < prev, "k^n must strictly decrease");
            assert!(v > 0.0);
            prev = v;
        }
    }

    #[test]
    fn k_pow_zero_is_one() {
        let p = ModelParams::new(64).unwrap();
        assert_eq!(p.k_pow(0), 1.0);
    }

    #[test]
    fn k_pow_matches_naive_product() {
        let p = ModelParams::new(16).unwrap();
        let mut naive = 1.0f64;
        for n in 1..=100u64 {
            naive *= p.k();
            assert!((p.k_pow(n) - naive).abs() < 1e-12, "mismatch at n={n}");
        }
    }

    #[test]
    fn coefficient_validation() {
        assert!(check_coefficient(0.0).is_ok());
        assert!(check_coefficient(1.0).is_ok());
        assert!(check_coefficient(0.5).is_ok());
        assert!(check_coefficient(-0.01).is_err());
        assert!(check_coefficient(1.01).is_err());
        assert!(check_coefficient(f64::NAN).is_err());
    }

    #[test]
    fn out_of_range_coefficients_are_typed_as_invalid() {
        assert!(matches!(
            check_coefficient(-0.5),
            Err(ModelError::InvalidSharingCoefficient { q }) if q == -0.5
        ));
        assert!(matches!(
            check_coefficient(2.0),
            Err(ModelError::InvalidSharingCoefficient { q }) if q == 2.0
        ));
    }

    #[test]
    fn non_finite_coefficients_are_typed_distinctly() {
        assert!(matches!(
            check_coefficient(f64::NAN),
            Err(ModelError::NonFiniteSharingCoefficient { q }) if q.is_nan()
        ));
        assert!(matches!(
            check_coefficient(f64::INFINITY),
            Err(ModelError::NonFiniteSharingCoefficient { q }) if q.is_infinite()
        ));
        assert!(matches!(
            check_coefficient(f64::NEG_INFINITY),
            Err(ModelError::NonFiniteSharingCoefficient { .. })
        ));
    }
}
