//! Closed-form expected footprints of the shared-state cache model
//! (paper §2.4).
//!
//! All three cases describe the evolution of a thread's expected footprint
//! in the cache of processor `p` while thread *A*, running on `p`, takes
//! `n` misses. Misses are assumed independent and uniformly distributed
//! over the `N` cache lines (paper §2.1), so a single miss leaves any given
//! line untouched with probability `k = (N−1)/N`.

use crate::{ModelError, ModelParams};

/// `target − (target − s)·kn`: footprint `s` after misses that leave any
/// one line untouched with probability `kn = kⁿ`, moved toward `target`
/// (`N` for the blocker, `qN` for a dependent, `0` for an independent
/// thread, where it is `s·kn` bit for bit). The one statement of the
/// paper's closed forms; every caller keeps its own `n = 0` policy.
#[inline(always)]
pub(crate) fn toward(target: f64, s: f64, kn: f64) -> f64 {
    target - (target - s) * kn
}

/// The analytical shared-state cache model.
///
/// A thin wrapper over [`ModelParams`] exposing the three closed forms plus
/// convenience combinators. The model is cheap enough to evaluate at every
/// thread context switch (the point of the paper).
///
/// ```
/// use locality_core::{FootprintModel, ModelParams};
/// let model = FootprintModel::new(ModelParams::new(8192)?);
/// // A cold thread that misses a lot approaches the full cache:
/// assert!(model.expected_blocking(0.0, 2_000_000) > 8191.0);
/// # Ok::<(), locality_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FootprintModel {
    params: ModelParams,
}

impl FootprintModel {
    /// Creates a model for the given parameters.
    pub fn new(params: ModelParams) -> Self {
        FootprintModel { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> ModelParams {
        self.params
    }

    /// Case 1 — the **blocking thread A** itself.
    ///
    /// Starting from footprint `s` lines, after taking `n` misses of its
    /// own, A's expected footprint is `N − (N − s)·kⁿ`: every miss either
    /// lands on a line A already owns or claims a new one, so the footprint
    /// grows monotonically toward `N`.
    pub fn expected_blocking(&self, s: f64, n: u64) -> f64 {
        // Zero misses leave the footprint untouched. The algebraic form
        // is `N − (N − s)·k⁰ = N − (N − s)`, whose re-rounding can drift
        // one ulp away from `s` for large `N`; return `s` exactly, which
        // is also what the Markov chain says about an empty interval.
        if n == 0 {
            return s;
        }
        toward(self.params.n(), s, self.params.k_pow(n))
    }

    /// Case 2 — a thread **independent of A** (no sharing edge from A).
    ///
    /// Its `s` cached lines each survive a miss with probability `k`, so
    /// the footprint decays geometrically: `s·kⁿ`.
    pub fn expected_independent(&self, s: f64, n: u64) -> f64 {
        s * self.params.k_pow(n)
    }

    /// Case 3 — a thread **dependent on A** through a sharing edge of
    /// weight `q` (fraction of A's state shared with the dependent).
    ///
    /// `E[F_C] = qN − (qN − s)·kⁿ` (derived from the birth–death Markov
    /// chain in the paper's appendix; see [`crate::markov`] for the exact
    /// chain used as a test oracle). Depending on whether `s` is below or
    /// above the fixed point `qN`, the footprint grows or decays toward it.
    ///
    /// Setting `q = 1` recovers case 1 and `q = 0` recovers case 2.
    pub fn expected_dependent(&self, q: f64, s: f64, n: u64) -> f64 {
        // See expected_blocking: `target − (target − s)` need not round
        // back to `s` exactly, and an empty interval changes nothing.
        if n == 0 {
            return s;
        }
        toward(q * self.params.n(), s, self.params.k_pow(n))
    }

    /// The **cache-reload ratio** `R = (E[F₀] − E[F]) / E[F₀]` used by the
    /// CRT policy (paper §4.2): the fraction of the footprint a thread had
    /// when it last ran (`f_last`) that it would have to reload now
    /// (current expected footprint `f_now`).
    ///
    /// Returns 0 when `f_last` is zero (nothing to reload).
    pub fn reload_ratio(&self, f_last: f64, f_now: f64) -> f64 {
        if f_last <= 0.0 {
            0.0
        } else {
            ((f_last - f_now) / f_last).max(0.0)
        }
    }

    /// Number of misses needed for a cold thread to reach a fraction
    /// `frac ∈ (0, 1)` of the full cache: inverse of case 1 with `s = 0`.
    ///
    /// Useful for sizing experiments (e.g. how long a reload transient
    /// lasts). Saturates at `u64::MAX` for `frac ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonFiniteFillFraction`] when `frac` is NaN.
    pub fn misses_to_fill(&self, frac: f64) -> Result<u64, ModelError> {
        if frac.is_nan() {
            return Err(ModelError::NonFiniteFillFraction { frac });
        }
        if frac >= 1.0 {
            return Ok(u64::MAX);
        }
        if frac <= 0.0 {
            return Ok(0);
        }
        // N - N k^n = frac*N  =>  k^n = 1-frac  =>  n = ln(1-frac)/ln k
        // frac in (0, 1) here, so the quotient is finite and non-negative.
        Ok(((1.0 - frac).ln() / self.params.log_k()).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(lines: usize) -> FootprintModel {
        FootprintModel::new(ModelParams::new(lines).unwrap())
    }

    #[test]
    fn blocking_grows_toward_n() {
        let m = model(1024);
        let mut prev = 100.0;
        for n in [1u64, 10, 100, 1000, 10_000, 100_000] {
            let f = m.expected_blocking(100.0, n);
            assert!(f > prev || n == 1, "footprint must grow with misses");
            assert!(f <= 1024.0);
            prev = f;
        }
        assert!((m.expected_blocking(100.0, 10_000_000) - 1024.0).abs() < 1e-6);
    }

    #[test]
    fn blocking_identity_at_zero_misses() {
        let m = model(512);
        assert_eq!(m.expected_blocking(77.0, 0), 77.0);
        assert_eq!(m.expected_independent(77.0, 0), 77.0);
        assert_eq!(m.expected_dependent(0.3, 77.0, 0), 77.0);
        // Values whose `target − (target − s)` round-trip drifts without
        // the explicit n = 0 case: s with more mantissa bits than N − s
        // can absorb.
        let m = model(1 << 20);
        for &s in &[0.1f64, 1e-9, 77.000000001, 1048575.999] {
            assert_eq!(m.expected_blocking(s, 0), s, "blocking s={s}");
            assert_eq!(m.expected_dependent(0.7, s, 0), s, "dependent s={s}");
            assert_eq!(m.expected_independent(s, 0), s, "independent s={s}");
        }
    }

    #[test]
    fn q_edges_collapse_to_sibling_cases_bitwise() {
        // q = 0: target is exactly 0, so qN − (qN − s)kⁿ = s·kⁿ bit for
        // bit; q = 1: target is exactly N, matching blocking. The edges
        // must agree with the sibling closed forms exactly, not just
        // approximately.
        let m = model(8192);
        for &s in &[0.0f64, 1.0, 511.5, 8192.0] {
            for &n in &[0u64, 1, 17, 1000, 100_000] {
                assert_eq!(m.expected_dependent(0.0, s, n), m.expected_independent(s, n));
                assert_eq!(m.expected_dependent(1.0, s, n), m.expected_blocking(s, n));
            }
        }
    }

    #[test]
    fn independent_decays_to_zero() {
        let m = model(1024);
        let f = m.expected_independent(1000.0, 50_000);
        assert!(f < 1.0, "footprint should have decayed, got {f}");
        let f1 = m.expected_independent(1000.0, 1);
        assert!((f1 - 1000.0 * 1023.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn dependent_converges_to_q_n() {
        let m = model(2048);
        // From below.
        let f = m.expected_dependent(0.5, 100.0, 1_000_000);
        assert!((f - 1024.0).abs() < 1e-6);
        // From above.
        let f = m.expected_dependent(0.25, 2000.0, 1_000_000);
        assert!((f - 512.0).abs() < 1e-6);
    }

    #[test]
    fn dependent_q1_matches_blocking_and_q0_matches_independent() {
        let m = model(4096);
        for n in [0u64, 1, 17, 400, 9001] {
            for s in [0.0, 13.5, 2048.0, 4096.0] {
                let dep1 = m.expected_dependent(1.0, s, n);
                let blk = m.expected_blocking(s, n);
                assert!((dep1 - blk).abs() < 1e-9, "q=1 mismatch at n={n} s={s}");
                let dep0 = m.expected_dependent(0.0, s, n);
                let ind = m.expected_independent(s, n);
                assert!((dep0 - ind).abs() < 1e-9, "q=0 mismatch at n={n} s={s}");
            }
        }
    }

    #[test]
    fn dependent_monotone_toward_fixed_point() {
        let m = model(1000);
        let q = 0.4; // fixed point at 400 lines
        let mut below = 10.0;
        let mut above = 900.0;
        for n in 1..200u64 {
            let nb = m.expected_dependent(q, 10.0, n);
            let na = m.expected_dependent(q, 900.0, n);
            assert!(nb > below && nb < 400.0);
            assert!(na < above && na > 400.0);
            below = nb;
            above = na;
        }
    }

    #[test]
    fn reload_ratio_bounds() {
        let m = model(100);
        assert_eq!(m.reload_ratio(0.0, 0.0), 0.0);
        assert_eq!(m.reload_ratio(100.0, 100.0), 0.0);
        assert_eq!(m.reload_ratio(100.0, 0.0), 1.0);
        assert!((m.reload_ratio(80.0, 60.0) - 0.25).abs() < 1e-12);
        // f_now larger than f_last clamps to zero rather than going negative.
        assert_eq!(m.reload_ratio(50.0, 70.0), 0.0);
    }

    #[test]
    fn misses_to_fill_inverse_of_blocking() {
        let m = model(8192);
        for frac in [0.1, 0.5, 0.9, 0.99] {
            let n = m.misses_to_fill(frac).unwrap();
            let f = m.expected_blocking(0.0, n);
            assert!(f >= frac * 8192.0, "n={n} f={f}");
            // One miss fewer should not reach the target.
            let f_prev = m.expected_blocking(0.0, n.saturating_sub(1));
            assert!(f_prev <= frac * 8192.0 + 1.0);
        }
        assert_eq!(m.misses_to_fill(0.0), Ok(0));
        assert_eq!(m.misses_to_fill(1.0), Ok(u64::MAX));
    }

    #[test]
    fn misses_to_fill_rejects_nan() {
        let m = model(8192);
        assert!(matches!(
            m.misses_to_fill(f64::NAN),
            Err(ModelError::NonFiniteFillFraction { frac }) if frac.is_nan()
        ));
        // Infinities have a well-defined answer under the saturation rules.
        assert_eq!(m.misses_to_fill(f64::INFINITY), Ok(u64::MAX));
        assert_eq!(m.misses_to_fill(f64::NEG_INFINITY), Ok(0));
    }

    #[test]
    fn half_fill_takes_n_ln2_misses() {
        // Sanity: filling half a direct-mapped cache takes about N*ln(2)
        // misses, a classic coupon-collector-style result.
        let m = model(8192);
        let n = m.misses_to_fill(0.5).unwrap();
        let expect = (8192.0 * std::f64::consts::LN_2) as i64;
        assert!((n as i64 - expect).abs() < 8, "got {n}, expected ~{expect}");
    }
}
