//! Precomputed lookup tables for constant-time priority updates
//! (paper §4.1).
//!
//! The paper's implementation pre-computes `log(F)` for every integer
//! footprint `0 < F ≤ N` and `kⁿ` for a sufficiently large range of `n`
//! (`kⁿ` asymptotically approaches 0), so that a priority update costs only
//! a handful of floating-point instructions at a context switch.

use crate::ModelParams;

/// Default range of the `kⁿ` table: enough that the tail is below 1e-12
/// for typical cache sizes (`n ≈ 28·N`), after which the table clamps to 0.
pub const DEFAULT_KPOW_ENTRIES: usize = 1 << 18;

/// Length of the eagerly-materialized `kⁿ` prefix. Context-switch
/// intervals overwhelmingly fall in this range; rarer larger exponents
/// (still below the clamp boundary) are computed on demand with the same
/// `exp(n·ln k)` formula the table itself is filled with, so the hybrid
/// is bit-identical to a fully eager table while construction stays off
/// the scheduler-building hot path.
const EAGER_KPOW: usize = 4096;

/// Precomputed `log(F)` and `kⁿ` tables.
///
/// [`log_footprint`](PrecomputedTables::log_footprint) rounds a fractional
/// expected footprint to the nearest line count and clamps it to `[1, N]`
/// before the table lookup — exactly the paper's "all values of `log(F)`,
/// `0 < F ≤ N`" scheme. The clamp to at least one line keeps priorities
/// finite for cold threads.
#[derive(Debug, Clone)]
pub struct PrecomputedTables {
    params: ModelParams,
    logs: Vec<f64>,
    /// Eager `kⁿ` prefix (`n < kpow.len()`); exponents between the prefix
    /// and `kpow_entries` evaluate on demand, beyond that clamp to 0.
    kpow: Vec<f64>,
    /// Logical table range: the clamp-to-zero boundary.
    kpow_entries: usize,
}

impl PrecomputedTables {
    /// Builds tables for the given model parameters with the default `kⁿ`
    /// range.
    pub fn new(params: ModelParams) -> Self {
        Self::with_kpow_entries(params, DEFAULT_KPOW_ENTRIES)
    }

    /// Builds tables with an explicit `kⁿ` range (mostly for tests; at
    /// least 2 entries are kept so `k⁰` and `k¹` are always exact).
    pub fn with_kpow_entries(params: ModelParams, kpow_entries: usize) -> Self {
        let n = params.lines();
        let mut logs = Vec::with_capacity(n + 1);
        logs.push(0.0); // log(0) is clamped to log(1) = 0; see log_footprint.
        for f in 1..=n {
            logs.push((f as f64).ln());
        }
        let entries = kpow_entries.max(2);
        let eager = entries.min(EAGER_KPOW);
        let mut kpow = Vec::with_capacity(eager);
        // Filling via exp(n·ln k) instead of a running product keeps the
        // table free of accumulated rounding error — and makes the
        // on-demand fallback in `k_pow` bit-identical to a table hit.
        for i in 0..eager {
            kpow.push(params.k_pow(i as u64));
        }
        PrecomputedTables { params, logs, kpow, kpow_entries: entries }
    }

    /// The model parameters the tables were built for.
    pub fn params(&self) -> ModelParams {
        self.params
    }

    /// `log(F)` with `F = round(footprint)` clamped to `[1, N]`.
    pub fn log_footprint(&self, footprint: f64) -> f64 {
        let f = footprint.round();
        let idx = if f < 1.0 {
            1
        } else if f >= self.params.lines() as f64 {
            self.params.lines()
        } else {
            f as usize
        };
        self.logs[idx]
    }

    /// `kⁿ` from the table; values beyond the table range are clamped to 0
    /// (they are below any footprint resolution). Exponents past the eager
    /// prefix but inside the range are computed on demand with the exact
    /// formula the prefix was filled with.
    pub fn k_pow(&self, n: u64) -> f64 {
        let idx = usize::try_from(n).unwrap_or(usize::MAX);
        match self.kpow.get(idx) {
            Some(&v) => v,
            None if idx < self.kpow_entries => self.params.k_pow(n),
            None => 0.0,
        }
    }

    /// `ln k`, the constant used by every priority formula.
    pub fn log_k(&self) -> f64 {
        self.params.log_k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables(lines: usize) -> PrecomputedTables {
        PrecomputedTables::with_kpow_entries(ModelParams::new(lines).unwrap(), 4096)
    }

    #[test]
    fn log_matches_ln_for_integers() {
        let t = tables(256);
        for f in 1..=256usize {
            assert_eq!(t.log_footprint(f as f64), (f as f64).ln());
        }
    }

    #[test]
    fn log_rounds_fractional_footprints() {
        let t = tables(100);
        assert_eq!(t.log_footprint(41.4), (41.0f64).ln());
        assert_eq!(t.log_footprint(41.6), (42.0f64).ln());
    }

    #[test]
    fn log_clamps_to_one_and_n() {
        let t = tables(100);
        assert_eq!(t.log_footprint(0.0), 0.0);
        assert_eq!(t.log_footprint(0.4), 0.0);
        assert_eq!(t.log_footprint(-5.0), 0.0);
        assert_eq!(t.log_footprint(100.0), (100.0f64).ln());
        assert_eq!(t.log_footprint(250.0), (100.0f64).ln());
    }

    #[test]
    fn k_pow_matches_exact_within_table() {
        let t = tables(512);
        let p = ModelParams::new(512).unwrap();
        for n in [0u64, 1, 100, 4095] {
            assert!((t.k_pow(n) - p.k_pow(n)).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn k_pow_clamps_beyond_table() {
        let t = tables(512);
        assert_eq!(t.k_pow(4096), 0.0);
        assert_eq!(t.k_pow(u64::MAX), 0.0);
    }

    #[test]
    fn default_table_covers_typical_intervals() {
        let params = ModelParams::new(8192).unwrap();
        let t = PrecomputedTables::new(params);
        // A scheduling interval of 100k misses is still resolved exactly.
        assert!(t.k_pow(100_000) > 0.0);
        assert!((t.k_pow(100_000) - params.k_pow(100_000)).abs() < 1e-12);
    }
}
