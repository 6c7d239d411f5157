//! Exact birth–death Markov chain for the dependent-thread case
//! (paper appendix).
//!
//! The chain has `N + 1` states; state `i` means the dependent thread *C*
//! holds `i` lines in the cache. Each miss taken by the running thread *A*
//! (sharing coefficient `q = q_{A,C}`) triggers one transition:
//!
//! * `i → i+1` with probability `q·(N−i)/N` — the missed line is shared
//!   with C and lands on a line C does not already own;
//! * `i → i−1` with probability `(1−q)·i/N` — the missed line is not
//!   shared and evicts one of C's lines;
//! * `i → i` otherwise.
//!
//! Iterating the full distribution vector is `O(n·N)` — far too slow for a
//! context switch, which is why the paper derives the closed form
//! `E[F_C] = qN − (qN − S_C)·kⁿ`. This module owns the chain: it exists to
//! *prove* that the closed form equals the exact chain expectation (see the
//! tests here and in `tests/model_properties.rs`), and to let users
//! explore full distributions, not just means.

use crate::footprint::toward;
use crate::params::check_coefficient;
use crate::{ModelError, ModelParams};

/// The exact Markov chain of the dependent-thread cache interaction.
#[derive(Debug, Clone)]
pub struct DependentChain {
    params: ModelParams,
    q: f64,
}

impl DependentChain {
    /// Creates the chain for a cache of `params.lines()` lines and a
    /// sharing coefficient `q`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSharingCoefficient`] if `q ∉ [0, 1]`.
    pub fn new(params: ModelParams, q: f64) -> Result<Self, ModelError> {
        check_coefficient(q)?;
        Ok(DependentChain { params, q })
    }

    /// Transition probabilities out of state `i`:
    /// `(down, stay, up)` = `(P[i→i−1], P[i→i], P[i→i+1])`.
    ///
    /// # Panics
    ///
    /// Panics if `i > N`.
    pub fn transition(&self, i: usize) -> (f64, f64, f64) {
        let n = self.params.n();
        assert!(i <= self.params.lines(), "state {i} out of range");
        let fi = i as f64;
        let up = self.q * (n - fi) / n;
        let down = (1.0 - self.q) * fi / n;
        (down, 1.0 - up - down, up)
    }

    /// One miss-transition from the distribution `src` (`src[i]` is the
    /// probability of C holding `i` lines) into the zeroed buffer `dst`.
    fn step_into(&self, src: &[f64], dst: &mut [f64]) {
        let n = src.len() - 1;
        for (i, &p) in src.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let (down, stay, up) = self.transition(i);
            if i > 0 {
                dst[i - 1] += p * down;
            }
            dst[i] += p * stay;
            if i < n {
                dst[i + 1] += p * up;
            }
        }
    }

    /// The full distribution after `n` misses, starting from exactly `s0`
    /// lines cached, iterated with two reused buffers.
    ///
    /// # Panics
    ///
    /// Panics if `s0 > N`.
    pub fn distribution_after(&self, s0: usize, n: u64) -> Vec<f64> {
        let lines = self.params.lines();
        assert!(s0 <= lines, "initial footprint {s0} exceeds cache size");
        let mut dist = vec![0.0; lines + 1];
        dist[s0] = 1.0;
        let mut next = vec![0.0; lines + 1];
        for _ in 0..n {
            self.step_into(&dist, &mut next);
            std::mem::swap(&mut dist, &mut next);
            next.fill(0.0);
        }
        dist
    }

    /// Exact expected footprint after `n` misses, by iterating the full
    /// distribution. `O(n·N)` — a test oracle, not a runtime tool.
    pub fn expected_after(&self, s0: usize, n: u64) -> f64 {
        expectation(&self.distribution_after(s0, n))
    }

    /// Exact expected footprint via the scalar recurrence
    /// `E_{m+1} = E_m·k + q`, which follows from linearity of the chain's
    /// drift. `O(n)` and numerically independent of the closed form —
    /// a second oracle.
    pub fn expected_after_recurrence(&self, s0: f64, n: u64) -> f64 {
        let k = self.params.k();
        let mut e = s0;
        for _ in 0..n {
            e = e * k + self.q;
        }
        e
    }

    /// Tabulates the chain's transient expectation up to `n_max` misses.
    ///
    /// Pays the `O(n_max·N)` distribution iteration **once**; every
    /// subsequent [`ChainTransientTable::expected_after`] query is `O(log
    /// grid)`. The chain's expectation is exactly linear in the initial
    /// footprint (`E' = E·k + q` regardless of the distribution's shape),
    /// so stepping just two distributions — `s0 = 0` and `s0 = N` — pins
    /// the whole family of transients.
    pub fn tabulate(&self, n_max: u64) -> ChainTransientTable {
        let lines = self.params.lines();
        let nn = self.params.n();

        // Grid: every miss count up to 16, then geometrically spaced
        // (each step grows by n/8), with n_max always included. The
        // transient is an exponential approach to qN, so geometric
        // spacing keeps the interpolation error roughly uniform.
        let mut grid = Vec::new();
        let mut g = 0u64;
        while g < n_max {
            grid.push(g);
            g = if g < 16 { g + 1 } else { g + (g / 8).max(1) };
        }
        grid.push(n_max);

        let mut d0 = vec![0.0; lines + 1];
        d0[0] = 1.0;
        let mut dn = vec![0.0; lines + 1];
        dn[lines] = 1.0;
        let mut scratch = vec![0.0; lines + 1];
        let mut a = Vec::with_capacity(grid.len());
        let mut b = Vec::with_capacity(grid.len());
        let mut cur = 0u64;
        for &point in &grid {
            while cur < point {
                self.step_into(&d0, &mut scratch);
                std::mem::swap(&mut d0, &mut scratch);
                scratch.fill(0.0);
                self.step_into(&dn, &mut scratch);
                std::mem::swap(&mut dn, &mut scratch);
                scratch.fill(0.0);
                cur += 1;
            }
            let e0 = expectation(&d0);
            let en = expectation(&dn);
            a.push(e0);
            b.push((en - e0) / nn);
        }
        ChainTransientTable { params: self.params, q: self.q, grid, a, b }
    }
}

/// Memoized transient of the [`DependentChain`] expectation.
///
/// Holds `E[F | s0, n] = A(n) + s0·B(n)` sampled on a geometric grid of
/// miss counts `n` (dense for small `n`): grid points reproduce the
/// exact chain expectation, off-grid queries interpolate `A` and `B`
/// linearly between neighbors, and queries beyond the tabulated range
/// continue analytically from the last grid point (`E` approaches `qN`
/// as `kᵐ` decays — the exact solution of the drift recurrence).
#[derive(Debug, Clone)]
pub struct ChainTransientTable {
    params: ModelParams,
    q: f64,
    /// Sorted, deduplicated miss counts (always starts at 0).
    grid: Vec<u64>,
    /// `E[F | s0 = 0, n]` at each grid point.
    a: Vec<f64>,
    /// `(E[F | s0 = N, n] − E[F | s0 = 0, n]) / N` at each grid point.
    b: Vec<f64>,
}

impl ChainTransientTable {
    /// Expected footprint after `n` misses from initial footprint `s0`.
    pub fn expected_after(&self, s0: f64, n: u64) -> f64 {
        match self.grid.binary_search(&n) {
            Ok(i) => self.a[i] + s0 * self.b[i],
            Err(i) if i < self.grid.len() => {
                // Between grid[i-1] and grid[i]; i ≥ 1 because grid[0] = 0.
                let (n0, n1) = (self.grid[i - 1], self.grid[i]);
                let t = (n - n0) as f64 / (n1 - n0) as f64;
                let a = self.a[i - 1] + t * (self.a[i] - self.a[i - 1]);
                let b = self.b[i - 1] + t * (self.b[i] - self.b[i - 1]);
                a + s0 * b
            }
            Err(_) => {
                // Past the table: E(n_max + m) = qN − (qN − E(n_max))·kᵐ.
                let last = self.grid.len() - 1;
                let e_last = self.a[last] + s0 * self.b[last];
                let km = self.params.k_pow(n - self.grid[last]);
                toward(self.q * self.params.n(), e_last, km)
            }
        }
    }
}

/// Expectation of a distribution over states `0..dist.len()`.
pub fn expectation(dist: &[f64]) -> f64 {
    dist.iter().enumerate().map(|(i, p)| i as f64 * p).sum()
}

/// Total mass of a distribution (should always be 1 up to rounding).
pub fn total_mass(dist: &[f64]) -> f64 {
    dist.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FootprintModel;

    fn chain(lines: usize, q: f64) -> DependentChain {
        DependentChain::new(ModelParams::new(lines).unwrap(), q).unwrap()
    }

    #[test]
    fn rejects_bad_q() {
        let p = ModelParams::new(64).unwrap();
        assert!(DependentChain::new(p, -0.1).is_err());
        assert!(DependentChain::new(p, 1.1).is_err());
        assert!(DependentChain::new(p, f64::NAN).is_err());
    }

    #[test]
    fn transitions_sum_to_one() {
        let c = chain(64, 0.3);
        for i in 0..=64 {
            let (d, s, u) = c.transition(i);
            assert!((d + s + u - 1.0).abs() < 1e-12);
            assert!(d >= 0.0 && s >= 0.0 && u >= 0.0);
        }
    }

    #[test]
    fn boundary_states_cannot_escape_range() {
        let c = chain(32, 0.7);
        let (down0, _, _) = c.transition(0);
        assert_eq!(down0, 0.0, "state 0 cannot go down");
        let (_, _, up_n) = c.transition(32);
        assert_eq!(up_n, 0.0, "state N cannot go up");
    }

    #[test]
    fn mass_is_conserved() {
        let c = chain(64, 0.42);
        let dist = c.distribution_after(10, 500);
        assert!((total_mass(&dist) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn q_zero_is_pure_decay() {
        let c = chain(128, 0.0);
        let m = FootprintModel::new(ModelParams::new(128).unwrap());
        for n in [1u64, 10, 100, 1000] {
            let exact = c.expected_after(100, n);
            let closed = m.expected_independent(100.0, n);
            assert!((exact - closed).abs() < 1e-8, "n={n}: {exact} vs {closed}");
        }
    }

    #[test]
    fn q_one_is_pure_growth() {
        let c = chain(128, 1.0);
        let m = FootprintModel::new(ModelParams::new(128).unwrap());
        for n in [1u64, 10, 100, 1000] {
            let exact = c.expected_after(10, n);
            let closed = m.expected_blocking(10.0, n);
            assert!((exact - closed).abs() < 1e-8, "n={n}: {exact} vs {closed}");
        }
    }

    #[test]
    fn closed_form_matches_chain_mid_q() {
        let m = FootprintModel::new(ModelParams::new(96).unwrap());
        for &q in &[0.1, 0.5, 0.9] {
            let c = chain(96, q);
            for &s0 in &[0usize, 20, 48, 96] {
                for &n in &[1u64, 7, 50, 300] {
                    let exact = c.expected_after(s0, n);
                    let closed = m.expected_dependent(q, s0 as f64, n);
                    assert!(
                        (exact - closed).abs() < 1e-7,
                        "q={q} s0={s0} n={n}: exact={exact} closed={closed}"
                    );
                }
            }
        }
    }

    #[test]
    fn recurrence_matches_closed_form() {
        let m = FootprintModel::new(ModelParams::new(512).unwrap());
        let c = chain(512, 0.33);
        for &n in &[0u64, 1, 13, 200, 2000] {
            let rec = c.expected_after_recurrence(100.0, n);
            let closed = m.expected_dependent(0.33, 100.0, n);
            assert!((rec - closed).abs() < 1e-6, "n={n}: {rec} vs {closed}");
        }
    }

    #[test]
    fn table_matches_chain_at_grid_points() {
        let c = chain(96, 0.4);
        let t = c.tabulate(512);
        for &s0 in &[0usize, 17, 48, 96] {
            for &n in &[0u64, 1, 5, 16, 512] {
                let exact = c.expected_after(s0, n);
                let tab = t.expected_after(s0 as f64, n);
                assert!((exact - tab).abs() < 1e-9, "s0={s0} n={n}: {exact} vs {tab}");
            }
        }
    }

    #[test]
    fn table_interpolates_between_grid_points() {
        let c = chain(128, 0.6);
        let t = c.tabulate(2048);
        // Off-grid points: interpolation error stays small because the
        // grid is geometric and the transient is a smooth exponential.
        for &n in &[37u64, 101, 419, 1777] {
            let exact = c.expected_after(30, n);
            let tab = t.expected_after(30.0, n);
            assert!((exact - tab).abs() < 0.05, "n={n}: {exact} vs {tab}");
        }
    }

    #[test]
    fn table_continues_beyond_range() {
        let c = chain(64, 0.5);
        let t = c.tabulate(256);
        // Far past the table every transient has converged to qN.
        let far = t.expected_after(10.0, 1_000_000);
        assert!((far - 0.5 * 64.0).abs() < 1e-6, "{far}");
        // Just past the table the analytic continuation tracks the
        // recurrence oracle.
        let rec = c.expected_after_recurrence(10.0, 300);
        let tab = t.expected_after(10.0, 300);
        assert!((rec - tab).abs() < 1e-6, "{rec} vs {tab}");
    }

    #[test]
    fn table_is_linear_in_s0() {
        let c = chain(64, 0.3);
        let t = c.tabulate(128);
        let (e0, e32, e64) =
            (t.expected_after(0.0, 50), t.expected_after(32.0, 50), t.expected_after(64.0, 50));
        assert!((e32 - (e0 + e64) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn drift_recurrence_derivation() {
        // One step of the chain moves the mean by up - down =
        // q(N-E)/N - (1-q)E/N = q - E/N, i.e. E' = E*k + q.
        let c = chain(64, 0.25);
        let d0 = c.distribution_after(30, 0);
        let d1 = c.distribution_after(30, 1);
        let e0 = expectation(&d0);
        let e1 = expectation(&d1);
        assert!((e1 - (e0 * (63.0 / 64.0) + 0.25)).abs() < 1e-12);
    }
}
