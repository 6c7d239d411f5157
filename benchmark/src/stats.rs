//! The few statistics the harness reports with.
//!
//! Host noise on a shared sandbox only ever adds time, and here it comes
//! in sub-millisecond bursts on top of drifts that last minutes: the
//! median of whole-cell times moved by 10-15 % between back-to-back
//! runs of one binary, the minimum of short windows by 3-4 %. So every
//! host-time metric is built from [`window_min_sum`], not from medians;
//! `README.md` has the measurements behind that choice.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Smallest value of `v` (`f64::INFINITY` when empty).
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of strictly positive ratios.
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The noise-robust duration of one deterministic cell from several
/// passes over it.
///
/// Each pass splits the cell's run into the same windows (the
/// simulation is deterministic, so window `j` covers the same simulated
/// work in every pass); the estimate is the sum over windows of the
/// fastest pass through that window. A burst that hits window `j` in one
/// pass is replaced by another pass's clean reading of the same work.
///
/// Returns `None` when the passes disagree on the number of windows,
/// which means the runs were not identical.
pub fn window_min_sum(passes: &[Vec<f64>]) -> Option<f64> {
    let first = passes.first()?;
    if passes.iter().any(|p| p.len() != first.len()) {
        return None;
    }
    Some((0..first.len()).map(|j| passes.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn window_min_takes_the_fastest_pass_per_window() {
        // Pass 0 is disturbed in window 1, pass 1 in window 0.
        let passes = vec![vec![10.0, 90.0, 5.0], vec![70.0, 20.0, 5.5]];
        assert_eq!(window_min_sum(&passes), Some(35.0));
        // One pass alone is its own sum.
        assert_eq!(window_min_sum(&passes[..1]), Some(105.0));
    }

    #[test]
    fn window_min_rejects_passes_that_differ_in_shape() {
        assert_eq!(window_min_sum(&[vec![1.0, 2.0], vec![1.0]]), None);
        assert_eq!(window_min_sum(&[]), None);
    }
}
