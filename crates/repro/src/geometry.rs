//! The geometry-validation predictors (`repro geometry`): the random
//! walk of Figure 4 ([`microbench::run`](crate::microbench::run)) on any
//! L2 geometry, predicted by **two** models — the paper's direct-mapped
//! closed forms ([`closed_form`](crate::microbench::closed_form)) and the
//! per-set occupancy generalization ([`locality_core::perset`]). Both are
//! applied to the cached observation when the table is written.
//!
//! `repro geometry` runs each workload (blocking walker, independent
//! sleeper, or dependent sleeper) on L2 geometries of equal capacity
//! (512 KiB, 64 B lines): the paper's direct-mapped 8192×1, a modern
//! 8-way 1024×8, and the fully associative 1×8192 limit. On the
//! direct-mapped geometry the two predictors agree (the per-set drifts
//! reduce to the closed forms at `W = 1`); on associative geometries the
//! closed forms drift and the per-set estimator must track LRU behaviour.

use crate::microbench::{along, Monitored, WalkExperiment, WalkPoint};
use locality_core::perset::{predict_after, PerSetCase};

/// The per-set occupancy predictions along `exp`'s walk `points`.
pub fn per_set(exp: &WalkExperiment, points: &[WalkPoint]) -> Vec<f64> {
    let n = exp.config().l2_lines() as f64;
    let (case, prefilled) = match exp.monitored {
        Monitored::Walker { s0 } => (PerSetCase::Blocking, s0),
        Monitored::Independent { s0 } => (PerSetCase::Independent, s0),
        Monitored::Dependent { q, s0 } => (PerSetCase::Dependent(q), s0),
    };
    // Lines resident when the measured walk starts: exactly the prefill
    // (the machine is fresh and a ≤ 512 KiB sequential prefix has no
    // self-conflicts), feeding the per-set model's occupancy state.
    let total0 = prefilled.min(n);
    along(points, |s0, misses| predict_after(case, s0, total0, misses, n, exp.ways as f64).0)
}

/// Mean absolute error in lines of `predicted` over the curve's sampled
/// points (the miss-0 anchor point is excluded — every predictor starts
/// at the observation by construction).
pub fn mean_abs_error(points: &[WalkPoint], predicted: &[f64]) -> f64 {
    let errs: Vec<f64> = points
        .iter()
        .zip(predicted)
        .filter(|(p, _)| p.misses > 0)
        .map(|(p, predicted)| (predicted - p.observed).abs())
        .collect();
    if errs.is_empty() {
        return 0.0;
    }
    errs.iter().sum::<f64>() / errs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench::{closed_form, run};

    fn cell(monitored: Monitored, sets: u64, ways: u64, seed: u64) -> WalkExperiment {
        WalkExperiment { sets, ways, ..WalkExperiment::direct(monitored, 12_000, 2_000, seed) }
    }

    /// The closed form's and the per-set model's mean absolute errors.
    fn errors(exp: &WalkExperiment) -> (f64, f64) {
        let pts = run(exp);
        let closed = closed_form(exp, &pts).unwrap();
        (mean_abs_error(&pts, &closed), mean_abs_error(&pts, &per_set(exp, &pts)))
    }

    #[test]
    fn predictors_agree_on_direct_mapped() {
        let exp = cell(Monitored::Walker { s0: 0.0 }, 8192, 1, 21);
        let pts = run(&exp);
        let closed = closed_form(&exp, &pts).unwrap();
        for (p, (c, s)) in pts.iter().zip(closed.iter().zip(per_set(&exp, &pts))) {
            assert!((c - s).abs() < 1.0, "at W=1 the per-set drift is the closed form: {p:?}");
        }
    }

    #[test]
    fn per_set_beats_closed_form_on_associative_walker() {
        for &(sets, ways) in &[(1024u64, 8u64), (1, 8192)] {
            let (closed, per_set) = errors(&cell(Monitored::Walker { s0: 0.0 }, sets, ways, 22));
            assert!(
                per_set < closed,
                "{sets}x{ways} walker: per-set {per_set:.1} must beat closed {closed:.1}"
            );
        }
    }

    #[test]
    fn per_set_beats_closed_form_on_associative_sleeper() {
        for &(sets, ways) in &[(1024u64, 8u64), (1, 8192)] {
            let exp = cell(Monitored::Independent { s0: 4096.0 }, sets, ways, 23);
            let (closed, per_set) = errors(&exp);
            assert!(
                per_set < closed,
                "{sets}x{ways} sleeper: per-set {per_set:.1} must beat closed {closed:.1}"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let exp = cell(Monitored::Dependent { q: 0.5, s0: 0.0 }, 1024, 8, 24);
        assert_eq!(run(&exp), run(&exp));
    }
}
