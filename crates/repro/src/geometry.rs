//! The geometry-validation experiment (`repro geometry`): the random
//! memory walk of Figure 4 replayed across cache geometries, comparing
//! the simulator's observed footprints against **two** predictors —
//! the paper's direct-mapped closed forms and the per-set occupancy
//! generalization ([`locality_core::perset`]).
//!
//! Each cell runs one workload (blocking walker, independent sleeper,
//! or dependent sleeper) on one L2 geometry of equal capacity (512 KiB,
//! 64 B lines): the paper's direct-mapped 8192×1, a modern 8-way
//! 1024×8, and the fully associative 1×8192 limit. On the direct-mapped
//! geometry the two predictors agree (the per-set drifts reduce to the
//! closed forms at `W = 1`); on associative geometries the closed forms
//! drift and the per-set estimator must track LRU behaviour.

use crate::microbench::{self, Monitored};
use locality_core::perset::{predict_after, PerSetCase};
use locality_core::ModelError;
use locality_sim::{CacheGeometry, MachineConfig};

pub(crate) const LINE: u64 = 64;

/// One point of a geometry-validation curve: the observation and both
/// predictions at a miss count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometryPoint {
    /// Walker E-cache misses so far.
    pub misses: u64,
    /// Observed footprint of the monitored thread (lines).
    pub observed: f64,
    /// The paper's direct-mapped closed-form prediction (lines).
    pub closed_form: f64,
    /// The per-set occupancy prediction (lines).
    pub per_set: f64,
}

/// One geometry-validation cell, fully describing its run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometryExperiment {
    /// The monitored workload case.
    pub monitored: Monitored,
    /// L2 sets.
    pub sets: u64,
    /// L2 ways per set.
    pub ways: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Total walker misses to accumulate.
    pub total_misses: u64,
    /// Sampling interval in misses.
    pub sample_every: u64,
    /// RNG seed.
    pub seed: u64,
}

impl GeometryExperiment {
    /// The geometry as a `CacheGeometry` (64-byte lines, like the
    /// UltraSPARC-1 E-cache).
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry { sets: self.sets, ways: self.ways, line: LINE }
    }

    /// `SxW` display label (e.g. `8192x1`).
    pub fn geometry_label(&self) -> String {
        format!("{}x{}", self.sets, self.ways)
    }
}

/// Runs one cell: the [walk](microbench::walk) on a single-processor
/// UltraSPARC-1 with the cell's L2 geometry and page size substituted
/// in, predicted by the closed forms and by the per-set model.
///
/// # Errors
///
/// Returns the [`ModelError`] of a cache the closed forms do not cover.
pub fn run(exp: &GeometryExperiment) -> Result<Vec<GeometryPoint>, ModelError> {
    let config =
        MachineConfig::ultra1().with_l2_geometry(exp.geometry()).with_page_size(exp.page_bytes);
    let n = config.l2_lines() as f64;
    let ways = exp.ways as f64;
    let closed = microbench::closed_form(exp.monitored, config.l2_lines())?;
    let (case, prefilled) = match exp.monitored {
        Monitored::Walker { s0 } => (PerSetCase::Blocking, s0),
        Monitored::Independent { s0 } => (PerSetCase::Independent, s0),
        Monitored::Dependent { q, s0 } => (PerSetCase::Dependent(q), s0),
    };
    // Lines resident when the measured walk starts: exactly the prefill
    // (the machine is fresh and a ≤ 512 KiB sequential prefix has no
    // self-conflicts), feeding the per-set model's occupancy state.
    let total0 = prefilled.min(n);

    let (s0, samples) =
        microbench::walk(config, exp.monitored, exp.total_misses, exp.sample_every, exp.seed);
    let mut points = vec![GeometryPoint { misses: 0, observed: s0, closed_form: s0, per_set: s0 }];
    points.extend(samples.into_iter().map(|(misses, observed)| GeometryPoint {
        misses,
        observed,
        closed_form: closed(s0, misses),
        per_set: predict_after(case, s0, total0, misses, n, ways).0,
    }));
    Ok(points)
}

/// Mean absolute prediction error in lines over the curve's sampled
/// points (the miss-0 anchor point is excluded — both predictors start
/// at the observation by construction).
pub fn mean_abs_error(points: &[GeometryPoint], predictor: fn(&GeometryPoint) -> f64) -> f64 {
    let sampled: Vec<&GeometryPoint> = points.iter().filter(|p| p.misses > 0).collect();
    if sampled.is_empty() {
        return 0.0;
    }
    sampled.iter().map(|p| (predictor(p) - p.observed).abs()).sum::<f64>() / sampled.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(monitored: Monitored, sets: u64, ways: u64, seed: u64) -> GeometryExperiment {
        GeometryExperiment {
            monitored,
            sets,
            ways,
            page_bytes: 8 * 1024,
            total_misses: 12_000,
            sample_every: 2_000,
            seed,
        }
    }

    #[test]
    fn predictors_agree_on_direct_mapped() {
        let pts = run(&cell(Monitored::Walker { s0: 0.0 }, 8192, 1, 21)).unwrap();
        for p in &pts {
            assert!(
                (p.closed_form - p.per_set).abs() < 1.0,
                "at W=1 the per-set drift is the closed form: {p:?}"
            );
        }
    }

    #[test]
    fn per_set_beats_closed_form_on_associative_walker() {
        for &(sets, ways) in &[(1024u64, 8u64), (1, 8192)] {
            let pts = run(&cell(Monitored::Walker { s0: 0.0 }, sets, ways, 22)).unwrap();
            let closed = mean_abs_error(&pts, |p| p.closed_form);
            let per_set = mean_abs_error(&pts, |p| p.per_set);
            assert!(
                per_set < closed,
                "{sets}x{ways} walker: per-set {per_set:.1} must beat closed {closed:.1}"
            );
        }
    }

    #[test]
    fn per_set_beats_closed_form_on_associative_sleeper() {
        for &(sets, ways) in &[(1024u64, 8u64), (1, 8192)] {
            let pts = run(&cell(Monitored::Independent { s0: 4096.0 }, sets, ways, 23)).unwrap();
            let closed = mean_abs_error(&pts, |p| p.closed_form);
            let per_set = mean_abs_error(&pts, |p| p.per_set);
            assert!(
                per_set < closed,
                "{sets}x{ways} sleeper: per-set {per_set:.1} must beat closed {closed:.1}"
            );
        }
    }

    #[test]
    fn direct_mapped_cell_is_the_fig4_curve() {
        // One walk driver: on the paper's geometry a cell and the Figure 4
        // curve of the same case and seed are the same run, bit for bit.
        use crate::microbench::WalkExperiment;
        for monitored in [
            Monitored::Walker { s0: 1024.0 },
            Monitored::Independent { s0: 4096.0 },
            Monitored::Dependent { q: 0.5, s0: 6000.0 },
        ] {
            let exp = cell(monitored, 8192, 1, 25);
            let fig4 = microbench::run(&WalkExperiment::direct(
                monitored,
                exp.total_misses,
                exp.sample_every,
                exp.seed,
            ))
            .unwrap();
            let cell = run(&exp).unwrap();
            assert_eq!(cell.len(), fig4.len(), "{monitored:?}");
            assert!(cell.len() > 6, "{monitored:?}: {} points", cell.len());
            for (g, w) in cell.iter().zip(&fig4) {
                assert_eq!(g.misses, w.misses, "{monitored:?}");
                assert_eq!(g.observed.to_bits(), w.observed.to_bits(), "{monitored:?} at {g:?}");
                assert_eq!(
                    g.closed_form.to_bits(),
                    w.predicted.to_bits(),
                    "{monitored:?} at {g:?}"
                );
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let exp = cell(Monitored::Dependent { q: 0.5, s0: 0.0 }, 1024, 8, 24);
        assert_eq!(run(&exp), run(&exp));
    }
}
