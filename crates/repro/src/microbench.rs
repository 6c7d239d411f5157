//! The Figure 4 microbenchmark: a random memory walk driven directly
//! against the simulated machine, with footprints sampled every few
//! hundred misses. One descriptor, [`WalkExperiment`], covers every walk:
//! Figure 4's panels on the paper's direct-mapped E-cache, panel e's
//! 1/2/4-way caches and `repro geometry`'s sweep (see
//! [`crate::geometry`]). A run yields the observation only; the emitters
//! apply the model's predictors to it when they write the tables.
//!
//! Panels (paper §3.2):
//! * **a** — the executing thread's own footprint for several initial
//!   footprints `S_A`;
//! * **b** — decay of sleeping *independent* threads' footprints;
//! * **c** — a sleeping *dependent* thread with `q = 0.5` and several
//!   initial footprints (decays or grows toward `qN`);
//! * **d** — sleeping dependent threads with several sharing
//!   coefficients `q`;
//! * **e** — the executing thread on 1-, 2- and 4-way LRU E-caches of
//!   equal capacity (the paper's §2.1 associative claim).

use locality_core::{FootprintModel, ModelError, ModelParams, ThreadId};
use locality_sim::{AccessKind, CacheGeometry, Machine, MachineConfig, VAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One observed point of a walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkPoint {
    /// E-cache misses taken by the walker so far.
    pub misses: u64,
    /// Observed footprint of the monitored thread (lines).
    pub observed: f64,
}

/// Which thread the experiment monitors, and how to predict it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Monitored {
    /// The walker itself (case 1), with its initial footprint.
    Walker {
        /// Initial footprint `S_A` in lines.
        s0: f64,
    },
    /// An independent sleeper (case 2) with initial footprint `S_B`.
    Independent {
        /// Initial footprint in lines.
        s0: f64,
    },
    /// A dependent sleeper (case 3) with coefficient `q` and initial
    /// footprint `S_C`.
    Dependent {
        /// Sharing coefficient `q_{A,C}`.
        q: f64,
        /// Initial footprint in lines.
        s0: f64,
    },
}

/// One walk, fully described: a run builds its own machine (a
/// single-processor UltraSPARC-1 with this L2 geometry and page size)
/// and its own RNG (seeded from [`WalkExperiment::seed`]), so
/// independent runs share no mutable state and the experiment runner can
/// execute and cache them freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkExperiment {
    /// Who is monitored and how the model predicts it.
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

impl WalkExperiment {
    /// A walk on the paper's configuration: the UltraSPARC-1's
    /// direct-mapped 512 KiB E-cache and 8 KiB pages.
    pub fn direct(monitored: Monitored, total_misses: u64, sample_every: u64, seed: u64) -> Self {
        WalkExperiment {
            monitored,
            sets: 8192,
            ways: 1,
            page_bytes: 8 * 1024,
            total_misses,
            sample_every,
            seed,
        }
    }

    /// The machine the walk runs on: a single-processor UltraSPARC-1
    /// with the L2 geometry (64-byte lines) and page size substituted in.
    pub fn config(&self) -> MachineConfig {
        MachineConfig::ultra1()
            .with_l2_geometry(CacheGeometry { sets: self.sets, ways: self.ways, line: LINE })
            .with_page_size(self.page_bytes)
    }

    /// `SxW` display label (e.g. `8192x1`).
    pub fn geometry_label(&self) -> String {
        format!("{}x{}", self.sets, self.ways)
    }
}

/// The E-cache line of every walk (the UltraSPARC-1's 64 bytes).
pub(crate) const LINE: u64 = 64;
/// The walker's region: 64× the cache, so a walker miss lands on any
/// given set almost uniformly (sets still holding a sleeper line offer
/// one extra missing candidate and would otherwise attract misses
/// disproportionately, decaying sleepers faster than the model says).
const WALKER_LINES: u64 = 8192 * 64;

/// A model's predictions along a walk: the anchor (the first point, at
/// miss 0) is predicted as observed, and each later point by
/// `predict(s0, misses)` from the anchor's footprint `s0`.
pub(crate) fn along(points: &[WalkPoint], predict: impl Fn(f64, u64) -> f64) -> Vec<f64> {
    let s0 = points.first().map_or(0.0, |p| p.observed);
    points
        .iter()
        .enumerate()
        .map(|(i, p)| if i == 0 { s0 } else { predict(s0, p.misses) })
        .collect()
}

/// The paper's closed forms along `exp`'s walk, clamped to the cache.
///
/// # Errors
///
/// Returns [`ModelError::CacheOutOfRange`] for a cache of fewer than two
/// lines (a valid machine description, but not one the model covers).
pub fn closed_form(exp: &WalkExperiment, points: &[WalkPoint]) -> Result<Vec<f64>, ModelError> {
    let model = FootprintModel::new(ModelParams::new(exp.config().l2_lines())?);
    let n = model.params().n();
    Ok(along(points, |s0, misses| {
        match exp.monitored {
            Monitored::Walker { .. } => model.expected_blocking(s0, misses),
            Monitored::Independent { .. } => model.expected_independent(s0, misses),
            Monitored::Dependent { q, .. } => model.expected_dependent(q, s0, misses),
        }
        .clamp(0.0, n)
    }))
}

/// Runs one walk: on [`WalkExperiment::config`], a walker thread reads
/// uniformly random lines of a region 64× the cache until it has taken
/// `total_misses` E-cache misses; every `sample_every` misses the
/// monitored thread's resident footprint is read. Returns the anchor
/// (miss 0, the footprint when the measured walk starts) and then the
/// samples.
///
/// The monitored sleeper's region overlaps the walker's by exactly the
/// requested coefficient; initial footprints are established by touching
/// the appropriate prefix before counters are reset.
///
/// # Panics
///
/// On a geometry or page size no machine accepts. `--geometry` and
/// `--page-size` are validated at the CLI boundary, and the shipped
/// walks use powers of two of the UltraSPARC-1's capacity.
pub fn run(exp: &WalkExperiment) -> Vec<WalkPoint> {
    #[allow(clippy::expect_used)]
    let mut machine = Machine::try_new(exp.config()).expect("a walk on a valid machine");
    let walker = ThreadId(1);
    let sleeper = ThreadId(2);

    let walker_region = machine.alloc(WALKER_LINES * LINE, LINE);
    machine.register_region(walker, walker_region, WALKER_LINES * LINE);

    // Sleeper region: a slice of the walker's region covering fraction q
    // of it (dependent), or a disjoint region (independent).
    let monitored_tid = match exp.monitored {
        Monitored::Walker { s0 } => {
            // Establish the initial footprint: touch the first s0 lines.
            prefill(&mut machine, walker_region, s0 as u64);
            walker
        }
        Monitored::Independent { s0 } => {
            let bytes = (s0 as u64).max(1) * LINE;
            let region = machine.alloc(bytes, LINE);
            machine.register_region(sleeper, region, bytes);
            prefill(&mut machine, region, s0 as u64);
            sleeper
        }
        Monitored::Dependent { q, s0 } => {
            // Cover fraction q of the walker's region (from its start):
            // q = |A ∩ C| / |A| exactly.
            let bytes = ((WALKER_LINES as f64 * q) as u64) * LINE;
            machine.register_region(sleeper, walker_region, bytes);
            prefill(&mut machine, walker_region, s0 as u64);
            sleeper
        }
    };

    // Reset the interval: everything from here on is the measured walk.
    machine.set_running(0, Some(walker));
    // Infallible: cpu 0 exists on every config and the PIC was never
    // poisoned on this freshly built machine.
    #[allow(clippy::expect_used)]
    machine.pic_take_interval(0).expect("clean machine read");
    // The raw PIC registers are cumulative; measure against a baseline
    // like the runtime's interval reads do.
    let pic_base = machine.pic(0).misses();
    let observed = machine.l2_footprint_lines(0, monitored_tid) as f64;
    let mut points = vec![WalkPoint { misses: 0, observed }];

    let mut rng = StdRng::seed_from_u64(exp.seed);
    let mut misses: u64 = 0;
    let mut next_sample = exp.sample_every;
    while misses < exp.total_misses {
        let line = rng.gen_range(0..WALKER_LINES);
        machine.access(0, walker_region.offset(line * LINE), AccessKind::Read);
        misses = machine.pic(0).misses().wrapping_sub(pic_base);
        if misses >= next_sample {
            let observed = machine.l2_footprint_lines(0, monitored_tid) as f64;
            points.push(WalkPoint { misses, observed });
            next_sample += exp.sample_every;
        }
    }
    points
}

/// Touches the first `lines` lines of `region` (sequential prefill: with
/// bin-hopping placement, a ≤ 512 KiB prefix maps onto distinct sets).
fn prefill(machine: &mut Machine, region: VAddr, lines: u64) {
    machine.set_running(0, Some(ThreadId(0)));
    for l in 0..lines {
        machine.access(0, region.offset(l * LINE), AccessKind::Read);
    }
}

/// Maximum relative error of `predicted` against a curve over points
/// whose observed footprint exceeds `min_lines`.
pub fn max_rel_error(points: &[WalkPoint], predicted: &[f64], min_lines: f64) -> f64 {
    points
        .iter()
        .zip(predicted)
        .filter(|(p, _)| p.observed >= min_lines)
        .map(|(p, predicted)| ((predicted - p.observed) / p.observed).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walk's points and the closed form's worst relative error over
    /// points of at least `min_lines`.
    fn walk(exp: WalkExperiment, min_lines: f64) -> (Vec<WalkPoint>, f64) {
        let pts = run(&exp);
        let err = max_rel_error(&pts, &closed_form(&exp, &pts).unwrap(), min_lines);
        (pts, err)
    }

    #[test]
    fn walker_curve_matches_model() {
        let (pts, err) =
            walk(WalkExperiment::direct(Monitored::Walker { s0: 0.0 }, 20_000, 2_000, 1), 256.0);
        assert!(pts.len() >= 10);
        assert!(err < 0.05, "walker curve error {err:.3}");
        // Monotone growth.
        for w in pts.windows(2) {
            assert!(w[1].observed >= w[0].observed - 32.0);
        }
    }

    #[test]
    fn walker_with_initial_footprint_starts_there() {
        let (pts, err) =
            walk(WalkExperiment::direct(Monitored::Walker { s0: 4096.0 }, 5_000, 1_000, 2), 256.0);
        assert!((pts[0].observed - 4096.0).abs() < 64.0, "start at {}", pts[0].observed);
        assert!(err < 0.05);
    }

    #[test]
    fn independent_sleeper_decays() {
        let exp = WalkExperiment::direct(Monitored::Independent { s0: 4096.0 }, 20_000, 2_000, 3);
        let (pts, err) = walk(exp, 256.0);
        assert!(pts[0].observed > 3900.0);
        let last = pts.last().unwrap();
        assert!(last.observed < pts[0].observed / 2.0, "must decay: {last:?}");
        assert!(err < 0.10);
    }

    #[test]
    fn dependent_grows_toward_qn() {
        let exp =
            WalkExperiment::direct(Monitored::Dependent { q: 0.5, s0: 0.0 }, 30_000, 3_000, 4);
        let (pts, err) = walk(exp, 256.0);
        let last = pts.last().unwrap();
        assert!(last.observed > 2500.0, "should approach qN = 4096: {last:?}");
        assert!(last.observed < 4500.0);
        assert!(err < 0.10);
    }

    #[test]
    fn dependent_decays_from_above_qn() {
        let pts = run(&WalkExperiment::direct(
            Monitored::Dependent { q: 0.25, s0: 6000.0 },
            30_000,
            3_000,
            5,
        ));
        let first = pts[0];
        let last = pts.last().unwrap();
        assert!(first.observed > 4000.0);
        assert!(last.observed < first.observed, "must decay toward qN=2048");
        assert!(last.observed > 1500.0);
    }
}

#[cfg(test)]
mod assoc_tests {
    use super::*;

    #[test]
    fn associative_caches_deviate_as_the_paper_warns() {
        // Paper §2.1: the model "can be extended to the associative cache
        // case (although the analytical results are likely to be more
        // complex)". Measured: LRU replacement protects recently-used
        // lines, so a thread's footprint grows *faster* than the
        // direct-mapped closed form — a bounded, systematic
        // under-prediction that justifies the paper's caveat.
        let mut errs = Vec::new();
        for ways in [1u64, 2, 4] {
            let exp = WalkExperiment {
                sets: 8192 / ways,
                ways,
                ..WalkExperiment::direct(Monitored::Walker { s0: 0.0 }, 15_000, 3_000, 9)
            };
            let pts = run(&exp);
            errs.push(max_rel_error(&pts, &closed_form(&exp, &pts).unwrap(), 512.0));
        }
        assert!(errs[0] < 0.03, "direct-mapped stays exact: {:.3}", errs[0]);
        assert!(errs[1] > errs[0] && errs[2] > errs[0], "LRU must deviate: {errs:?}");
        assert!(errs[2] < 0.25, "…but boundedly: {errs:?}");
    }
}
