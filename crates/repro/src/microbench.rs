//! The Figure 4 microbenchmark: a random memory walk driven directly
//! against the simulated machine, with footprints sampled every few
//! hundred misses and compared to the closed forms.
//!
//! Panels (paper §3.2):
//! * **a** — the executing thread's own footprint for several initial
//!   footprints `S_A`;
//! * **b** — decay of sleeping *independent* threads' footprints;
//! * **c** — a sleeping *dependent* thread with `q = 0.5` and several
//!   initial footprints (decays or grows toward `qN`);
//! * **d** — sleeping dependent threads with several sharing
//!   coefficients `q`.

use locality_core::{FootprintModel, ModelError, ModelParams, ThreadId};
use locality_sim::{AccessKind, Machine, MachineConfig, VAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One point of a Figure 4 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkPoint {
    /// E-cache misses taken by the walker so far.
    pub misses: u64,
    /// Observed footprint of the monitored thread (lines).
    pub observed: f64,
    /// Model prediction (lines).
    pub predicted: f64,
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

/// Parameters of one microbenchmark run (one curve). A run is fully
/// described by this value — the walk owns its RNG (seeded from
/// [`WalkExperiment::seed`]) and its machine, so independent runs share
/// no mutable state and the experiment runner can execute and cache
/// them freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkExperiment {
    /// Who is monitored and how the model predicts it.
    pub monitored: Monitored,
    /// Total walker misses to accumulate.
    pub total_misses: u64,
    /// Sampling interval in misses.
    pub sample_every: u64,
    /// E-cache associativity (1 = the paper's direct-mapped case; higher
    /// values probe the paper's §2.1 claim that the model extends to
    /// associative caches).
    pub associativity: u64,
    /// RNG seed.
    pub seed: u64,
}

impl WalkExperiment {
    /// A direct-mapped experiment (the paper's configuration).
    pub fn direct(monitored: Monitored, total_misses: u64, sample_every: u64, seed: u64) -> Self {
        WalkExperiment { monitored, total_misses, sample_every, associativity: 1, seed }
    }
}

const LINE: u64 = 64;
/// The walker's region: 64× the cache, so a walker miss lands on any
/// given set almost uniformly (sets still holding a sleeper line offer
/// one extra missing candidate and would otherwise attract misses
/// disproportionately, decaying sleepers faster than the model says).
const WALKER_LINES: u64 = 8192 * 64;

/// The paper's closed-form predictor for `monitored` on an E-cache of
/// `l2_lines` lines: `(initial footprint, walker misses) -> lines`,
/// clamped to the cache.
///
/// # Errors
///
/// Returns [`ModelError::CacheOutOfRange`] for a cache of fewer than two
/// lines (a valid machine description, but not one the model covers).
pub(crate) fn closed_form(
    monitored: Monitored,
    l2_lines: usize,
) -> Result<impl Fn(f64, u64) -> f64, ModelError> {
    let model = FootprintModel::new(ModelParams::new(l2_lines)?);
    let n = model.params().n();
    Ok(move |s0, misses| {
        match monitored {
            Monitored::Walker { .. } => model.expected_blocking(s0, misses),
            Monitored::Independent { .. } => model.expected_independent(s0, misses),
            Monitored::Dependent { q, .. } => model.expected_dependent(q, s0, misses),
        }
        .clamp(0.0, n)
    })
}

/// The walk protocol, shared by Figure 4 and `repro geometry`: on a
/// single processor of `config`, a walker thread reads uniformly random
/// lines of a region 64× the cache until it has taken `total_misses`
/// E-cache misses; every `sample_every` misses the monitored thread's
/// resident footprint is read. Returns the monitored thread's footprint
/// when the measured walk starts and the `(walker misses, observed
/// lines)` samples.
///
/// The monitored sleeper's region overlaps the walker's by exactly the
/// requested coefficient; initial footprints are established by touching
/// the appropriate prefix before counters are reset.
pub(crate) fn walk(
    config: MachineConfig,
    monitored: Monitored,
    total_misses: u64,
    sample_every: u64,
    seed: u64,
) -> (f64, Vec<(u64, f64)>) {
    // Infallible for every shipped experiment: the geometries are fixed
    // powers of two of the ultra1 capacity, and `--geometry` /
    // `--page-size` are validated at the CLI boundary.
    #[allow(clippy::unwrap_used)]
    let mut machine = Machine::try_new(config).unwrap();
    let walker = ThreadId(1);
    let sleeper = ThreadId(2);

    let walker_region = machine.alloc(WALKER_LINES * LINE, LINE);
    machine.register_region(walker, walker_region, WALKER_LINES * LINE);

    // Sleeper region: a slice of the walker's region covering fraction q
    // of it (dependent), or a disjoint region (independent).
    let monitored_tid = match monitored {
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
    let s0_observed = machine.l2_footprint_lines(0, monitored_tid) as f64;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    let mut misses: u64 = 0;
    let mut next_sample = sample_every;
    while misses < total_misses {
        let line = rng.gen_range(0..WALKER_LINES);
        machine.access(0, walker_region.offset(line * LINE), AccessKind::Read);
        misses = machine.pic(0).misses().wrapping_sub(pic_base);
        if misses >= next_sample {
            samples.push((misses, machine.l2_footprint_lines(0, monitored_tid) as f64));
            next_sample += sample_every;
        }
    }
    (s0_observed, samples)
}

/// Touches the first `lines` lines of `region` (sequential prefill: with
/// bin-hopping placement, a ≤ 512 KiB prefix maps onto distinct sets).
fn prefill(machine: &mut Machine, region: VAddr, lines: u64) {
    machine.set_running(0, Some(ThreadId(0)));
    for l in 0..lines {
        machine.access(0, region.offset(l * LINE), AccessKind::Read);
    }
}

/// Runs one Figure 4 curve and returns its points: the walk on a
/// single-processor UltraSPARC-1 whose E-cache keeps its capacity at
/// the experiment's associativity, predicted by the closed forms.
///
/// # Errors
///
/// Returns the [`ModelError`] of a cache the closed forms do not cover.
pub fn run(exp: &WalkExperiment) -> Result<Vec<WalkPoint>, ModelError> {
    let mut config = MachineConfig::ultra1();
    let ways = exp.associativity.max(1);
    let l2 = config.hierarchy.l2;
    config.hierarchy.l2 = locality_sim::CacheGeometry { sets: l2.lines() / ways, ways, ..l2 };
    let predict = closed_form(exp.monitored, config.l2_lines())?;
    let (s0, samples) = walk(config, exp.monitored, exp.total_misses, exp.sample_every, exp.seed);
    let mut points = vec![WalkPoint { misses: 0, observed: s0, predicted: s0 }];
    points.extend(samples.into_iter().map(|(misses, observed)| WalkPoint {
        misses,
        observed,
        predicted: predict(s0, misses),
    }));
    Ok(points)
}

/// Maximum relative error of a curve against the model over points whose
/// observed footprint exceeds `min_lines`.
pub fn max_rel_error(points: &[WalkPoint], min_lines: f64) -> f64 {
    points
        .iter()
        .filter(|p| p.observed >= min_lines)
        .map(|p| ((p.predicted - p.observed) / p.observed).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_curve_matches_model() {
        let pts =
            run(&WalkExperiment::direct(Monitored::Walker { s0: 0.0 }, 20_000, 2_000, 1)).unwrap();
        assert!(pts.len() >= 10);
        let err = max_rel_error(&pts, 256.0);
        assert!(err < 0.05, "walker curve error {err:.3}");
        // Monotone growth.
        for w in pts.windows(2) {
            assert!(w[1].observed >= w[0].observed - 32.0);
        }
    }

    #[test]
    fn walker_with_initial_footprint_starts_there() {
        let pts = run(&WalkExperiment::direct(Monitored::Walker { s0: 4096.0 }, 5_000, 1_000, 2))
            .unwrap();
        assert!((pts[0].observed - 4096.0).abs() < 64.0, "start at {}", pts[0].observed);
        assert!(max_rel_error(&pts, 256.0) < 0.05);
    }

    #[test]
    fn independent_sleeper_decays() {
        let pts =
            run(&WalkExperiment::direct(Monitored::Independent { s0: 4096.0 }, 20_000, 2_000, 3))
                .unwrap();
        assert!(pts[0].observed > 3900.0);
        let last = pts.last().unwrap();
        assert!(last.observed < pts[0].observed / 2.0, "must decay: {last:?}");
        assert!(max_rel_error(&pts, 256.0) < 0.10);
    }

    #[test]
    fn dependent_grows_toward_qn() {
        let pts = run(&WalkExperiment::direct(
            Monitored::Dependent { q: 0.5, s0: 0.0 },
            30_000,
            3_000,
            4,
        ))
        .unwrap();
        let last = pts.last().unwrap();
        assert!(last.observed > 2500.0, "should approach qN = 4096: {last:?}");
        assert!(last.observed < 4500.0);
        assert!(max_rel_error(&pts, 256.0) < 0.10);
    }

    #[test]
    fn dependent_decays_from_above_qn() {
        let pts = run(&WalkExperiment::direct(
            Monitored::Dependent { q: 0.25, s0: 6000.0 },
            30_000,
            3_000,
            5,
        ))
        .unwrap();
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
        for assoc in [1u64, 2, 4] {
            let pts = run(&WalkExperiment {
                monitored: Monitored::Walker { s0: 0.0 },
                total_misses: 15_000,
                sample_every: 3_000,
                associativity: assoc,
                seed: 9,
            })
            .unwrap();
            errs.push(max_rel_error(&pts, 512.0));
        }
        assert!(errs[0] < 0.03, "direct-mapped stays exact: {:.3}", errs[0]);
        assert!(errs[1] > errs[0] && errs[2] > errs[0], "LRU must deviate: {errs:?}");
        assert!(errs[2] < 0.25, "…but boundedly: {errs:?}");
    }
}
