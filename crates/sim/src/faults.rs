//! Deterministic fault injection on the performance-counter read path.
//!
//! Real PIC reads are not as clean as the simulator's: the 32-bit
//! registers wrap on long intervals, multiplexed counters lose whole
//! intervals, PCR misprogramming freezes or saturates counts, and a read
//! with the user-access bit cleared traps into the kernel. The paper's
//! runtime quietly assumes none of this happens; the point of this
//! module is to stop assuming and let the estimator/scheduler stack
//! prove it degrades gracefully instead of panicking or chasing garbage
//! miss counts.
//!
//! A [`FaultConfig`] installed with
//! [`Machine::install_fault`](crate::Machine::install_fault) perturbs
//! every [`pic_take_interval`](crate::Machine::pic_take_interval) result
//! while active. Everything is driven by a caller-supplied seed
//! through a private SplitMix64 stream, so runs are exactly
//! reproducible, and an optional activation [`FaultWindow`] lets
//! experiments demonstrate *recovery* once a transient fault clears.

use crate::counters::PicDelta;

/// The ways a counter read can misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// 32-bit wraparound on a long interval (or a counter reset between
    /// snapshots): the reference register goes "backwards", so the
    /// wrapping 32-bit delta comes out near 2³² — an absurd miss count.
    Wraparound,
    /// The registers freeze: every read while the fault is active
    /// repeats the first delta observed, regardless of real activity.
    StuckAt,
    /// Counter multiplexing loses intervals: with probability
    /// `p_millis`/1000 a read reports all-zero deltas.
    Dropout {
        /// Drop probability in thousandths (0..=1000).
        p_millis: u32,
    },
    /// Counts clamp at `cap` per register, as if the counter saturated
    /// instead of wrapping. Misses are recomputed from the clamped
    /// registers, so they shrink toward zero.
    Saturate {
        /// Per-register ceiling applied to the interval delta.
        cap: u64,
    },
    /// Multiplicative over/under-count: each register is scaled by an
    /// independent factor drawn uniformly from `1 ± percent/100`.
    Noise {
        /// Maximum relative error, in percent (e.g. 40 ⇒ ±40%).
        percent: u32,
    },
    /// Every read traps (models the PCR user-access bit being cleared:
    /// a user-level `rd %pic` faults into the kernel). The read fails
    /// and the interval is *not* reset — counts keep accumulating.
    TrapOnRead,
}

/// Activation window in units of machine-wide counter reads: the fault
/// is live for reads `start..end` and dormant outside. `None` in
/// [`FaultConfig::window`] means "always active".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First read (0-based, machine-wide) the fault affects.
    pub start: u64,
    /// First read no longer affected.
    pub end: u64,
}

/// A complete fault specification: what goes wrong, when, and the seed
/// that makes the pseudo-random parts reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// The failure mode to inject.
    pub kind: FaultKind,
    /// Seed of the injector's private random stream.
    pub seed: u64,
    /// Optional activation window; `None` = active for the whole run.
    pub window: Option<FaultWindow>,
}

impl FaultConfig {
    /// A fault of `kind` that is active for the whole run.
    pub const fn always(kind: FaultKind, seed: u64) -> Self {
        FaultConfig { kind, seed, window: None }
    }

    /// A fault of `kind` active only for reads `start..end`.
    pub const fn windowed(kind: FaultKind, seed: u64, start: u64, end: u64) -> Self {
        FaultConfig { kind, seed, window: Some(FaultWindow { start, end }) }
    }
}

/// Stateful perturbation of the PIC read path; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    config: FaultConfig,
    /// SplitMix64 state (private stream: the sim crate stays free of
    /// RNG dependencies and workload RNG streams stay undisturbed).
    state: u64,
    /// Machine-wide reads observed so far (window clock).
    reads: u64,
    /// The frozen delta for [`FaultKind::StuckAt`].
    stuck: Option<PicDelta>,
}

impl FaultInjector {
    /// Creates an injector for `config`.
    pub(crate) fn new(config: FaultConfig) -> Self {
        FaultInjector {
            config,
            // Pre-mix so seed 0 does not start with a zero state.
            state: config.seed ^ 0x9E37_79B9_7F4A_7C15,
            reads: 0,
            stuck: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Advances the window clock by one read and reports whether the
    /// fault is live for it. Leaving the window clears sticky state, so
    /// recovery after a transient fault is genuine.
    pub(crate) fn begin_read(&mut self) -> bool {
        let live = self.config.window.is_none_or(|w| (w.start..w.end).contains(&self.reads));
        self.reads += 1;
        if !live {
            self.stuck = None;
        }
        live
    }

    /// Whether a live read should trap instead of returning a delta.
    /// Only meaningful after [`begin_read`](Self::begin_read) returned
    /// `true`.
    pub(crate) fn traps(&self) -> bool {
        matches!(self.config.kind, FaultKind::TrapOnRead)
    }

    /// Perturbs one true interval delta according to the fault kind.
    pub(crate) fn perturb(&mut self, truth: PicDelta) -> PicDelta {
        match self.config.kind {
            FaultKind::Wraparound => {
                // The refs register went backwards by `excess` (reset or
                // missed 2³² carry); the 32-bit wrapping subtraction then
                // reports a near-2³² garbage delta. Hits stay sane —
                // refs wraps first because it counts strictly more
                // events — so misses explode.
                let excess = (1 << 24) + (self.next_u64() & ((1 << 28) - 1));
                let refs = truth.refs.wrapping_sub(excess) & 0xFFFF_FFFF;
                PicDelta { refs, hits: truth.hits, misses: refs.saturating_sub(truth.hits) }
            }
            FaultKind::StuckAt => {
                let frozen = *self.stuck.get_or_insert(truth);
                frozen
            }
            FaultKind::Dropout { p_millis } => {
                if self.next_u64() % 1000 < u64::from(p_millis.min(1000)) {
                    PicDelta::default()
                } else {
                    truth
                }
            }
            FaultKind::Saturate { cap } => {
                let refs = truth.refs.min(cap);
                let hits = truth.hits.min(cap);
                PicDelta { refs, hits, misses: refs.saturating_sub(hits) }
            }
            FaultKind::Noise { percent } => {
                let spread = f64::from(percent) / 100.0;
                let scale = |v: u64, f: &mut Self| -> u64 {
                    let factor = 1.0 + spread * (2.0 * f.next_f64() - 1.0);
                    ((v as f64 * factor).max(0.0)) as u64
                };
                let refs = scale(truth.refs, self);
                let hits = scale(truth.hits, self).min(refs);
                PicDelta { refs, hits, misses: refs.saturating_sub(hits) }
            }
            FaultKind::TrapOnRead => truth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> PicDelta {
        PicDelta { refs: 1000, hits: 900, misses: 100 }
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = FaultConfig::always(FaultKind::Noise { percent: 40 }, 7);
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        for _ in 0..50 {
            assert!(a.begin_read() && b.begin_read());
            assert_eq!(a.perturb(truth()), b.perturb(truth()));
        }
        let mut c = FaultInjector::new(FaultConfig::always(FaultKind::Noise { percent: 40 }, 8));
        c.begin_read();
        assert_ne!(a.perturb(truth()), c.perturb(truth()), "different seed, different stream");
    }

    #[test]
    fn wraparound_reports_absurd_misses() {
        let mut inj = FaultInjector::new(FaultConfig::always(FaultKind::Wraparound, 1));
        assert!(inj.begin_read());
        let d = inj.perturb(truth());
        assert!(d.refs >= 1 << 31, "refs must look wrapped: {d:?}");
        assert!(d.misses >= 1 << 31, "misses must be absurd: {d:?}");
        assert!(d.refs < 1 << 32, "still a 32-bit register delta");
    }

    #[test]
    fn stuck_at_repeats_first_delta_and_clears_outside_window() {
        let mut inj = FaultInjector::new(FaultConfig::windowed(FaultKind::StuckAt, 1, 0, 3));
        assert!(inj.begin_read());
        let first = inj.perturb(PicDelta { refs: 5, hits: 5, misses: 0 });
        assert!(inj.begin_read());
        assert_eq!(inj.perturb(truth()), first, "stuck counters repeat");
        assert!(inj.begin_read());
        assert_eq!(inj.perturb(truth()), first);
        // Window over: the next read is healthy and sticky state resets.
        assert!(!inj.begin_read());
        assert!(inj.stuck.is_none(), "recovery must be genuine");
    }

    #[test]
    fn dropout_zeroes_some_intervals() {
        let mut inj =
            FaultInjector::new(FaultConfig::always(FaultKind::Dropout { p_millis: 500 }, 3));
        let mut zeroed = 0;
        for _ in 0..400 {
            inj.begin_read();
            if inj.perturb(truth()) == PicDelta::default() {
                zeroed += 1;
            }
        }
        assert!((100..300).contains(&zeroed), "~50% dropout expected, got {zeroed}/400");
    }

    #[test]
    fn saturation_clamps_registers() {
        let mut inj = FaultInjector::new(FaultConfig::always(FaultKind::Saturate { cap: 950 }, 1));
        inj.begin_read();
        let d = inj.perturb(truth());
        assert_eq!(d, PicDelta { refs: 950, hits: 900, misses: 50 });
        let d2 = inj.perturb(PicDelta { refs: 2000, hits: 1990, misses: 10 });
        assert_eq!(d2, PicDelta { refs: 950, hits: 950, misses: 0 }, "misses vanish");
    }

    #[test]
    fn noise_stays_consistent() {
        let mut inj = FaultInjector::new(FaultConfig::always(FaultKind::Noise { percent: 40 }, 5));
        for _ in 0..200 {
            inj.begin_read();
            let d = inj.perturb(truth());
            assert!(d.hits <= d.refs, "hits must never exceed refs: {d:?}");
            assert_eq!(d.misses, d.refs - d.hits);
            assert!(d.refs <= 1400 && d.refs >= 600, "±40% bound: {d:?}");
        }
    }

    #[test]
    fn window_gates_activity() {
        let mut inj = FaultInjector::new(FaultConfig::windowed(FaultKind::Wraparound, 1, 2, 4));
        assert!(!inj.begin_read()); // read 0
        assert!(!inj.begin_read()); // read 1
        assert!(inj.begin_read()); // read 2
        assert!(inj.begin_read()); // read 3
        assert!(!inj.begin_read()); // read 4
    }

    #[test]
    fn trap_kind_traps() {
        let mut inj = FaultInjector::new(FaultConfig::always(FaultKind::TrapOnRead, 1));
        assert!(inj.begin_read());
        assert!(inj.traps());
    }
}
