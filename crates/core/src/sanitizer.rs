//! Counter sanitation: the defensive layer between raw PIC interval
//! deltas and the footprint estimator.
//!
//! The paper feeds the miss count `n` from the hardware counters
//! straight into `kⁿ`. That is fine in a simulator with perfect
//! counters; on hardware (and under this repo's injected faults, see
//! `locality_sim::faults`) the read path produces wrap artifacts,
//! dropped intervals, frozen registers, and noise. A single absurd `n`
//! (say 2³¹) collapses every expected footprint to zero and wrecks the
//! schedule long after the bad sample.
//!
//! [`CounterSanitizer`] guarantees the estimator only ever sees
//! *plausible* intervals:
//!
//! * **wraparound correction** — a register delta at or above
//!   [`WRAP_THRESHOLD`] cannot be a real one-quantum count (the
//!   registers are 32-bit and a quantum is ~10⁵ references); it is a
//!   mod-2³² artifact of a wrapped or reset register and is replaced by
//!   the thread's running EWMA estimate;
//! * **consistency clamps** — `hits ≤ refs` and `misses = refs − hits`
//!   are enforced, so misses can never be negative or exceed refs;
//! * **outlier clamping** — once a thread has history, a miss count
//!   more than [`SanitizerConfig::outlier_factor`]× its EWMA is clamped
//!   to the EWMA;
//! * **per-thread confidence** — every interval updates an EWMA
//!   confidence score in `[0, 1]`: clean samples pull it toward 1,
//!   corrected samples and counter traps toward 0. Schedulers use the
//!   score to decide when counter-driven priorities should no longer be
//!   trusted (see the `active-threads` crate's degraded mode).
//!
//! The sanitizer is deliberately ignorant of the simulator: it consumes
//! plain integers, so it would sit unchanged in front of real
//! `rd %pic` reads.

use crate::slots::ThreadSlots;
use crate::ThreadId;

/// Register deltas at or above this are treated as wrap/reset artifacts
/// (2³¹: half the 32-bit register range, far above any real quantum).
pub const WRAP_THRESHOLD: u64 = 1 << 31;

/// Tuning knobs for [`CounterSanitizer`]. No caller sets one: they stay a
/// struct rather than constants only because the frozen
/// `benchmark/src/probes.rs` names the type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizerConfig {
    /// Smoothing factor of the per-thread miss/ref EWMAs (weight of the
    /// newest sample).
    pub ewma_alpha: f64,
    /// Smoothing factor of the confidence score.
    pub confidence_alpha: f64,
    /// A miss count above `outlier_factor × EWMA` is clamped (only once
    /// the thread has [`Self::warmup`] samples of history).
    pub outlier_factor: f64,
    /// Samples of history required before outlier clamping engages.
    pub warmup: u32,
    /// Miss scale below which outliers are never flagged (tiny EWMAs
    /// would otherwise flag ordinary cold-start intervals).
    pub outlier_floor: f64,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig {
            ewma_alpha: 0.25,
            confidence_alpha: 0.25,
            outlier_factor: 8.0,
            warmup: 3,
            outlier_floor: 64.0,
        }
    }
}

/// One sanitized scheduling interval, safe to feed to the estimator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SanitizedInterval {
    /// E-cache references (corrected).
    pub refs: u64,
    /// E-cache hits (corrected, `hits ≤ refs`).
    pub hits: u64,
    /// E-cache misses (`refs − hits`, always).
    pub misses: u64,
    /// The thread's confidence score after this interval, in `[0, 1]`.
    pub confidence: f64,
    /// Whether any correction was applied to this interval.
    pub corrected: bool,
}

#[derive(Debug, Clone, Copy)]
struct ThreadState {
    ewma_misses: f64,
    ewma_refs: f64,
    confidence: f64,
    seen: u32,
}

impl Default for ThreadState {
    fn default() -> Self {
        // Innocent until proven faulty: confidence starts at 1.
        ThreadState { ewma_misses: 0.0, ewma_refs: 0.0, confidence: 1.0, seen: 0 }
    }
}

/// Stateful per-thread counter sanitizer; see the module docs.
///
/// Per-thread state lives in a dense `Vec` indexed by a
/// [`ThreadSlots`]-assigned slot; slots recycled after
/// [`forget`](Self::forget) are reset on rebinding, so a new thread
/// never inherits a dead thread's EWMAs or confidence.
#[derive(Debug, Clone, Default)]
pub struct CounterSanitizer {
    config: SanitizerConfig,
    slots: ThreadSlots,
    states: Vec<ThreadState>,
}

impl CounterSanitizer {
    /// Creates a sanitizer with the given tuning.
    pub fn new(config: SanitizerConfig) -> Self {
        CounterSanitizer { config, slots: ThreadSlots::new(), states: Vec::new() }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &SanitizerConfig {
        &self.config
    }

    /// The dense state index for `tid`, binding (and zeroing) a slot on
    /// first sight.
    fn state_index(&mut self, tid: ThreadId) -> usize {
        if let Some(slot) = self.slots.lookup(tid) {
            return slot.index();
        }
        let index = self.slots.bind(tid).index();
        if index == self.states.len() {
            self.states.push(ThreadState::default());
        } else {
            // Recycled slot: erase the previous thread's history.
            self.states[index] = ThreadState::default();
        }
        index
    }

    /// The current confidence of `tid` (1.0 for unknown threads).
    pub fn confidence(&self, tid: ThreadId) -> f64 {
        self.slots.lookup(tid).map_or(1.0, |s| self.states[s.index()].confidence)
    }

    /// Drops all state for `tid` (thread exit); the slot is recycled
    /// for future threads.
    pub fn forget(&mut self, tid: ThreadId) {
        if let Some(slot) = self.slots.release(tid) {
            self.states[slot.index()] = ThreadState::default();
        }
    }

    /// Records that reading `tid`'s interval trapped (no data at all)
    /// and returns the updated confidence.
    pub fn note_trap(&mut self, tid: ThreadId) -> f64 {
        let alpha = self.config.confidence_alpha;
        let index = self.state_index(tid);
        let st = &mut self.states[index];
        st.confidence += alpha * (0.0 - st.confidence);
        let confidence = st.confidence;
        locality_trace::emit_with(|| locality_trace::TraceEvent::SanitizerVerdict {
            tid: tid.0,
            confidence,
            corrected: true,
        });
        confidence
    }

    /// Sanitizes one raw interval delta attributed to `tid`.
    ///
    /// The returned interval always satisfies `hits ≤ refs`,
    /// `misses == refs − hits`, `refs < 2³¹` and
    /// `confidence ∈ [0, 1]` — no wrap garbage, no negative or absurd
    /// miss counts, nothing that would make `kⁿ` underflow to zero.
    pub fn sanitize(
        &mut self,
        tid: ThreadId,
        refs: u64,
        hits: u64,
        misses: u64,
    ) -> SanitizedInterval {
        let cfg = self.config;
        let index = self.state_index(tid);
        let st = &mut self.states[index];
        let mut corrected = false;

        // Wrap/reset artifact: a register went backwards between
        // snapshots and the 32-bit wrapping subtraction produced a
        // near-2³² delta. The true interval count is unknowable, so
        // substitute the thread's running estimate.
        let (mut refs, mut hits) = (refs, hits);
        if refs >= WRAP_THRESHOLD || hits >= WRAP_THRESHOLD {
            corrected = true;
            refs = st.ewma_refs as u64;
            let est_misses = (st.ewma_misses as u64).min(refs);
            hits = refs - est_misses;
        }

        // Consistency: hits can never exceed refs, and misses are
        // always derived (`refs − hits`), never trusted independently.
        if hits > refs {
            corrected = true;
            hits = refs;
        }
        let mut out_misses = refs - hits;
        if misses != out_misses {
            // The reported miss figure disagreed with refs−hits; the
            // derived value wins and the disagreement costs confidence.
            corrected = true;
        }

        // Outlier clamp: with history, a miss count far above the EWMA
        // is a glitch, not a phase change (phase changes move the EWMA
        // within a few intervals anyway).
        if st.seen >= cfg.warmup {
            let ceiling = cfg.outlier_factor * st.ewma_misses.max(cfg.outlier_floor);
            if (out_misses as f64) > ceiling {
                corrected = true;
                out_misses = st.ewma_misses as u64;
                hits = refs.saturating_sub(out_misses);
                out_misses = refs - hits;
            }
        }

        // Update history with the corrected sample.
        if st.seen == 0 {
            st.ewma_misses = out_misses as f64;
            st.ewma_refs = refs as f64;
        } else {
            st.ewma_misses += cfg.ewma_alpha * (out_misses as f64 - st.ewma_misses);
            st.ewma_refs += cfg.ewma_alpha * (refs as f64 - st.ewma_refs);
        }
        st.seen = st.seen.saturating_add(1);

        // Confidence: clean samples pull toward 1, corrected toward 0.
        let score = if corrected { 0.0 } else { 1.0 };
        st.confidence += cfg.confidence_alpha * (score - st.confidence);

        let confidence = st.confidence;
        locality_trace::emit_with(|| locality_trace::TraceEvent::SanitizerVerdict {
            tid: tid.0,
            confidence,
            corrected,
        });
        SanitizedInterval { refs, hits, misses: out_misses, confidence, corrected }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn clean_intervals_pass_through() {
        let mut s = CounterSanitizer::default();
        let out = s.sanitize(t(1), 1000, 900, 100);
        assert_eq!((out.refs, out.hits, out.misses), (1000, 900, 100));
        assert!(!out.corrected);
        assert_eq!(out.confidence, 1.0, "clean sample keeps full confidence");
    }

    #[test]
    fn wrap_artifact_replaced_by_ewma() {
        let mut s = CounterSanitizer::default();
        for _ in 0..5 {
            s.sanitize(t(1), 1000, 900, 100);
        }
        let garbage = (1u64 << 32) - 12345;
        let out = s.sanitize(t(1), garbage, 900, garbage - 900);
        assert!(out.corrected);
        assert!(out.misses <= 150, "estimate must be near the EWMA, got {}", out.misses);
        assert!(out.refs < WRAP_THRESHOLD);
        assert!(out.confidence < 1.0);
    }

    #[test]
    fn inconsistent_hits_clamped() {
        let mut s = CounterSanitizer::default();
        let out = s.sanitize(t(1), 100, 250, 0);
        assert!(out.corrected);
        assert_eq!(out.hits, 100);
        assert_eq!(out.misses, 0);
    }

    #[test]
    fn outlier_clamped_after_warmup() {
        let mut s = CounterSanitizer::default();
        for _ in 0..4 {
            s.sanitize(t(1), 10_000, 9_000, 1_000);
        }
        // 100× the EWMA: glitch, clamp to EWMA.
        let out = s.sanitize(t(1), 200_000, 100_000, 100_000);
        assert!(out.corrected);
        assert!(out.misses <= 1_100, "clamped near EWMA, got {}", out.misses);
        // A merely-2× interval is a phase change, not an outlier.
        let ok = s.sanitize(t(1), 20_000, 18_000, 2_000);
        assert!(!ok.corrected);
    }

    #[test]
    fn confidence_decays_under_faults_and_recovers() {
        let mut s = CounterSanitizer::default();
        for _ in 0..5 {
            s.sanitize(t(1), 1000, 900, 100);
        }
        let mut conf = s.confidence(t(1));
        assert_eq!(conf, 1.0);
        for _ in 0..10 {
            conf = s.note_trap(t(1));
        }
        assert!(conf < 0.1, "traps must crush confidence, got {conf}");
        for _ in 0..20 {
            conf = s.sanitize(t(1), 1000, 900, 100).confidence;
        }
        assert!(conf > 0.9, "clean stream must restore confidence, got {conf}");
    }

    #[test]
    fn forget_resets_history() {
        let mut s = CounterSanitizer::default();
        for _ in 0..10 {
            s.note_trap(t(1));
        }
        assert!(s.confidence(t(1)) < 0.2);
        s.forget(t(1));
        assert_eq!(s.confidence(t(1)), 1.0);
    }

    #[test]
    fn recycled_slot_starts_fresh() {
        let mut s = CounterSanitizer::default();
        // t1 builds a big-miss EWMA and low confidence, then exits.
        for _ in 0..6 {
            s.sanitize(t(1), 100_000, 10_000, 90_000);
        }
        for _ in 0..6 {
            s.note_trap(t(1));
        }
        s.forget(t(1));
        // t2 reuses t1's slot: no inherited EWMA (an interval that would
        // have been within t1's envelope must be judged cold-start) and
        // full starting confidence.
        let out = s.sanitize(t(2), 1000, 900, 100);
        assert!(!out.corrected);
        assert_eq!(out.confidence, 1.0, "recycled slot leaked confidence");
        // Outlier clamping needs warmup again: a huge second interval
        // passes, proving the warmup counter was reset too.
        let big = s.sanitize(t(2), 500_000, 100_000, 400_000);
        assert!(!big.corrected, "warmup counter leaked across recycling");
    }

    proptest! {
        /// Whatever garbage goes in, the output is always a plausible
        /// interval: consistent, wrap-free, confidence in range.
        #[test]
        fn outputs_always_plausible(
            samples in proptest::collection::vec(
                (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..4),
                1..100,
            )
        ) {
            let mut s = CounterSanitizer::default();
            for (refs, hits, misses, tid) in samples {
                let out = s.sanitize(ThreadId(tid), refs, hits, misses);
                prop_assert!(out.hits <= out.refs, "hits {} > refs {}", out.hits, out.refs);
                prop_assert_eq!(out.misses, out.refs - out.hits);
                prop_assert!(out.refs < super::WRAP_THRESHOLD, "wrap leak: {}", out.refs);
                prop_assert!(out.confidence.is_finite());
                prop_assert!((0.0..=1.0).contains(&out.confidence));
            }
        }

        /// A clean, steady stream (miss counts within the outlier
        /// envelope of each other) never gets corrected and keeps full
        /// confidence. Generated misses stay within 6× of each other,
        /// inside the 8× outlier ceiling.
        #[test]
        fn clean_streams_stay_clean(
            samples in proptest::collection::vec((5_000u64..10_000, 0.7f64..=0.9), 1..60)
        ) {
            let mut s = CounterSanitizer::default();
            for (refs, hit_frac) in samples {
                let hits = ((refs as f64) * hit_frac) as u64;
                let out = s.sanitize(ThreadId(1), refs, hits, refs - hits);
                prop_assert!(!out.corrected, "clean sample corrected: {:?}", out);
                prop_assert!(out.confidence >= 0.99, "conf dipped: {}", out.confidence);
                prop_assert_eq!(out.refs, refs);
                prop_assert_eq!(out.hits, hits);
            }
        }
    }
}
