//! Deterministic thread-lifecycle fault injection — the *chaos layer*.
//!
//! A [`ChaosConfig`] installed in [`EngineConfig`](crate::EngineConfig)
//! makes the engine kill threads at well-defined points of its own
//! discrete-event loop: at batch boundaries (abort mid-interval, with or
//! without held locks), at admission (spawn failure), and at scheduling
//! steps (death of ready/sleeping/blocked threads, abandoning their
//! shared regions). Every decision comes from a seeded xorshift64*
//! stream with fixed-point probabilities, so a chaos run is exactly as
//! reproducible as a clean one: identical config + identical workload →
//! identical kills → byte-identical artifacts.
//!
//! Recovery is the engine's job, not this module's: see
//! `Engine::abort_thread` for the cleanup chain (orphaned-lock
//! reclamation with poisoning, waiter-queue purging, scheduler/graph/
//! sanitizer/machine pruning through the slot-recycling path).

/// Chaos tunables. All probabilities are fixed-point *per 65536* so the
/// config stays `Copy + Eq` and decisions never depend on float
/// rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the fault stream. Same seed, same kills.
    pub seed: u64,
    /// Per-batch probability (×2⁻¹⁶) of aborting the running thread at
    /// the batch boundary it just reached (abort mid-interval).
    pub abort_running_per_64k: u32,
    /// Restrict running-thread aborts to victims that currently own at
    /// least one mutex (the lock-poisoning scenario).
    pub only_lock_holders: bool,
    /// Per-admission probability (×2⁻¹⁶) that a spawn fails: the thread
    /// is stillborn — it joins as aborted and never runs a batch.
    pub spawn_fail_per_64k: u32,
    /// Per-step probability (×2⁻¹⁶) of killing one idle (ready,
    /// sleeping, or blocked) thread, chosen uniformly from the live
    /// population in slot order.
    pub abort_idle_per_64k: u32,
    /// Hard cap on injected faults of all kinds.
    pub max_faults: u32,
}

/// Never abort when it would drop the live population to or below this
/// floor (spawn failures are exempt: they never reduce `live`).
pub(crate) const MIN_LIVE: u64 = 1;

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            abort_running_per_64k: 0,
            only_lock_holders: false,
            spawn_fail_per_64k: 0,
            abort_idle_per_64k: 0,
            max_faults: u32::MAX,
        }
    }
}

impl ChaosConfig {
    /// Whether any fault kind can fire at all.
    pub fn is_active(&self) -> bool {
        self.max_faults > 0
            && (self.abort_running_per_64k > 0
                || self.spawn_fail_per_64k > 0
                || self.abort_idle_per_64k > 0)
    }
}

/// Mutable fault-stream state owned by the engine: the PRNG position and
/// the number of faults injected so far.
#[derive(Debug, Clone)]
pub(crate) struct ChaosState {
    rng: u64,
    faults: u32,
}

impl ChaosState {
    pub(crate) fn new(cfg: &ChaosConfig) -> Self {
        // xorshift64* needs a nonzero state; fold the seed onto a salt.
        ChaosState { rng: cfg.seed ^ 0x9E37_79B9_7F4A_7C15, faults: 0 }
    }

    pub(crate) fn faults(&self) -> u32 {
        self.faults
    }

    pub(crate) fn note_fault(&mut self) {
        self.faults += 1;
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna): full-period, passes the statistical tests
        // that matter for fault scattering, and trivially portable.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Bernoulli roll with probability `per_64k / 65536`. Always draws
    /// (and advances the stream) so decision *sites* stay aligned across
    /// configs that differ only in rates.
    pub(crate) fn roll(&mut self, per_64k: u32) -> bool {
        let draw = (self.next_u64() >> 48) as u32; // top 16 bits
        draw < per_64k
    }

    /// Uniform pick in `0..n` (`n > 0`).
    pub(crate) fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let cfg = ChaosConfig::default();
        assert!(!cfg.is_active());
    }

    #[test]
    fn stream_is_deterministic() {
        let cfg = ChaosConfig { seed: 42, ..ChaosConfig::default() };
        let mut a = ChaosState::new(&cfg);
        let mut b = ChaosState::new(&cfg);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Different seeds diverge.
        let mut c = ChaosState::new(&ChaosConfig { seed: 43, ..ChaosConfig::default() });
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(same < 8, "seeds 42 and 43 produced near-identical streams");
    }

    #[test]
    fn roll_rates_are_sane() {
        let mut st = ChaosState::new(&ChaosConfig::default());
        let n = 100_000;
        let hits = (0..n).filter(|_| st.roll(1024)).count();
        // 1024/65536 ≈ 1.56%; accept a generous band.
        let rate = hits as f64 / n as f64;
        assert!(rate > 0.010 && rate < 0.022, "rate {rate} outside band");
        // Zero never fires, 65536+ always fires.
        assert!(!(0..1000).any(|_| st.roll(0)));
        assert!((0..1000).all(|_| st.roll(65536)));
    }

    #[test]
    fn pick_is_in_range() {
        let mut st = ChaosState::new(&ChaosConfig::default());
        for n in 1..=17 {
            for _ in 0..100 {
                assert!(st.pick(n) < n);
            }
        }
    }
}
