//! Named thread-lifecycle chaos scenarios for the robustness ablation.
//!
//! Each scenario maps to a [`ChaosConfig`] installed on the engine's
//! deterministic fault injector (see [`active_threads::chaos`]): seeded
//! thread aborts mid-interval, deaths while holding locks (poisoning +
//! orphaned-lock reclamation), spawn failures, and idle-thread kills.
//! Every layer of the runtime must recover — the run completes and the
//! report accounts for every spawned thread as completed or aborted.

use crate::args::keyword_or_all;
use crate::error::ReproError;
use active_threads::ChaosConfig;

/// The seed all chaos cells share; the scenario's fixed-point rates do
/// the differentiating, so cells stay reproducible across policies.
pub const CHAOS_SEED: u64 = 0xC4A05;

/// A named lifecycle-fault scenario selectable with `--chaos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// No fault injection: the clean baseline.
    Clean,
    /// Running threads abort mid-interval (batch boundary).
    AbortRunning,
    /// Only mutex holders abort — every death poisons and orphans a
    /// lock that must be reclaimed for its waiters.
    AbortLocked,
    /// Thread creation fails: spawns become stillborn aborted threads.
    SpawnFail,
    /// Ready/blocked/sleeping threads are killed off-cpu.
    AbortIdle,
    /// Everything at once: running aborts, spawn failures, idle kills.
    Churn,
}

impl ChaosScenario {
    /// All scenarios, clean baseline first.
    pub const ALL: [ChaosScenario; 6] = [
        ChaosScenario::Clean,
        ChaosScenario::AbortRunning,
        ChaosScenario::AbortLocked,
        ChaosScenario::SpawnFail,
        ChaosScenario::AbortIdle,
        ChaosScenario::Churn,
    ];

    /// The scenario's `--chaos` keyword and report label.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosScenario::Clean => "clean",
            ChaosScenario::AbortRunning => "abort-running",
            ChaosScenario::AbortLocked => "abort-locked",
            ChaosScenario::SpawnFail => "spawn-fail",
            ChaosScenario::AbortIdle => "abort-idle",
            ChaosScenario::Churn => "churn",
        }
    }

    /// Parses a `--chaos` value: a scenario keyword or `all`.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Usage`] listing the valid keywords.
    pub fn parse(value: &str) -> Result<Vec<ChaosScenario>, ReproError> {
        keyword_or_all("chaos scenario", value, &Self::ALL, Self::name)
    }

    /// The fault injector to install on the engine, if any.
    pub fn config(&self, seed: u64) -> Option<ChaosConfig> {
        match self {
            ChaosScenario::Clean => None,
            ChaosScenario::AbortRunning => Some(ChaosConfig::abort_running(seed)),
            ChaosScenario::AbortLocked => Some(ChaosConfig::abort_locked(seed)),
            ChaosScenario::SpawnFail => Some(ChaosConfig::spawn_fail(seed)),
            ChaosScenario::AbortIdle => Some(ChaosConfig::abort_idle(seed)),
            ChaosScenario::Churn => Some(ChaosConfig::churn(seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in ChaosScenario::ALL {
            assert_eq!(ChaosScenario::parse(s.name()).unwrap(), vec![s]);
        }
        assert_eq!(ChaosScenario::parse("all").unwrap(), ChaosScenario::ALL);
        assert!(ChaosScenario::parse("bogus").unwrap_err().to_string().contains("abort-running"));
    }

    #[test]
    fn configs() {
        assert!(ChaosScenario::Clean.config(1).is_none());
        for s in ChaosScenario::ALL.into_iter().skip(1) {
            let cfg = s.config(1).unwrap_or_else(|| panic!("{} must inject", s.name()));
            assert!(cfg.is_active(), "{} must be active", s.name());
        }
    }
}
