//! Named counter-fault scenarios for the robustness ablation.
//!
//! Each scenario maps to a [`FaultConfig`] installed on the simulated
//! machine's PIC read path (see [`locality_sim::faults`]). The `window`
//! scenario injects read traps only for an initial window of reads and
//! then clears, demonstrating the scheduler's automatic recovery from
//! [degraded mode](active_threads::sched::SchedMode).

use crate::args::keyword_or_all;
use crate::error::ReproError;
use locality_sim::{FaultConfig, FaultKind};

/// Reads covered by the `window` scenario before the fault clears.
pub const WINDOW_READS: u64 = 400;

/// A named counter-fault scenario selectable with `--fault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// No fault: the clean baseline.
    Clean,
    /// 32-bit register wraparound between interval snapshots.
    Wraparound,
    /// A counter stuck repeating its first observed interval.
    Stuck,
    /// Multiplexing dropouts: ~30% of intervals read as all zero.
    Dropout,
    /// Counters saturate at a low cap instead of counting.
    Saturate,
    /// ±50% multiplicative noise on both registers.
    Noise,
    /// Every counter read traps (user access revoked).
    Trap,
    /// Read traps for the first [`WINDOW_READS`] reads, then the fault
    /// clears — exercises degradation *and* recovery in one run.
    Window,
}

impl FaultScenario {
    /// All scenarios, clean baseline first.
    pub const ALL: [FaultScenario; 8] = [
        FaultScenario::Clean,
        FaultScenario::Wraparound,
        FaultScenario::Stuck,
        FaultScenario::Dropout,
        FaultScenario::Saturate,
        FaultScenario::Noise,
        FaultScenario::Trap,
        FaultScenario::Window,
    ];

    /// The scenario's `--fault` keyword and report label.
    pub fn name(&self) -> &'static str {
        match self {
            FaultScenario::Clean => "clean",
            FaultScenario::Wraparound => "wraparound",
            FaultScenario::Stuck => "stuck",
            FaultScenario::Dropout => "dropout",
            FaultScenario::Saturate => "saturate",
            FaultScenario::Noise => "noise",
            FaultScenario::Trap => "trap",
            FaultScenario::Window => "window",
        }
    }

    /// Parses a `--fault` value: a scenario keyword or `all`.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Usage`] listing the valid keywords.
    pub fn parse(value: &str) -> Result<Vec<FaultScenario>, ReproError> {
        keyword_or_all("fault scenario", value, &Self::ALL, Self::name)
    }

    /// The fault to install on the machine, if any.
    pub fn config(&self, seed: u64) -> Option<FaultConfig> {
        match self {
            FaultScenario::Clean => None,
            FaultScenario::Wraparound => Some(FaultConfig::always(FaultKind::Wraparound, seed)),
            FaultScenario::Stuck => Some(FaultConfig::always(FaultKind::StuckAt, seed)),
            FaultScenario::Dropout => {
                Some(FaultConfig::always(FaultKind::Dropout { p_millis: 300 }, seed))
            }
            FaultScenario::Saturate => {
                Some(FaultConfig::always(FaultKind::Saturate { cap: 48 }, seed))
            }
            FaultScenario::Noise => {
                Some(FaultConfig::always(FaultKind::Noise { percent: 50 }, seed))
            }
            FaultScenario::Trap => Some(FaultConfig::always(FaultKind::TrapOnRead, seed)),
            FaultScenario::Window => {
                Some(FaultConfig::windowed(FaultKind::TrapOnRead, seed, 0, WINDOW_READS))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in FaultScenario::ALL {
            assert_eq!(FaultScenario::parse(s.name()).unwrap(), vec![s]);
        }
        assert_eq!(FaultScenario::parse("all").unwrap(), FaultScenario::ALL);
        assert!(FaultScenario::parse("bogus").unwrap_err().to_string().contains("wraparound"));
    }

    #[test]
    fn configs() {
        assert!(FaultScenario::Clean.config(1).is_none());
        for s in FaultScenario::ALL.into_iter().skip(1) {
            assert!(s.config(1).is_some(), "{} must install a fault", s.name());
        }
        let w = FaultScenario::Window.config(1).unwrap();
        assert!(w.window.is_some(), "window scenario must clear eventually");
    }
}
