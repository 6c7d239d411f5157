//! The robustness ablations' one scenario table: each row is a name and
//! the complete, seeded injector it installs. `repro robustness` runs
//! every row.
//!
//! Counter-fault rows (ablation 6) put a [`FaultConfig`] on the simulated
//! machine's PIC read path (see [`locality_sim::faults`]). The `window`
//! row traps only for the first 400 reads (200 interval ends). At
//! [`Scale::Small`](crate::Scale::Small) its 64 threads take up to 10
//! traps each, so the scheduler enters
//! [degraded mode](active_threads::sched::SchedMode) and leaves it again.
//! At [`Scale::Paper`](crate::Scale::Paper) the traps land once each on
//! 200 of 256 threads, whose confidence falls only from 1 to 0.75: the
//! machine-wide EWMA never drops under 0.5 and the row never degrades.
//! Lifecycle rows (ablation 7) put a [`ChaosConfig`] on the engine (see
//! [`active_threads::chaos`]): aborts mid-interval, deaths while holding
//! a lock, spawn failures and idle kills, after which the run must still
//! finish and account for every thread. Each ablation's `clean` row
//! installs nothing and is the baseline its table compares against.

use active_threads::ChaosConfig;
use locality_sim::{FaultConfig, FaultKind};

/// The seed of every counter-fault row's injector.
const FAULT_SEED: u64 = 0xFA11;

/// The lifecycle rows' common base: one seed for every row, so the rates
/// alone tell the cells apart and each repeats across policies.
const NO_CHAOS: ChaosConfig = ChaosConfig {
    seed: 0xC4A05,
    abort_running_per_64k: 0,
    only_lock_holders: false,
    spawn_fail_per_64k: 0,
    abort_idle_per_64k: 0,
    max_faults: u32::MAX,
};

/// The two robustness ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Ablation 6: counter faults against the sanitizer and the degraded
    /// mode (LFF, with FCFS as the reference).
    Faults,
    /// Ablation 7: thread-lifecycle chaos under every policy.
    Chaos,
}

/// What a row installs; the variant is the row's ablation and `None` its
/// clean baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injector {
    /// A counter fault on the machine's PIC reads.
    Counter(Option<FaultConfig>),
    /// A lifecycle fault injector in the engine.
    Lifecycle(Option<ChaosConfig>),
}

/// One row of [`SCENARIOS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// The report label, unique within the row's ablation.
    pub name: &'static str,
    /// The injector the row's runs install.
    pub injector: Injector,
}

const fn counter(name: &'static str, fault: Option<FaultConfig>) -> Scenario {
    Scenario { name, injector: Injector::Counter(fault) }
}

const fn lifecycle(name: &'static str, chaos: Option<ChaosConfig>) -> Scenario {
    Scenario { name, injector: Injector::Lifecycle(chaos) }
}

const fn always(kind: FaultKind) -> Option<FaultConfig> {
    Some(FaultConfig::always(kind, FAULT_SEED))
}

const CLEAN_COUNTERS: Scenario = counter("clean", None);
const CLEAN_LIFECYCLE: Scenario = lifecycle("clean", None);

/// Every scenario of both ablations, each ablation's clean baseline first.
pub const SCENARIOS: [Scenario; 14] = [
    CLEAN_COUNTERS,
    // 32-bit register wraparound between interval snapshots, on one
    // read in `WRAP_ONE_READ_IN`.
    counter("wraparound", always(FaultKind::Wraparound)),
    // A counter stuck repeating its first observed interval.
    counter("stuck", always(FaultKind::StuckAt)),
    // Multiplexing dropouts: ~30% of intervals read as all zero.
    counter("dropout", always(FaultKind::Dropout { p_millis: 300 })),
    // Counters saturate at a low cap instead of counting.
    counter("saturate", always(FaultKind::Saturate { cap: 48 })),
    // ±50% multiplicative noise on both registers.
    counter("noise", always(FaultKind::Noise { percent: 50 })),
    // Every counter read traps (user access revoked).
    counter("trap", always(FaultKind::TrapOnRead)),
    // Traps for the first 400 reads, then clean: degradation and recovery
    // at small scale.
    counter("window", Some(FaultConfig::windowed(FaultKind::TrapOnRead, FAULT_SEED, 0, 400))),
    CLEAN_LIFECYCLE,
    // Running threads abort mid-interval (~1/64 per batch).
    lifecycle("abort-running", Some(ChaosConfig { abort_running_per_64k: 1024, ..NO_CHAOS })),
    // Only mutex holders abort (~1/32 per eligible batch): every death
    // poisons and orphans a lock that must be reclaimed for its waiters.
    lifecycle(
        "abort-locked",
        Some(ChaosConfig { abort_running_per_64k: 2048, only_lock_holders: true, ..NO_CHAOS }),
    ),
    // Spawns fail (~1/16 per admission): the thread is stillborn.
    lifecycle("spawn-fail", Some(ChaosConfig { spawn_fail_per_64k: 4096, ..NO_CHAOS })),
    // Ready, blocked and sleeping threads are killed off-cpu.
    lifecycle("abort-idle", Some(ChaosConfig { abort_idle_per_64k: 512, ..NO_CHAOS })),
    // Everything at once: running aborts, spawn failures, idle kills.
    lifecycle(
        "churn",
        Some(ChaosConfig {
            abort_running_per_64k: 512,
            spawn_fail_per_64k: 2048,
            abort_idle_per_64k: 256,
            ..NO_CHAOS
        }),
    ),
];

impl Scenario {
    /// The ablation the row belongs to.
    pub fn ablation(&self) -> Ablation {
        match self.injector {
            Injector::Counter(_) => Ablation::Faults,
            Injector::Lifecycle(_) => Ablation::Chaos,
        }
    }
}

impl Ablation {
    /// The row that installs nothing.
    pub fn baseline(self) -> Scenario {
        match self {
            Ablation::Faults => CLEAN_COUNTERS,
            Ablation::Chaos => CLEAN_LIFECYCLE,
        }
    }

    /// The ablation's rows, in table order, its baseline first.
    pub fn rows(self) -> Vec<Scenario> {
        SCENARIOS.into_iter().filter(|s| s.ablation() == self).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_clean_rows_inject_nothing() {
        for row in SCENARIOS {
            let ablation = row.ablation();
            let clean = row.name == "clean";
            assert_eq!(clean, row == ablation.baseline(), "{}", row.name);
            let injects = match row.injector {
                Injector::Counter(fault) => fault.is_some(),
                Injector::Lifecycle(chaos) => chaos.is_some_and(|c| c.is_active()),
            };
            assert_eq!(injects, !clean, "{}", row.name);
        }
        let names = |a: Ablation| a.rows().iter().map(|s| s.name).collect::<Vec<_>>().join(" ");
        assert_eq!(
            names(Ablation::Faults),
            "clean wraparound stuck dropout saturate noise trap window"
        );
        assert_eq!(
            names(Ablation::Chaos),
            "clean abort-running abort-locked spawn-fail abort-idle churn"
        );
        let window = Ablation::Faults.rows()[7];
        assert!(matches!(window.injector, Injector::Counter(Some(f)) if f.window.is_some()));
    }
}
