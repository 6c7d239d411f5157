//! The scheduling event mechanism.
//!
//! Active Threads exposed scheduling events so specialized policies and
//! tools could observe the runtime (paper §5). Here, hooks observe
//! context switches with full access to the machine (ground-truth
//! footprints) and the scheduler (model-predicted footprints) — which is
//! how the model-accuracy experiments (Figures 4–7) sample both series.

use crate::sched::Scheduler;
use locality_core::{SanitizedInterval, ThreadId};
use locality_sim::Machine;

/// Why a context switch happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchReason {
    /// The thread yielded (still ready).
    Yield,
    /// The thread blocked on a synchronization object or a join.
    Blocked,
    /// The thread went to sleep.
    Sleeping,
    /// The thread exited.
    Exited,
    /// Controlled scheduling (`EngineConfig::schedule_points`) took the
    /// processor back at the end of a batch the thread could have
    /// continued past; it is still ready. No other mode preempts.
    Preempted,
    /// The thread was killed mid-interval by lifecycle fault injection
    /// (the chaos layer); its final partial interval is still read and
    /// sanitized like any other.
    Aborted,
}

impl SwitchReason {
    /// Stable lowercase tag (trace exports, reports).
    pub fn as_str(self) -> &'static str {
        match self {
            SwitchReason::Yield => "yield",
            SwitchReason::Blocked => "blocked",
            SwitchReason::Sleeping => "sleeping",
            SwitchReason::Exited => "exited",
            SwitchReason::Preempted => "preempted",
            SwitchReason::Aborted => "aborted",
        }
    }
}

/// A context-switch observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    /// The processor switching.
    pub cpu: usize,
    /// The thread leaving the processor.
    pub tid: ThreadId,
    /// Why it left.
    pub reason: SwitchReason,
    /// Sanitized counter deltas of the ending interval (what the
    /// scheduler saw, after wraparound/outlier correction).
    pub delta: SanitizedInterval,
    /// The processor's local clock (cycles) at the switch.
    pub clock: u64,
    /// Machine-wide count of context switches so far.
    pub switch_index: u64,
}

/// Read-only view handed to hooks.
pub struct EngineView<'a> {
    /// The simulated machine (ground truth).
    pub machine: &'a Machine,
    /// The active scheduler (model state).
    pub sched: &'a dyn Scheduler,
}

impl std::fmt::Debug for EngineView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineView").field("sched", &self.sched.name()).finish_non_exhaustive()
    }
}

/// An observer of runtime events.
pub trait EngineHook {
    /// Called at every context switch, after priority updates.
    fn on_context_switch(&mut self, event: &SwitchEvent, view: &EngineView<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_debug_names_the_policy() {
        let machine = Machine::try_new(locality_sim::MachineConfig::ultra1()).unwrap();
        let sched = crate::sched::FcfsScheduler::new();
        let view = EngineView { machine: &machine, sched: &sched };
        assert!(format!("{view:?}").contains("fcfs"));
    }
}
