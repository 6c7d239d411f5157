//! Scheduling policies.
//!
//! The engine talks to a [`Scheduler`] through a narrow event interface:
//! threads become ready, get dispatched, end scheduling intervals (with
//! the *sanitized* performance-counter deltas of the interval — see
//! [`locality_core::sanitizer`]), and exit. The scheduler owns the
//! run-queue structures and — for the locality policies — the
//! per-processor footprint estimator.

mod fcfs;
mod locality;

pub use fcfs::FcfsScheduler;
pub use locality::{LocalityConfig, LocalityScheduler, SchedMode};

use crate::observe::Batch;
use locality_core::{PolicyKind, SanitizedInterval, SharingGraph, ThreadId};

/// The policy selector used when building an [`crate::Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedPolicy {
    /// First-come first-served: one global FIFO queue (the paper's base
    /// case).
    Fcfs,
    /// Largest Footprint First with default locality parameters.
    Lff,
    /// Smallest cache-reload ratio with default locality parameters.
    Crt,
    /// LFF that ignores `at_share` annotations (the paper's §5 photo
    /// ablation: counters only).
    LffNoAnnotations,
    /// A locality policy with explicit parameters.
    Custom(LocalityConfig),
}

impl SchedPolicy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Fcfs => "fcfs",
            SchedPolicy::Lff => "lff",
            SchedPolicy::Crt => "crt",
            SchedPolicy::LffNoAnnotations => "lff-noann",
            SchedPolicy::Custom(c) => {
                if c.use_annotations {
                    match c.policy {
                        PolicyKind::Lff => "lff-custom",
                        PolicyKind::Crt => "crt-custom",
                    }
                } else {
                    match c.policy {
                        PolicyKind::Lff => "lff-custom-noann",
                        PolicyKind::Crt => "crt-custom-noann",
                    }
                }
            }
        }
    }
}

/// The scheduler interface driven by the engine.
pub trait Scheduler {
    /// A new thread was created (it is ready).
    fn on_spawn(&mut self, tid: ThreadId);

    /// A blocked/sleeping thread became ready again.
    fn on_ready(&mut self, tid: ThreadId);

    /// `tid` was chosen to run on `cpu` (it left the ready structures).
    fn on_dispatch(&mut self, cpu: usize, tid: ThreadId);

    /// `tid`'s scheduling interval on `cpu` ended with the given
    /// sanitized counter deltas; apply the model updates (no-op for
    /// FCFS). A trapped read arrives as an all-zero interval with
    /// `corrected = true` and a reduced confidence.
    fn on_interval_end(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        interval: SanitizedInterval,
        graph: &SharingGraph,
    );

    /// Picks the next thread for `cpu`, removing it from the ready
    /// structures.
    fn pick(&mut self, cpu: usize) -> Option<ThreadId>;

    /// `tid` exited.
    fn on_exit(&mut self, tid: ThreadId);

    /// A batch ended and its [`ObsLog`](crate::ObsLog) entry is complete:
    /// called only under observation, before the batch's spawns are
    /// admitted and its control takes effect. A model checker's sleep sets
    /// use it; the default ignores it.
    fn on_batch(&mut self, _batch: &Batch) {}

    /// `tid` was killed by lifecycle fault injection. Unlike
    /// [`on_exit`](Self::on_exit) — where the engine guarantees the
    /// thread already left every ready structure — an aborted thread may
    /// still sit in a run queue, so implementations must prune it
    /// everywhere. The default forwards to `on_exit`, which is correct
    /// for schedulers whose exit path already removes the thread from
    /// all structures.
    fn on_abort(&mut self, tid: ThreadId) {
        self.on_exit(tid);
    }

    /// The expected footprint of `tid` on `cpu` in lines, if this policy
    /// tracks one (None for FCFS).
    fn expected_footprint(&self, cpu: usize, tid: ThreadId) -> Option<f64>;

    /// Number of ready threads currently queued.
    fn ready_count(&self) -> usize;

    /// Threads stolen from other processors' heaps so far.
    fn steals(&self) -> u64 {
        0
    }

    /// Total floating-point operations spent on priority updates
    /// (Table 3); zero for FCFS.
    fn priority_flops(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Intervals this scheduler spent in degraded (counters-distrusted)
    /// mode; zero for policies without a degraded mode.
    fn degraded_intervals(&self) -> u64 {
        0
    }

    /// Whether the scheduler is currently running degraded.
    fn is_degraded(&self) -> bool {
        false
    }

    /// The policy's report name.
    fn name(&self) -> &'static str;
}

/// Builds the scheduler for a policy.
///
/// # Errors
///
/// Returns [`crate::RuntimeError::InvalidMachine`] when the machine
/// description cannot host a locality scheduler (see
/// [`LocalityScheduler::new`]).
pub(crate) fn build(
    policy: SchedPolicy,
    l2_lines: usize,
    cpus: usize,
) -> Result<Box<dyn Scheduler>, crate::RuntimeError> {
    let config = match policy {
        SchedPolicy::Fcfs => return Ok(Box::new(FcfsScheduler::new())),
        SchedPolicy::Lff => LocalityConfig::new(PolicyKind::Lff),
        SchedPolicy::Crt => LocalityConfig::new(PolicyKind::Crt),
        SchedPolicy::LffNoAnnotations => {
            LocalityConfig { use_annotations: false, ..LocalityConfig::new(PolicyKind::Lff) }
        }
        SchedPolicy::Custom(config) => config,
    };
    Ok(Box::new(LocalityScheduler::new(config, l2_lines, cpus)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names() {
        assert_eq!(SchedPolicy::Fcfs.name(), "fcfs");
        assert_eq!(SchedPolicy::Lff.name(), "lff");
        assert_eq!(SchedPolicy::Crt.name(), "crt");
        assert_eq!(SchedPolicy::LffNoAnnotations.name(), "lff-noann");
        let c = SchedPolicy::Custom(LocalityConfig::new(PolicyKind::Lff));
        assert_eq!(c.name(), "lff-custom");
    }

    #[test]
    fn build_produces_right_kinds() {
        assert_eq!(build(SchedPolicy::Fcfs, 8192, 2).unwrap().name(), "fcfs");
        assert_eq!(build(SchedPolicy::Lff, 8192, 2).unwrap().name(), "lff");
        assert_eq!(build(SchedPolicy::Crt, 8192, 2).unwrap().name(), "crt");
        assert_eq!(build(SchedPolicy::LffNoAnnotations, 8192, 2).unwrap().name(), "lff-noann");
    }

    #[test]
    fn build_rejects_bad_machines() {
        assert!(matches!(
            build(SchedPolicy::Lff, 1, 2),
            Err(crate::RuntimeError::InvalidMachine { .. })
        ));
        assert!(matches!(
            build(SchedPolicy::Crt, 8192, 0),
            Err(crate::RuntimeError::InvalidMachine { .. })
        ));
        assert!(matches!(
            build(SchedPolicy::Lff, 8192, 65),
            Err(crate::RuntimeError::InvalidMachine { .. })
        ));
        // An E-cache too large for the model's `log F` table is rejected
        // too: sizing that table would overflow.
        for lines in [usize::MAX, (1 << 20) + 1] {
            assert!(matches!(
                LocalityScheduler::new(LocalityConfig::new(PolicyKind::Lff), lines, 1),
                Err(crate::RuntimeError::InvalidMachine { .. })
            ));
        }
        // FCFS has no model: any machine is fine.
        assert!(build(SchedPolicy::Fcfs, 1, 2).is_ok());
    }
}
