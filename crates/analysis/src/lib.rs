//! # locality-analyze
//!
//! Offline analyses over the deterministic observation log produced by
//! the `active-threads` engine ([`ObsLog`]):
//!
//! * **Happens-before race detection** ([`race`]) — vector clocks
//!   ([`vclock`]) advance at every synchronization event (spawn, join,
//!   mutex hand-off, semaphore post/wait, barrier crossing, condition
//!   signal) under the one rule set in [`hb`], which the model checker
//!   replays too; conflicting access spans with concurrent clocks are
//!   confirmed data races. Deterministic: the engine's execution — and
//!   therefore the log — is a pure function of the program and
//!   configuration.
//! * **Lock-order cycle detection** ([`lockorder`]) — a cycle in the
//!   acquired-while-holding graph is a potential deadlock.
//! * **Annotation-consistency lints** ([`lint`]) — `at_share` annotations
//!   cross-checked against observed sharing: self edges, non-finite or
//!   out-of-range coefficients, dangling endpoints, per-source out-weight
//!   sums above 1, and annotation drift in both directions.
//!
//! * **Stateless model checking** ([`explore`](mod@explore)) —
//!   exhaustive schedule exploration of the small fixture workloads with
//!   dynamic partial-order reduction and sleep sets, driven through the
//!   engine's controlled-scheduling mode; every explored schedule is
//!   checked for races, deadlocks, and condvar stalls, and violations are
//!   emitted as replayable counterexamples.
//!
//! [`analyze_log`] runs everything and assembles an [`AnalysisReport`];
//! [`fixtures`] provides the deterministic racy/clean workload pair used
//! by the `repro analyze` binary and CI, plus the deadlock and
//! lost-wakeup fixtures the model checker explores.
//!
//! The scheduler invariant checker (the third leg of the analysis layer)
//! lives in `locality-core`'s estimator, because it must observe the
//! estimator's internal state on every context switch; every debug build
//! runs it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod fixtures;
pub mod hb;
pub mod lint;
pub mod lockorder;
pub mod race;
pub mod report;
pub mod vclock;

pub use explore::{
    explore, parse_counterexample, replay_counterexample, serialize_counterexample, Counterexample,
    ExploreConfig, ExploreSummary, McViolation, McWorkload, ViolationKind,
};
pub use hb::HbClocks;
pub use lint::{lint_annotations, ObservedSharing};
pub use lockorder::{LockCycle, LockOrderGraph, WitnessEdge};
pub use race::{AccessInfo, Race, RaceDetector};
pub use report::{AnalysisReport, Finding, Severity};
pub use vclock::VClock;

use active_threads::ObsLog;

/// Runs every analysis over a log and assembles the combined report.
pub fn analyze_log(log: &ObsLog) -> AnalysisReport {
    let detector = RaceDetector::run(log);
    let lints = lint_annotations(log);
    let races = detector.races().to_vec();
    AnalysisReport::assemble(races, detector.lock_order(), lints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use active_threads::{AccessSpan, Batch, Control, ObsEvent};
    use locality_core::ThreadId;
    use locality_sim::VAddr;

    #[test]
    fn analyze_log_combines_races_and_lints() {
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: ThreadId(1) });
        log.record(ObsEvent::Spawn { parent: Some(ThreadId(1)), child: ThreadId(2) });
        log.record(ObsEvent::Spawn { parent: Some(ThreadId(1)), child: ThreadId(3) });
        for tid in [ThreadId(2), ThreadId(3)] {
            let spans = vec![AccessSpan { start: VAddr(0), bytes: 4096, write: true }];
            log.record(ObsEvent::Batch(Batch { tid, op: Control::Yield, spans }));
        }
        log.record(ObsEvent::AtShare {
            src: ThreadId(2),
            dst: ThreadId(2),
            q: 0.5,
            accepted: false,
        });

        let report = analyze_log(&log);
        assert!(report.has_errors());
        assert_eq!(report.races.len(), 1);
        let codes: Vec<_> = report.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"data-race"), "{codes:?}");
        assert!(codes.contains(&"self-edge"), "{codes:?}");
    }
}
