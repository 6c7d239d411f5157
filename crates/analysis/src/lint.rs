//! Annotation-consistency lints: cross-check `at_share` annotations
//! against the sharing the run actually exhibited.
//!
//! The lints consume the raw [`ObsEvent::AtShare`] stream (not the
//! post-run [`SharingGraph`], which the engine prunes as threads exit)
//! plus per-thread observed footprints: every batch's spans, registered
//! in a [`RegionTable`]. "Observed sharing" between two threads is the
//! table's byte overlap of their states; "annotation drift" is a mismatch
//! in either direction — substantial observed sharing with no annotation,
//! or an annotation whose pair never shared a byte.
//!
//! [`ObsEvent::AtShare`]: active_threads::ObsEvent::AtShare
//! [`SharingGraph`]: locality_core::SharingGraph

use crate::report::{Finding, Severity};
use active_threads::{ObsEvent, ObsLog};
use locality_core::ThreadId;
use locality_sim::RegionTable;
use std::collections::{BTreeMap, BTreeSet};

/// Minimum shared bytes before a missing annotation is reported.
const DRIFT_MIN_BYTES: u64 = 1024;
/// Minimum shared fraction of the smaller thread's state before a missing
/// annotation is reported.
const DRIFT_MIN_FRACTION: f64 = 0.25;

/// Observed sharing reconstructed from a log: threads, footprints, and
/// the effective (last-writer-wins) annotation set.
#[derive(Debug, Default)]
pub struct ObservedSharing {
    threads: BTreeSet<ThreadId>,
    /// Every access span, registered as its thread's state.
    footprints: RegionTable,
    /// Every raw annotation in log order: `(src, dst, q, accepted)`.
    annotations: Vec<(ThreadId, ThreadId, f64, bool)>,
}

impl ObservedSharing {
    /// Builds the observed-sharing view from a log.
    pub fn from_log(log: &ObsLog) -> Self {
        let mut obs = ObservedSharing::default();
        for ev in log.events() {
            match *ev {
                ObsEvent::Spawn { child, .. } => {
                    obs.threads.insert(child);
                }
                ObsEvent::Batch(ref batch) => {
                    for span in &batch.spans {
                        obs.footprints.register(batch.tid, span.start, span.bytes);
                    }
                }
                ObsEvent::AtShare { src, dst, q, accepted } => {
                    obs.annotations.push((src, dst, q, accepted));
                }
                _ => {}
            }
        }
        obs
    }

    /// Bytes two threads both touched.
    pub fn shared_bytes(&self, a: ThreadId, b: ThreadId) -> u64 {
        self.footprints.shared_bytes(a, b)
    }

    /// Total bytes a thread touched.
    pub fn state_bytes(&self, t: ThreadId) -> u64 {
        self.footprints.state_bytes(t)
    }

    /// The effective annotation edges after replaying the log:
    /// last valid annotation per `(src, dst)` wins; `q = 0` removes.
    fn effective_edges(&self) -> BTreeMap<(ThreadId, ThreadId), f64> {
        let mut edges = BTreeMap::new();
        for &(src, dst, q, accepted) in &self.annotations {
            if !accepted {
                continue;
            }
            if q == 0.0 {
                edges.remove(&(src, dst));
            } else {
                edges.insert((src, dst), q);
            }
        }
        edges
    }
}

/// Runs every annotation lint over a log. Findings are deterministic and
/// sorted by lint code, then by the threads involved.
pub fn lint_annotations(log: &ObsLog) -> Vec<Finding> {
    let obs = ObservedSharing::from_log(log);
    let mut findings = Vec::new();

    // Raw-coefficient lints run on every annotation, including rejected
    // ones — the rejection is exactly what they report.
    for &(src, dst, q, _) in &obs.annotations {
        if src == dst {
            findings.push(Finding::new(
                Severity::Warning,
                "self-edge",
                format!("at_share({src}, {dst}, {q}) declares a thread sharing with itself"),
            ));
        }
        if q.is_nan() || q.is_infinite() {
            findings.push(Finding::new(
                Severity::Warning,
                "non-finite-q",
                format!("at_share({src}, {dst}, {q}) has a non-finite coefficient"),
            ));
        } else if !(0.0..=1.0).contains(&q) {
            findings.push(Finding::new(
                Severity::Warning,
                "q-out-of-range",
                format!("at_share({src}, {dst}, {q}) has q outside [0, 1]"),
            ));
        }
    }

    let edges = obs.effective_edges();

    // Dangling edges: an endpoint that never appeared as a thread.
    for (&(src, dst), &q) in &edges {
        for t in [src, dst] {
            if !obs.threads.contains(&t) {
                findings.push(Finding::new(
                    Severity::Warning,
                    "dangling-edge",
                    format!("at_share({src}, {dst}, {q}) names {t}, which never ran"),
                ));
            }
        }
    }

    // Per-source out-weight sums. The model caps total shared fraction at
    // 1; a sum above it means the annotations are mutually inconsistent.
    let mut out_sums: BTreeMap<ThreadId, f64> = BTreeMap::new();
    for (&(src, _), &q) in &edges {
        *out_sums.entry(src).or_insert(0.0) += q;
    }
    for (&src, &sum) in &out_sums {
        if sum > 1.0 + 1e-9 {
            findings.push(Finding::new(
                Severity::Warning,
                "out-weight-sum",
                format!("{src}'s outgoing sharing coefficients sum to {sum:.3} > 1"),
            ));
        }
    }

    // Drift, direction 1: substantial observed sharing with no annotation.
    let threads: Vec<ThreadId> = obs.threads.iter().copied().collect();
    for (i, &a) in threads.iter().enumerate() {
        for &b in &threads[i + 1..] {
            let shared = obs.shared_bytes(a, b);
            if shared < DRIFT_MIN_BYTES {
                continue;
            }
            let smaller = obs.state_bytes(a).min(obs.state_bytes(b)).max(1);
            if (shared as f64) / (smaller as f64) < DRIFT_MIN_FRACTION {
                continue;
            }
            let annotated = edges.contains_key(&(a, b)) || edges.contains_key(&(b, a));
            if !annotated {
                findings.push(Finding::new(
                    Severity::Warning,
                    "drift-missing",
                    format!(
                        "{a} and {b} shared {shared} bytes \
                         ({:.0}% of the smaller state) with no at_share edge",
                        100.0 * shared as f64 / smaller as f64
                    ),
                ));
            }
        }
    }

    // Drift, direction 2: an annotation whose pair never shared a byte
    // even though both threads touched memory.
    for (&(src, dst), &q) in &edges {
        if src == dst {
            continue;
        }
        if obs.state_bytes(src) > 0 && obs.state_bytes(dst) > 0 && obs.shared_bytes(src, dst) == 0 {
            findings.push(Finding::new(
                Severity::Warning,
                "drift-stale",
                format!("at_share({src}, {dst}, {q}) but the pair shared no bytes"),
            ));
        }
    }

    findings.sort();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use active_threads::{AccessSpan, Batch, Control};
    use locality_sim::VAddr;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    fn spawn(log: &mut ObsLog, parent: Option<u64>, child: u64) {
        log.record(ObsEvent::Spawn { parent: parent.map(t), child: t(child) });
    }

    fn access(log: &mut ObsLog, tid: u64, start: u64, bytes: u64) {
        let spans = vec![AccessSpan { start: VAddr(start), bytes, write: true }];
        log.record(ObsEvent::Batch(Batch { tid: t(tid), op: Control::Yield, spans }));
    }

    fn share(log: &mut ObsLog, src: u64, dst: u64, q: f64, accepted: bool) {
        log.record(ObsEvent::AtShare { src: t(src), dst: t(dst), q, accepted });
    }

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    /// The issue's synthetic fixture: one log exhibiting out-weight-sum,
    /// dangling-edge, and both drift directions at once.
    #[test]
    fn synthetic_fixture_triggers_expected_lints() {
        let mut log = ObsLog::new();
        spawn(&mut log, None, 1);
        spawn(&mut log, Some(1), 2);
        spawn(&mut log, Some(1), 3);
        // t1 and t2 share 4096 bytes with no annotation → drift-missing.
        access(&mut log, 1, 0, 4096);
        access(&mut log, 2, 0, 4096);
        access(&mut log, 3, 65536, 4096); // t3 is fully private
                                          // t2's out-weights sum to 1.3 → out-weight-sum.
                                          // t2 → t3 never actually share → drift-stale.
        share(&mut log, 2, 3, 0.6, true);
        // Edge naming a thread that never ran → dangling-edge.
        share(&mut log, 2, 9, 0.7, true);

        let findings = lint_annotations(&log);
        let cs = codes(&findings);
        assert!(cs.contains(&"out-weight-sum"), "{cs:?}");
        assert!(cs.contains(&"dangling-edge"), "{cs:?}");
        assert!(cs.contains(&"drift-missing"), "{cs:?}");
        assert!(cs.contains(&"drift-stale"), "{cs:?}");
        // Exactly one stale edge (t2 → t3); the dangling t2 → t9 edge is
        // not double-reported as stale because t9 has no state at all.
        assert_eq!(cs.iter().filter(|c| **c == "drift-stale").count(), 1);
    }

    #[test]
    fn clean_annotations_produce_no_findings() {
        let mut log = ObsLog::new();
        spawn(&mut log, None, 1);
        spawn(&mut log, Some(1), 2);
        access(&mut log, 1, 0, 4096);
        access(&mut log, 2, 0, 4096);
        share(&mut log, 1, 2, 0.9, true);
        share(&mut log, 2, 1, 0.9, true);
        let findings = lint_annotations(&log);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn raw_coefficient_lints_fire_even_when_rejected() {
        let mut log = ObsLog::new();
        spawn(&mut log, None, 1);
        share(&mut log, 1, 1, 0.5, false); // self edge
        share(&mut log, 1, 2, f64::NAN, false);
        share(&mut log, 1, 2, 1.5, false);
        let cs = codes(&lint_annotations(&log));
        assert!(cs.contains(&"self-edge"), "{cs:?}");
        assert!(cs.contains(&"non-finite-q"), "{cs:?}");
        assert!(cs.contains(&"q-out-of-range"), "{cs:?}");
    }

    #[test]
    fn zero_q_annotation_removes_the_edge() {
        let mut log = ObsLog::new();
        spawn(&mut log, None, 1);
        spawn(&mut log, Some(1), 2);
        access(&mut log, 1, 0, 65536);
        access(&mut log, 2, 1 << 20, 65536);
        share(&mut log, 1, 2, 0.5, true); // would be stale...
        share(&mut log, 1, 2, 0.0, true); // ...but is retracted
        let cs = codes(&lint_annotations(&log));
        assert!(!cs.contains(&"drift-stale"), "{cs:?}");
    }

    #[test]
    fn small_sharing_stays_below_drift_thresholds() {
        let mut log = ObsLog::new();
        spawn(&mut log, None, 1);
        spawn(&mut log, Some(1), 2);
        access(&mut log, 1, 0, 65536);
        // 512 bytes shared: below DRIFT_MIN_BYTES and the fraction floor.
        access(&mut log, 2, 0, 512);
        access(&mut log, 2, 1 << 20, 65536);
        let cs = codes(&lint_annotations(&log));
        assert!(!cs.contains(&"drift-missing"), "{cs:?}");
    }

    #[test]
    fn spans_past_the_top_of_the_address_space_stop_there() {
        let mut log = ObsLog::new();
        spawn(&mut log, None, 1);
        spawn(&mut log, Some(1), 2);
        access(&mut log, 1, u64::MAX - 10, 100);
        access(&mut log, 2, u64::MAX - 10, 100);
        let obs = ObservedSharing::from_log(&log);
        assert_eq!((obs.state_bytes(t(1)), obs.shared_bytes(t(1), t(2))), (10, 10));
        assert!(lint_annotations(&log).is_empty());
    }
}
