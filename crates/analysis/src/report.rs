//! Analysis findings, severities, and the combined report.

use crate::lockorder::{LockCycle, LockOrderGraph, WitnessEdge};
use crate::race::Race;

/// How serious a finding is. Only [`Severity::Error`] affects exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; nothing is wrong.
    Info,
    /// A likely annotation or locking problem; the run is still correct.
    Warning,
    /// A confirmed correctness problem (a data race).
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One diagnostic produced by an analysis pass.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Stable lint/check code (e.g. `data-race`, `out-weight-sum`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Severity level.
    pub severity: Severity,
}

impl Finding {
    /// Creates a finding.
    pub fn new(severity: Severity, code: &'static str, message: String) -> Self {
        Finding { code, message, severity }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Everything the analyzer concluded about one run.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// All findings: races first (as errors), then lock-order cycles and
    /// annotation lints (as warnings), each group deterministic.
    pub findings: Vec<Finding>,
    /// The confirmed races in structured form (also present in
    /// [`findings`](Self::findings) as `data-race` errors).
    pub races: Vec<Race>,
}

impl AnalysisReport {
    /// Builds the findings list from the analysis pieces.
    pub fn assemble(races: Vec<Race>, lock_order: &LockOrderGraph, lints: Vec<Finding>) -> Self {
        let mut findings = Vec::new();
        for race in &races {
            findings.push(Finding::new(Severity::Error, "data-race", race.to_string()));
        }
        for LockCycle { locks, witness } in lock_order.cycles() {
            let locks: Vec<String> = locks.iter().map(|m| format!("m{}", m.0)).collect();
            let steps: Vec<String> = witness.iter().map(WitnessEdge::to_string).collect();
            findings.push(Finding::new(
                Severity::Warning,
                "lock-order-cycle",
                format!(
                    "locks {{{}}} are acquired in conflicting orders; witness: {}",
                    locks.join(", "),
                    steps.join("; "),
                ),
            ));
        }
        findings.extend(lints);
        AnalysisReport { findings, races }
    }

    /// True when any finding is an error (currently: any confirmed race).
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Findings at exactly the given severity.
    pub fn at_severity(&self, s: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn finding_display_includes_code() {
        let f = Finding::new(Severity::Warning, "out-weight-sum", "sum is 1.3".into());
        assert_eq!(f.to_string(), "warning[out-weight-sum]: sum is 1.3");
    }

    #[test]
    fn empty_report_has_no_errors() {
        let r = AnalysisReport::assemble(Vec::new(), &LockOrderGraph::new(), Vec::new());
        assert!(!r.has_errors());
        assert!(r.findings.is_empty());
    }
}
