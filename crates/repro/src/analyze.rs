//! The `repro analyze` driver: run the deterministic racy/clean
//! workload fixtures with engine observation enabled, feed the logs to
//! `locality-analyze`, and report the diagnostics.
//!
//! The verdict is schedule-independent by construction: the engine is a
//! deterministic discrete-event simulation, and the fixtures are built so
//! the racy pair has *no* inter-worker synchronization (racy under every
//! schedule) while the clean pair is fully ordered by its mutex (race-free
//! under every schedule). `--jobs` only parallelizes the independent
//! workload runs; each run's log — and therefore the analysis — is
//! identical at any job count.

use crate::args::{keyword, Args, Scale};
use crate::error::ReproError;
use crate::runner::in_parallel;
use crate::table::Table;
use active_threads::{Engine, EngineConfig, SchedPolicy};
use locality_analyze::{analyze_log, AnalysisReport, McWorkload, Severity};
use locality_sim::MachineConfig;

/// Which fixture workloads to analyze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The mutex-protected, fully annotated fixture.
    Clean,
    /// The unsynchronized, under-annotated fixture.
    Racy,
    /// Both, clean first.
    All,
}

impl Workload {
    /// Parses the `--workload` keyword (default `all`).
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Usage`] for anything but
    /// `clean`/`racy`/`all`.
    pub fn from_args(args: &Args) -> Result<Self, ReproError> {
        let table = [("clean", Workload::Clean), ("racy", Workload::Racy), ("all", Workload::All)];
        args.workload.as_deref().map_or(Ok(Workload::All), |v| keyword("workload", v, &table))
    }

    /// The selected fixtures, clean before racy.
    fn fixtures(self, rounds: u32) -> Vec<McWorkload> {
        let (clean, racy) = (McWorkload::Clean { rounds }, McWorkload::Racy { rounds });
        match self {
            Workload::Clean => vec![clean],
            Workload::Racy => vec![racy],
            Workload::All => vec![clean, racy],
        }
    }
}

/// The analysis of one fixture workload.
#[derive(Debug)]
pub struct WorkloadAnalysis {
    /// `"clean"` or `"racy"`.
    pub name: &'static str,
    /// Everything the analyzer concluded.
    pub report: AnalysisReport,
}

fn rounds_for(scale: Scale) -> u32 {
    match scale {
        Scale::Paper => 6,
        Scale::Small => 2,
    }
}

/// Runs one fixture under observation and analyzes its log.
fn analyze_one(fixture: &McWorkload) -> Result<WorkloadAnalysis, ReproError> {
    let name = fixture.name();
    let mut engine =
        Engine::new(MachineConfig::enterprise5000(2), SchedPolicy::Lff, EngineConfig::default())?;
    engine.enable_observation();
    engine.spawn(fixture.program());
    engine.run()?;
    let Some(log) = engine.take_observation() else {
        return Err(ReproError::MissingResult(format!("observation log for workload {name}")));
    };
    Ok(WorkloadAnalysis { name, report: analyze_log(&log) })
}

/// Runs the selected workloads across `--jobs` workers and returns their
/// analyses in a fixed order: clean before racy, independent of
/// completion order.
pub fn run_workloads(args: &Args, which: Workload) -> Result<Vec<WorkloadAnalysis>, ReproError> {
    let fixtures = which.fixtures(rounds_for(args.scale));
    in_parallel(args.jobs, &fixtures, analyze_one).into_iter().collect()
}

/// Renders the findings of every workload into one table.
///
/// # Errors
///
/// Returns a [`crate::table::TableError`] if a row is malformed.
pub fn findings_table(analyses: &[WorkloadAnalysis]) -> Result<Table, ReproError> {
    let mut table = Table::new(
        "Analysis findings (races, lock order, annotation lints)",
        &["workload", "severity", "code", "detail"],
    );
    let mut empty = true;
    for wa in analyses {
        for f in &wa.report.findings {
            empty = false;
            table.row(&[
                wa.name.to_string(),
                f.severity.to_string(),
                f.code.to_string(),
                f.message.clone(),
            ])?;
        }
    }
    if empty {
        table.row_strs(&["-", "info", "no-findings", "no diagnostics in any workload"])?;
    }
    Ok(table)
}

/// The full `analyze` driver: run, print, write CSV.
///
/// Returns `true` when any confirmed race was found (the process should
/// exit nonzero).
///
/// # Errors
///
/// Returns [`ReproError::Usage`] for a bad `--workload` value, or the
/// first run/output error.
pub fn run_analyze(args: &Args) -> Result<bool, ReproError> {
    let which = Workload::from_args(args)?;
    let analyses = run_workloads(args, which)?;

    let table = findings_table(&analyses)?;
    table.print();
    table.write_csv(&args.csv_path("analyze.csv")?)?;

    let mut any_races = false;
    for wa in &analyses {
        let races = wa.report.races.len();
        let warnings = wa.report.at_severity(Severity::Warning).count();
        say!(
            "{}: {} race(s), {} warning(s) -> {}",
            wa.name,
            races,
            warnings,
            if races > 0 { "FAIL" } else { "ok" }
        );
        any_races |= races > 0;
    }
    Ok(any_races)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_for(workload: Option<&str>, jobs: usize) -> Args {
        Args {
            scale: Scale::Small,
            workload: workload.map(str::to_string),
            jobs,
            ..Args::default()
        }
    }

    #[test]
    fn workload_keyword_parses_and_rejects() {
        assert_eq!(Workload::from_args(&args_for(None, 1)).unwrap(), Workload::All);
        assert_eq!(Workload::from_args(&args_for(Some("clean"), 1)).unwrap(), Workload::Clean);
        assert_eq!(Workload::from_args(&args_for(Some("racy"), 1)).unwrap(), Workload::Racy);
        let err = Workload::from_args(&args_for(Some("bogus"), 1)).unwrap_err();
        assert!(matches!(err, ReproError::Usage(_)), "{err:?}");
    }

    #[test]
    fn racy_fails_and_clean_passes() {
        let racy = run_workloads(&args_for(Some("racy"), 1), Workload::Racy).unwrap();
        assert!(racy[0].report.has_errors());
        let clean = run_workloads(&args_for(Some("clean"), 1), Workload::Clean).unwrap();
        assert!(!clean[0].report.has_errors());
    }

    #[test]
    fn parallel_and_serial_analyses_agree() {
        let serial = run_workloads(&args_for(None, 1), Workload::All).unwrap();
        let parallel = run_workloads(&args_for(None, 4), Workload::All).unwrap();
        assert_eq!(serial.len(), 2);
        assert_eq!(parallel.len(), 2);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.report.findings, p.report.findings);
            assert_eq!(s.report.races, p.report.races);
        }
    }

    #[test]
    fn findings_table_is_deterministic() {
        let a = findings_table(&run_workloads(&args_for(None, 1), Workload::All).unwrap())
            .unwrap()
            .to_csv();
        let b = findings_table(&run_workloads(&args_for(None, 2), Workload::All).unwrap())
            .unwrap()
            .to_csv();
        assert_eq!(a, b);
        assert!(a.contains("data-race"));
    }
}
