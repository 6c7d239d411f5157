//! The `repro modelcheck` driver: exhaustively explore the schedule
//! space of the small fixture workloads with the `locality-analyze`
//! stateless model checker (DPOR + sleep sets), report violations as
//! replayable counterexamples, and measure the DPOR reduction factor
//! against naive full enumeration.
//!
//! Each (workload, mode) pair is one [`modelcheck_cell`], explored on
//! the calling thread in selection order (the whole table is
//! milliseconds, so nothing is cached or spread over `--jobs`):
//! `modelcheck.csv` is byte-identical across reruns. `--replay FILE`
//! re-executes a previously written counterexample and confirms the
//! same violation recurs.

use crate::args::{keyword, Args};
use crate::error::ReproError;
use crate::table::{f, Table};
use locality_analyze::explore::{
    explore, parse_counterexample, replay_counterexample, serialize_counterexample, ExploreConfig,
    ExploreSummary, McWorkload, ViolationKind,
};

/// Default per-execution decision bound (`--depth-bound`).
pub const DEFAULT_DEPTH_BOUND: u64 = 64;
/// Default exploration budget in executions (`--max-schedules`). Large
/// enough that every fixture explores to quiescence even under naive
/// enumeration.
pub const DEFAULT_MAX_SCHEDULES: u64 = 20_000;

/// Explores one (workload, mode) cell.
pub fn modelcheck_cell(
    workload: McWorkload,
    naive: bool,
    depth_bound: u64,
    max_schedules: u64,
    preempt_bound: Option<u64>,
) -> ExploreSummary {
    let cfg = ExploreConfig {
        depth_bound: usize::try_from(depth_bound).unwrap_or(usize::MAX),
        max_schedules: usize::try_from(max_schedules).unwrap_or(usize::MAX),
        preempt_bound: preempt_bound.map(|b| usize::try_from(b).unwrap_or(usize::MAX)),
        naive,
    };
    explore(workload, &cfg)
}

/// Which fixture workloads to model-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McSelection {
    /// One named workload.
    One(McWorkload),
    /// Every workload: clean, racy, deadlock, lostwake.
    All,
}

impl McSelection {
    /// Parses the `--workload` keyword (default `all`).
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Usage`] for an unknown name.
    pub fn from_args(args: &Args) -> Result<Self, ReproError> {
        let mut table: Vec<(&str, McSelection)> = McSelection::All
            .workloads()
            .into_iter()
            .map(|w| (w.name(), McSelection::One(w)))
            .collect();
        table.push(("all", McSelection::All));
        args.workload.as_deref().map_or(Ok(McSelection::All), |v| keyword("workload", v, &table))
    }

    /// The selected workloads, in fixed report order.
    pub fn workloads(self) -> Vec<McWorkload> {
        match self {
            McSelection::One(w) => vec![w],
            McSelection::All => vec![
                McWorkload::Clean { rounds: 1 },
                McWorkload::Racy { rounds: 1 },
                McWorkload::Deadlock,
                McWorkload::LostWakeup,
            ],
        }
    }
}

/// One workload's paired DPOR/naive results.
#[derive(Debug)]
pub struct McRow {
    /// The explored workload.
    pub workload: McWorkload,
    /// The DPOR exploration.
    pub dpor: ExploreSummary,
    /// The naive full enumeration (the reduction baseline).
    pub naive: ExploreSummary,
}

/// Explores the selected workloads, DPOR then naive, and returns the
/// rows in selection order.
fn run_cells(args: &Args, sel: McSelection) -> Vec<McRow> {
    let cell = |workload, naive| {
        modelcheck_cell(
            workload,
            naive,
            args.depth_bound.unwrap_or(DEFAULT_DEPTH_BOUND),
            args.max_schedules.unwrap_or(DEFAULT_MAX_SCHEDULES),
            args.preempt_bound,
        )
    };
    sel.workloads()
        .into_iter()
        .map(|workload| McRow {
            workload,
            dpor: cell(workload, false),
            naive: cell(workload, true),
        })
        .collect()
}

/// Renders the per-workload exploration table.
///
/// # Errors
///
/// Returns a [`crate::table::TableError`] if a row is malformed.
pub fn modelcheck_table(rows: &[McRow]) -> Result<Table, ReproError> {
    let mut table = Table::new(
        "Model checking (DPOR schedule exploration, naive-enumeration baseline)",
        &[
            "workload",
            "schedules_dpor",
            "schedules_naive",
            "reduction",
            "pruned",
            "truncated",
            "capped",
            "max_depth",
            "races",
            "deadlocks",
            "condvar_stalls",
            "invariants",
            "counterexample",
        ],
    );
    for row in rows {
        let reduction = if row.dpor.schedules > 0 {
            f(row.naive.schedules as f64 / row.dpor.schedules as f64, 2)
        } else {
            "-".to_string()
        };
        let ce = if !row.dpor.violations.is_empty() {
            format!("counterexample_{}.txt", row.workload.name())
        } else {
            "-".to_string()
        };
        table.row(&[
            row.workload.name().to_string(),
            row.dpor.schedules.to_string(),
            row.naive.schedules.to_string(),
            reduction,
            row.dpor.pruned.to_string(),
            row.dpor.truncated.to_string(),
            if row.dpor.capped { "yes" } else { "no" }.to_string(),
            row.dpor.max_depth.to_string(),
            row.dpor.count_of(ViolationKind::Race).to_string(),
            row.dpor.count_of(ViolationKind::Deadlock).to_string(),
            row.dpor.count_of(ViolationKind::CondvarStall).to_string(),
            row.dpor.count_of(ViolationKind::Invariant).to_string(),
            ce,
        ])?;
    }
    Ok(table)
}

/// Writes each violating workload's counterexample next to the CSV: the
/// first (most severe) violation of its DPOR exploration.
fn write_counterexamples(args: &Args, rows: &[McRow]) -> Result<(), ReproError> {
    for row in rows {
        if let Some(v) = row.dpor.violations.first() {
            let path = args.csv_path(&format!("counterexample_{}.txt", row.workload.name()))?;
            std::fs::write(&path, serialize_counterexample(row.workload, v))?;
            say!("counterexample written to {}", path.display());
        }
    }
    Ok(())
}

/// Replays a counterexample file: parses it, re-executes the engine
/// down the recorded schedule, and confirms the same violation kind.
///
/// # Errors
///
/// [`ReproError::Usage`] when the file cannot be read or is malformed;
/// [`ReproError::NotReproduced`] when the schedule no longer reproduces
/// the recorded violation.
pub fn run_replay(path: &std::path::Path) -> Result<(), ReproError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        ReproError::Usage(format!("cannot read counterexample {}: {e}", path.display()))
    })?;
    let ce = parse_counterexample(&text).map_err(|e| {
        ReproError::Usage(format!("malformed counterexample {}: {e}", path.display()))
    })?;
    let v = replay_counterexample(&ce)
        .map_err(|e| ReproError::NotReproduced(format!("{}: {e}", path.display())))?;
    say!("replayed {} on workload {}: violation reproduced", v.kind.as_str(), ce.workload.name());
    say!("  schedule: {}", v.schedule.iter().map(u64::to_string).collect::<Vec<_>>().join(","));
    say!("  {}", v.detail);
    Ok(())
}

/// The full `modelcheck` driver: explore (or replay), print, write CSV.
///
/// Returns `true` when any violation was found (or a replay reproduced
/// one) — the process should exit nonzero.
///
/// # Errors
///
/// Returns [`ReproError::Usage`] for bad flag values or malformed
/// counterexample files, or the first run/output error.
pub fn run_modelcheck(args: &Args) -> Result<bool, ReproError> {
    if let Some(path) = &args.replay {
        run_replay(path)?;
        return Ok(true);
    }
    let sel = McSelection::from_args(args)?;
    let rows = run_cells(args, sel);

    let table = modelcheck_table(&rows)?;
    table.print();
    table.write_csv(&args.csv_path("modelcheck.csv")?)?;
    write_counterexamples(args, &rows)?;

    let mut any = false;
    for row in rows {
        let v = row.dpor.violations.len();
        let gaps = incompleteness(&row.dpor, args.preempt_bound);
        let scope = if gaps.is_empty() { "" } else { "not " };
        let verdict = match (v, gaps.is_empty()) {
            (1.., _) => "FAIL".to_string(),
            (0, true) => "ok".to_string(),
            (0, false) => format!("incomplete: {}", gaps.join(", ")),
        };
        say!(
            "{}: {} schedule(s) ({scope}exhaustive; naive {}), {v} violation(s) -> {verdict}",
            row.workload.name(),
            row.dpor.schedules,
            row.naive.schedules,
        );
        any |= v > 0;
    }
    Ok(any)
}

/// Why an exploration did not cover every schedule, one phrase per
/// cause; empty when it did. A run with gaps that finds nothing proves
/// nothing, so it is reported `incomplete`, never `ok`.
fn incompleteness(dpor: &ExploreSummary, preempt_bound: Option<u64>) -> Vec<String> {
    let (cut, diverged) = (dpor.truncated, dpor.diverged);
    [
        dpor.capped.then(|| "capped by --max-schedules".to_string()),
        (cut > 0).then(|| format!("{cut} execution(s) cut by --depth-bound")),
        (diverged > 0).then(|| format!("{diverged} execution(s) diverged")),
        preempt_bound.map(|k| format!("at most {k} preemption(s) by --preempt-bound")),
    ]
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_for(workload: Option<&str>) -> Args {
        Args { workload: workload.map(str::to_string), ..Args::default() }
    }

    #[test]
    fn selection_parses_and_rejects() {
        assert_eq!(McSelection::from_args(&args_for(None)).unwrap(), McSelection::All);
        assert_eq!(
            McSelection::from_args(&args_for(Some("deadlock"))).unwrap(),
            McSelection::One(McWorkload::Deadlock)
        );
        assert_eq!(McSelection::from_args(&args_for(Some("all"))).unwrap(), McSelection::All);
        let err = McSelection::from_args(&args_for(Some("bogus"))).unwrap_err();
        assert!(matches!(err, ReproError::Usage(_)), "{err:?}");
        assert_eq!(McSelection::All.workloads().len(), 4);
    }

    #[test]
    fn clean_cell_is_quiet_and_dpor_reduces() {
        let dpor = modelcheck_cell(McWorkload::Clean { rounds: 1 }, false, 64, 20_000, None);
        let naive = modelcheck_cell(McWorkload::Clean { rounds: 1 }, true, 64, 20_000, None);
        assert!(dpor.violations.is_empty(), "{:?}", dpor.violations);
        assert!(!dpor.capped, "clean DPOR exploration must be exhaustive");
        assert!(!naive.capped, "clean naive exploration must be exhaustive");
        assert!(
            naive.schedules > dpor.schedules,
            "reduction factor must exceed 1 (naive {} vs dpor {})",
            naive.schedules,
            dpor.schedules
        );
    }

    #[test]
    fn violating_cells_carry_replayable_counterexamples() {
        for (workload, check) in [
            (McWorkload::Racy { rounds: 1 }, "race"),
            (McWorkload::Deadlock, "deadlock"),
            (McWorkload::LostWakeup, "condvar-stall"),
        ] {
            let cell = modelcheck_cell(workload, false, 64, 20_000, None);
            let Some(first) = cell.violations.first() else {
                panic!("{} cell should carry a violation", workload.name())
            };
            let text = serialize_counterexample(workload, first);
            assert!(text.contains(&format!("violation {check}")), "{text}");
            let ce = parse_counterexample(&text).expect("parse");
            replay_counterexample(&ce).expect("replay reproduces");
        }
    }

    #[test]
    fn table_reports_reduction_and_counterexample_paths() {
        let dpor = modelcheck_cell(McWorkload::Racy { rounds: 1 }, false, 64, 5_000, None);
        let naive = modelcheck_cell(McWorkload::Racy { rounds: 1 }, true, 64, 5_000, None);
        let rows = vec![McRow { workload: McWorkload::Racy { rounds: 1 }, dpor, naive }];
        let csv = modelcheck_table(&rows).unwrap().to_csv();
        assert!(csv.contains("racy"), "{csv}");
        assert!(csv.contains("counterexample_racy.txt"), "{csv}");
    }
}
