//! The figure/table suite on top of the [runner](crate::runner): each
//! figure declares its run descriptors, the runner executes them
//! (deduplicated, in parallel, through the cache), and the figure's
//! emitter formats tables and CSVs from the completed results — strictly
//! after all runs finish and strictly in descriptor order, so artifacts
//! are byte-identical for any `--jobs` value.
//!
//! `repro all` runs every figure through one runner, so runs shared
//! between figures (e.g. the monitored traces behind Figures 5, 6, and
//! 7, or the FCFS/CRT cells behind Figures 8/9 and Table 5) execute
//! exactly once.
//!
//! This module also owns the `repro` binary's surface: the
//! [`SUBCOMMANDS`] name table and the [`main`] that dispatches on it.

mod ablation;
mod fig4;
mod geometry;
mod monitor_figs;
mod perf_figs;
mod robustness;
mod static_tables;
mod table3;

use crate::args::{Args, Parsed, FLAGS_HELP};
use crate::error::ReproError;
use crate::experiments::{ChaosCell, FaultCell};
use crate::microbench::WalkPoint;
use crate::monitor::MonitorTrace;
use crate::runner::{cache_key, RunKind, RunOutput, RunRequest, Runner};
use crate::{analyze, modelcheck, trace};
use active_threads::RunReport;
use std::collections::HashMap;
use std::process::ExitCode;

/// One reproducible figure or table of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Table 1 — simulated UltraSPARC-1 memory hierarchy.
    Table1,
    /// Table 2 — simulated workloads.
    Table2,
    /// Table 3 — costs of priority updates.
    Table3,
    /// Table 4 — input parameters for application runs.
    Table4,
    /// Figure 4 — random-memory-walk model validation.
    Fig4,
    /// Figure 5 — observed vs predicted footprints.
    Fig5,
    /// Figure 6 — E-cache misses per 1000 instructions.
    Fig6,
    /// Figure 7 — overestimated footprints.
    Fig7,
    /// Figure 8 — locality scheduling, 1-cpu Ultra-1.
    Fig8,
    /// Figure 9 — locality scheduling, 8-cpu Enterprise 5000.
    Fig9,
    /// Table 5 — CRT relative to FCFS.
    Table5,
    /// §5/§3 ablations.
    Ablation,
    /// Geometry validation — model vs simulator across L2 geometries
    /// (`repro geometry`; not part of `repro all`).
    Geometry,
    /// The counter-fault and lifecycle-chaos tables, every scenario row
    /// (`repro robustness`; not part of `repro all`).
    Robustness,
}

impl Figure {
    /// Every figure, in the order `repro all` regenerates them.
    pub const ALL: [Figure; 12] = [
        Figure::Table1,
        Figure::Table2,
        Figure::Table3,
        Figure::Table4,
        Figure::Fig4,
        Figure::Fig5,
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Table5,
        Figure::Ablation,
    ];

    /// The figure's run descriptors: its simulated machine and engine
    /// runs. Tables 1–4 have none.
    ///
    /// # Errors
    ///
    /// None today: every flag a figure reads is checked when it is
    /// parsed. The `Result` is kept for callers that propagate it.
    pub fn requests(&self, args: &Args) -> Result<Vec<RunRequest>, ReproError> {
        Ok(match self {
            Figure::Table1 | Figure::Table2 | Figure::Table3 | Figure::Table4 => Vec::new(),
            Figure::Fig4 => fig4::requests(args.scale),
            Figure::Fig5 => monitor_figs::fig5_requests(),
            Figure::Fig6 => monitor_figs::fig6_requests(),
            Figure::Fig7 => monitor_figs::fig7_requests(),
            Figure::Fig8 => perf_figs::figure_requests(1, args.scale),
            Figure::Fig9 => perf_figs::figure_requests(8, args.scale),
            Figure::Table5 => perf_figs::table5_requests(args.scale),
            Figure::Ablation => ablation::requests(args.scale),
            Figure::Geometry => geometry::requests(args),
            Figure::Robustness => robustness::requests(args.scale),
        })
    }

    /// Formats the figure's tables and CSVs from completed results.
    ///
    /// # Errors
    ///
    /// Returns a [`ReproError`] if a result is missing or an output file
    /// cannot be written.
    pub fn emit(&self, args: &Args, results: &ResultSet) -> Result<(), ReproError> {
        match self {
            Figure::Table1 => static_tables::emit_table1(args),
            Figure::Table2 => static_tables::emit_table2(args),
            Figure::Table3 => table3::emit(args),
            Figure::Table4 => static_tables::emit_table4(args),
            Figure::Fig4 => fig4::emit(args, results),
            Figure::Fig5 => monitor_figs::fig5_emit(args, results),
            Figure::Fig6 => monitor_figs::fig6_emit(args, results),
            Figure::Fig7 => monitor_figs::fig7_emit(args, results),
            Figure::Fig8 => perf_figs::figure_emit(args, results, 1),
            Figure::Fig9 => perf_figs::figure_emit(args, results, 8),
            Figure::Table5 => perf_figs::table5_emit(args, results),
            Figure::Ablation => ablation::emit(args, results),
            Figure::Geometry => geometry::emit(args, results),
            Figure::Robustness => robustness::emit(args, results),
        }
    }
}

/// Completed run results keyed by descriptor, with typed accessors that
/// surface descriptor bookkeeping bugs as [`ReproError::MissingResult`].
#[derive(Default)]
pub struct ResultSet {
    map: HashMap<String, RunOutput>,
}

impl ResultSet {
    fn insert(&mut self, kind: &RunKind, out: RunOutput) {
        self.map.insert(cache_key(kind), out);
    }

    fn get(&self, kind: &RunKind) -> Result<&RunOutput, ReproError> {
        self.map.get(&cache_key(kind)).ok_or_else(|| ReproError::MissingResult(format!("{kind:?}")))
    }

    fn mismatch(kind: &RunKind) -> ReproError {
        ReproError::MissingResult(format!("wrong result variant for {kind:?}"))
    }

    /// The observed walk curve a [`RunKind::Walk`] descriptor produced.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::MissingResult`] if absent or mistyped.
    pub fn points(&self, kind: &RunKind) -> Result<&[WalkPoint], ReproError> {
        match self.get(kind)? {
            RunOutput::Points(p) => Ok(p),
            _ => Err(Self::mismatch(kind)),
        }
    }

    /// The trace a [`RunKind::Monitor`] descriptor produced.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::MissingResult`] if absent or mistyped.
    pub fn trace(&self, kind: &RunKind) -> Result<&MonitorTrace, ReproError> {
        match self.get(kind)? {
            RunOutput::Trace(t) => Ok(t),
            _ => Err(Self::mismatch(kind)),
        }
    }

    /// The report a policy/threshold/placement/pipeline descriptor
    /// produced.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::MissingResult`] if absent or mistyped.
    pub fn report(&self, kind: &RunKind) -> Result<&RunReport, ReproError> {
        match self.get(kind)? {
            RunOutput::Report(r) => Ok(r),
            _ => Err(Self::mismatch(kind)),
        }
    }

    /// The cell a counter-fault [`RunKind::Robustness`] descriptor
    /// produced.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::MissingResult`] if absent or mistyped.
    pub fn fault_cell(&self, kind: &RunKind) -> Result<&FaultCell, ReproError> {
        match self.get(kind)? {
            RunOutput::FaultCell(c) => Ok(c),
            _ => Err(Self::mismatch(kind)),
        }
    }

    /// The cell a lifecycle-chaos [`RunKind::Robustness`] descriptor
    /// produced.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::MissingResult`] if absent or mistyped.
    pub fn chaos_cell(&self, kind: &RunKind) -> Result<&ChaosCell, ReproError> {
        match self.get(kind)? {
            RunOutput::ChaosCell(c) => Ok(c),
            _ => Err(Self::mismatch(kind)),
        }
    }

    /// The `(observed, predicted)` footprints of a
    /// [`RunKind::Invalidation`] descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::MissingResult`] if absent or mistyped.
    pub fn invalidation(&self, kind: &RunKind) -> Result<(u64, u64), ReproError> {
        match self.get(kind)? {
            RunOutput::Invalidation { observed, predicted } => Ok((*observed, *predicted)),
            _ => Err(Self::mismatch(kind)),
        }
    }
}

/// What a suite invocation did, for tests and callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteReport {
    /// Runs executed fresh.
    pub fresh_runs: usize,
    /// Runs served from the disk cache.
    pub cached_runs: usize,
}

/// Runs the given figures through one shared runner (so descriptors
/// shared between figures execute once), emits each figure's output in
/// order, and prints the runner's wall-time/throughput summary.
///
/// # Errors
///
/// Returns the first run or output error.
pub fn run_figures(args: &Args, figures: &[Figure]) -> Result<SuiteReport, ReproError> {
    let mut reqs: Vec<RunRequest> = Vec::new();
    for figure in figures {
        reqs.extend(figure.requests(args)?);
    }
    let runner = Runner::from_args(args);
    let outs = runner.run_all(&reqs)?;
    let mut results = ResultSet::default();
    for (req, out) in reqs.iter().zip(outs) {
        results.insert(&req.kind, out);
    }
    for figure in figures {
        figure.emit(args, &results)?;
    }
    if !reqs.is_empty() {
        runner.summary()?.print();
    }
    Ok(SuiteReport { fresh_runs: runner.fresh_runs(), cached_runs: runner.cached_runs() })
}

/// What a `repro` subcommand runs.
enum Target {
    /// Figures through one shared runner, so descriptors shared between
    /// them (monitored traces, FCFS/CRT policy cells) execute once.
    Figures(&'static [Figure]),
    /// [`analyze::run_analyze`].
    Analyze,
    /// [`modelcheck::run_modelcheck`].
    Modelcheck,
    /// [`trace::run_trace`].
    Trace,
}

/// One row of the `repro` name table.
pub struct Subcommand {
    /// The word after `repro`.
    pub name: &'static str,
    /// What it regenerates or checks, for `--help`.
    pub about: &'static str,
    target: Target,
    /// The flags it reads besides `--scale`, `--out`, `--jobs` and
    /// `--no-cache`, which every subcommand accepts.
    reads: &'static [&'static str],
}

const fn sub(name: &'static str, target: Target, about: &'static str) -> Subcommand {
    Subcommand { name, about, target, reads: &[] }
}

/// Every `repro` subcommand: the one name table behind dispatch,
/// `--help`, the unknown-subcommand message and the flags each reads.
pub const SUBCOMMANDS: [Subcommand; 18] = [
    sub("table1", Target::Figures(&[Figure::Table1]), "Table 1: simulated UltraSPARC-1 hierarchy"),
    sub("table2", Target::Figures(&[Figure::Table2]), "Table 2: simulated workloads"),
    sub("table3", Target::Figures(&[Figure::Table3]), "Table 3: costs of priority updates"),
    sub("table4", Target::Figures(&[Figure::Table4]), "Table 4: input parameters of the runs"),
    sub("table5", Target::Figures(&[Figure::Table5]), "Table 5: CRT relative to FCFS"),
    sub("fig4", Target::Figures(&[Figure::Fig4]), "Figure 4: random-walk model validation"),
    sub("fig5", Target::Figures(&[Figure::Fig5]), "Figure 5: observed vs predicted footprints"),
    sub("fig6", Target::Figures(&[Figure::Fig6]), "Figure 6: E-cache misses per 1000 instructions"),
    sub("fig7", Target::Figures(&[Figure::Fig7]), "Figure 7: overestimated footprints"),
    sub("fig8", Target::Figures(&[Figure::Fig8]), "Figure 8: locality scheduling, 1-cpu Ultra-1"),
    sub("fig9", Target::Figures(&[Figure::Fig9]), "Figure 9: locality scheduling, 8-cpu E5000"),
    sub(
        "ablation",
        Target::Figures(&[Figure::Ablation]),
        "annotation, threshold, placement, invalidation and inference ablations",
    ),
    sub(
        "robustness",
        Target::Figures(&[Figure::Robustness]),
        "counter-fault and lifecycle-chaos tables (not part of 'all')",
    ),
    sub(
        "geometry",
        Target::Figures(&[Figure::Geometry]),
        "model vs simulator across L2 geometries (not part of 'all')",
    )
    .reads(&["--geometry", "--page-size"]),
    sub("all", Target::Figures(&Figure::ALL), "table1-5, fig4-9 and ablation through one runner"),
    sub("analyze", Target::Analyze, "race, lock-order and annotation checks (exit 1 on a race)")
        .reads(&["--workload"]),
    sub("modelcheck", Target::Modelcheck, "DPOR schedule exploration (exit 1 on a violation)")
        .reads(&["--workload", "--depth-bound", "--max-schedules", "--preempt-bound", "--replay"]),
    sub("trace", Target::Trace, "event-stream exports of a monitored app")
        .reads(&["--workload", "--policy"]),
];

impl Subcommand {
    const fn reads(self, reads: &'static [&'static str]) -> Subcommand {
        Subcommand { reads, ..self }
    }

    /// Runs the subcommand; `Ok(true)` means it found what it looks for
    /// (a race, a violation) and the process should exit 1.
    fn run(&self, args: &Args) -> Result<bool, ReproError> {
        match self.target {
            Target::Figures(figures) => run_figures(args, figures).map(|_| false),
            Target::Analyze => analyze::run_analyze(args),
            Target::Modelcheck => modelcheck::run_modelcheck(args),
            Target::Trace => trace::run_trace(args).map(|()| false),
        }
    }
}

/// The `--help` text: the name table, then the shared flags.
fn usage() -> String {
    let mut s = String::from("usage: repro <subcommand> [flags]\n\nsubcommands:\n");
    for sub in &SUBCOMMANDS {
        s.push_str(&format!("  {:<12} {}\n", sub.name, sub.about));
    }
    s.push('\n');
    s.push_str(FLAGS_HELP);
    s
}

/// The `repro` binary's `main`: `repro <subcommand> [flags]`. Exit 0 on
/// success (and for `--help`, printed to stdout), 1 on a run error or
/// when `analyze`/`modelcheck` found a violation, 2 on usage errors
/// (no or unknown subcommand, bad flags), with the reason on stderr. A
/// failed write to standard output stops nothing, but the exit is then
/// 1 with one `error:` line naming it.
pub fn main() -> ExitCode {
    let code = dispatch();
    match crate::table::stdout_error() {
        Some(e) => {
            eprintln!("error: cannot write to standard output: {e}");
            ExitCode::from(1)
        }
        None => code,
    }
}

fn dispatch() -> ExitCode {
    let usage_error = |msg: &str| {
        eprintln!("{msg}\n{}", usage());
        ExitCode::from(2)
    };
    let help = || {
        say!("{}", usage());
        ExitCode::SUCCESS
    };
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        return usage_error("missing subcommand");
    };
    if name == "--help" || name == "-h" {
        return help();
    }
    let Some(sub) = SUBCOMMANDS.iter().find(|sub| sub.name == name) else {
        return usage_error(&format!("unknown subcommand '{name}'"));
    };
    let args = match Args::parse(argv, sub.reads) {
        Ok(Parsed::Run(args)) => args,
        Ok(Parsed::Help) => return help(),
        Err(msg) => return usage_error(&msg),
    };
    match sub.run(&args) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(ReproError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag on every subcommand that does not read it is refused
    /// before the subcommand runs; one that it reads parses.
    #[test]
    fn unread_flags_are_a_usage_error() {
        let flags = "--workload racy --policy crt --depth-bound 3 --max-schedules 5 \
            --preempt-bound 2 --replay ce.txt --geometry 1024x8 --page-size 4096";
        let flags: Vec<&str> = flags.split_whitespace().collect();
        for sub in &SUBCOMMANDS {
            for pair in flags.chunks(2) {
                let parsed = Args::parse(pair.iter().map(|s| s.to_string()), sub.reads);
                assert_eq!(parsed.is_ok(), sub.reads.contains(&pair[0]), "{} {pair:?}", sub.name);
            }
        }
    }
}
