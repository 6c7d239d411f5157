//! `repro robustness`: the two robustness tables, every row of
//! [`SCENARIOS`](crate::scenario::SCENARIOS) at the run's scale.
//!
//! 6. **Counter-fault robustness**: each counter-fault row under LFF,
//!    against the clean LFF and FCFS runs;
//! 7. **Thread-lifecycle chaos**: every policy under seeded thread
//!    aborts, deaths while holding locks, and spawn failures — the run
//!    must complete, account for every thread, and keep footprint
//!    predictions sane.

use crate::args::{Args, Scale};
use crate::error::ReproError;
use crate::runner::{RunKind, RunRequest};
use crate::scenario::{Ablation, Scenario};
use crate::suite::ResultSet;
use crate::table::Table;
use active_threads::SchedPolicy;

/// The chaos table's policies: the three the paper compares.
const CHAOS_POLICIES: [SchedPolicy; 3] = [SchedPolicy::Fcfs, SchedPolicy::Lff, SchedPolicy::Crt];

fn robustness(policy: SchedPolicy, scenario: Scenario, scale: Scale) -> RunKind {
    RunKind::Robustness { policy, scenario, scale }
}

/// The descriptors behind both tables: the clean FCFS reference, then
/// each fault row under LFF (its clean row first); then each chaos row
/// under every policy.
pub(super) fn requests(scale: Scale) -> Vec<RunRequest> {
    let request = |table: &str, policy: SchedPolicy, scenario: Scenario| {
        let label = format!("{table}:{}/{}", policy.name(), scenario.name);
        RunRequest::new(label, robustness(policy, scenario, scale))
    };
    let mut reqs = vec![request("fault", SchedPolicy::Fcfs, Ablation::Faults.baseline())];
    for row in Ablation::Faults.rows() {
        reqs.push(request("fault", SchedPolicy::Lff, row));
    }
    for row in Ablation::Chaos.rows() {
        reqs.extend(CHAOS_POLICIES.map(|policy| request("chaos", policy, row)));
    }
    reqs
}

pub(super) fn emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    emit_faults(args, results)?;
    emit_chaos(args, results)
}

/// `misses / base`, or 0 against an empty baseline.
fn ratio(misses: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        misses as f64 / base as f64
    }
}

fn emit_faults(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Ablation 6 — counter faults vs sanitizer + graceful degradation (tasks, 4 cpus, LFF)",
        &[
            "scenario",
            "l2 misses",
            "miss ratio",
            "vs clean lff",
            "vs fcfs",
            "pred err (lines)",
            "pred err (rel)",
            "corrected",
            "degraded ivals",
            "recovered",
        ],
    );
    let cell = |policy, scenario| results.fault_cell(&robustness(policy, scenario, args.scale));
    let baseline = Ablation::Faults.baseline();
    let fcfs = cell(SchedPolicy::Fcfs, baseline)?;
    let clean = cell(SchedPolicy::Lff, baseline)?;
    for scenario in Ablation::Faults.rows() {
        let cell = cell(SchedPolicy::Lff, scenario)?;
        let r = &cell.report;
        t.row(&[
            scenario.name.to_string(),
            r.total_l2_misses.to_string(),
            format!("{:.4}", r.miss_ratio()),
            format!("{:.2}x", ratio(r.total_l2_misses, clean.report.total_l2_misses)),
            format!("{:.2}x", ratio(r.total_l2_misses, fcfs.report.total_l2_misses)),
            format!("{:.1}", cell.probe.mean_abs_err()),
            format!("{:.0}%", 100.0 * cell.probe.relative_err()),
            r.corrected_intervals.to_string(),
            r.degraded_intervals.to_string(),
            if r.degraded_intervals == 0 {
                "-".to_string()
            } else if cell.recovered {
                "yes".to_string()
            } else {
                "no".to_string()
            },
        ])?;
    }
    t.row(&[
        "fcfs (ref)".to_string(),
        fcfs.report.total_l2_misses.to_string(),
        format!("{:.4}", fcfs.report.miss_ratio()),
        format!("{:.2}x", ratio(fcfs.report.total_l2_misses, clean.report.total_l2_misses)),
        "1.00x".to_string(),
        "-".to_string(),
        "-".to_string(),
        "0".to_string(),
        "0".to_string(),
        "-".to_string(),
    ])?;
    t.print();
    say!(
        "the sanitizer bounds what the model sees, so faulted LFF degrades toward — never\n\
         far past — the FCFS miss rate; at small scale the 'window' scenario shows the\n\
         scheduler entering degraded mode under sustained traps and recovering once reads\n\
         come back clean.\n"
    );
    t.write_csv(&args.csv_path("ablation_faults.csv")?)?;
    Ok(())
}

fn emit_chaos(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Ablation 7 — thread-lifecycle chaos (tasks + lock-stepped workers, 4 cpus)",
        &[
            "scenario",
            "policy",
            "aborted",
            "completed",
            "poisoned locks",
            "l2 misses",
            "miss ratio",
            "vs clean",
            "pred err (lines)",
            "pred err (rel)",
        ],
    );
    let cell = |policy, scenario| results.chaos_cell(&robustness(policy, scenario, args.scale));
    for scenario in Ablation::Chaos.rows() {
        for policy in CHAOS_POLICIES {
            let clean = cell(policy, Ablation::Chaos.baseline())?;
            let cell = cell(policy, scenario)?;
            let r = &cell.report;
            t.row(&[
                scenario.name.to_string(),
                policy.name().to_string(),
                r.threads_aborted.to_string(),
                r.threads_completed.to_string(),
                cell.poisoned.to_string(),
                r.total_l2_misses.to_string(),
                format!("{:.4}", r.miss_ratio()),
                format!("{:.2}x", ratio(r.total_l2_misses, clean.report.total_l2_misses)),
                format!("{:.1}", cell.probe.mean_abs_err()),
                format!("{:.0}%", 100.0 * cell.probe.relative_err()),
            ])?;
        }
    }
    t.print();
    say!(
        "every scenario must finish without a panic: aborted threads leave the run queue,\n\
         the sharing graph, and the owner directory; locks orphaned by a dying holder are\n\
         poisoned, reclaimed, and handed to the next waiter. The footprint-prediction\n\
         error shows how much thread churn costs the model.\n"
    );
    t.write_csv(&args.csv_path("ablation_chaos.csv")?)?;
    Ok(())
}
