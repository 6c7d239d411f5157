//! Figures 8 and 9 and Table 5: the §5 policy-comparison cells. One
//! descriptor per `(app, policy, cpus)` cell; Table 5 reuses the
//! FCFS/CRT cells the figures already ran.

use crate::args::{Args, Scale};
use crate::error::ReproError;
use crate::perf::{PerfApp, PolicyComparison};
use crate::runner::{RunKind, RunRequest};
use crate::suite::ResultSet;
use crate::table::Table;
use active_threads::SchedPolicy;

fn cell(app: PerfApp, policy: SchedPolicy, cpus: usize, scale: Scale) -> RunKind {
    RunKind::Policy { app, policy, cpus, scale }
}

fn cell_request(app: PerfApp, policy: SchedPolicy, cpus: usize, scale: Scale) -> RunRequest {
    RunRequest::new(
        format!("{}cpu:{}/{}", cpus, app.name(), policy.name()),
        cell(app, policy, cpus, scale),
    )
}

pub(super) fn figure_requests(cpus: usize, scale: Scale) -> Vec<RunRequest> {
    PerfApp::ALL
        .iter()
        .flat_map(|&app| {
            [SchedPolicy::Fcfs, SchedPolicy::Lff, SchedPolicy::Crt]
                .map(|policy| cell_request(app, policy, cpus, scale))
        })
        .collect()
}

fn comparison(
    results: &ResultSet,
    app: PerfApp,
    cpus: usize,
    scale: Scale,
) -> Result<PolicyComparison, ReproError> {
    let report = |policy| results.report(&cell(app, policy, cpus, scale)).cloned();
    Ok(PolicyComparison {
        app,
        cpus,
        fcfs: report(SchedPolicy::Fcfs)?,
        lff: report(SchedPolicy::Lff)?,
        crt: report(SchedPolicy::Crt)?,
    })
}

pub(super) fn figure_emit(args: &Args, results: &ResultSet, cpus: usize) -> Result<(), ReproError> {
    let (fig, machine) =
        if cpus == 1 { (8, "1-cpu Ultra-1") } else { (9, "8-cpu Enterprise 5000") };
    let mut misses = Table::new(
        &format!("Figure {fig} (left) — total E-cache misses, {machine} (normalized to FCFS)"),
        &["app", "fcfs", "lff", "crt"],
    );
    let mut perf = Table::new(
        &format!("Figure {fig} (right) — performance relative to FCFS, {machine}"),
        &["app", "fcfs", "lff", "crt"],
    );
    let mut raw =
        Table::new("raw data", &["app", "policy", "l2 misses", "cycles", "switches", "threads"]);
    for app in PerfApp::ALL {
        let cmp = comparison(results, app, cpus, args.scale)?;
        let (m_lff, s_lff) = cmp.vs_fcfs(&cmp.lff);
        let (m_crt, s_crt) = cmp.vs_fcfs(&cmp.crt);
        misses.row(&[
            app.name().to_string(),
            "1.00".to_string(),
            format!("{m_lff:.2}"),
            format!("{m_crt:.2}"),
        ])?;
        perf.row(&[
            app.name().to_string(),
            "1.00".to_string(),
            format!("{s_lff:.2}"),
            format!("{s_crt:.2}"),
        ])?;
        for r in [&cmp.fcfs, &cmp.lff, &cmp.crt] {
            raw.row(&[
                app.name().to_string(),
                r.policy.clone(),
                r.total_l2_misses.to_string(),
                r.total_cycles.to_string(),
                r.context_switches.to_string(),
                r.threads_completed.to_string(),
            ])?;
        }
    }
    misses.print();
    perf.print();
    raw.print();
    misses.write_csv(&args.csv_path(&format!("fig{fig}_misses.csv"))?)?;
    perf.write_csv(&args.csv_path(&format!("fig{fig}_perf.csv"))?)?;
    raw.write_csv(&args.csv_path(&format!("fig{fig}_raw.csv"))?)?;
    Ok(())
}

pub(super) fn table5_requests(scale: Scale) -> Vec<RunRequest> {
    PerfApp::ALL
        .iter()
        .flat_map(|&app| {
            [
                (SchedPolicy::Fcfs, 1),
                (SchedPolicy::Crt, 1),
                (SchedPolicy::Fcfs, 8),
                (SchedPolicy::Crt, 8),
            ]
            .map(|(policy, cpus)| cell_request(app, policy, cpus, scale))
        })
        .collect()
}

pub(super) fn table5_emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Table 5 — CRT relative to FCFS",
        &[
            "app",
            "E-misses eliminated, 1cpu",
            "E-misses eliminated, 8cpu",
            "relative perf, 1cpu",
            "relative perf, 8cpu",
        ],
    );
    for app in PerfApp::ALL {
        let fcfs_uni = results.report(&cell(app, SchedPolicy::Fcfs, 1, args.scale))?;
        let crt_uni = results.report(&cell(app, SchedPolicy::Crt, 1, args.scale))?;
        let fcfs_smp = results.report(&cell(app, SchedPolicy::Fcfs, 8, args.scale))?;
        let crt_smp = results.report(&cell(app, SchedPolicy::Crt, 8, args.scale))?;
        t.row(&[
            app.name().to_string(),
            format!("{:.0}%", crt_uni.misses_eliminated_vs(fcfs_uni) * 100.0),
            format!("{:.0}%", crt_smp.misses_eliminated_vs(fcfs_smp) * 100.0),
            format!("{:.2}", crt_uni.speedup_over(fcfs_uni)),
            format!("{:.2}", crt_smp.speedup_over(fcfs_smp)),
        ])?;
    }
    t.print();
    t.write_csv(&args.csv_path("table5.csv")?)?;
    Ok(())
}
