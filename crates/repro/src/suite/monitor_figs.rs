//! Figures 5, 6, and 7: the monitored-application traces. One descriptor
//! per `(app, placement)` pair; the three figures share the bin-hopping
//! traces, so `repro all` runs each application once.

use crate::args::Args;
use crate::error::ReproError;
use crate::monitor::{mpi_series, MonitorTrace};
use crate::runner::{RunKind, RunRequest};
use crate::suite::ResultSet;
use crate::table::Table;
use locality_sim::PagePlacement;
use locality_workloads::App;

fn kind(app: App, placement: PagePlacement) -> RunKind {
    RunKind::Monitor { app, placement, seed: app.default_seed() }
}

fn monitor_request(figure: &str, app: App, placement: PagePlacement) -> RunRequest {
    let suffix = match placement {
        PagePlacement::Arbitrary { .. } => "/naive",
        _ => "",
    };
    RunRequest::new(format!("{figure}:{}{suffix}", app.name()), kind(app, placement))
}

/// Each app under the paper's bin-hopping VM and under a naive one.
fn both_vm_requests(figure: &str, apps: &[App]) -> Vec<RunRequest> {
    apps.iter()
        .flat_map(|&app| {
            [PagePlacement::BinHopping, PagePlacement::arbitrary()]
                .map(|placement| monitor_request(figure, app, placement))
        })
        .collect()
}

/// Prints a thinned view of a figure's observed-vs-predicted curve.
fn print_thinned(figure: &str, app: App, trace: &MonitorTrace) -> Result<(), ReproError> {
    let mut view =
        Table::new(&format!("{figure}: {}", app.name()), &["misses", "observed", "predicted"]);
    for s in trace.thin(10) {
        view.row(&[
            s.misses.to_string(),
            format!("{:.0}", s.observed),
            format!("{:.0}", s.predicted),
        ])?;
    }
    view.print();
    Ok(())
}

pub(super) fn fig5_requests() -> Vec<RunRequest> {
    both_vm_requests("fig5", &App::FIG5)
}

pub(super) fn fig5_emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut summary = Table::new(
        "Figure 5 — observed footprints versus predictions (work thread, Ultra-1)",
        &[
            "app",
            "samples",
            "final misses",
            "final observed",
            "final predicted",
            "mean rel err (bin-hop VM)",
            "mean rel err (naive VM)",
        ],
    );
    for app in App::FIG5 {
        let trace = results.trace(&kind(app, PagePlacement::BinHopping))?;
        let naive = results.trace(&kind(app, PagePlacement::arbitrary()))?;
        let mut t = Table::new("", &["misses", "instructions", "observed", "predicted"]);
        for s in &trace.samples {
            t.row(&[
                s.misses.to_string(),
                s.instructions.to_string(),
                format!("{:.0}", s.observed),
                format!("{:.0}", s.predicted),
            ])?;
        }
        t.write_csv(&args.csv_path(&format!("fig5_{}.csv", app.name()))?)?;

        let last = trace
            .last()
            .ok_or_else(|| ReproError::MissingResult(format!("fig5 trace for {}", app.name())))?;
        summary.row(&[
            app.name().to_string(),
            trace.samples.len().to_string(),
            last.misses.to_string(),
            format!("{:.0}", last.observed),
            format!("{:.0}", last.predicted),
            format!("{:+.1}%", trace.mean_rel_error() * 100.0),
            format!("{:+.1}%", naive.mean_rel_error() * 100.0),
        ])?;

        print_thinned("fig5", app, trace)?;
    }
    summary.print();
    say!(
        "the model's only inputs are miss counts; on the idealized bin-hopping VM, a\n\
         clustered (streaming) app claims a fresh set with every miss, so predictions\n\
         run slightly LOW; on a naive VM, placements collide and repeated misses stop\n\
         growing footprints, so predictions run HIGH (the paper's regime)."
    );
    summary.write_csv(&args.csv_path("fig5_summary.csv")?)?;
    Ok(())
}

pub(super) fn fig6_requests() -> Vec<RunRequest> {
    App::FIG5
        .iter()
        .chain(App::FIG7.iter())
        .map(|&app| monitor_request("fig6", app, PagePlacement::BinHopping))
        .collect()
}

pub(super) fn fig6_emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut summary = Table::new(
        "Figure 6 — E-cache misses per 1000 instructions (work thread, Ultra-1)",
        &["app", "peak mpi", "final-quarter mpi", "burst ratio"],
    );
    for app in App::FIG5.iter().chain(App::FIG7.iter()) {
        let trace = results.trace(&kind(*app, PagePlacement::BinHopping))?;
        let series = mpi_series(trace);
        let mut t = Table::new("", &["instructions", "mpi"]);
        for (instr, mpi) in &series {
            t.row(&[instr.to_string(), format!("{mpi:.3}")])?;
        }
        t.write_csv(&args.csv_path(&format!("fig6_{}.csv", app.name()))?)?;

        let peak = series.iter().map(|p| p.1).fold(0.0f64, f64::max);
        let tail_start = series.len() * 3 / 4;
        let tail = &series[tail_start..];
        let tail_mpi = if tail.is_empty() {
            0.0
        } else {
            tail.iter().map(|p| p.1).sum::<f64>() / tail.len() as f64
        };
        summary.row(&[
            app.name().to_string(),
            format!("{peak:.2}"),
            format!("{tail_mpi:.2}"),
            format!("{:.1}x", if tail_mpi > 0.0 { peak / tail_mpi } else { f64::INFINITY }),
        ])?;
    }
    summary.print();
    say!(
        "unblocking threads show a burst of reload-transient misses followed by a\n\
         steadier phase (burst ratio = peak / final-quarter MPI)."
    );
    summary.write_csv(&args.csv_path("fig6_summary.csv")?)?;
    Ok(())
}

pub(super) fn fig7_requests() -> Vec<RunRequest> {
    both_vm_requests("fig7", &App::FIG7)
}

pub(super) fn fig7_emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut summary = Table::new(
        "Figure 7 — overestimated footprints (Ultra-1)",
        &[
            "app",
            "final misses",
            "final observed",
            "final predicted",
            "overestimate",
            "overestimate (naive VM)",
        ],
    );
    for app in App::FIG7 {
        let trace = results.trace(&kind(app, PagePlacement::BinHopping))?;
        let naive = results.trace(&kind(app, PagePlacement::arbitrary()))?;
        let mut t = Table::new("", &["misses", "observed", "predicted"]);
        for s in &trace.samples {
            t.row(&[
                s.misses.to_string(),
                format!("{:.0}", s.observed),
                format!("{:.0}", s.predicted),
            ])?;
        }
        t.write_csv(&args.csv_path(&format!("fig7_{}.csv", app.name()))?)?;

        print_thinned("fig7", app, trace)?;

        let (Some(last), Some(nlast)) = (trace.last(), naive.last()) else {
            return Err(ReproError::MissingResult(format!("fig7 trace for {}", app.name())));
        };
        summary.row(&[
            app.name().to_string(),
            last.misses.to_string(),
            format!("{:.0}", last.observed),
            format!("{:.0}", last.predicted),
            format!("{:.1}x", last.predicted / last.observed.max(1.0)),
            format!("{:.1}x", nlast.predicted / nlast.observed.max(1.0)),
        ])?;
    }
    summary.print();
    summary.write_csv(&args.csv_path("fig7_summary.csv")?)?;
    Ok(())
}
