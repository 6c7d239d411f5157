//! The `repro geometry` validation experiment: every monitored workload
//! of Figure 4 replayed across L2 geometries of equal capacity, with
//! per-cell mean absolute prediction error for both predictors (the
//! paper's closed forms and the per-set occupancy generalization). A
//! cell is the same [`WalkExperiment`] Figure 4 runs; the runner caches
//! its observation, and both predictions are computed here, as the
//! table is written.

use crate::args::{Args, Scale};
use crate::error::ReproError;
use crate::geometry::{mean_abs_error, per_set};
use crate::microbench::{closed_form, Monitored, WalkExperiment};
use crate::runner::{RunKind, RunRequest};
use crate::suite::ResultSet;
use crate::table::Table;

/// The default sweep: the paper's direct-mapped E-cache, a modern
/// 8-way geometry, and the fully associative limit — all 512 KiB.
const GEOMETRIES: [(u64, u64); 3] = [(8192, 1), (1024, 8), (1, 8192)];

fn workloads() -> [(&'static str, Monitored); 3] {
    [
        ("walker", Monitored::Walker { s0: 0.0 }),
        ("sleeper", Monitored::Independent { s0: 4096.0 }),
        ("dependent", Monitored::Dependent { q: 0.5, s0: 0.0 }),
    ]
}

fn cells(args: &Args) -> Vec<(&'static str, WalkExperiment)> {
    let (total, every) = match args.scale {
        Scale::Paper => (40_000u64, 4_000u64),
        Scale::Small => (12_000, 2_000),
    };
    let geometries: Vec<(u64, u64)> =
        args.geometry.map_or_else(|| GEOMETRIES.to_vec(), |g| vec![g]);
    let mut out = Vec::with_capacity(workloads().len() * geometries.len());
    for (name, monitored) in workloads() {
        for &(sets, ways) in &geometries {
            // The paper's machine, with the cell's L2 and any --page-size.
            let paper = WalkExperiment::direct(monitored, total, every, 31);
            let page_bytes = args.page_size.unwrap_or(paper.page_bytes);
            out.push((name, WalkExperiment { sets, ways, page_bytes, ..paper }));
        }
    }
    out
}

pub(super) fn requests(args: &Args) -> Vec<RunRequest> {
    cells(args)
        .into_iter()
        .map(|(name, exp)| {
            RunRequest::new(format!("geometry:{name}:{}", exp.geometry_label()), RunKind::Walk(exp))
        })
        .collect()
}

pub(super) fn emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Geometry validation — observed vs both predictors",
        &["workload", "sets", "ways", "misses", "observed", "closed_form", "per_set"],
    );
    let mut s = Table::new(
        "Geometry validation — mean abs prediction error (lines)",
        &["workload", "geometry", "closed form", "per-set", "better"],
    );
    for (name, exp) in cells(args) {
        let pts = results.points(&RunKind::Walk(exp))?;
        let (closed, drifts) = (closed_form(&exp, pts)?, per_set(&exp, pts));
        for ((p, c), d) in pts.iter().zip(&closed).zip(&drifts) {
            t.row(&[
                name.to_string(),
                exp.sets.to_string(),
                exp.ways.to_string(),
                p.misses.to_string(),
                format!("{:.1}", p.observed),
                format!("{c:.1}"),
                format!("{d:.1}"),
            ])?;
        }
        let closed = mean_abs_error(pts, &closed);
        let per_set = mean_abs_error(pts, &drifts);
        let better = if per_set <= closed { "per-set" } else { "closed" };
        s.row(&[
            name.to_string(),
            exp.geometry_label(),
            format!("{closed:.1}"),
            format!("{per_set:.1}"),
            better.to_string(),
        ])?;
    }
    t.write_csv(&args.csv_path("geometry.csv")?)?;
    s.print();
    Ok(())
}
