//! Figure 4: the random-memory-walk microbenchmark — observed vs
//! predicted footprints, five panels, one descriptor per curve. The
//! runner caches each curve's observation; the closed forms are applied
//! here, as the table is written.

use crate::args::{Args, Scale};
use crate::error::ReproError;
use crate::microbench::{closed_form, max_rel_error, Monitored, WalkExperiment, WalkPoint};
use crate::runner::{RunKind, RunRequest};
use crate::suite::ResultSet;
use crate::table::Table;

struct Panel {
    id: &'static str,
    title: &'static str,
    curves: Vec<(String, WalkExperiment)>,
}

fn panels(scale: Scale) -> Vec<Panel> {
    let (total, every) = match scale {
        Scale::Paper => (25_000u64, 1_000u64),
        Scale::Small => (8_000, 1_000),
    };
    let mut out = Vec::with_capacity(5);

    // Panel a: the executing thread, several initial footprints.
    out.push(Panel {
        id: "a",
        title: "Figure 4a — executing thread footprint",
        curves: [0.0f64, 2048.0, 4096.0, 6144.0]
            .into_iter()
            .map(|s0| {
                (
                    format!("S_A={s0:.0}"),
                    WalkExperiment::direct(Monitored::Walker { s0 }, total, every, 11),
                )
            })
            .collect(),
    });

    // Panel b: sleeping independent threads decay.
    out.push(Panel {
        id: "b",
        title: "Figure 4b — sleeping independent threads",
        curves: [2048.0f64, 4096.0, 8192.0]
            .into_iter()
            .map(|s0| {
                (
                    format!("S_B={s0:.0}"),
                    WalkExperiment::direct(Monitored::Independent { s0 }, total, every, 12),
                )
            })
            .collect(),
    });

    // Panel c: sleeping dependent thread, q = 0.5, several initial
    // footprints (grows or decays toward qN = 4096).
    out.push(Panel {
        id: "c",
        title: "Figure 4c — sleeping dependent threads (q=0.5)",
        curves: [512.0f64, 2048.0, 6144.0, 8000.0]
            .into_iter()
            .map(|s0| {
                (
                    format!("S_C={s0:.0}"),
                    WalkExperiment::direct(Monitored::Dependent { q: 0.5, s0 }, total, every, 13),
                )
            })
            .collect(),
    });

    // Panel d: varying sharing coefficient, fixed initial footprint.
    out.push(Panel {
        id: "d",
        title: "Figure 4d — sleeping dependent threads vs q (S_C=4096)",
        curves: [0.1f64, 0.25, 0.5, 0.75, 1.0]
            .into_iter()
            .map(|q| {
                (
                    format!("q={q:.2}"),
                    WalkExperiment::direct(
                        Monitored::Dependent { q, s0: 4096.0 },
                        total,
                        every,
                        14,
                    ),
                )
            })
            .collect(),
    });

    // Extension (paper §2.1): the same closed forms on LRU associative
    // E-caches of equal capacity.
    out.push(Panel {
        id: "e",
        title: "Figure 4e (extension) — executing thread footprint vs E-cache associativity",
        curves: [1u64, 2, 4]
            .into_iter()
            .map(|ways| {
                (
                    format!("{ways}-way"),
                    WalkExperiment {
                        sets: 8192 / ways,
                        ways,
                        ..WalkExperiment::direct(Monitored::Walker { s0: 0.0 }, total, every, 15)
                    },
                )
            })
            .collect(),
    });
    out
}

pub(super) fn requests(scale: Scale) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for panel in panels(scale) {
        for (name, exp) in panel.curves {
            reqs.push(RunRequest::new(format!("fig4{}:{name}", panel.id), RunKind::Walk(exp)));
        }
    }
    reqs
}

fn emit_panel(
    args: &Args,
    panel: &str,
    title: &str,
    curves: &[(String, &[WalkPoint], Vec<f64>)],
) -> Result<(), ReproError> {
    let mut t = Table::new(title, &["curve", "misses", "observed", "predicted"]);
    for (name, pts, predicted) in curves {
        for (p, predicted) in pts.iter().zip(predicted) {
            t.row(&[
                name.clone(),
                p.misses.to_string(),
                format!("{:.0}", p.observed),
                format!("{predicted:.0}"),
            ])?;
        }
    }
    t.write_csv(&args.csv_path(&format!("fig4{panel}.csv"))?)?;

    // Print a compact summary per curve instead of every point.
    let mut s =
        Table::new(title, &["curve", "start", "end observed", "end predicted", "max rel err"]);
    for (name, pts, predicted) in curves {
        let (Some(first), Some(last), Some(end)) = (pts.first(), pts.last(), predicted.last())
        else {
            return Err(ReproError::MissingResult(format!("fig4 curve {name} has no points")));
        };
        s.row(&[
            name.clone(),
            format!("{:.0}", first.observed),
            format!("{:.0}", last.observed),
            format!("{end:.0}"),
            format!("{:.3}", max_rel_error(pts, predicted, 256.0)),
        ])?;
    }
    s.print();
    Ok(())
}

pub(super) fn emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    for panel in panels(args.scale) {
        let mut curves = Vec::with_capacity(panel.curves.len());
        for (name, exp) in &panel.curves {
            let pts = results.points(&RunKind::Walk(*exp))?;
            curves.push((name.clone(), pts, closed_form(exp, pts)?));
        }
        emit_panel(args, panel.id, panel.title, &curves)?;
    }
    Ok(())
}
