//! Tables 1, 2, and 4: static configuration tables (no simulation runs).

use crate::args::{Args, Scale};
use crate::error::ReproError;
use crate::perf::{PerfApp, PerfParams};
use crate::table::Table;
use locality_sim::MachineConfig;

pub(super) fn emit_table1(args: &Args) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Table 1 — simulated UltraSPARC-1 memory hierarchy",
        &["level", "size", "assoc", "line", "policy", "latency (cycles)"],
    );
    let ultra = MachineConfig::ultra1();
    let e5000 = MachineConfig::enterprise5000(8);
    let h = ultra.hierarchy;
    t.row(&[
        "L1 I-cache".into(),
        format!("{} KiB", h.l1i.size_bytes() / 1024),
        format!("{}-way", h.l1i.ways),
        format!("{} B", h.l1i.line),
        "physically indexed/tagged".into(),
        format!("hit {}", ultra.latencies.l1_hit),
    ])?;
    t.row(&[
        "L1 D-cache".into(),
        format!("{} KiB", h.l1d.size_bytes() / 1024),
        "direct".into(),
        format!("{} B", h.l1d.line),
        "write-through, no-write-allocate".into(),
        format!("hit {}", ultra.latencies.l1_hit),
    ])?;
    t.row(&[
        "unified E-cache (L2)".into(),
        format!("{} KiB", h.l2.size_bytes() / 1024),
        "direct".into(),
        format!("{} B", h.l2.line),
        "write-back, inclusive of both L1s".into(),
        format!(
            "hit {}, miss {} (E5000: {} clean / {} cached elsewhere)",
            ultra.latencies.l2_hit,
            ultra.latencies.l2_miss,
            e5000.latencies.l2_miss,
            e5000.latencies.l2_miss_remote
        ),
    ])?;
    t.row(&[
        "VM".into(),
        format!("{} KiB pages", ultra.page_bytes / 1024),
        "-".into(),
        "-".into(),
        format!("{} page placement (Kessler & Hill)", ultra.placement.name()),
        "-".into(),
    ])?;
    t.print();
    say!("E-cache lines N = {}", ultra.l2_lines());
    t.write_csv(&args.csv_path("table1.csv")?)?;
    Ok(())
}

pub(super) fn emit_table2(args: &Args) -> Result<(), ReproError> {
    let mut t = Table::new("Table 2 — simulated workloads", &["app", "suite", "description"]);
    t.row_strs(&[
        "barnes",
        "SPLASH-2",
        "Barnes-Hut hierarchical N-body; octree built over random bodies; θ-controlled traversal",
    ])?;
    t.row_strs(&[
        "fmm",
        "SPLASH-2",
        "adaptive fast multipole (2-D; p=4 expansions; P2M/M2M/M2L/L2L/P2P passes)",
    ])?;
    t.row_strs(&[
        "ocean",
        "SPLASH-2-style",
        "regular-grid red-black SOR solver; 5-point stencil sweeps over a large f64 grid",
    ])?;
    t.row_strs(&[
        "raytrace",
        "SPLASH-2",
        "uniform-grid ray tracer; rays march voxels with per-step scratch (conflict-heavy)",
    ])?;
    t.row_strs(&[
        "merge",
        "Sather",
        "parallel mergesort; split to cutoff-100 insertion-sort leaves, merge on join",
    ])?;
    t.row_strs(&[
        "photo",
        "Sather",
        "softening filter: each thread retouches one pixel row using its neighbour rows",
    ])?;
    t.row_strs(&[
        "tsp",
        "Sather",
        "branch-and-bound TSP over adjacency matrices; subspaces split per edge",
    ])?;
    t.row_strs(&[
        "typechecker",
        "Sather",
        "compiler typechecker: type-graph burst, then AST walked in creation order",
    ])?;
    t.print();
    t.write_csv(&args.csv_path("table2.csv")?)?;
    Ok(())
}

pub(super) fn emit_table4(args: &Args) -> Result<(), ReproError> {
    let mut t =
        Table::new("Table 4 — input parameters for application runs", &["app", "parameters"]);
    for app in PerfApp::ALL {
        t.row(&[app.name().into(), table4_parameters(app.params(args.scale), args.scale)])?;
    }
    t.print();
    t.write_csv(&args.csv_path("table4.csv")?)?;
    Ok(())
}

/// Table 4's parameters cell: the paper's wording at paper scale, a short
/// one at small scale.
fn table4_parameters(params: PerfParams, scale: Scale) -> String {
    match (params, scale) {
        (PerfParams::Tasks(p), Scale::Paper) => format!(
            "{} tasks, footprints {} lines each, {} scheduling periods per task",
            p.tasks, p.footprint_lines, p.periods
        ),
        (PerfParams::Merge(p), Scale::Paper) => format!(
            "{} uniformly distributed elements; insertion sort at tasks of {} or smaller",
            p.elements, p.cutoff
        ),
        (PerfParams::Photo(p), Scale::Paper) => format!(
            "softening filter over an rgb pixmap of {}x{}; one thread per row ({} threads)",
            p.width, p.height, p.height
        ),
        (PerfParams::Tsp(p), Scale::Paper) => format!(
            "suboptimal tour for {} cities; execution of {} threads measured",
            p.cities, p.thread_budget
        ),
        (PerfParams::Tasks(p), Scale::Small) => format!(
            "{} tasks x {} lines x {} periods (smoke scale)",
            p.tasks, p.footprint_lines, p.periods
        ),
        (PerfParams::Merge(p), Scale::Small) => {
            format!("{} elements, cutoff {} (smoke scale)", thousands(p.elements), p.cutoff)
        }
        (PerfParams::Photo(p), Scale::Small) => {
            format!("{}x{} pixmap, {} row threads (smoke scale)", p.width, p.height, p.height)
        }
        (PerfParams::Tsp(p), Scale::Small) => {
            format!("{} cities, {} threads (smoke scale)", p.cities, p.thread_budget)
        }
    }
}

/// `n` with a comma between groups of three digits (`20,000`).
fn thousands(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, digit) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(digit);
    }
    out
}
