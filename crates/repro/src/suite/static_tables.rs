//! Tables 1, 2, and 4: static configuration tables (no simulation runs).

use crate::args::{Args, Scale};
use crate::error::ReproError;
use crate::table::Table;
use locality_sim::MachineConfig;
use locality_workloads::{merge, photo, tasks, tsp};

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
    match args.scale {
        Scale::Paper => {
            let tk = tasks::TasksParams::default();
            t.row(&[
                "tasks".into(),
                format!(
                    "{} tasks, footprints {} lines each, {} scheduling periods per task",
                    tk.tasks, tk.footprint_lines, tk.periods
                ),
            ])?;
            let mg = merge::MergeParams::default();
            t.row(&[
                "merge".into(),
                format!(
                    "{} uniformly distributed elements; insertion sort at tasks of {} or smaller",
                    mg.elements, mg.cutoff
                ),
            ])?;
            let ph = photo::PhotoParams::default();
            t.row(&[
                "photo".into(),
                format!(
                    "softening filter over an rgb pixmap of {}x{}; one thread per row ({} threads)",
                    ph.width, ph.height, ph.height
                ),
            ])?;
            let ts = tsp::TspParams::default();
            t.row(&[
                "tsp".into(),
                format!(
                    "suboptimal tour for {} cities; execution of {} threads measured",
                    ts.cities, ts.thread_budget
                ),
            ])?;
        }
        Scale::Small => {
            t.row_strs(&["tasks", "96 tasks x 100 lines x 12 periods (smoke scale)"])?;
            t.row_strs(&["merge", "20,000 elements, cutoff 100 (smoke scale)"])?;
            t.row_strs(&["photo", "512x96 pixmap, 96 row threads (smoke scale)"])?;
            t.row_strs(&["tsp", "48 cities, 120 threads (smoke scale)"])?;
        }
    }
    t.print();
    t.write_csv(&args.csv_path("table4.csv")?)?;
    Ok(())
}
