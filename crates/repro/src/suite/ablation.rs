//! The §5/§3 ablations, each expressed as runner descriptors:
//!
//! 1. **Annotation ablation** (photo, 8 cpus);
//! 2. **Threshold sweep** (heap-eviction threshold);
//! 3. **Page placement** (§3.1);
//! 4. **Invalidation effects** (§3.4);
//! 5. **Runtime sharing inference** (§7 future work).
//!
//! Ablations 6 and 7, the robustness tables, are `repro robustness`
//! (`robustness.rs`).

use crate::args::{Args, Scale};
use crate::error::ReproError;
use crate::runner::{RunKind, RunRequest};
use crate::suite::ResultSet;
use crate::table::Table;
use active_threads::SchedPolicy;
use locality_sim::PagePlacement;
use locality_workloads::App;

const THRESHOLDS: [u64; 5] = [1, 8, 64, 256, 1024];
const PLACEMENT_APPS: [App; 2] = [App::Typechecker, App::Raytrace];
const PLACEMENTS: [PagePlacement; 3] =
    [PagePlacement::BinHopping, PagePlacement::PageColoring, PagePlacement::arbitrary()];
const INVALIDATION_WRITES: [u64; 4] = [0, 1024, 2048, 4096];
/// The inference-ablation configurations: `(label, policy, annotate,
/// infer)`.
const PIPELINE_CONFIGS: [(&str, SchedPolicy, bool, bool); 4] = [
    ("fcfs", SchedPolicy::Fcfs, false, false),
    ("lff + hand annotations", SchedPolicy::Lff, true, false),
    ("lff + CML inference, no annotations", SchedPolicy::Lff, false, true),
    ("lff, no annotations", SchedPolicy::Lff, false, false),
];

fn annotation_kinds(scale: Scale) -> [RunKind; 3] {
    [SchedPolicy::Fcfs, SchedPolicy::Lff, SchedPolicy::LffNoAnnotations]
        .map(|policy| RunKind::Policy { app: crate::perf::PerfApp::Photo, policy, cpus: 8, scale })
}

fn pipeline_kind(policy: SchedPolicy, annotate: bool, infer: bool, scale: Scale) -> RunKind {
    RunKind::Pipeline { policy, annotate, infer, scale }
}

pub(super) fn requests(scale: Scale) -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for kind in annotation_kinds(scale) {
        let RunKind::Policy { policy, .. } = kind else { unreachable!() };
        reqs.push(RunRequest::new(format!("ablation:photo/{}", policy.name()), kind));
    }
    for threshold in THRESHOLDS {
        reqs.push(RunRequest::new(
            format!("ablation:threshold/{threshold}"),
            RunKind::Threshold { threshold_lines: threshold, scale },
        ));
    }
    for app in PLACEMENT_APPS {
        for placement in PLACEMENTS {
            reqs.push(RunRequest::new(
                format!("ablation:placement/{}/{}", app.name(), placement.name()),
                RunKind::PlacementProbe { app, placement },
            ));
        }
    }
    for written in INVALIDATION_WRITES {
        reqs.push(RunRequest::new(
            format!("ablation:invalidation/{written}"),
            RunKind::Invalidation { written_lines: written },
        ));
    }
    for (label, policy, annotate, infer) in PIPELINE_CONFIGS {
        reqs.push(RunRequest::new(
            format!("ablation:inference/{label}"),
            pipeline_kind(policy, annotate, infer, scale),
        ));
    }
    reqs
}

pub(super) fn emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    emit_annotations(args, results)?;
    emit_threshold(args, results)?;
    emit_placement(args, results)?;
    emit_invalidation(args, results)?;
    emit_inference(args, results)
}

fn emit_annotations(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Ablation 1 — photo on 8 cpus: the value of at_share annotations",
        &["policy", "l2 misses", "cycles", "misses eliminated", "speedup"],
    );
    let [fcfs_kind, lff_kind, noann_kind] = annotation_kinds(args.scale);
    let fcfs = results.report(&fcfs_kind)?;
    let lff = results.report(&lff_kind)?;
    let noann = results.report(&noann_kind)?;
    for r in [fcfs, lff, noann] {
        t.row(&[
            r.policy.clone(),
            r.total_l2_misses.to_string(),
            r.total_cycles.to_string(),
            format!("{:.0}%", r.misses_eliminated_vs(fcfs) * 100.0),
            format!("{:.2}", r.speedup_over(fcfs)),
        ])?;
    }
    t.print();
    let full_elim = lff.misses_eliminated_vs(fcfs);
    let part_elim = noann.misses_eliminated_vs(fcfs);
    let full_speed = lff.speedup_over(fcfs) - 1.0;
    let part_speed = noann.speedup_over(fcfs) - 1.0;
    if full_elim > 0.0 && full_speed > 0.0 {
        say!(
            "without annotations, LFF achieves {:.0}% of the full miss elimination and {:.0}% of the speedup\n\
             (paper: 41% and 53%).\n",
            100.0 * part_elim / full_elim,
            100.0 * part_speed / full_speed
        );
    }
    t.write_csv(&args.csv_path("ablation_annotations.csv")?)?;
    Ok(())
}

fn emit_threshold(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Ablation 2 — heap-eviction threshold sweep (tasks, 1 cpu, LFF)",
        &["threshold (lines)", "l2 misses", "cycles"],
    );
    for threshold in THRESHOLDS {
        let r = results
            .report(&RunKind::Threshold { threshold_lines: threshold, scale: args.scale })?;
        t.row(&[threshold.to_string(), r.total_l2_misses.to_string(), r.total_cycles.to_string()])?;
    }
    t.print();
    t.write_csv(&args.csv_path("ablation_threshold.csv")?)?;
    Ok(())
}

fn emit_placement(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Ablation 3 — page placement policies (conflict-sensitive apps, 1 cpu)",
        &["app", "placement", "l2 misses"],
    );
    for app in PLACEMENT_APPS {
        for placement in PLACEMENTS {
            let r = results.report(&RunKind::PlacementProbe { app, placement })?;
            t.row(&[
                app.name().to_string(),
                placement.name().to_string(),
                r.total_l2_misses.to_string(),
            ])?;
        }
    }
    t.print();
    say!(
        "careful placement (bin hopping / coloring, per Kessler & Hill) avoids a share of\n\
         the conflict misses that arbitrary placement incurs; capacity-bound streaming\n\
         apps (e.g. ocean) are insensitive to placement.\n"
    );
    t.write_csv(&args.csv_path("ablation_placement.csv")?)?;
    Ok(())
}

fn emit_invalidation(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Ablation 4 — invalidation effects the model ignores (2 cpus)",
        &["lines written remotely", "observed footprint", "model prediction", "error"],
    );
    for written in INVALIDATION_WRITES {
        let (observed, predicted) =
            results.invalidation(&RunKind::Invalidation { written_lines: written })?;
        t.row(&[
            written.to_string(),
            observed.to_string(),
            predicted.to_string(),
            format!("{:+.0}%", 100.0 * (predicted as f64 - observed as f64) / predicted as f64),
        ])?;
    }
    t.print();
    say!("cross-processor writes shrink real footprints while the counter-driven model sees nothing (paper §3.4).\n");
    t.write_csv(&args.csv_path("ablation_invalidation.csv")?)?;
    Ok(())
}

fn emit_inference(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let (_, fp, fa, fi) = PIPELINE_CONFIGS[0];
    let fcfs = results.report(&pipeline_kind(fp, fa, fi, args.scale))?;
    let mut t = Table::new(
        "Ablation 5 — runtime sharing inference (producer/consumer pipeline, 8 cpus; §7 future work)",
        &["configuration", "l2 misses", "misses eliminated", "speedup"],
    );
    let mut eliminated = Vec::new();
    for (label, policy, annotate, infer) in PIPELINE_CONFIGS {
        let r = results.report(&pipeline_kind(policy, annotate, infer, args.scale))?;
        eliminated.push(r.misses_eliminated_vs(fcfs));
        t.row(&[
            label.to_string(),
            r.total_l2_misses.to_string(),
            format!("{:.0}%", r.misses_eliminated_vs(fcfs) * 100.0),
            format!("{:.2}", r.speedup_over(fcfs)),
        ])?;
    }
    t.print();
    let hand = eliminated[1];
    let auto = eliminated[2];
    if hand > 0.0 {
        say!(
            "CML-driven inference recovers {:.0}% of the hand-annotated miss elimination\n\
             with zero programmer effort (the paper's §7 conjecture, demonstrated).\n",
            100.0 * auto / hand
        );
    }
    t.write_csv(&args.csv_path("ablation_inference.csv")?)?;
    Ok(())
}
