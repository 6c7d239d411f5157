//! The §5/§3 ablations, each expressed as runner descriptors:
//!
//! 1. **Annotation ablation** (photo, 8 cpus);
//! 2. **Threshold sweep** (heap-eviction threshold);
//! 3. **Page placement** (§3.1);
//! 4. **Invalidation effects** (§3.4);
//! 5. **Runtime sharing inference** (§7 future work);
//! 6. **Counter-fault robustness** (`--fault <scenario>|all` runs *only*
//!    this table);
//! 7. **Thread-lifecycle chaos** (`--chaos <scenario>|all` runs *only*
//!    this table): every policy under seeded thread aborts, deaths while
//!    holding locks, and spawn failures — the run must complete, account
//!    for every thread, and keep footprint predictions sane.

use crate::args::{Args, Scale};
use crate::error::ReproError;
use crate::runner::{RunKind, RunRequest};
use crate::scenario::{Ablation, Scenario};
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

/// The chaos table's policies: the three the paper compares.
const CHAOS_POLICIES: [SchedPolicy; 3] = [SchedPolicy::Fcfs, SchedPolicy::Lff, SchedPolicy::Crt];

/// The robustness table `--fault` or `--chaos` asks for, if either: its
/// ablation and rows, the chaos table's clean baseline always first. Each
/// flag runs *only* its own table, so naming both is a usage error rather
/// than one silently winning.
fn selection(args: &Args) -> Result<Option<(Ablation, Vec<Scenario>)>, ReproError> {
    let (ablation, value) = match (&args.fault, &args.chaos) {
        (None, None) => return Ok(None),
        (Some(value), None) => (Ablation::Faults, value),
        (None, Some(value)) => (Ablation::Chaos, value),
        (Some(_), Some(_)) => {
            return Err(ReproError::Usage(
                "--fault and --chaos each run only their own table; pass one of them".to_string(),
            ))
        }
    };
    let mut rows = ablation.parse(value)?;
    if ablation == Ablation::Chaos {
        rows.retain(|s| *s != ablation.baseline());
        rows.insert(0, ablation.baseline());
    }
    Ok(Some((ablation, rows)))
}

/// A robustness descriptor of `args`' scale.
fn robustness(args: &Args, policy: SchedPolicy, scenario: Scenario) -> RunKind {
    RunKind::Robustness { policy, scenario, scale: args.scale }
}

/// The descriptors behind a robustness table: each chaos row under every
/// policy; each fault row under LFF, after the clean FCFS and LFF
/// baselines.
fn robustness_requests(args: &Args, ablation: Ablation, rows: &[Scenario]) -> Vec<RunRequest> {
    let cells: Vec<(SchedPolicy, Scenario)> = match ablation {
        Ablation::Chaos => {
            rows.iter().flat_map(|&row| CHAOS_POLICIES.map(|policy| (policy, row))).collect()
        }
        Ablation::Faults => [SchedPolicy::Fcfs, SchedPolicy::Lff]
            .map(|policy| (policy, ablation.baseline()))
            .into_iter()
            .chain(rows.iter().map(|&row| (SchedPolicy::Lff, row)))
            .collect(),
    };
    cells
        .into_iter()
        .map(|(policy, scenario)| {
            RunRequest::new(
                format!("{}:{}/{}", ablation.flag(), policy.name(), scenario.name),
                robustness(args, policy, scenario),
            )
        })
        .collect()
}

pub(super) fn requests(args: &Args) -> Result<Vec<RunRequest>, ReproError> {
    if let Some((ablation, rows)) = selection(args)? {
        return Ok(robustness_requests(args, ablation, &rows));
    }
    let mut reqs = Vec::new();
    for kind in annotation_kinds(args.scale) {
        let RunKind::Policy { policy, .. } = kind else { unreachable!() };
        reqs.push(RunRequest::new(format!("ablation:photo/{}", policy.name()), kind));
    }
    for threshold in THRESHOLDS {
        reqs.push(RunRequest::new(
            format!("ablation:threshold/{threshold}"),
            RunKind::Threshold { threshold_lines: threshold, scale: args.scale },
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
            pipeline_kind(policy, annotate, infer, args.scale),
        ));
    }
    Ok(reqs)
}

pub(super) fn emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    match selection(args)? {
        Some((Ablation::Faults, rows)) => return emit_faults(args, results, &rows),
        Some((Ablation::Chaos, rows)) => return emit_chaos(args, results, &rows),
        None => {}
    }
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

/// `misses / base`, or 0 against an empty baseline.
fn ratio(misses: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        misses as f64 / base as f64
    }
}

fn emit_faults(args: &Args, results: &ResultSet, rows: &[Scenario]) -> Result<(), ReproError> {
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
    let baseline = Ablation::Faults.baseline();
    let fcfs = results.fault_cell(&robustness(args, SchedPolicy::Fcfs, baseline))?;
    let clean = results.fault_cell(&robustness(args, SchedPolicy::Lff, baseline))?;
    for &scenario in rows {
        let cell = results.fault_cell(&robustness(args, SchedPolicy::Lff, scenario))?;
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
         far past — the FCFS miss rate; the 'window' scenario shows the scheduler entering\n\
         degraded mode under sustained traps and recovering once reads come back clean.\n"
    );
    t.write_csv(&args.csv_path("ablation_faults.csv")?)?;
    Ok(())
}

fn emit_chaos(args: &Args, results: &ResultSet, rows: &[Scenario]) -> Result<(), ReproError> {
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
    for &scenario in rows {
        for policy in CHAOS_POLICIES {
            let cell = results.chaos_cell(&robustness(args, policy, scenario))?;
            let clean =
                results.chaos_cell(&robustness(args, policy, Ablation::Chaos.baseline()))?;
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
