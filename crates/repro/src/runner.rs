//! The shared experiment runner: every figure and table is a list of
//! independent, explicitly-seeded run descriptors ([`RunKind`]) that a
//! pool of OS worker threads executes in parallel (`--jobs N`), with an
//! on-disk result cache so re-invocations skip finished points.
//!
//! Determinism contract: a descriptor fully describes its run (machine,
//! workload, seeds), each run builds all of its state privately, and
//! callers format output only after `run_all` returns results in
//! descriptor order — so CSV artifacts are **byte-identical** for every
//! `--jobs` value. The per-run wall-clock stats below are the only
//! nondeterministic output and are confined to stdout.
//!
//! Cache entries are keyed by an FNV-1a hash of the canonical
//! descriptor string, which embeds the crate version and wire-format
//! revision — a rebuild with different semantics never reuses stale
//! results. Entries are written via a temp-file rename, so concurrent
//! invocations sharing a cache directory cannot observe torn files, and
//! each carries a SHA-256 of its payload: a truncated or bit-rotted
//! entry is quarantined (renamed aside) and recomputed instead of
//! misparsing or panicking.
//!
//! Runs execute behind a guard ([`GuardPolicy`]): panics are caught per
//! descriptor (`catch_unwind`), a watchdog times out hung runs, and
//! both are retried with bounded backoff before the typed error
//! surfaces. Combined with the cache, this makes `repro all` resumable:
//! a killed invocation re-runs only the descriptors whose entries never
//! landed, and the reassembled artifacts are byte-identical.

use crate::args::{Args, Scale};
use crate::chaos::ChaosScenario;
use crate::digest;
use crate::error::ReproError;
use crate::experiments::{self, ChaosCell, CostCase, FaultCell, PredictionProbe};
use crate::faults::FaultScenario;
use crate::geometry::{self, GeometryExperiment, GeometryPoint};
use crate::microbench::{self, WalkExperiment, WalkPoint};
use crate::modelcheck::McCell;
use crate::monitor::{self, MonitorTrace, Sample};
use crate::perf::{self, PerfApp};
use crate::table::{Table, TableError};
use active_threads::{RunReport, SchedPolicy};
use locality_core::PolicyKind;
use locality_sim::PagePlacement;
use locality_workloads::App;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Bumped whenever the wire encoding of [`RunOutput`] changes, so stale
/// cache entries miss instead of misparsing.
const WIRE_FORMAT: u32 = 3;

/// Serializable page-placement selector mirroring
/// [`locality_sim::PagePlacement`] (descriptors avoid embedded seeds by
/// using the default-seeded arbitrary policy, like the figures always
/// have).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Kessler & Hill bin hopping (the paper's VM).
    BinHopping,
    /// Page coloring.
    PageColoring,
    /// Default-seeded pseudo-random placement.
    Arbitrary,
}

impl Placement {
    /// The simulator policy this selector denotes.
    pub fn to_sim(self) -> PagePlacement {
        match self {
            Placement::BinHopping => PagePlacement::bin_hopping(),
            Placement::PageColoring => PagePlacement::PageColoring,
            Placement::Arbitrary => PagePlacement::arbitrary(),
        }
    }
}

/// One independent, explicitly-seeded simulation run. The variant value
/// fully determines the run's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunKind {
    /// A Figure 4 random-walk curve.
    Walk(WalkExperiment),
    /// A geometry-validation curve (`repro geometry`): one workload on
    /// one cache geometry, predicted by both estimators.
    Geometry(GeometryExperiment),
    /// A Figure 5/6/7 monitored-application trace.
    Monitor {
        /// The monitored application.
        app: App,
        /// Page-placement policy of the simulated VM.
        placement: Placement,
        /// The workload's RNG seed.
        seed: u64,
    },
    /// A §5 policy-comparison cell (Figures 8/9, Table 5, ablation 1).
    Policy {
        /// The application.
        app: PerfApp,
        /// The scheduling policy.
        policy: SchedPolicy,
        /// Processor count (1 = Ultra-1, else Enterprise 5000).
        cpus: usize,
        /// Workload scale.
        scale: Scale,
    },
    /// A heap-eviction-threshold sweep cell (ablation 2).
    Threshold {
        /// Threshold in lines.
        threshold_lines: u64,
        /// Workload scale.
        scale: Scale,
    },
    /// A page-placement probe (ablation 3).
    PlacementProbe {
        /// The application.
        app: App,
        /// Page-placement policy.
        placement: Placement,
    },
    /// An invalidation-effects cell (ablation 4).
    Invalidation {
        /// Lines written by the remote processor.
        written_lines: u64,
    },
    /// A sharing-inference pipeline cell (ablation 5).
    Pipeline {
        /// The scheduling policy.
        policy: SchedPolicy,
        /// Hand `at_share` annotations on?
        annotate: bool,
        /// CML-driven runtime inference on?
        infer: bool,
        /// Workload scale.
        scale: Scale,
    },
    /// A counter-fault robustness cell (ablation 6).
    Fault {
        /// The scheduling policy.
        policy: SchedPolicy,
        /// The injected fault scenario.
        scenario: FaultScenario,
        /// Workload scale.
        scale: Scale,
    },
    /// A thread-lifecycle chaos cell (ablation 7, `--chaos`).
    Chaos {
        /// The scheduling policy.
        policy: SchedPolicy,
        /// The injected lifecycle-fault scenario.
        scenario: ChaosScenario,
        /// Workload scale.
        scale: Scale,
    },
    /// A Table 3 priority-update cost cell.
    UpdateCost {
        /// The locality policy.
        policy: PolicyKind,
        /// The thread class.
        case: CostCase,
    },
    /// A stateless-model-checking cell (`repro modelcheck`): one
    /// exhaustive schedule exploration of a fixture workload.
    ModelCheck {
        /// The explored workload.
        workload: locality_analyze::McWorkload,
        /// Naive full enumeration (the DPOR reduction baseline)?
        naive: bool,
        /// Maximum decisions per execution.
        depth_bound: u64,
        /// Maximum executions across the exploration.
        max_schedules: u64,
        /// Optional preemption bound.
        preempt_bound: Option<u64>,
    },
    /// A traced monitored-application run's aggregated metrics (`repro
    /// trace`). Only executable in builds with the `trace`
    /// feature; see [`crate::trace::traced_run`].
    TraceMetrics {
        /// The monitored application.
        app: App,
        /// The scheduling policy of the traced run.
        policy: SchedPolicy,
        /// The workload's RNG seed.
        seed: u64,
    },
}

/// A labelled run descriptor.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Human-readable label for the stats summary.
    pub label: String,
    /// The run itself.
    pub kind: RunKind,
}

impl RunRequest {
    /// Creates a labelled request.
    pub fn new(label: impl Into<String>, kind: RunKind) -> Self {
        RunRequest { label: label.into(), kind }
    }
}

/// The canonical cache key of a descriptor: crate version, wire-format
/// revision, and the descriptor's exhaustive debug form.
pub fn cache_key(kind: &RunKind) -> String {
    format!("locality-repro {} wire {WIRE_FORMAT} | {kind:?}", env!("CARGO_PKG_VERSION"))
}

/// The result of one run.
#[derive(Debug, Clone)]
pub enum RunOutput {
    /// Points of one walk curve.
    Points(Vec<WalkPoint>),
    /// Points of one geometry-validation curve.
    GeometryPoints(Vec<GeometryPoint>),
    /// A monitored-application trace.
    Trace(MonitorTrace),
    /// An engine run report.
    Report(RunReport),
    /// A fault-robustness cell.
    FaultCell(FaultCell),
    /// A thread-lifecycle chaos cell.
    ChaosCell(ChaosCell),
    /// `(observed, predicted)` footprints of an invalidation cell.
    Invalidation {
        /// Ground-truth resident lines after the remote writes.
        observed: u64,
        /// What the counter-driven model still predicts.
        predicted: u64,
    },
    /// A priority-update cost cell.
    UpdateCost {
        /// Floating-point operations per update.
        flops: u64,
        /// Table lookups per update.
        lookups: u64,
    },
    /// A traced run's aggregated trace metrics (boxed: the histograms
    /// make it by far the largest payload).
    TraceSummary(Box<locality_trace::TraceSummary>),
    /// A model-checking exploration summary.
    ModelCheck(McCell),
}

/// Simulated E-cache misses a run performed (for the throughput stats).
fn sim_misses(out: &RunOutput) -> u64 {
    match out {
        RunOutput::Points(points) => points.last().map_or(0, |p| p.misses),
        RunOutput::Trace(trace) => trace.samples.last().map_or(0, |s| s.misses),
        RunOutput::Report(report) => report.total_l2_misses,
        RunOutput::FaultCell(cell) => cell.report.total_l2_misses,
        RunOutput::ChaosCell(cell) => cell.report.total_l2_misses,
        RunOutput::GeometryPoints(points) => points.last().map_or(0, |p| p.misses),
        RunOutput::Invalidation { .. }
        | RunOutput::UpdateCost { .. }
        | RunOutput::TraceSummary(_)
        | RunOutput::ModelCheck(_) => 0,
    }
}

/// Executes one descriptor from scratch. Everything the run touches is
/// built inside this call, so it is safe to dispatch from any thread.
///
/// # Errors
///
/// Propagates the underlying engine/model error.
pub fn execute(kind: &RunKind) -> Result<RunOutput, ReproError> {
    match *kind {
        RunKind::Walk(exp) => Ok(RunOutput::Points(microbench::run(&exp)?)),
        RunKind::Geometry(exp) => Ok(RunOutput::GeometryPoints(geometry::run(&exp)?)),
        RunKind::Monitor { app, placement, seed } => {
            Ok(RunOutput::Trace(monitor::monitor_app_seeded(app, placement.to_sim(), seed)?))
        }
        RunKind::Policy { app, policy, cpus, scale } => {
            Ok(RunOutput::Report(perf::run_cell(app, policy, cpus, scale)?))
        }
        RunKind::Threshold { threshold_lines, scale } => {
            Ok(RunOutput::Report(experiments::threshold_cell(threshold_lines, scale)?))
        }
        RunKind::PlacementProbe { app, placement } => {
            Ok(RunOutput::Report(experiments::placement_cell(app, placement.to_sim())?))
        }
        RunKind::Invalidation { written_lines } => {
            let (observed, predicted) = experiments::invalidation_cell(written_lines);
            Ok(RunOutput::Invalidation { observed, predicted })
        }
        RunKind::Pipeline { policy, annotate, infer, scale } => {
            Ok(RunOutput::Report(experiments::pipeline_cell(policy, annotate, infer, scale)?))
        }
        RunKind::Fault { policy, scenario, scale } => {
            Ok(RunOutput::FaultCell(experiments::fault_cell(policy, scenario, scale)?))
        }
        RunKind::Chaos { policy, scenario, scale } => {
            Ok(RunOutput::ChaosCell(experiments::chaos_cell(policy, scenario, scale)?))
        }
        RunKind::UpdateCost { policy, case } => {
            let (flops, lookups) = experiments::update_cost_cell(policy, case);
            Ok(RunOutput::UpdateCost { flops, lookups })
        }
        // The summary is what gets cached; the full event stream is
        // re-recorded per invocation, never cached.
        RunKind::TraceMetrics { app, policy, seed } => Ok(RunOutput::TraceSummary(Box::new(
            crate::trace::traced_run(app, policy, seed)?.summary,
        ))),
        RunKind::ModelCheck { workload, naive, depth_bound, max_schedules, preempt_bound } => {
            Ok(RunOutput::ModelCheck(crate::modelcheck::modelcheck_cell(
                workload,
                naive,
                depth_bound,
                max_schedules,
                preempt_bound,
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Wire format: a plain-text encoding of RunOutput for the disk cache.
// Floats travel as their IEEE-754 bit patterns in hex so every value
// round-trips exactly — the byte-identical-CSV invariant depends on it.

fn enc_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn dec_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn enc_probe(p: &PredictionProbe) -> String {
    format!("{} {} {}", enc_f64(p.sum_abs_err), enc_f64(p.sum_observed), p.samples)
}

fn dec_probe<'a>(it: &mut impl Iterator<Item = &'a str>) -> Option<PredictionProbe> {
    Some(PredictionProbe {
        sum_abs_err: dec_f64(it.next()?)?,
        sum_observed: dec_f64(it.next()?)?,
        samples: it.next()?.parse().ok()?,
    })
}

fn encode_report(out: &mut String, r: &RunReport) {
    out.push_str(&format!("report {}\n", r.policy));
    out.push_str(&format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {}\n",
        r.cpus,
        r.total_cycles,
        r.total_l2_misses,
        r.total_l2_refs,
        r.total_instructions,
        r.context_switches,
        r.threads_completed,
        r.threads_aborted,
        r.steals,
        r.priority_flops.0,
        r.priority_flops.1,
        r.degraded_intervals,
        r.corrected_intervals
    ));
}

fn decode_report<'a, I: Iterator<Item = &'a str>>(lines: &mut I) -> Option<RunReport> {
    let policy = lines.next()?.strip_prefix("report ")?.to_string();
    let nums: Vec<u64> = lines.next()?.split(' ').map(str::parse).collect::<Result<_, _>>().ok()?;
    if nums.len() != 13 {
        return None;
    }
    Some(RunReport {
        policy,
        cpus: usize::try_from(nums[0]).ok()?,
        total_cycles: nums[1],
        total_l2_misses: nums[2],
        total_l2_refs: nums[3],
        total_instructions: nums[4],
        context_switches: nums[5],
        threads_completed: nums[6],
        threads_aborted: nums[7],
        steals: nums[8],
        priority_flops: (nums[9], nums[10]),
        degraded_intervals: nums[11],
        corrected_intervals: nums[12],
        // Per-processor breakdowns are not cached; no figure consumes
        // them and they would dominate the entry size.
        per_cpu: Vec::new(),
    })
}

/// Serializes a run result for the disk cache.
fn encode(out: &RunOutput) -> String {
    let mut s = String::new();
    match out {
        RunOutput::Points(points) => {
            s.push_str(&format!("points {}\n", points.len()));
            for p in points {
                s.push_str(&format!(
                    "{} {} {}\n",
                    p.misses,
                    enc_f64(p.observed),
                    enc_f64(p.predicted)
                ));
            }
        }
        RunOutput::GeometryPoints(points) => {
            s.push_str(&format!("gpoints {}\n", points.len()));
            for p in points {
                s.push_str(&format!(
                    "{} {} {} {}\n",
                    p.misses,
                    enc_f64(p.observed),
                    enc_f64(p.closed_form),
                    enc_f64(p.per_set)
                ));
            }
        }
        RunOutput::Trace(trace) => {
            s.push_str(&format!("trace {}\n", trace.samples.len()));
            for p in &trace.samples {
                s.push_str(&format!(
                    "{} {} {} {}\n",
                    p.misses,
                    p.instructions,
                    enc_f64(p.observed),
                    enc_f64(p.predicted)
                ));
            }
        }
        RunOutput::Report(r) => encode_report(&mut s, r),
        RunOutput::FaultCell(cell) => {
            s.push_str(&format!("fault {} {}\n", u8::from(cell.recovered), enc_probe(&cell.probe)));
            encode_report(&mut s, &cell.report);
        }
        RunOutput::ChaosCell(cell) => {
            s.push_str(&format!("chaos {} {}\n", cell.poisoned, enc_probe(&cell.probe)));
            encode_report(&mut s, &cell.report);
        }
        RunOutput::Invalidation { observed, predicted } => {
            s.push_str(&format!("inval {observed} {predicted}\n"));
        }
        RunOutput::UpdateCost { flops, lookups } => {
            s.push_str(&format!("cost {flops} {lookups}\n"));
        }
        RunOutput::TraceSummary(t) => {
            s.push_str(&format!(
                "tsum {} {} {} {} {} {} {} {}\n",
                t.events,
                t.intervals,
                t.dropped,
                t.mode_transitions,
                enc_f64(t.abs_err_mean),
                t.abs_err_samples,
                enc_f64(t.rel_err_mean),
                t.rel_err_samples
            ));
            for hist in [&t.miss_hist, &t.depth_hist, &t.fanout_hist, &t.abs_err_hist] {
                let cells: Vec<String> = hist.iter().map(u64::to_string).collect();
                s.push_str(&cells.join(" "));
                s.push('\n');
            }
        }
        RunOutput::ModelCheck(cell) => {
            let ce_lines = cell.counterexample.as_deref().map_or(0, |t| t.lines().count());
            s.push_str(&format!(
                "mc {} {} {} {} {} {} {} {} {} {ce_lines}\n",
                cell.schedules,
                cell.pruned,
                cell.truncated,
                u8::from(cell.capped),
                cell.max_depth,
                cell.races,
                cell.deadlocks,
                cell.stalls,
                cell.invariants
            ));
            if let Some(text) = &cell.counterexample {
                for line in text.lines() {
                    s.push_str(line);
                    s.push('\n');
                }
            }
        }
    }
    s
}

fn decode_hist<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Option<[u64; locality_trace::HIST_BUCKETS]> {
    let nums: Vec<u64> = lines.next()?.split(' ').map(str::parse).collect::<Result<_, _>>().ok()?;
    nums.try_into().ok()
}

/// Decodes a `<tag><count>` line followed by `count` space-separated
/// rows. The count comes from disk, so it only bounds the loop: the
/// vector grows row by row and a count the payload cannot back runs out
/// of lines (an undecodable entry) instead of reserving memory for it.
fn decode_rows<'a, T>(
    lines: &mut impl Iterator<Item = &'a str>,
    tag: &str,
    row: impl Fn(&mut std::str::Split<'a, char>) -> Option<T>,
) -> Option<Vec<T>> {
    let n: usize = lines.next()?.strip_prefix(tag)?.parse().ok()?;
    (0..n).map(|_| row(&mut lines.next()?.split(' '))).collect()
}

/// Deserializes a cached payload, using the descriptor for context
/// (e.g. the static app name of a trace). `None` means the entry is
/// unreadable and the run is simply repeated.
fn decode(kind: &RunKind, payload: &str) -> Option<RunOutput> {
    let mut lines = payload.lines();
    match kind {
        RunKind::Walk(_) => decode_rows(&mut lines, "points ", |it| {
            Some(WalkPoint {
                misses: it.next()?.parse().ok()?,
                observed: dec_f64(it.next()?)?,
                predicted: dec_f64(it.next()?)?,
            })
        })
        .map(RunOutput::Points),
        RunKind::Geometry(_) => decode_rows(&mut lines, "gpoints ", |it| {
            Some(GeometryPoint {
                misses: it.next()?.parse().ok()?,
                observed: dec_f64(it.next()?)?,
                closed_form: dec_f64(it.next()?)?,
                per_set: dec_f64(it.next()?)?,
            })
        })
        .map(RunOutput::GeometryPoints),
        RunKind::Monitor { app, .. } => decode_rows(&mut lines, "trace ", |it| {
            Some(Sample {
                misses: it.next()?.parse().ok()?,
                instructions: it.next()?.parse().ok()?,
                observed: dec_f64(it.next()?)?,
                predicted: dec_f64(it.next()?)?,
            })
        })
        .map(|samples| RunOutput::Trace(MonitorTrace { app: app.name(), samples })),
        RunKind::Policy { .. }
        | RunKind::Threshold { .. }
        | RunKind::PlacementProbe { .. }
        | RunKind::Pipeline { .. } => Some(RunOutput::Report(decode_report(&mut lines)?)),
        RunKind::Fault { .. } => {
            let mut it = lines.next()?.strip_prefix("fault ")?.split(' ');
            let recovered = it.next()? == "1";
            let probe = dec_probe(&mut it)?;
            let report = decode_report(&mut lines)?;
            Some(RunOutput::FaultCell(FaultCell { report, probe, recovered }))
        }
        RunKind::Chaos { .. } => {
            let mut it = lines.next()?.strip_prefix("chaos ")?.split(' ');
            let poisoned = it.next()?.parse().ok()?;
            let probe = dec_probe(&mut it)?;
            let report = decode_report(&mut lines)?;
            Some(RunOutput::ChaosCell(ChaosCell { report, probe, poisoned }))
        }
        RunKind::Invalidation { .. } => {
            let mut it = lines.next()?.strip_prefix("inval ")?.split(' ');
            Some(RunOutput::Invalidation {
                observed: it.next()?.parse().ok()?,
                predicted: it.next()?.parse().ok()?,
            })
        }
        RunKind::UpdateCost { .. } => {
            let mut it = lines.next()?.strip_prefix("cost ")?.split(' ');
            Some(RunOutput::UpdateCost {
                flops: it.next()?.parse().ok()?,
                lookups: it.next()?.parse().ok()?,
            })
        }
        RunKind::TraceMetrics { .. } => {
            let mut it = lines.next()?.strip_prefix("tsum ")?.split(' ');
            let events = it.next()?.parse().ok()?;
            let intervals = it.next()?.parse().ok()?;
            let dropped = it.next()?.parse().ok()?;
            let mode_transitions = it.next()?.parse().ok()?;
            let abs_err_mean = dec_f64(it.next()?)?;
            let abs_err_samples = it.next()?.parse().ok()?;
            let rel_err_mean = dec_f64(it.next()?)?;
            let rel_err_samples = it.next()?.parse().ok()?;
            Some(RunOutput::TraceSummary(Box::new(locality_trace::TraceSummary {
                events,
                intervals,
                dropped,
                mode_transitions,
                miss_hist: decode_hist(&mut lines)?,
                depth_hist: decode_hist(&mut lines)?,
                fanout_hist: decode_hist(&mut lines)?,
                abs_err_hist: decode_hist(&mut lines)?,
                abs_err_mean,
                abs_err_samples,
                rel_err_mean,
                rel_err_samples,
            })))
        }
        RunKind::ModelCheck { .. } => {
            let mut it = lines.next()?.strip_prefix("mc ")?.split(' ');
            let schedules = it.next()?.parse().ok()?;
            let pruned = it.next()?.parse().ok()?;
            let truncated = it.next()?.parse().ok()?;
            let capped = it.next()? == "1";
            let max_depth = it.next()?.parse().ok()?;
            let races = it.next()?.parse().ok()?;
            let deadlocks = it.next()?.parse().ok()?;
            let stalls = it.next()?.parse().ok()?;
            let invariants = it.next()?.parse().ok()?;
            let ce_lines: usize = it.next()?.parse().ok()?;
            let counterexample = if ce_lines == 0 {
                None
            } else {
                let mut text = String::new();
                for _ in 0..ce_lines {
                    text.push_str(lines.next()?);
                    text.push('\n');
                }
                Some(text)
            };
            Some(RunOutput::ModelCheck(McCell {
                schedules,
                pruned,
                truncated,
                capped,
                max_depth,
                races,
                deadlocks,
                stalls,
                invariants,
                counterexample,
            }))
        }
    }
}

// ---------------------------------------------------------------------
// Disk cache.

fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.run", fnv1a(key)))
    }

    /// Loads a cached result. `Ok(None)` is a clean miss (no entry, or
    /// an FNV key collision); [`ReproError::CorruptCache`] means the
    /// entry existed but failed its checksum or decode — it has been
    /// quarantined (renamed to `.quarantine`) so the recomputed result
    /// can land fresh, and the caller recomputes after logging.
    fn load(&self, key: &str, kind: &RunKind) -> Result<Option<RunOutput>, ReproError> {
        let path = self.entry_path(key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(None);
        };
        let corrupt = |what: &str| {
            let quarantined = path.with_extension("quarantine");
            // Best effort: if the rename fails, the fresh store below
            // simply overwrites the bad entry.
            let _ = std::fs::rename(&path, &quarantined);
            ReproError::CorruptCache { quarantined, what: what.to_string() }
        };
        let Some((first, rest)) = text.split_once('\n') else {
            return Err(corrupt("truncated header"));
        };
        if first != key {
            return Ok(None);
        }
        let Some((sum_line, payload)) = rest.split_once('\n') else {
            return Err(corrupt("missing checksum line"));
        };
        let Some(expected) = sum_line.strip_prefix("sha256 ") else {
            return Err(corrupt("malformed checksum line"));
        };
        if digest::hex(payload.as_bytes()) != expected {
            return Err(corrupt("payload checksum mismatch"));
        }
        match decode(kind, payload) {
            Some(out) => Ok(Some(out)),
            None => Err(corrupt("undecodable payload")),
        }
    }

    /// Stores a result atomically (temp file + rename), so concurrent
    /// invocations sharing this directory never read torn entries; the
    /// embedded SHA-256 lets `load` reject anything that still lands
    /// damaged (partial disk, bit rot).
    fn store(&self, key: &str, out: &RunOutput) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(key);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let payload = encode(out);
        let checksum = digest::hex(payload.as_bytes());
        std::fs::write(&tmp, format!("{key}\nsha256 {checksum}\n{payload}"))?;
        std::fs::rename(&tmp, &path)
    }
}

// ---------------------------------------------------------------------
// Guarded execution: panic isolation, watchdog, bounded retry.

/// Per-run isolation policy: how panics, hangs, and flaky failures are
/// contained so one bad descriptor cannot tear down a whole suite.
#[derive(Debug, Clone)]
pub struct GuardPolicy {
    /// Watchdog timeout per attempt. `None` disables the watchdog and
    /// runs the descriptor on the calling worker thread (panic
    /// isolation still applies).
    pub timeout: Option<Duration>,
    /// Additional attempts after a panicked or timed-out run.
    pub retries: u32,
    /// Base backoff between attempts (scaled by the attempt number).
    pub backoff: Duration,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            timeout: Some(Duration::from_secs(600)),
            retries: 1,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one descriptor with panics converted to
/// [`ReproError::RunPanicked`]. Every run builds its state privately,
/// so unwinding cannot leave shared state torn (`AssertUnwindSafe` is
/// sound here).
fn execute_isolated(kind: &RunKind) -> Result<RunOutput, ReproError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(kind))) {
        Ok(res) => res,
        Err(payload) => Err(ReproError::RunPanicked { what: panic_message(payload.as_ref()) }),
    }
}

/// Runs `f` on a watchdog thread; a run that outlives `timeout` is
/// abandoned (Rust threads cannot be killed — it finishes in the
/// background) and reported as [`ReproError::RunTimedOut`].
fn watched<R: Send + 'static>(
    timeout: Duration,
    f: impl FnOnce() -> Result<R, ReproError> + Send + 'static,
) -> Result<R, ReproError> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(timeout) {
        Ok(res) => res,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            Err(ReproError::RunTimedOut { after: timeout })
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            Err(ReproError::RunPanicked { what: "worker vanished before reporting".to_string() })
        }
    }
}

/// Calls `attempt` until it returns something other than a panic or a
/// timeout, or `guard`'s retry budget is spent, with linear backoff
/// between attempts.
fn retried<R>(
    guard: &GuardPolicy,
    mut attempt: impl FnMut() -> Result<R, ReproError>,
) -> Result<R, ReproError> {
    let mut tries = 0u32;
    loop {
        match attempt() {
            Err(e @ (ReproError::RunPanicked { .. } | ReproError::RunTimedOut { .. }))
                if tries < guard.retries =>
            {
                tries += 1;
                eprintln!("[guard] {e}; retrying ({tries}/{})", guard.retries);
                std::thread::sleep(guard.backoff * tries);
            }
            other => return other,
        }
    }
}

/// Executes one descriptor under `guard`: panic isolation, watchdog
/// timeout, and bounded retry with linear backoff. Only panics and
/// timeouts are retried — typed engine/model errors are deterministic
/// and surface immediately.
///
/// # Errors
///
/// Propagates the underlying error, or [`ReproError::RunPanicked`] /
/// [`ReproError::RunTimedOut`] once the retry budget is spent.
pub fn execute_guarded(kind: &RunKind, guard: &GuardPolicy) -> Result<RunOutput, ReproError> {
    let kind = *kind;
    retried(guard, || match guard.timeout {
        Some(timeout) => watched(timeout, move || execute_isolated(&kind)),
        None => execute_isolated(&kind),
    })
}

// ---------------------------------------------------------------------
// The worker pool.

/// Applies `f` to every item on up to `jobs` scoped worker threads and
/// returns the results **in item order**, whatever order they finished
/// in (collecting them into a `Result` therefore surfaces the earliest
/// failing item). Workers claim the next unclaimed index, so one slow
/// item never holds a queue of others behind it. A panicking item
/// becomes that item's [`ReproError::RunPanicked`]; the rest still run.
/// `f` must build what it runs privately (engines are not `Send`) —
/// only `T` and the plain result cross the thread boundary, which is
/// also why unwinding cannot leave shared state torn.
pub(crate) fn in_parallel<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(&T) -> Result<R, ReproError> + Sync,
) -> Vec<Result<R, ReproError>> {
    let slots: Vec<Mutex<Option<Result<R, ReproError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
                    .unwrap_or_else(|payload| {
                        Err(ReproError::RunPanicked { what: panic_message(payload.as_ref()) })
                    });
                *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(res);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .unwrap_or_else(|| Err(ReproError::MissingResult(format!("pool item {i}"))))
        })
        .collect()
}

// ---------------------------------------------------------------------
// The runner.

/// Instrumentation for one completed run.
#[derive(Debug, Clone)]
pub struct RunStat {
    /// The request's label.
    pub label: String,
    /// Wall-clock time of the run (zero when served from cache).
    pub wall: Duration,
    /// Simulated E-cache misses the run performed.
    pub sim_misses: u64,
    /// Whether the result came from the disk cache.
    pub cached: bool,
}

/// Runner configuration, usually derived from [`Args`].
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads.
    pub jobs: usize,
    /// Cache directory; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Panic/timeout isolation policy for individual runs.
    pub guard: GuardPolicy,
}

/// The parallel, cached experiment runner.
pub struct Runner {
    jobs: usize,
    cache: Option<DiskCache>,
    guard: GuardPolicy,
    stats: Mutex<Vec<RunStat>>,
}

impl Runner {
    /// Creates a runner.
    pub fn new(config: RunnerConfig) -> Self {
        Runner {
            jobs: config.jobs.max(1),
            cache: config.cache_dir.map(|dir| DiskCache { dir }),
            guard: config.guard,
            stats: Mutex::new(Vec::new()),
        }
    }

    /// A runner honouring `--jobs` and `--no-cache`; the cache lives
    /// under `<out>/.cache` next to the CSVs it accelerates.
    pub fn from_args(args: &Args) -> Self {
        Runner::new(RunnerConfig {
            jobs: args.jobs,
            cache_dir: (!args.no_cache).then(|| args.out.join(".cache")),
            guard: GuardPolicy::default(),
        })
    }

    /// The worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes every request (deduplicating identical descriptors) and
    /// returns the results **in request order**, which is what keeps
    /// output byte-identical across `--jobs` values.
    ///
    /// # Errors
    ///
    /// Returns the first failing run's error (first in request order).
    pub fn run_all(&self, reqs: &[RunRequest]) -> Result<Vec<RunOutput>, ReproError> {
        let keys: Vec<String> = reqs.iter().map(|r| cache_key(&r.kind)).collect();
        // One slot per distinct descriptor, first occurrence wins.
        let mut first_of: HashMap<&str, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            first_of.entry(key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
        }
        let done: Vec<RunOutput> =
            in_parallel(self.jobs, &unique, |&i| self.run_one(&reqs[i], &keys[i]))
                .into_iter()
                .collect::<Result<_, _>>()?;
        Ok(keys.iter().map(|key| done[first_of[key.as_str()]].clone()).collect())
    }

    fn run_one(&self, req: &RunRequest, key: &str) -> Result<RunOutput, ReproError> {
        if let Some(cache) = &self.cache {
            match cache.load(key, &req.kind) {
                Ok(Some(out)) => {
                    self.push_stat(RunStat {
                        label: req.label.clone(),
                        wall: Duration::ZERO,
                        sim_misses: sim_misses(&out),
                        cached: true,
                    });
                    return Ok(out);
                }
                Ok(None) => {}
                // Quarantined; recompute and store a fresh entry.
                Err(e) => eprintln!("[cache] {}: {e}", req.label),
            }
        }
        let start = Instant::now();
        let out = execute_guarded(&req.kind, &self.guard)?;
        let wall = start.elapsed();
        if let Some(cache) = &self.cache {
            // A failing cache write must not kill the suite; the result
            // is in hand and only re-invocation speed is lost.
            if let Err(e) = cache.store(key, &out) {
                eprintln!("[cache] could not store {}: {e}", req.label);
            }
        }
        self.push_stat(RunStat {
            label: req.label.clone(),
            wall,
            sim_misses: sim_misses(&out),
            cached: false,
        });
        Ok(out)
    }

    fn stats(&self) -> std::sync::MutexGuard<'_, Vec<RunStat>> {
        self.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push_stat(&self, stat: RunStat) {
        self.stats().push(stat);
    }

    /// Runs executed fresh so far.
    pub fn fresh_runs(&self) -> usize {
        self.stats().iter().filter(|s| !s.cached).count()
    }

    /// Runs served from the disk cache so far.
    pub fn cached_runs(&self) -> usize {
        self.stats().iter().filter(|s| s.cached).count()
    }

    /// The per-run instrumentation table: wall time and simulated-miss
    /// throughput per run, plus a totals row. Wall times are
    /// nondeterministic, so this table is printed, never written to CSV.
    ///
    /// # Errors
    ///
    /// Returns a [`TableError`] if a row cannot be appended.
    pub fn summary(&self) -> Result<Table, TableError> {
        let mut stats = self.stats().clone();
        stats.sort_by(|a, b| a.label.cmp(&b.label));
        let mut t = Table::new(
            &format!(
                "runner — {} jobs, {} fresh, {} cached",
                self.jobs,
                self.fresh_runs(),
                self.cached_runs()
            ),
            &["run", "source", "wall ms", "sim misses", "sim misses/sec"],
        );
        let rate = |misses: u64, wall: Duration| -> String {
            let secs = wall.as_secs_f64();
            if secs > 0.0 {
                format!("{:.0}", misses as f64 / secs)
            } else {
                "-".to_string()
            }
        };
        for s in &stats {
            t.row(&[
                s.label.clone(),
                if s.cached { "cache" } else { "run" }.to_string(),
                format!("{:.1}", s.wall.as_secs_f64() * 1e3),
                s.sim_misses.to_string(),
                if s.cached { "-".to_string() } else { rate(s.sim_misses, s.wall) },
            ])?;
        }
        let total_wall: Duration = stats.iter().map(|s| s.wall).sum();
        let fresh_misses: u64 = stats.iter().filter(|s| !s.cached).map(|s| s.sim_misses).sum();
        let total_misses: u64 = stats.iter().map(|s| s.sim_misses).sum();
        t.row(&[
            "total".to_string(),
            format!("{} runs", stats.len()),
            format!("{:.1}", total_wall.as_secs_f64() * 1e3),
            total_misses.to_string(),
            rate(fresh_misses, total_wall),
        ])?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench::Monitored;

    fn walk_req(seed: u64) -> RunRequest {
        RunRequest::new(
            format!("walk-{seed}"),
            RunKind::Walk(WalkExperiment::direct(Monitored::Walker { s0: 0.0 }, 2_000, 500, seed)),
        )
    }

    /// A report with a different value in every field the wire carries.
    fn sample_report() -> RunReport {
        RunReport {
            policy: "lff".to_string(),
            cpus: 4,
            total_cycles: 10,
            total_l2_misses: 20,
            total_l2_refs: 30,
            total_instructions: 40,
            context_switches: 50,
            threads_completed: 60,
            threads_aborted: 65,
            steals: 70,
            priority_flops: (80, 90),
            degraded_intervals: 1,
            corrected_intervals: 2,
            per_cpu: Vec::new(),
        }
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a(""), 0xcbf29ce484222325);
        assert_ne!(fnv1a("a"), fnv1a("b"));
    }

    #[test]
    fn cache_keys_distinguish_descriptors() {
        let a = cache_key(&walk_req(1).kind);
        let b = cache_key(&walk_req(2).kind);
        assert_ne!(a, b);
        assert_eq!(a, cache_key(&walk_req(1).kind));
        assert!(a.contains("wire"));
    }

    #[test]
    fn wire_round_trips_every_variant() {
        let outs: Vec<(RunKind, RunOutput)> = vec![
            (
                walk_req(1).kind,
                RunOutput::Points(vec![
                    WalkPoint { misses: 3, observed: 1.5, predicted: 0.1 },
                    WalkPoint { misses: 9, observed: f64::MAX, predicted: -0.0 },
                ]),
            ),
            (
                RunKind::Geometry(GeometryExperiment {
                    monitored: crate::microbench::Monitored::Walker { s0: 0.0 },
                    sets: 1024,
                    ways: 8,
                    page_bytes: 8192,
                    total_misses: 100,
                    sample_every: 50,
                    seed: 3,
                }),
                RunOutput::GeometryPoints(vec![
                    GeometryPoint { misses: 0, observed: 0.0, closed_form: 0.0, per_set: 0.0 },
                    GeometryPoint { misses: 50, observed: 48.0, closed_form: 49.7, per_set: 49.9 },
                ]),
            ),
            (
                RunKind::Monitor { app: App::Merge, placement: Placement::BinHopping, seed: 7 },
                RunOutput::Trace(MonitorTrace {
                    app: "merge",
                    samples: vec![Sample {
                        misses: 1,
                        instructions: 2,
                        observed: 3.25,
                        predicted: 4.5,
                    }],
                }),
            ),
            (
                RunKind::Invalidation { written_lines: 4 },
                RunOutput::Invalidation { observed: 10, predicted: 12 },
            ),
            (
                RunKind::UpdateCost { policy: PolicyKind::Lff, case: CostCase::Blocking },
                RunOutput::UpdateCost { flops: 5, lookups: 1 },
            ),
            (
                RunKind::TraceMetrics { app: App::Merge, policy: SchedPolicy::Lff, seed: 12 },
                RunOutput::TraceSummary(Box::new({
                    let mut miss_hist = [0u64; locality_trace::HIST_BUCKETS];
                    miss_hist[3] = 17;
                    locality_trace::TraceSummary {
                        events: 100,
                        intervals: 20,
                        dropped: 2,
                        mode_transitions: 1,
                        miss_hist,
                        depth_hist: [1; locality_trace::HIST_BUCKETS],
                        fanout_hist: [0; locality_trace::HIST_BUCKETS],
                        abs_err_hist: [2; locality_trace::HIST_BUCKETS],
                        abs_err_mean: 3.5,
                        abs_err_samples: 20,
                        rel_err_mean: -0.0625,
                        rel_err_samples: 18,
                    }
                })),
            ),
        ];
        for (kind, out) in &outs {
            let wire = encode(out);
            let back = decode(kind, &wire).expect("round trip");
            assert_eq!(encode(&back), wire, "{kind:?}");
        }
    }

    #[test]
    fn wire_round_trips_reports_and_fault_cells() {
        let report = sample_report();
        let kind = RunKind::Policy {
            app: PerfApp::Tasks,
            policy: SchedPolicy::Lff,
            cpus: 4,
            scale: Scale::Small,
        };
        let wire = encode(&RunOutput::Report(report.clone()));
        let back = decode(&kind, &wire).expect("report round trip");
        assert_eq!(encode(&back), wire);

        let cell = FaultCell {
            report,
            probe: PredictionProbe { sum_abs_err: 1.25, sum_observed: 2.5, samples: 3 },
            recovered: true,
        };
        let kind = RunKind::Fault {
            policy: SchedPolicy::Lff,
            scenario: FaultScenario::Window,
            scale: Scale::Small,
        };
        let wire = encode(&RunOutput::FaultCell(cell));
        let back = decode(&kind, &wire).expect("fault round trip");
        assert_eq!(encode(&back), wire);
    }

    #[test]
    fn corrupt_cache_entries_miss_instead_of_misparsing() {
        let kind = walk_req(1).kind;
        assert!(decode(&kind, "points zero\n").is_none());
        assert!(decode(&kind, "trace 1\n1 2 0 0\n").is_none());
        assert!(decode(&kind, "").is_none());
        // A count read from disk never sizes an allocation.
        let geometry = RunKind::Geometry(GeometryExperiment {
            monitored: Monitored::Walker { s0: 0.0 },
            sets: 8192,
            ways: 1,
            page_bytes: 8192,
            total_misses: 100,
            sample_every: 50,
            seed: 1,
        });
        let monitor =
            RunKind::Monitor { app: App::Merge, placement: Placement::BinHopping, seed: 1 };
        for (kind, tag) in [(kind, "points"), (geometry, "gpoints"), (monitor, "trace")] {
            assert!(decode(&kind, &format!("{tag} {}\n", u64::MAX)).is_none(), "{tag}");
            assert!(decode(&kind, &format!("{tag} {}\n0 0 0 0\n", u64::MAX)).is_none(), "{tag}");
        }
    }

    #[test]
    fn run_all_dedupes_and_orders() {
        let dir = std::env::temp_dir().join(format!("repro-runner-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = Runner::new(RunnerConfig {
            jobs: 4,
            cache_dir: Some(dir.join("cache")),
            guard: GuardPolicy::default(),
        });
        // Two distinct walks, with the first repeated: 3 requests, 2 runs.
        let reqs = vec![walk_req(1), walk_req(2), walk_req(1)];
        let outs = runner.run_all(&reqs).expect("walks succeed");
        assert_eq!(outs.len(), 3);
        assert_eq!(runner.fresh_runs(), 2, "duplicate descriptor must not run twice");
        let (first, third) = (&outs[0], &outs[2]);
        let (RunOutput::Points(a), RunOutput::Points(b)) = (first, third) else {
            panic!("walks return points");
        };
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y), "shared descriptor, same result");

        // A second runner over the same cache dir does zero fresh runs
        // and returns identical results.
        let runner2 = Runner::new(RunnerConfig {
            jobs: 1,
            cache_dir: Some(dir.join("cache")),
            guard: GuardPolicy::default(),
        });
        let outs2 = runner2.run_all(&reqs).expect("cached walks succeed");
        assert_eq!(runner2.fresh_runs(), 0);
        // Stats count unique executions (the duplicate request shares
        // its twin's cache entry without a separate load).
        assert_eq!(runner2.cached_runs(), 2);
        let RunOutput::Points(a2) = &outs2[0] else { panic!("points") };
        let RunOutput::Points(a1) = &outs[0] else { panic!("points") };
        assert!(a1.iter().zip(a2.iter()).all(|(x, y)| x == y), "cache round trip is exact");
        assert!(runner2.summary().unwrap().render().contains("cache"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_keeps_item_order_and_isolates_a_panicking_item() {
        let items: Vec<u64> = (0..23).collect();
        for jobs in [1, 2, 7] {
            let squares = in_parallel(jobs, &items, |&i| Ok(i * i));
            let squares: Vec<u64> = squares.into_iter().map(Result::unwrap).collect();
            assert_eq!(squares, items.iter().map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");

            let results = in_parallel(jobs, &items, |&i| match i {
                5 => panic!("item {i} blew up"),
                11 => Err(ReproError::Usage("item 11 refused".to_string())),
                _ => Ok(i),
            });
            assert_eq!(results.len(), items.len());
            for (i, res) in items.iter().zip(&results) {
                match (i, res) {
                    (5, Err(ReproError::RunPanicked { what })) => {
                        assert_eq!(what, "item 5 blew up")
                    }
                    (11, Err(ReproError::Usage(_))) => {}
                    (_, Ok(v)) => assert_eq!(v, i, "jobs={jobs}"),
                    other => panic!("jobs={jobs}: unexpected {other:?}"),
                }
            }
            // Collected, the earliest failing item wins, whichever
            // worker finished first.
            let first = results.into_iter().collect::<Result<Vec<_>, _>>().unwrap_err();
            assert!(matches!(first, ReproError::RunPanicked { .. }), "jobs={jobs}: {first:?}");
        }
        assert!(in_parallel(4, &[] as &[u64], |&i| Ok(i)).is_empty());
    }

    #[test]
    fn no_cache_runner_reruns() {
        let runner =
            Runner::new(RunnerConfig { jobs: 2, cache_dir: None, guard: GuardPolicy::default() });
        let reqs = vec![walk_req(3)];
        runner.run_all(&reqs).expect("walk succeeds");
        runner.run_all(&reqs).expect("walk succeeds");
        assert_eq!(runner.fresh_runs(), 2);
        assert_eq!(runner.cached_runs(), 0);
    }

    #[test]
    fn wire_round_trips_chaos_cells() {
        let cell = experiments::ChaosCell {
            report: sample_report(),
            probe: PredictionProbe { sum_abs_err: 3.5, sum_observed: 7.25, samples: 4 },
            poisoned: 2,
        };
        let kind = RunKind::Chaos {
            policy: SchedPolicy::Crt,
            scenario: ChaosScenario::AbortLocked,
            scale: Scale::Small,
        };
        let wire = encode(&RunOutput::ChaosCell(cell));
        let back = decode(&kind, &wire).expect("chaos round trip");
        assert_eq!(encode(&back), wire);
    }

    #[test]
    fn corrupted_entry_is_quarantined_then_recomputed() {
        let dir = std::env::temp_dir().join(format!("repro-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");
        let config = RunnerConfig {
            jobs: 1,
            cache_dir: Some(cache_dir.clone()),
            guard: GuardPolicy::default(),
        };
        let reqs = vec![walk_req(9)];
        let outs = Runner::new(config.clone()).run_all(&reqs).expect("walk succeeds");

        let cache = DiskCache { dir: cache_dir.clone() };
        let key = cache_key(&reqs[0].kind);
        let path = cache.entry_path(&key);
        // Two ways to damage the entry: flip payload bytes behind the
        // checksum's back, or — under a valid checksum — claim a row
        // count no payload could back. The count must bound a loop, not
        // size an allocation: a capacity-overflow panic here would be
        // outside the run guard and take the whole suite down.
        let mut flipped = std::fs::read_to_string(&path).expect("entry exists");
        flipped.truncate(flipped.len() - 8);
        flipped.push_str("garbage\n");
        let payload = format!("points {}\n", u64::MAX);
        let overcounted = format!("{key}\nsha256 {}\n{payload}", digest::hex(payload.as_bytes()));
        for (entry, reason) in [(flipped, "checksum"), (overcounted, "undecodable")] {
            let _ = std::fs::remove_file(path.with_extension("quarantine"));
            std::fs::write(&path, entry).expect("rewrite entry");
            let err = cache.load(&key, &reqs[0].kind).expect_err("damaged entry must not load");
            let ReproError::CorruptCache { quarantined, what } = &err else {
                panic!("expected CorruptCache, got {err:?}");
            };
            assert!(what.contains(reason), "{what}");
            assert!(quarantined.exists(), "bad entry moved aside");
            assert!(!path.exists(), "bad entry no longer served");

            // A fresh runner over the damaged cache recomputes and
            // re-stores the identical result instead of erroring or
            // misparsing.
            let runner = Runner::new(config.clone());
            let outs2 = runner.run_all(&reqs).expect("recompute succeeds");
            assert_eq!(runner.fresh_runs(), 1);
            assert_eq!(encode(&outs[0]), encode(&outs2[0]));
            assert!(path.exists(), "fresh entry stored after quarantine");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_2_cost_entry_is_a_clean_miss_not_a_quarantine() {
        let dir = std::env::temp_dir().join(format!("repro-wire2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir cache");
        let cache = DiskCache { dir: dir.clone() };
        let kind = RunKind::UpdateCost { policy: PolicyKind::Lff, case: CostCase::Blocking };
        let key = cache_key(&kind);
        // What the previous build stored: its own key, and a payload
        // that still carries the ns/update reading.
        let old_key = key.replace(&format!("wire {WIRE_FORMAT}"), "wire 2");
        assert_ne!(old_key, key);
        let payload = format!("cost 5 2 {}\n", enc_f64(12.75));
        let entry = format!("{old_key}\nsha256 {}\n{payload}", digest::hex(payload.as_bytes()));
        // Under its own file name, and under the new key's (where only
        // an FNV collision could put it): the header decides either way.
        for path in [cache.entry_path(&old_key), cache.entry_path(&key)] {
            std::fs::write(&path, &entry).expect("plant old entry");
            assert!(matches!(cache.load(&key, &kind), Ok(None)), "old entry must miss cleanly");
            assert!(path.exists(), "a valid old entry is left alone");
            assert!(!path.with_extension("quarantine").exists(), "not treated as corrupt");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn guard_times_out_and_retries_then_reports() {
        let timeout = Duration::from_millis(1);
        let guard = GuardPolicy { timeout: Some(timeout), retries: 1, backoff: Duration::ZERO };
        // Each attempt blocks on a lock this test holds until it has its
        // verdict, so neither can report before its watchdog fires: the
        // outcome does not depend on how fast anything runs.
        let gate = std::sync::Arc::new(Mutex::new(()));
        let held = gate.lock().expect("fresh lock");
        let mut attempts = 0;
        let res = retried(&guard, || {
            attempts += 1;
            let gate = std::sync::Arc::clone(&gate);
            watched(timeout, move || {
                drop(gate.lock());
                Ok(())
            })
        });
        assert!(matches!(res, Err(ReproError::RunTimedOut { .. })), "got {res:?}");
        assert_eq!(attempts, 2, "one retry, then the report");
        drop(held);

        // The same guard through a real descriptor, with time to finish.
        let kind = RunKind::UpdateCost { policy: PolicyKind::Lff, case: CostCase::Blocking };
        let patient = GuardPolicy { timeout: Some(Duration::from_secs(600)), ..guard };
        let out = execute_guarded(&kind, &patient).expect("watched run reports its result");
        assert_eq!(encode(&out), encode(&execute(&kind).expect("plain run")));
    }

    #[test]
    fn panic_messages_are_preserved() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("dynamic boom"));
        assert_eq!(panic_message(payload.as_ref()), "dynamic boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(payload.as_ref()), "opaque panic payload");
    }
}
