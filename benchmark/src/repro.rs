//! `repro_small`: every figure at `Scale::Small` through the runner,
//! cold into a fresh directory and then warm against its cache.
//!
//! `suite::run_figures` prints its tables, so each call runs in a child
//! of this binary with its standard output discarded. The figures' run
//! descriptors carry fixed seeds (the golden hashes depend on them), so
//! `--seed` does not change this workload's inputs.
//!
//! The timed region is the part of the job that can be timed repeatably
//! from outside: `Runner::run_all` against a warm cache, in process, 3 ms
//! a call, thousands of readings a run. That is `repro`'s own work (the
//! pool, dedup, reading, verifying and decoding 85 checksummed entries).
//! Everything else the job does is the workload's set-up: the cold run
//! that fills the cache and a warm rerun with its tables and CSVs, both
//! as `repro-all` does them. A cold run is 3 s of engine work on two
//! cores at once with no boundary inside it the harness could time, and
//! on the shared sandbox such a unit reads 15 % apart from one run of
//! the harness to the next whatever is done within a run (so does the
//! 20 ms warm process); what it spends in the engine, the four engine
//! workloads measure.

use crate::check;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::{bench_dir, probes, run_dir, stats};
use active_threads::RunReport;
use locality_repro::experiments::PredictionProbe;
use locality_repro::runner::{self, cache_key, GuardPolicy, RunnerConfig};
use locality_repro::suite::{run_figures, Figure};
use locality_repro::{Args, ReproError, RunOutput, RunRequest, Runner, Scale};
use locality_sim::MachineConfig;
use std::collections::BTreeSet;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// First argument of a child process; the second is its output directory.
pub const CHILD_FLAG: &str = "--repro-child";

/// Prefix of the one line a child reports on its standard error.
const CHILD_TAG: &str = "locality-benchmark-child";

/// Runner workers: the sandbox this benchmark was sized on has two cores.
const JOBS: usize = 2;

/// How long `run_all` is timed against one directory's cache before the
/// next cold run.
const WARM_SECONDS: f64 = 3.0;

fn small_args(out: &Path) -> Args {
    Args { scale: Scale::Small, out: out.to_path_buf(), jobs: JOBS, ..Args::default() }
}

/// The child: one `run_figures` over every figure, timed around the call.
/// Returns the process's exit code.
pub fn child(out: &Path) -> i32 {
    let args = small_args(out);
    let t = Instant::now();
    match run_figures(&args, &Figure::ALL) {
        Ok(report) => {
            let wall_ns = t.elapsed().as_nanos();
            let rss = check::peak_rss_mb().unwrap_or(0.0);
            eprintln!("{CHILD_TAG} {wall_ns} {} {} {rss}", report.fresh_runs, report.cached_runs);
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// What a child reported.
struct ChildRun {
    /// Host nanoseconds of the child's `run_figures` call.
    wall_ns: f64,
    /// Host nanoseconds of the whole process, launch and exit included.
    process_ns: f64,
    fresh: usize,
    cached: usize,
    rss_mb: f64,
}

/// Runs one child to completion and parses its report.
fn run_child(out: &Path) -> Result<ChildRun, Box<dyn Error>> {
    let t = Instant::now();
    let output = Command::new(std::env::current_exe()?)
        .arg(CHILD_FLAG)
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()?;
    let process_ns = t.elapsed().as_nanos() as f64;
    let stderr = String::from_utf8_lossy(&output.stderr);
    let parsed = stderr.lines().find_map(|l| l.strip_prefix(CHILD_TAG)).and_then(|rest| {
        let mut f = rest.split_whitespace();
        Some(ChildRun {
            wall_ns: f.next()?.parse().ok()?,
            process_ns,
            fresh: f.next()?.parse().ok()?,
            cached: f.next()?.parse().ok()?,
            rss_mb: f.next()?.parse().ok()?,
        })
    });
    match parsed {
        Some(run) if output.status.success() => Ok(run),
        _ => Err(format!("repro child failed ({}): {}", output.status, stderr.trim()).into()),
    }
}

/// The descriptors of every figure, in `repro-all` order.
fn requests(args: &Args) -> Result<Vec<RunRequest>, ReproError> {
    let mut reqs = Vec::new();
    for figure in Figure::ALL {
        reqs.extend(figure.requests(args)?);
    }
    Ok(reqs)
}

/// `reqs` without repeated descriptors, first occurrence kept.
fn unique(reqs: &[RunRequest]) -> Vec<&RunRequest> {
    let mut seen = BTreeSet::new();
    reqs.iter().filter(|r| seen.insert(cache_key(&r.kind))).collect()
}

fn golden_path() -> PathBuf {
    bench_dir().join("../results/golden_small.sha256")
}

/// One operation per artifact named in the golden list.
fn check_golden(dir: &Path, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    for artifact in check::verify_golden(&golden_path(), dir)? {
        out.op(artifact.fault.is_none(), || {
            format!("{}: {}", artifact.name, artifact.fault.unwrap_or_default())
        });
    }
    Ok(())
}

/// The engine report inside a result, where it has one.
fn report_of(out: &RunOutput) -> Option<&RunReport> {
    match out {
        RunOutput::Report(r) => Some(r),
        RunOutput::FaultCell(c) => Some(&c.report),
        RunOutput::ChaosCell(c) => Some(&c.report),
        _ => None,
    }
}

/// A runner over `dir`'s cache.
fn runner_on(dir: &Path, jobs: usize) -> Runner {
    Runner::new(RunnerConfig {
        jobs,
        cache_dir: Some(dir.join(".cache")),
        guard: GuardPolicy::default(),
    })
}

/// One directory's life: set up by a cold and a warm `repro-all`, then
/// read back through the runner for [`WARM_SECONDS`].
struct Pass {
    /// Host nanoseconds of the set-up: the directory, the descriptor
    /// plan, and the two child processes.
    setup_ns: f64,
    cold_ns: f64,
    warm_child_ns: f64,
    /// Host nanoseconds of each timed `run_all`.
    run_all_ns: Vec<f64>,
    rss_mb: f64,
    /// What the last `run_all` returned, in request order.
    outputs: Vec<RunOutput>,
}

fn pass(n: usize, reqs: &[RunRequest], out: &mut Outcome) -> Result<Pass, Box<dyn Error>> {
    let uniques = unique(reqs).len();
    let dir = run_dir().join(format!("pass{n}"));
    let t = Instant::now();
    std::fs::create_dir_all(&dir)?;
    let planned = requests(&small_args(&dir))?.len();
    let plan_ns = t.elapsed().as_nanos() as f64;
    let cold = run_child(&dir)?;
    out.op(cold.cached == 0 && cold.fresh == uniques && planned == reqs.len(), || {
        format!("cold run {n}: {} fresh, {} cached, {uniques} unique", cold.fresh, cold.cached)
    });
    check_golden(&dir, out)?;
    let warm = run_child(&dir)?;
    out.op(warm.fresh == 0 && warm.cached == uniques, || {
        format!("warm rerun {n}: {} fresh, {} cached", warm.fresh, warm.cached)
    });
    check_golden(&dir, out)?;

    let mut run_all_ns = Vec::new();
    let mut outputs = Vec::new();
    let mut fresh = 0;
    let started = Instant::now();
    while run_all_ns.len() < 100 || started.elapsed().as_secs_f64() < WARM_SECONDS {
        let runner = runner_on(&dir, JOBS);
        let t = Instant::now();
        outputs = runner.run_all(reqs)?;
        run_all_ns.push(t.elapsed().as_nanos() as f64);
        fresh += runner.fresh_runs();
    }
    out.op(fresh == 0, || format!("{fresh} results were missing from pass {n}'s warm cache"));
    std::fs::remove_dir_all(&dir)?;
    Ok(Pass {
        setup_ns: plan_ns + cold.process_ns + warm.process_ns,
        cold_ns: cold.wall_ns,
        warm_child_ns: warm.wall_ns,
        run_all_ns,
        rss_mb: cold.rss_mb.max(warm.rss_mb),
        outputs,
    })
}

/// Measures `repro_small` end to end and records every end-to-end metric.
///
/// # Errors
///
/// Returns an error if a child fails or the golden list cannot be read.
pub fn run(seconds: f64, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let reqs = requests(&small_args(&run_dir()))?;
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        passes.push(pass(passes.len(), &reqs, out)?);
    }
    let last = passes.last().ok_or("no pass ran")?;

    // What the artifacts were computed from: exact, the same every pass.
    let (mut instr, mut switches, mut cycles, mut misses) = (0u64, 0u64, 0u64, 0u64);
    let mut model_errs = Vec::new();
    let mut seen = BTreeSet::new();
    for (req, output) in reqs.iter().zip(&last.outputs) {
        if !seen.insert(cache_key(&req.kind)) {
            continue;
        }
        if let Some(r) = report_of(output) {
            instr += r.total_instructions;
            switches += r.context_switches;
            cycles += r.total_cycles;
            misses += r.total_l2_misses;
        }
        if let RunOutput::Trace(trace) = output {
            let probe = PredictionProbe {
                sum_abs_err: trace.samples.iter().map(|s| (s.predicted - s.observed).abs()).sum(),
                sum_observed: trace.samples.iter().map(|s| s.observed).sum(),
                samples: trace.samples.len() as u64,
            };
            model_errs.push(probe.relative_err());
        }
    }
    out.op(!model_errs.is_empty(), || "no monitored trace among the results".to_string());

    // A call is two threads, file reads and hashing: now and then one
    // comes through far faster than the rest, and the fastest of
    // thousands moves by 10 % between runs where their median moves by 3.
    let readings: Vec<f64> = passes.iter().flat_map(|p| p.run_all_ns.iter().copied()).collect();
    let run_all_ns = stats::median(&readings);
    let fastest = |f: fn(&Pass) -> f64| stats::min(&passes.iter().map(f).collect::<Vec<_>>());
    out.metric("setup_s", fastest(|p| p.setup_ns) / 1e9);
    // The results of this many simulated instructions and switches are
    // delivered by one warm `run_all`: read back, verified, decoded.
    out.metric("sim_minstr_per_host_s", instr as f64 / run_all_ns * 1e3);
    out.metric("host_ns_per_switch", run_all_ns / switches as f64);
    out.metric("sim_cycles_per_instr", cycles as f64 / instr as f64);
    out.metric("sim_l2_mpki", misses as f64 * 1e3 / instr as f64);
    out.metric(
        "model_abs_rel_err",
        model_errs.iter().sum::<f64>() / model_errs.len().max(1) as f64,
    );
    let children = passes.iter().map(|p| p.rss_mb).fold(0.0, f64::max);
    out.metric("peak_rss_mb", children.max(check::peak_rss_mb()?));
    println!(
        "repro_small: {} passes over {} descriptors ({} unique), {JOBS} jobs on {} host cpus; \
         fastest cold repro-all {:.3} s and warm {:.1} ms; median of {} warm run_all {:.3} ms",
        passes.len(),
        reqs.len(),
        unique(&reqs).len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        fastest(|p| p.cold_ns) / 1e9,
        fastest(|p| p.warm_child_ns) / 1e6,
        readings.len(),
        run_all_ns / 1e6
    );
    Ok(())
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

/// The traced run of `repro_small`: spans around every call into the
/// runner, in process, plus the probes no engine workload owns.
///
/// # Errors
///
/// Returns an error if a run, a child or an output file fails.
pub fn trace(out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let mut spans = Spans::new();
    let dir = run_dir().join("traced");
    std::fs::create_dir_all(&dir)?;
    let args = small_args(&dir);

    let mut requests_ns = Vec::new();
    let mut reqs = Vec::new();
    for _ in 0..5 {
        let id = spans.enter("repro.requests", "all");
        reqs = requests(&args)?;
        requests_ns.push(spans.exit(id));
    }
    let uniques = unique(&reqs);
    out.metric("repro.requests_ms", stats::min(&requests_ns) / 1e6);
    out.metric("repro.descriptors", reqs.len() as f64);
    out.metric("repro.unique_descriptors", uniques.len() as f64);

    // The runner alone, in process: cold fills the cache, warm reads it.
    let cold = runner_on(&dir, JOBS);
    let id = spans.enter("repro.run_all", "cold");
    cold.run_all(&reqs)?;
    let run_all_cold_ns = spans.exit(id);
    out.op(cold.fresh_runs() == uniques.len() && cold.cached_runs() == 0, || {
        format!("in-process cold run: {} fresh, {} cached", cold.fresh_runs(), cold.cached_runs())
    });
    out.metric("repro.run_all_cold_s", run_all_cold_ns / 1e9);
    out.metric("repro.fresh_runs", cold.fresh_runs() as f64);
    let mut run_all_warm_ns = Vec::new();
    let mut cached = 0;
    for _ in 0..5 {
        let warm = runner_on(&dir, JOBS);
        let id = spans.enter("repro.run_all", "warm");
        warm.run_all(&reqs)?;
        run_all_warm_ns.push(spans.exit(id));
        out.op(warm.fresh_runs() == 0, || format!("warm run_all ran {} fresh", warm.fresh_runs()));
        cached = warm.cached_runs();
    }
    let run_all_warm = stats::min(&run_all_warm_ns);
    out.metric("repro.run_all_warm_ms", run_all_warm / 1e6);
    out.metric("repro.cached_runs", cached as f64);
    out.metric("repro.cache_load_us_per_entry", run_all_warm / 1e3 / cached.max(1) as f64);
    out.metric("repro.cache_bytes", dir_bytes(&dir.join(".cache"))? as f64);

    // Every unique descriptor on one thread: what the two workers share.
    let (mut serial_ns, mut longest_ns) = (0.0, 0.0f64);
    for req in &uniques {
        let id = spans.enter("repro.execute", &req.label);
        let result = runner::execute(&req.kind);
        let ns = spans.exit(id);
        out.op(result.is_ok(), || format!("execute {}: {}", req.label, result.unwrap_err()));
        serial_ns += ns;
        longest_ns = longest_ns.max(ns);
    }
    out.metric("repro.serial_exec_s", serial_ns / 1e9);
    out.metric("repro.longest_cell_s", longest_ns / 1e9);
    out.metric("repro.parallel_efficiency", serial_ns / (JOBS as f64 * run_all_cold_ns));

    // The whole job as users run it, for what is left after the runner:
    // tables, CSV writes, the summary print.
    let child_dir = run_dir().join("traced-child");
    std::fs::create_dir_all(&child_dir)?;
    let id = spans.enter("repro.child", "cold");
    let child_cold = run_child(&child_dir)?;
    spans.exit(id);
    out.op(child_cold.fresh == uniques.len(), || format!("child ran {} fresh", child_cold.fresh));
    let mut child_warm_ns = Vec::new();
    for _ in 0..5 {
        let id = spans.enter("repro.child", "warm");
        let warm = run_child(&child_dir)?;
        spans.exit(id);
        out.op(warm.fresh == 0, || format!("warm child ran {} fresh", warm.fresh));
        child_warm_ns.push(warm.wall_ns);
    }
    check_golden(&child_dir, out)?;
    let child_warm = stats::min(&child_warm_ns);
    out.metric("repro.cold_wall_s", child_cold.wall_ns / 1e9);
    out.metric("repro.warm_wall_ms", child_warm / 1e6);
    out.metric("repro.emit_ms", (child_warm - run_all_warm - stats::min(&requests_ns)) / 1e6);

    let id = spans.enter("repro.sha256", "probe");
    out.metric("repro.sha256_mb_per_s", probes::sha256_mb_per_s());
    spans.exit(id);
    let id = spans.enter("analysis.explore", "probe");
    let (us_per_schedule, schedules) = probes::explore();
    spans.exit(id);
    out.metric("analysis.explore_us_per_schedule", us_per_schedule);
    out.metric("analysis.schedules", schedules);
    let id = spans.enter("trace.sink", "probe");
    let (record_ns, jsonl_mb_per_s) = probes::trace_sink();
    spans.exit(id);
    out.metric("trace.sink_record_ns", record_ns);
    out.metric("trace.export_jsonl_mb_per_s", jsonl_mb_per_s);
    // Monitored fig5-7 cells scan a full E-cache at every switch.
    let ultra1 = MachineConfig::ultra1();
    out.metric("sim.footprint_query_us", probes::footprint_query_us(&ultra1)?);
    out.metric("sim.machine_new_us", probes::machine_new_us(&ultra1));

    spans.write_jsonl(&bench_dir().join(".run/spans-repro_small.jsonl"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_repeat_across_figures_and_dedupe() {
        let reqs = requests(&small_args(Path::new("unused"))).unwrap();
        let uniques = unique(&reqs);
        assert!(uniques.len() < reqs.len(), "figures share descriptors");
        let mut keys: Vec<String> = uniques.iter().map(|r| cache_key(&r.kind)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), uniques.len());
    }

    #[test]
    fn the_golden_list_is_where_the_harness_looks() {
        assert!(golden_path().is_file(), "{}", golden_path().display());
    }
}
