//! The `repro trace` driver: run a monitored application with the
//! locality-trace sink installed, export the event stream (JSONL and
//! Chrome `trace_event`), and write the aggregated trace metrics as CSV.
//! Each app runs once and nothing is cached: the metrics row, the
//! histograms and the exported records all come from that one run, so
//! they describe the same events by construction.
//!
//! The protocol is the Figure 5/6/7 monitor protocol (`--workload` picks
//! the app, Ultra-1, bin-hopping VM) with the scheduling policy opened
//! up via `--policy` — so the per-thread prediction-error statistic the
//! trace aggregates matches the existing fig5 summary for the same
//! `(app, seed)` under LFF.
//!
//! Artifacts per traced app, all pure functions of the seeded run:
//!
//! * `trace_<app>.jsonl` — one JSON object per retained event;
//! * `trace_<app>.chrome.json` — Chrome `trace_event` document (opens in
//!   Perfetto / `chrome://tracing`), one track per CPU and per thread;
//! * a row in `trace_metrics.csv` plus per-app histogram CSVs
//!   (`trace_hist_<app>.csv`).

use crate::args::{keyword, keyword_or_all, Args, Scale};
use crate::error::ReproError;
use crate::monitor::{monitored_engine, sample_footprints};
use crate::runner::in_parallel;
use crate::table::Table;
use active_threads::SchedPolicy;
use locality_sim::PagePlacement;
use locality_trace::{Histogram, Record, TraceAggregate, HIST_BUCKETS};
use locality_workloads::App;

/// Parses the `--policy` keyword (default `lff`, the paper's monitored
/// configuration).
///
/// # Errors
///
/// Returns [`ReproError::Usage`] for anything but `fcfs`/`lff`/`crt`.
pub fn policy_from_args(args: &Args) -> Result<SchedPolicy, ReproError> {
    let table = [SchedPolicy::Fcfs, SchedPolicy::Lff, SchedPolicy::Crt].map(|p| (p.name(), p));
    args.policy.as_deref().map_or(Ok(SchedPolicy::Lff), |v| keyword("policy", v, &table))
}

/// Parses the `--workload` keyword into the list of apps to trace. The
/// default depends on scale: `--scale small` traces only the quick
/// mergesort worker (the CI smoke configuration); `--scale paper`
/// traces every monitored application (Figures 5 and 7).
///
/// # Errors
///
/// Returns [`ReproError::Usage`] for an unknown app name.
pub fn apps_from_args(args: &Args) -> Result<Vec<App>, ReproError> {
    let all: Vec<App> = App::FIG5.iter().chain(App::FIG7.iter()).copied().collect();
    match (args.workload.as_deref(), args.scale) {
        (Some(value), _) => keyword_or_all("workload", value, &all, App::name),
        (None, Scale::Paper) => Ok(all),
        (None, Scale::Small) => Ok(vec![App::Merge]),
    }
}

/// One completed traced run: the retained event records plus the online
/// aggregate and the monitored work thread it reports on.
#[derive(Debug)]
pub struct TracedRun {
    /// The traced application.
    pub app: App,
    /// Retained event records, oldest first.
    pub records: Vec<Record>,
    /// The aggregated metrics (exact even if `records` wrapped).
    pub aggregate: TraceAggregate,
    /// Event records lost to ring wrap-around.
    pub dropped: u64,
    /// The monitored work thread, whose relative error is reported.
    pub tid: u64,
}

/// Runs `app`'s monitored work thread (Ultra-1, bin-hopping VM, the
/// fig5 protocol) with a trace sink installed and returns the records
/// and the aggregate.
///
/// # Errors
///
/// Returns the engine's error if the run cannot complete.
pub fn traced_run(app: App, policy: SchedPolicy, seed: u64) -> Result<TracedRun, ReproError> {
    let (mut engine, tid) = monitored_engine(app, PagePlacement::bin_hopping(), policy, seed)?;
    // Observed vs predicted footprint of the monitored thread at each of
    // its context switches, exactly the fig5 measurement, as
    // `PredictionSample` events. Sampling is this driver's choice, not
    // an emission point inside the engine: keeping the ground-truth
    // counters current costs a region lookup per E-cache fill and
    // eviction, which plainly-traced engine runs must not pay.
    sample_footprints(&mut engine, Some(tid), |(): &mut (), ev, _, lines, exp| {
        locality_trace::emit_with(|| locality_trace::TraceEvent::PredictionSample {
            cpu: ev.cpu as u32,
            tid: ev.tid.0,
            observed: lines as f64,
            predicted: exp.unwrap_or(0.0),
        });
    });
    locality_trace::install(locality_trace::sink::DEFAULT_CAPACITY);
    let run = engine.run();
    let Some(sink) = locality_trace::take() else {
        return Err(ReproError::MissingResult("trace sink installed above".to_string()));
    };
    run?;
    Ok(TracedRun {
        app,
        records: sink.records(),
        aggregate: sink.aggregate().clone(),
        dropped: sink.dropped(),
        tid: tid.0,
    })
}

/// The metrics table: one row per traced run.
fn metrics_table(policy: SchedPolicy, runs: &[TracedRun]) -> Result<Table, ReproError> {
    let mut t = Table::new(
        "trace metrics — monitored work thread, Ultra-1, bin-hopping VM",
        &[
            "app",
            "policy",
            "events",
            "intervals",
            "dropped",
            "mode transitions",
            "mean abs err (lines)",
            "abs err samples",
            "mean rel err",
            "rel err samples",
        ],
    );
    for TracedRun { app, aggregate: a, dropped, tid, .. } in runs {
        t.row(&[
            app.name().to_string(),
            policy.name().to_string(),
            a.events.to_string(),
            a.intervals.to_string(),
            dropped.to_string(),
            a.mode_transitions.to_string(),
            format!("{:.3}", a.mean_abs_error()),
            a.abs_samples().to_string(),
            format!("{:+.6}", a.mean_rel_error(*tid)),
            a.rel_samples(*tid).to_string(),
        ])?;
    }
    Ok(t)
}

/// One app's histogram table: bucket lower bounds against the four
/// aggregated distributions.
fn hist_table(app: App, a: &TraceAggregate) -> Result<Table, ReproError> {
    let mut t = Table::new(
        &format!("trace histograms: {}", app.name()),
        &["bucket floor", "interval misses", "ready depth", "update fanout", "abs err (lines)"],
    );
    let hists = [&a.miss_hist, &a.depth_hist, &a.fanout_hist, &a.abs_err_hist];
    for i in 0..HIST_BUCKETS {
        let row = hists.map(|h| h.buckets()[i]);
        if row.iter().all(|&c| c == 0) {
            continue;
        }
        t.row(&[
            Histogram::bucket_floor(i).to_string(),
            row[0].to_string(),
            row[1].to_string(),
            row[2].to_string(),
            row[3].to_string(),
        ])?;
    }
    Ok(t)
}

/// The full `trace` driver: run each app once, export, write CSVs.
///
/// # Errors
///
/// Returns [`ReproError::Usage`] for a bad `--policy`/`--workload`
/// value, or the first run/output error.
pub fn run_trace(args: &Args) -> Result<(), ReproError> {
    let policy = policy_from_args(args)?;
    let apps = apps_from_args(args)?;

    // In app order, whatever `--jobs` is (each run's sink is
    // thread-local, so runs never share trace state): every file below
    // is byte-identical across invocations and `--jobs` values.
    let runs: Vec<TracedRun> =
        in_parallel(args.jobs, &apps, |&app| traced_run(app, policy, app.default_seed()))
            .into_iter()
            .collect::<Result<_, _>>()?;

    let metrics = metrics_table(policy, &runs)?;
    metrics.print();
    metrics.write_csv(&args.csv_path("trace_metrics.csv")?)?;
    for run in &runs {
        let name = run.app.name();
        hist_table(run.app, &run.aggregate)?
            .write_csv(&args.csv_path(&format!("trace_hist_{name}.csv"))?)?;
        std::fs::write(
            args.csv_path(&format!("trace_{name}.jsonl"))?,
            locality_trace::export::to_jsonl(&run.records),
        )?;
        std::fs::write(
            args.csv_path(&format!("trace_{name}.chrome.json"))?,
            locality_trace::export::to_chrome(&run.records),
        )?;
        say!(
            "{name}: {} events recorded ({} retained, {} dropped) -> trace_{name}.jsonl, \
             trace_{name}.chrome.json",
            run.aggregate.events,
            run.records.len(),
            run.dropped
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_trace::export::{to_chrome, to_jsonl};

    fn args_with(workload: Option<&str>, policy: Option<&str>, scale: Scale) -> Args {
        Args {
            scale,
            workload: workload.map(str::to_string),
            policy: policy.map(str::to_string),
            ..Args::default()
        }
    }

    #[test]
    fn policy_keyword_parses_and_rejects() {
        let parse = |p| policy_from_args(&args_with(None, p, Scale::Small));
        assert_eq!(parse(None).unwrap(), SchedPolicy::Lff);
        assert_eq!(parse(Some("fcfs")).unwrap(), SchedPolicy::Fcfs);
        assert_eq!(parse(Some("crt")).unwrap(), SchedPolicy::Crt);
        assert!(matches!(parse(Some("lifo")), Err(ReproError::Usage(_))));
    }

    #[test]
    fn workload_keyword_selects_apps() {
        let apps = |w, s| apps_from_args(&args_with(w, None, s));
        assert_eq!(apps(None, Scale::Small).unwrap(), vec![App::Merge]);
        assert_eq!(apps(None, Scale::Paper).unwrap().len(), 8);
        assert_eq!(apps(Some("all"), Scale::Small).unwrap().len(), 8);
        assert_eq!(apps(Some("barnes"), Scale::Paper).unwrap(), vec![App::Barnes]);
        assert!(matches!(apps(Some("doom"), Scale::Paper), Err(ReproError::Usage(_))));
    }

    #[test]
    fn seeded_runs_export_byte_identical_traces() {
        let seed = App::Merge.default_seed();
        let a = traced_run(App::Merge, SchedPolicy::Lff, seed).unwrap();
        let b = traced_run(App::Merge, SchedPolicy::Lff, seed).unwrap();
        assert!(a.aggregate.events > 0);
        assert_eq!((&a.aggregate, a.dropped), (&b.aggregate, b.dropped));
        assert_eq!(to_jsonl(&a.records), to_jsonl(&b.records));
        assert_eq!(to_chrome(&a.records), to_chrome(&b.records));
    }

    #[test]
    fn run_trace_writes_one_uncached_runs_records_and_their_aggregate() {
        let out = std::env::temp_dir().join(format!("repro-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let args = Args { out: out.clone(), jobs: 1, ..args_with(None, None, Scale::Small) };
        run_trace(&args).unwrap();
        assert!(!out.join(".cache").exists(), "nothing of a trace is cached");

        // The very records exported, through a sink of their own:
        // its aggregate is what the two CSVs must say.
        let run = traced_run(App::Merge, SchedPolicy::Lff, App::Merge.default_seed()).unwrap();
        let read = |name: &str| std::fs::read_to_string(out.join(name)).unwrap();
        assert_eq!(read("trace_merge.jsonl"), to_jsonl(&run.records));
        let mut sink = locality_trace::TraceSink::new(locality_trace::sink::DEFAULT_CAPACITY);
        let mut monitored = None;
        for r in &run.records {
            if let locality_trace::TraceEvent::PredictionSample { tid, .. } = r.event {
                monitored = Some(tid);
            }
            sink.set_clock(r.clock);
            sink.record(r.event);
        }
        let tid = monitored.expect("the run samples its monitored thread");
        let aggregate = sink.aggregate().clone();
        assert!(aggregate.rel_samples(tid) > 0 && sink.dropped() == 0, "{aggregate:?}");
        let hist = hist_table(App::Merge, &aggregate).unwrap();
        let replayed =
            [TracedRun { app: App::Merge, records: Vec::new(), aggregate, dropped: 0, tid }];
        let metrics = metrics_table(SchedPolicy::Lff, &replayed).unwrap();
        assert_eq!(read("trace_metrics.csv"), metrics.to_csv());
        assert_eq!(read("trace_hist_merge.csv"), hist.to_csv());
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn trace_rel_error_matches_fig5_statistic() {
        // The aggregate's relative-error statistic must agree with
        // the MonitorTrace statistic the fig5 summary reports, for
        // the same (app, placement, seed) under LFF.
        let seed = App::Merge.default_seed();
        let run = traced_run(App::Merge, SchedPolicy::Lff, seed).unwrap();
        let monitor = crate::monitor::monitor_app_seeded(
            App::Merge,
            locality_sim::PagePlacement::bin_hopping(),
            seed,
        )
        .unwrap();
        let rel = run.aggregate.mean_rel_error(run.tid);
        assert!(run.aggregate.rel_samples(run.tid) > 0, "no qualifying prediction samples");
        assert!(
            (rel - monitor.mean_rel_error()).abs() < 1e-9,
            "trace {rel} vs fig5 {}",
            monitor.mean_rel_error()
        );
    }

    #[test]
    fn traced_run_records_the_full_event_palette() {
        let run = traced_run(App::Merge, SchedPolicy::Lff, App::Merge.default_seed()).unwrap();
        let kinds: std::collections::BTreeSet<&str> =
            run.records.iter().map(|r| r.event.kind()).collect();
        for kind in ["interval-begin", "interval-end", "dispatch", "pic-read", "prediction-sample"]
        {
            assert!(kinds.contains(kind), "missing {kind} in {kinds:?}");
        }
        // Clocks are monotone per record order up to same-cycle
        // batches on one CPU (single-cpu protocol).
        let mut prev = 0;
        for r in &run.records {
            assert!(r.clock >= prev, "clock went backwards");
            prev = r.clock;
        }
    }

    #[test]
    fn hot_path_events_per_interval_stay_within_budget() {
        // The tracing budget as a work counter: this run emits 3904
        // events over 488 intervals, eight a scheduling interval and
        // none per reference. An emission point that fires per
        // probe or per reference multiplies this integer. No footprint
        // sampler: what the emission points inside the engine, the
        // scheduler and the simulator record on their own.
        let (mut engine, _) = monitored_engine(
            App::Merge,
            PagePlacement::bin_hopping(),
            SchedPolicy::Lff,
            App::Merge.default_seed(),
        )
        .unwrap();
        locality_trace::install(locality_trace::sink::DEFAULT_CAPACITY);
        let run = engine.run();
        let sink = locality_trace::take().expect("sink installed above");
        run.unwrap();
        let (events, intervals) = (sink.events_emitted(), sink.aggregate().intervals);
        assert!(intervals > 0, "the run recorded no intervals");
        assert!(events > 0, "the instrumented run recorded no events");
        assert!(
            events <= 8 * intervals,
            "{events} events over {intervals} intervals exceeds 8 per interval"
        );
    }

    #[test]
    fn chrome_export_is_valid_enough_for_viewers() {
        let run = traced_run(App::Merge, SchedPolicy::Lff, App::Merge.default_seed()).unwrap();
        let text = to_chrome(&run.records);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert!(text.contains("\"ph\":\"X\""));
    }
}
