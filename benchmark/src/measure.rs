//! The end-to-end run of an engine workload: tracing off, closed loop,
//! one cell after another, pass after pass, for `--seconds` seconds.

use crate::cells::{self, Cell, Workload};
use crate::check;
use crate::report::Outcome;
use crate::stats;
use active_threads::events::EngineView;
use active_threads::{EngineHook, RunReport, SwitchEvent};
use locality_repro::experiments::PredictionProbe;
use locality_sim::FootprintScratch;
use std::cell::RefCell;
use std::error::Error;
use std::rc::Rc;
use std::time::Instant;

/// Passes every run makes however short `--seconds` is: the first pays
/// for lazy set-up, and a window needs a second and third reading before
/// its minimum means anything.
const MIN_PASSES: usize = 3;

/// The only observer in a timed run: reads the host clock at every
/// `stride`-th context switch, so that `Engine::run` splits into windows
/// of identical simulated work across passes (see
/// [`stats::window_min_sum`]). `bench.clock_hook_ns_per_switch` in the
/// traced run is what it costs.
pub struct ClockHook {
    stride: u64,
    switches: u64,
    stamps: Rc<RefCell<Vec<Instant>>>,
}

impl ClockHook {
    /// A hook and the shared list its readings go to.
    pub fn new(stride: u64) -> (Self, Rc<RefCell<Vec<Instant>>>) {
        let stamps = Rc::new(RefCell::new(Vec::with_capacity(4096)));
        (ClockHook { stride: stride.max(1), switches: 0, stamps: stamps.clone() }, stamps)
    }
}

impl EngineHook for ClockHook {
    fn on_context_switch(&mut self, _event: &SwitchEvent, _view: &EngineView<'_>) {
        self.switches += 1;
        if self.switches.is_multiple_of(self.stride) {
            self.stamps.borrow_mut().push(Instant::now());
        }
    }
}

/// One timed run of one cell.
pub struct TimedRun {
    /// The engine's report.
    pub report: RunReport,
    /// Threads created before `Engine::run`.
    pub spawned: u64,
    /// Host nanoseconds of `Engine::new` + `spawn_*`.
    pub setup_ns: f64,
    /// Host nanoseconds of `Engine::run`, window by window.
    pub windows: Vec<f64>,
}

/// Builds, spawns and runs `cell` once under the clock hook.
///
/// # Errors
///
/// Returns the engine's error if the cell cannot be built or run.
pub fn run_timed(cell: &Cell) -> Result<TimedRun, Box<dyn Error>> {
    let t0 = Instant::now();
    let mut engine = cell.new_engine()?;
    let spawned = cell.spawn_into(&mut engine);
    let setup_ns = t0.elapsed().as_nanos() as f64;
    let (hook, stamps) = ClockHook::new(cell.stride);
    engine.add_hook(Box::new(hook));
    let start = Instant::now();
    let report = engine.run()?;
    let end = Instant::now();
    let mut windows = Vec::with_capacity(stamps.borrow().len() + 1);
    let mut prev = start;
    for &t in stamps.borrow().iter() {
        windows.push((t - prev).as_nanos() as f64);
        prev = t;
    }
    windows.push((end - prev).as_nanos() as f64);
    Ok(TimedRun { report, spawned, setup_ns, windows })
}

/// Every pass's readings of one cell.
#[derive(Default)]
struct CellSamples {
    first: Option<RunReport>,
    setups: Vec<f64>,
    windows: Vec<Vec<f64>>,
}

/// Sums `|predicted - observed|` and `observed` footprints (in lines)
/// of the thread leaving the processor, at every `stride`-th switch:
/// `repro`'s own prediction hook samples every switch, which a cell of
/// 40 000 switches cannot afford.
struct ModelHook {
    stride: u64,
    switches: u64,
    scratch: FootprintScratch,
    probe: Rc<RefCell<PredictionProbe>>,
}

impl EngineHook for ModelHook {
    fn on_context_switch(&mut self, event: &SwitchEvent, view: &EngineView<'_>) {
        self.switches += 1;
        if !self.switches.is_multiple_of(self.stride) {
            return;
        }
        view.machine.l2_footprints_into(event.cpu, &mut self.scratch);
        let observed = self.scratch.lines(event.tid) as f64;
        let predicted = view.sched.expected_footprint(event.cpu, event.tid).unwrap_or(0.0);
        let mut probe = self.probe.borrow_mut();
        probe.sum_abs_err += (predicted - observed).abs();
        probe.sum_observed += observed;
        probe.samples += 1;
    }
}

/// Mean over `cells` of [`PredictionProbe::relative_err`], the sum of
/// absolute prediction errors over the sum of observed footprints: the
/// model's accuracy against the simulator, which every speed figure is
/// quoted beside. Weighting by footprint keeps near-empty caches, where
/// any relative error is huge and meaningless, from drowning the rest.
/// Untimed; simulated, so it repeats exactly for a seed.
///
/// # Errors
///
/// Returns the engine's error if a cell cannot be built or run.
pub fn model_abs_rel_err(cells: &[Cell], out: &mut Outcome) -> Result<f64, Box<dyn Error>> {
    let mut errs = Vec::new();
    for cell in cells {
        let mut engine = cell.new_engine()?;
        let spawned = cell.spawn_into(&mut engine);
        let probe = Rc::new(RefCell::new(PredictionProbe::default()));
        engine.add_hook(Box::new(ModelHook {
            stride: cell.model_stride,
            switches: 0,
            scratch: FootprintScratch::new(),
            probe: probe.clone(),
        }));
        let report = engine.run()?;
        let verdict = check::run_is_complete(&report, spawned);
        out.op(verdict.is_ok(), || format!("model pass {}: {}", cell.label, verdict.unwrap_err()));
        let probe = *probe.borrow();
        out.op(probe.samples > 0, || format!("model pass {}: no switch was sampled", cell.label));
        errs.push(probe.relative_err());
    }
    let listed: Vec<String> =
        cells.iter().zip(&errs).map(|(c, e)| format!("{} {e:.3}", c.label)).collect();
    println!("model error by cell: {}", listed.join(", "));
    Ok(errs.iter().sum::<f64>() / errs.len().max(1) as f64)
}

/// Measures an engine workload end to end and records every end-to-end
/// metric in `out`.
///
/// # Errors
///
/// Returns the engine's error if a cell cannot be built or run.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    // The untimed accuracy pass goes first and doubles as the warm-up.
    let err = model_abs_rel_err(&cells::model_cells(workload, seed)?, out)?;
    out.metric("model_abs_rel_err", err);

    let cells = cells::cells(workload, seed)?;
    let mut samples: Vec<CellSamples> = cells.iter().map(|_| CellSamples::default()).collect();
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        for (cell, s) in cells.iter().zip(&mut samples) {
            let run = run_timed(cell)?;
            let verdict = check::run_is_complete(&run.report, run.spawned).and_then(|()| {
                s.first.as_ref().map_or(Ok(()), |first| check::same_report(first, &run.report))
            });
            out.op(verdict.is_ok(), || {
                format!("{} pass {passes}: {}", cell.label, verdict.unwrap_err())
            });
            s.setups.push(run.setup_ns);
            s.windows.push(run.windows);
            s.first.get_or_insert(run.report);
        }
        passes += 1;
    }

    let (mut host_ns, mut setup_ns) = (0.0, 0.0);
    let (mut instr, mut switches, mut cycles, mut misses) = (0u64, 0u64, 0u64, 0u64);
    for (cell, s) in cells.iter().zip(&samples) {
        let combined = stats::window_min_sum(&s.windows);
        out.op(combined.is_some(), || {
            format!("{}: passes split into different windows", cell.label)
        });
        // Whole runs are still comparable when the windows are not.
        host_ns += combined.unwrap_or_else(|| {
            stats::min(&s.windows.iter().map(|w| w.iter().sum()).collect::<Vec<f64>>())
        });
        setup_ns += stats::min(&s.setups);
        if let Some(r) = &s.first {
            instr += r.total_instructions;
            switches += r.context_switches;
            cycles += r.total_cycles;
            misses += r.total_l2_misses;
        }
    }
    out.metric("setup_s", setup_ns / 1e9);
    out.metric("sim_minstr_per_host_s", instr as f64 / host_ns * 1e3);
    out.metric("host_ns_per_switch", host_ns / switches as f64);
    out.metric("sim_cycles_per_instr", cycles as f64 / instr as f64);
    out.metric("sim_l2_mpki", misses as f64 * 1e3 / instr as f64);
    out.metric("peak_rss_mb", check::peak_rss_mb()?);
    println!(
        "{}: {passes} passes of {} cells in {:.1} s; windowed host time {:.3} s a pass",
        workload.name(),
        cells.len(),
        started.elapsed().as_secs_f64(),
        host_ns / 1e9
    );
    Ok(())
}
