//! The Figure 5/6/7 measurement harness: monitor a single work thread's
//! footprint (observed vs model-predicted) and miss rate as it executes.
//!
//! Mirrors the paper's §3.3 protocol: the application's data structures
//! are built during an initialization stage (no cache traffic — the
//! caches start cold, i.e. "the work threads' state is flushed"); the
//! work thread then runs on processor 0, yielding between batches, and a
//! scheduling-event hook samples at every context switch:
//!
//! * the **observed** footprint — resident E-cache lines belonging to the
//!   thread's registered state (the simulator-only ground truth, read
//!   from the machine's incrementally tracked counters, which
//!   `tests/footprint_tracking.rs` holds to the full E-cache scan at
//!   every sample);
//! * the **predicted** footprint — the LFF estimator's expected value,
//!   driven purely by the performance counters (and annotations, were
//!   there any);
//! * cumulative misses and instructions (for the MPI series of Fig. 6).

use active_threads::events::EngineView;
use active_threads::{
    Engine, EngineConfig, EngineHook, RuntimeError, SchedPolicy, SwitchEvent, ThreadId,
};
use locality_sim::MachineConfig;
use locality_workloads::App;
use std::cell::RefCell;
use std::rc::Rc;

/// One sample of the monitored thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Cumulative E-cache misses of the monitored thread.
    pub misses: u64,
    /// Cumulative instructions executed.
    pub instructions: u64,
    /// Ground-truth footprint in lines.
    pub observed: f64,
    /// Model-predicted footprint in lines.
    pub predicted: f64,
}

/// The completed trace of a monitored run.
#[derive(Debug, Clone)]
pub struct MonitorTrace {
    /// Application name.
    pub app: &'static str,
    /// The samples, one per context switch.
    pub samples: Vec<Sample>,
}

impl MonitorTrace {
    /// Mean relative prediction error over samples with ≥ 64 observed
    /// lines (tiny footprints make relative error meaningless).
    pub fn mean_rel_error(&self) -> f64 {
        let pts: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.observed >= 64.0)
            .map(|s| (s.predicted - s.observed) / s.observed)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<f64>() / pts.len() as f64
        }
    }

    /// The last sample (end of the run).
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Downsamples to at most `n` evenly spaced samples (for printing).
    pub fn thin(&self, n: usize) -> Vec<Sample> {
        if self.samples.len() <= n || n == 0 {
            return self.samples.clone();
        }
        let step = self.samples.len() as f64 / n as f64;
        (0..n).map(|i| self.samples[(i as f64 * step) as usize]).collect()
    }
}

struct FootprintSampler<T, F> {
    only: Option<ThreadId>,
    log: Rc<RefCell<T>>,
    on_sample: F,
}

impl<T, F> EngineHook for FootprintSampler<T, F>
where
    F: FnMut(&mut T, &SwitchEvent, &EngineView<'_>, u64, Option<f64>),
{
    fn on_context_switch(&mut self, ev: &SwitchEvent, view: &EngineView<'_>) {
        if self.only.is_some_and(|tid| tid != ev.tid) {
            return;
        }
        let observed = view.machine.l2_footprint_lines(ev.cpu, ev.tid);
        let predicted = view.sched.expected_footprint(ev.cpu, ev.tid);
        (self.on_sample)(&mut self.log.borrow_mut(), ev, view, observed, predicted);
    }
}

/// Installs the one footprint-sampling hook: at every context switch
/// (of `only`, when given) `on_sample` gets the accumulator, the event,
/// the view, the leaving thread's ground-truth footprint in lines and
/// the scheduler's prediction (`None` under FCFS). Returns the
/// accumulator, which the caller takes after the run.
///
/// Installing switches the machine's footprint tracking on, so a sample
/// is one counter read instead of an E-cache scan — at the price of a
/// region lookup per E-cache fill and eviction, which is why runs that
/// sample nothing never pay it.
pub(crate) fn sample_footprints<T: Default + 'static>(
    engine: &mut Engine,
    only: Option<ThreadId>,
    on_sample: impl FnMut(&mut T, &SwitchEvent, &EngineView<'_>, u64, Option<f64>) + 'static,
) -> Rc<RefCell<T>> {
    engine.machine_mut().track_footprints();
    let log = Rc::new(RefCell::default());
    engine.add_hook(Box::new(FootprintSampler { only, log: log.clone(), on_sample }));
    log
}

/// The Figure 5/6/7 set-up: a single simulated UltraSPARC-1 with the
/// given page placement and policy, and `app`'s monitored work thread
/// spawned from `seed`. Returns the engine, not yet run, and the thread.
pub(crate) fn monitored_engine(
    app: App,
    placement: locality_sim::PagePlacement,
    policy: SchedPolicy,
    seed: u64,
) -> Result<(Engine, ThreadId), RuntimeError> {
    let config = MachineConfig::ultra1().with_placement(placement);
    let mut engine = Engine::new(config, policy, EngineConfig::default())?;
    let tid = app.spawn_single_seeded(&mut engine, seed);
    Ok((engine, tid))
}

/// Samples `tid` at each of its context switches into a [`Sample`]
/// series (cumulative misses, instructions, observed vs predicted).
fn monitor_thread(engine: &mut Engine, tid: ThreadId) -> Rc<RefCell<Vec<Sample>>> {
    let mut misses = 0;
    sample_footprints(engine, Some(tid), move |samples: &mut Vec<Sample>, ev, view, lines, exp| {
        misses += ev.delta.misses;
        samples.push(Sample {
            misses,
            instructions: view.machine.cpu_stats(ev.cpu).instructions,
            observed: lines as f64,
            predicted: exp.unwrap_or(0.0),
        });
    })
}

/// Runs `app`'s monitored work thread on a single simulated UltraSPARC-1
/// under the (single-thread-equivalent) LFF scheduler and returns the
/// sampled trace.
///
/// The paper's own careful page mapping is Kessler & Hill bin hopping;
/// the explicit `placement` lets the accuracy study bracket the VM's
/// influence (a naive mapping makes clustered applications *collide*,
/// flipping the model's deviation from slight under- to over-prediction
/// — see EXPERIMENTS.md). The explicit RNG `seed` means every run is
/// fully described by its `(app, placement, seed)` descriptor and no
/// two runs share state — the invariant the parallel experiment runner
/// relies on.
///
/// # Errors
///
/// Returns the engine's [`RuntimeError`] if the monitored run cannot
/// complete.
pub fn monitor_app_seeded(
    app: App,
    placement: locality_sim::PagePlacement,
    seed: u64,
) -> Result<MonitorTrace, RuntimeError> {
    let (mut engine, tid) = monitored_engine(app, placement, SchedPolicy::Lff, seed)?;
    let out = monitor_thread(&mut engine, tid);
    engine.run()?;
    Ok(MonitorTrace { app: app.name(), samples: out.take() })
}

/// MPI (misses per 1000 instructions) series derived from a trace, as
/// `(instructions, mpi-over-the-last-window)` points.
pub fn mpi_series(trace: &MonitorTrace) -> Vec<(u64, f64)> {
    let mut out = Vec::with_capacity(trace.samples.len());
    let mut prev = Sample { misses: 0, instructions: 0, observed: 0.0, predicted: 0.0 };
    for s in &trace.samples {
        let di = s.instructions.saturating_sub(prev.instructions);
        let dm = s.misses.saturating_sub(prev.misses);
        if di > 0 {
            out.push((s.instructions, dm as f64 * 1000.0 / di as f64));
        }
        prev = *s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_statistics() {
        let t = MonitorTrace {
            app: "x",
            samples: vec![
                Sample { misses: 10, instructions: 100, observed: 100.0, predicted: 110.0 },
                Sample { misses: 20, instructions: 200, observed: 200.0, predicted: 220.0 },
            ],
        };
        assert!((t.mean_rel_error() - 0.1).abs() < 1e-12);
        assert_eq!(t.last().unwrap().misses, 20);
        assert_eq!(t.thin(1).len(), 1);
        assert_eq!(t.thin(10).len(), 2);
    }

    #[test]
    fn mpi_series_windows() {
        let t = MonitorTrace {
            app: "x",
            samples: vec![
                Sample { misses: 5, instructions: 1000, observed: 0.0, predicted: 0.0 },
                Sample { misses: 7, instructions: 2000, observed: 0.0, predicted: 0.0 },
            ],
        };
        let s = mpi_series(&t);
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 5.0).abs() < 1e-12);
        assert!((s[1].1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn monitor_small_app_end_to_end() {
        // Merge's worker on small parameters: quick and representative.
        use active_threads::{Engine, EngineConfig, SchedPolicy};
        use locality_sim::MachineConfig;
        let mut engine =
            Engine::new(MachineConfig::ultra1(), SchedPolicy::Lff, EngineConfig::default())
                .unwrap();
        let tid = locality_workloads::merge::spawn_single(
            &mut engine,
            &locality_workloads::merge::MergeParams::small(),
        );
        let out = monitor_thread(&mut engine, tid);
        engine.run().unwrap();
        let samples = out.take();
        assert!(samples.len() > 3);
        // Footprints grow from cold.
        assert!(samples.last().unwrap().observed > samples[0].observed);
        // Predictions are live.
        assert!(samples.last().unwrap().predicted > 0.0);
    }
}
