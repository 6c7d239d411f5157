//! The individual experiment cells behind the figures and ablations:
//! each function performs exactly one isolated simulated run (its own
//! [`Engine`]/[`Machine`], its own RNGs) and returns plain data. The
//! [runner](crate::runner) dispatches these from worker threads, so
//! nothing here may touch shared mutable state.

use crate::args::Scale;
use crate::error::ReproError;
use crate::monitor::{monitored_engine, sample_footprints};
use active_threads::sched::LocalityConfig;
use active_threads::{ChaosConfig, Engine, EngineConfig, InferenceConfig, RunReport, SchedPolicy};
use locality_core::{FootprintEntry, ModelParams, PolicyKind, PrioritySchemes, ThreadId};
use locality_sim::{AccessKind, FaultConfig, Machine, MachineConfig, PagePlacement};
use locality_workloads::{tasks, App};
use std::cell::RefCell;
use std::rc::Rc;

/// One heap-eviction-threshold sweep cell (tasks, 1 cpu, LFF).
///
/// # Errors
///
/// Returns [`ReproError::Runtime`] if the run cannot complete.
pub fn threshold_cell(threshold_lines: u64, scale: Scale) -> Result<RunReport, ReproError> {
    let params = match scale {
        Scale::Paper => {
            tasks::TasksParams { tasks: 512, footprint_lines: 100, periods: 30, overlap: 0.0 }
        }
        Scale::Small => {
            tasks::TasksParams { tasks: 96, footprint_lines: 100, periods: 10, overlap: 0.0 }
        }
    };
    let config = LocalityConfig {
        threshold_lines: threshold_lines as f64,
        ..LocalityConfig::new(PolicyKind::Lff)
    };
    let mut engine =
        Engine::new(MachineConfig::ultra1(), SchedPolicy::Custom(config), EngineConfig::default())?;
    tasks::spawn_parallel(&mut engine, &params);
    Ok(engine.run()?)
}

/// One page-placement cell: a single-threaded app under FCFS on the
/// Ultra-1 with the given placement policy.
///
/// # Errors
///
/// Returns [`ReproError::Runtime`] if the run cannot complete.
pub fn placement_cell(app: App, placement: PagePlacement) -> Result<RunReport, ReproError> {
    let (mut engine, _) = monitored_engine(app, placement, SchedPolicy::Fcfs, app.default_seed())?;
    Ok(engine.run()?)
}

/// One invalidation-effects cell (§3.4): thread A builds a 4096-line
/// footprint on cpu 0, a remote writer invalidates `written` of those
/// lines from cpu 1. Returns `(observed, predicted)` footprints — the
/// counter-driven model keeps predicting the pre-invalidation value.
pub fn invalidation_cell(written: u64) -> (u64, u64) {
    // Infallible: `enterprise5000(2)` is a validated built-in description.
    #[allow(clippy::unwrap_used)]
    let mut machine = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
    let a = ThreadId(1);
    let lines = 4096u64;
    let region = machine.alloc(lines * 64, 64);
    machine.register_region(a, region, lines * 64);
    machine.set_running(0, Some(a));
    for l in 0..lines {
        machine.access(0, region.offset(l * 64), AccessKind::Read);
    }
    let predicted = machine.l2_footprint_lines(0, a); // model sees no further misses on cpu0
    machine.set_running(1, Some(ThreadId(2)));
    for l in 0..written {
        machine.access(1, region.offset(l * 64), AccessKind::Write);
    }
    let observed = machine.l2_footprint_lines(0, a);
    (observed, predicted)
}

/// A producer/consumer pipeline pair: the producer rewrites a shared
/// buffer each period and posts; the consumer waits, reads it, and
/// hands the turn back. Colocating the pair is the *only* available
/// locality win — a thread's affinity to its own past state is useless
/// because the producer rewrites (and thereby invalidates) the buffer
/// every period. This isolates the annotation/inference channel.
mod pipeline {
    use active_threads::{BatchCtx, Control, Engine, Program, SemId, ThreadId};
    use locality_core::ModelError;
    use locality_sim::VAddr;

    const LINE: u64 = 64;

    pub struct Params {
        pub pairs: usize,
        pub buffer_lines: u64,
        pub periods: u32,
    }

    struct Producer {
        buf: VAddr,
        bytes: u64,
        full: SemId,
        empty: SemId,
        periods: u32,
        phase: u8,
    }
    impl Program for Producer {
        fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
            match self.phase {
                0 => {
                    ctx.register_region(self.buf, self.bytes);
                    ctx.write_range(self.buf, self.bytes, LINE);
                    ctx.compute(self.bytes / LINE * 4);
                    self.phase = 1;
                    Control::SemPost(self.full)
                }
                _ => {
                    self.periods -= 1;
                    if self.periods == 0 {
                        return Control::Exit;
                    }
                    self.phase = 0;
                    Control::SemWait(self.empty)
                }
            }
        }
    }

    struct Consumer {
        buf: VAddr,
        bytes: u64,
        full: SemId,
        empty: SemId,
        periods: u32,
        phase: u8,
    }
    impl Program for Consumer {
        fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Control::SemWait(self.full)
                }
                _ => {
                    ctx.register_region(self.buf, self.bytes);
                    ctx.read_range(self.buf, self.bytes, LINE);
                    ctx.compute(self.bytes / LINE * 4);
                    self.periods -= 1;
                    if self.periods == 0 {
                        return Control::Exit;
                    }
                    self.phase = 0;
                    Control::SemPost(self.empty)
                }
            }
        }
    }

    /// Spawns the pairs; returns `(producer, consumer)` ids per pair.
    pub fn spawn(
        engine: &mut Engine,
        params: &Params,
        annotate: bool,
    ) -> Result<Vec<(ThreadId, ThreadId)>, ModelError> {
        let bytes = params.buffer_lines * LINE;
        let mut out = Vec::with_capacity(params.pairs);
        for _ in 0..params.pairs {
            let buf = engine.machine_mut().alloc(bytes, 8192);
            let full = engine.sync_tables_mut().create_semaphore(0);
            let empty = engine.sync_tables_mut().create_semaphore(0);
            let p = engine.spawn(Box::new(Producer {
                buf,
                bytes,
                full,
                empty,
                periods: params.periods,
                phase: 0,
            }));
            let c = engine.spawn(Box::new(Consumer {
                buf,
                bytes,
                full,
                empty,
                periods: params.periods,
                phase: 0,
            }));
            if annotate {
                engine.annotate(p, c, 1.0)?;
                engine.annotate(c, p, 1.0)?;
            }
            out.push((p, c));
        }
        Ok(out)
    }
}

/// One sharing-inference cell (§7 future work): the producer/consumer
/// pipeline on 8 cpus under `policy`, optionally with hand annotations
/// or CML-driven runtime inference.
///
/// # Errors
///
/// Returns [`ReproError::Model`] for invalid annotations and
/// [`ReproError::Runtime`] if the run cannot complete.
pub fn pipeline_cell(
    policy: SchedPolicy,
    annotate: bool,
    infer: bool,
    scale: Scale,
) -> Result<RunReport, ReproError> {
    let params = match scale {
        Scale::Paper => pipeline::Params { pairs: 128, buffer_lines: 100, periods: 40 },
        Scale::Small => pipeline::Params { pairs: 32, buffer_lines: 100, periods: 10 },
    };
    let config = EngineConfig {
        infer_sharing: infer.then(InferenceConfig::default),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(MachineConfig::enterprise5000(8), policy, config)?;
    pipeline::spawn(&mut engine, &params, annotate)?;
    Ok(engine.run()?)
}

/// Accumulates |model prediction − ground truth| footprint error over
/// every context switch (the machine knows the true resident lines; the
/// scheduler knows the model's expectation).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PredictionProbe {
    /// Sum of absolute prediction errors, in lines.
    pub sum_abs_err: f64,
    /// Sum of observed footprints, in lines.
    pub sum_observed: f64,
    /// Context switches sampled.
    pub samples: u64,
}

impl PredictionProbe {
    /// Mean absolute prediction error in lines.
    pub fn mean_abs_err(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_abs_err / self.samples as f64
        }
    }

    /// Prediction error relative to the mean observed footprint.
    pub fn relative_err(&self) -> f64 {
        if self.sum_observed == 0.0 {
            0.0
        } else {
            self.sum_abs_err / self.sum_observed
        }
    }
}

/// A robustness cell's engine on the 4-cpu Enterprise 5000, with `chaos`
/// installed and the sampling hook accumulating a [`PredictionProbe`]
/// over every context switch the policy has a prediction for (none under
/// FCFS).
fn probed_engine(
    policy: SchedPolicy,
    chaos: Option<ChaosConfig>,
) -> Result<(Engine, Rc<RefCell<PredictionProbe>>), ReproError> {
    let config = EngineConfig { chaos, ..EngineConfig::default() };
    let mut engine = Engine::new(MachineConfig::enterprise5000(4), policy, config)?;
    let probe =
        sample_footprints(&mut engine, None, |p: &mut PredictionProbe, _, _, seen, pred| {
            let Some(predicted) = pred else { return };
            p.sum_abs_err += (predicted - seen as f64).abs();
            p.sum_observed += seen as f64;
            p.samples += 1;
        });
    Ok((engine, probe))
}

/// The result of one fault-scenario run.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// The engine's run report.
    pub report: RunReport,
    /// Footprint-prediction error accumulated over the run.
    pub probe: PredictionProbe,
    /// Whether the scheduler entered degraded mode *and* left it again
    /// before the run finished.
    pub recovered: bool,
}

/// One counter-fault run: the overlapped-tasks workload on 4 cpus under
/// `policy` with `fault` installed on the PIC reads.
///
/// # Errors
///
/// Returns [`ReproError::Runtime`] if the run cannot survive the fault.
pub fn fault_cell(
    policy: SchedPolicy,
    fault: Option<FaultConfig>,
    scale: Scale,
) -> Result<FaultCell, ReproError> {
    let params = match scale {
        Scale::Paper => {
            tasks::TasksParams { tasks: 256, footprint_lines: 100, periods: 30, overlap: 0.5 }
        }
        Scale::Small => {
            tasks::TasksParams { tasks: 64, footprint_lines: 100, periods: 10, overlap: 0.5 }
        }
    };
    let (mut engine, probe) = probed_engine(policy, None)?;
    if let Some(fault) = fault {
        engine.machine_mut().install_fault(fault);
    }
    tasks::spawn_parallel(&mut engine, &params);
    let report = engine.run()?;
    let recovered = report.degraded_intervals > 0 && !engine.scheduler().is_degraded();
    Ok(FaultCell { report, probe: probe.take(), recovered })
}

/// A mutex-disciplined workload for the chaos ablation: each worker
/// repeatedly locks its stripe's mutex, rewrites its region while
/// holding it, and unlocks. Lock-holder aborts therefore always orphan
/// a held mutex, exercising poisoning and reclamation; waiters must be
/// handed the corpse's lock or the scenario deadlocks.
mod lockstep {
    use active_threads::{BatchCtx, Control, Engine, MutexId, Program, ThreadId};
    use locality_sim::VAddr;

    const LINE: u64 = 64;

    pub struct Params {
        pub threads: usize,
        pub mutexes: usize,
        pub region_lines: u64,
        pub periods: u32,
    }

    struct Worker {
        buf: VAddr,
        bytes: u64,
        lock: MutexId,
        periods: u32,
        phase: u8,
    }

    impl Program for Worker {
        fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Control::Lock(self.lock)
                }
                1 => {
                    ctx.register_region(self.buf, self.bytes);
                    ctx.write_range(self.buf, self.bytes, LINE);
                    ctx.compute(self.bytes / LINE * 2);
                    self.phase = 2;
                    Control::Unlock(self.lock)
                }
                _ => {
                    self.periods -= 1;
                    if self.periods == 0 {
                        return Control::Exit;
                    }
                    self.phase = 0;
                    Control::Yield
                }
            }
        }
    }

    pub fn spawn(engine: &mut Engine, params: &Params) -> Vec<ThreadId> {
        let stripes: Vec<MutexId> =
            (0..params.mutexes.max(1)).map(|_| engine.sync_tables_mut().create_mutex()).collect();
        let bytes = params.region_lines * LINE;
        (0..params.threads)
            .map(|i| {
                let buf = engine.machine_mut().alloc(bytes, LINE);
                engine.spawn(Box::new(Worker {
                    buf,
                    bytes,
                    lock: stripes[i % stripes.len()],
                    periods: params.periods,
                    phase: 0,
                }))
            })
            .collect()
    }
}

/// The result of one thread-lifecycle chaos run.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The engine's run report (`threads_aborted` counts the kills).
    pub report: RunReport,
    /// Footprint-prediction error accumulated over the run.
    pub probe: PredictionProbe,
    /// Mutexes a thread died holding — each was poisoned and reclaimed
    /// (handed to a waiter or freed) instead of deadlocking the run.
    pub poisoned: u64,
}

/// One lifecycle-chaos run: the overlapped-tasks workload plus the
/// mutex-disciplined [`lockstep`] workload on 4 cpus under `policy`,
/// with `chaos` installed in the engine.
///
/// # Errors
///
/// Returns [`ReproError::Runtime`] if the run cannot survive the chaos.
pub fn chaos_cell(
    policy: SchedPolicy,
    chaos: Option<ChaosConfig>,
    scale: Scale,
) -> Result<ChaosCell, ReproError> {
    let tasks_params = match scale {
        Scale::Paper => {
            tasks::TasksParams { tasks: 192, footprint_lines: 100, periods: 20, overlap: 0.5 }
        }
        Scale::Small => {
            tasks::TasksParams { tasks: 48, footprint_lines: 100, periods: 8, overlap: 0.5 }
        }
    };
    let lock_params = match scale {
        Scale::Paper => lockstep::Params { threads: 64, mutexes: 8, region_lines: 64, periods: 20 },
        Scale::Small => lockstep::Params { threads: 16, mutexes: 4, region_lines: 64, periods: 8 },
    };
    let (mut engine, probe) = probed_engine(policy, chaos)?;
    tasks::spawn_parallel(&mut engine, &tasks_params);
    lockstep::spawn(&mut engine, &lock_params);
    let report = engine.run()?;
    let poisoned = engine.sync_tables().poisoned_mutexes() as u64;
    Ok(ChaosCell { report, probe: probe.take(), poisoned })
}

/// The three thread classes of Table 3's priority-update cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostCase {
    /// The thread that just blocked (its own counters were read).
    Blocking,
    /// A sleeping thread sharing state with the blocking one.
    Dependent,
    /// A sleeping independent thread.
    Independent,
}

impl CostCase {
    /// All three classes, in the paper's order.
    pub const ALL: [CostCase; 3] = [CostCase::Blocking, CostCase::Dependent, CostCase::Independent];

    /// Lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            CostCase::Blocking => "blocking",
            CostCase::Dependent => "dependent",
            CostCase::Independent => "independent",
        }
    }
}

/// One Table 3 cell: `(fp ops, table lookups)` of one representative
/// priority update of the given class under one policy.
pub fn update_cost_cell(policy: PolicyKind, case: CostCase) -> (u64, u64) {
    // 8192 lines is the paper's E-cache, a provably valid model size.
    #[allow(clippy::expect_used)]
    let params = ModelParams::new(8192).expect("paper-size cache is a valid model");
    let schemes = PrioritySchemes::new(policy, params);
    let mut entry = FootprintEntry::cold();
    schemes.on_dispatch(&mut entry, 0);
    schemes.on_block_self(&mut entry, 100, 100);
    schemes.flop_counter().take();

    match case {
        CostCase::Blocking => {
            schemes.on_block_self(&mut entry, 50, 150);
        }
        CostCase::Dependent => {
            schemes.on_dependent(&mut entry, 0.5, 50, 150);
        }
        CostCase::Independent => schemes.on_independent(),
    }
    schemes.flop_counter().take()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Ablation, Injector};

    #[test]
    fn invalidation_shrinks_observed_only() {
        let (observed_0, predicted_0) = invalidation_cell(0);
        assert_eq!(observed_0, predicted_0);
        let (observed, predicted) = invalidation_cell(2048);
        assert_eq!(predicted, predicted_0);
        assert!(observed < predicted, "remote writes must shrink the true footprint");
    }

    #[test]
    fn independent_updates_are_free() {
        for policy in [PolicyKind::Lff, PolicyKind::Crt] {
            assert_eq!(update_cost_cell(policy, CostCase::Independent), (0, 0), "{policy:?}");
        }
    }

    fn chaos(name: &str) -> Option<ChaosConfig> {
        match Ablation::Chaos.parse(name).unwrap()[0].injector {
            Injector::Lifecycle(chaos) => chaos,
            Injector::Counter(_) => unreachable!(),
        }
    }

    #[test]
    fn chaos_cell_recovers_lock_holders() {
        let cell = chaos_cell(SchedPolicy::Fcfs, chaos("abort-locked"), Scale::Small).unwrap();
        assert!(cell.report.threads_aborted > 0, "the scenario must kill lock holders");
        assert!(cell.poisoned > 0, "lock-holder deaths must poison mutexes");
        assert!(cell.report.threads_completed > 0, "survivors must still finish");
    }

    #[test]
    fn chaos_cells_are_deterministic() {
        let a = chaos_cell(SchedPolicy::Lff, chaos("churn"), Scale::Small).unwrap();
        let b = chaos_cell(SchedPolicy::Lff, chaos("churn"), Scale::Small).unwrap();
        assert_eq!(a.report.threads_aborted, b.report.threads_aborted);
        assert_eq!(a.report.total_l2_misses, b.report.total_l2_misses);
        assert_eq!(a.poisoned, b.poisoned);
        assert!(a.report.threads_aborted > 0, "churn must kill someone");
    }

    #[test]
    fn probe_statistics() {
        let p = PredictionProbe { sum_abs_err: 10.0, sum_observed: 100.0, samples: 5 };
        assert!((p.mean_abs_err() - 2.0).abs() < 1e-12);
        assert!((p.relative_err() - 0.1).abs() < 1e-12);
        assert_eq!(PredictionProbe::default().mean_abs_err(), 0.0);
    }
}
