//! The locality scheduler against `RefScheduler`, its eager O(threads)
//! transcription (`tests/ref_scheduler/`): identical picks, steals,
//! ready counts and degraded-mode transitions after every call, over
//! random sequences that follow the engine's protocol and over two
//! whole engine runs.

mod ref_scheduler;

use locality_repro::scenario::{Injector, SCENARIOS};
use proptest::prelude::*;
use ref_scheduler::DiffScheduler;
use std::panic::{catch_unwind, AssertUnwindSafe};
use thread_locality::core::{PolicyKind, SanitizedInterval, SharingGraph, ThreadId};
use thread_locality::sim::{FaultConfig, MachineConfig};
use thread_locality::threads::sched::LocalityConfig;
use thread_locality::threads::{Engine, EngineConfig, RunReport, SchedPolicy, Scheduler};
use thread_locality::workloads::tasks::{self, TasksParams};

/// Confidence samples by regime: the low ones hold the EWMA under the
/// degrade threshold (0.5), the high ones lift it over the recovery
/// threshold (0.8), each after a few intervals.
const LOW: [f64; 4] = [0.0, 0.2, 0.4, f64::NAN];
const HIGH: [f64; 4] = [1.0, 0.95, 0.9, 0.6];

/// Plays `steps` against a [`DiffScheduler`] the way the engine would:
/// a pick only for an idle cpu, followed by its dispatch; an interval
/// end only for the thread running on that cpu, which then re-queues,
/// blocks or exits; a wake-up only for a blocked thread; an abort only
/// for a thread that runs nowhere (ready or blocked). Exits and aborts
/// prune the sharing graph first, as the engine does.
fn play(config: LocalityConfig, cpus: usize, steps: &[(u8, u64, u64)]) {
    let mut s = DiffScheduler::new(config, 1024, cpus);
    let mut graph = SharingGraph::new();
    let mut next_tid = 1;
    let mut live: Vec<ThreadId> = Vec::new();
    let mut blocked: Vec<ThreadId> = Vec::new();
    let mut running: Vec<Option<ThreadId>> = vec![None; cpus];
    let mut low = false;
    for &(op, pick, n) in steps {
        let cpu = (pick >> 8) as usize % cpus;
        let choose =
            |from: &[ThreadId]| from.get((pick >> 16) as usize % from.len().max(1)).copied();
        match op {
            0..=1 => {
                let tid = ThreadId(next_tid);
                next_tid += 1;
                live.push(tid);
                s.on_spawn(tid);
            }
            2..=8 => match running[cpu] {
                None => {
                    if let Some(tid) = s.pick(cpu) {
                        s.on_dispatch(cpu, tid);
                        running[cpu] = Some(tid);
                    }
                }
                Some(tid) => {
                    running[cpu] = None;
                    let confidence = if low { LOW } else { HIGH }[(pick & 3) as usize];
                    let interval = SanitizedInterval {
                        refs: n,
                        hits: 0,
                        misses: n,
                        confidence,
                        corrected: false,
                    };
                    s.on_interval_end(cpu, tid, interval, &graph);
                    match (pick >> 4) % 8 {
                        0..=4 => s.on_ready(tid),
                        5..=6 => blocked.push(tid),
                        _ => {
                            live.retain(|&t| t != tid);
                            graph.remove_thread(tid);
                            s.on_exit(tid);
                        }
                    }
                }
            },
            9..=10 => {
                if let Some(tid) = choose(&blocked) {
                    blocked.retain(|&t| t != tid);
                    s.on_ready(tid);
                }
            }
            11 => {
                let idle: Vec<ThreadId> =
                    live.iter().copied().filter(|&t| !running.contains(&Some(t))).collect();
                if let Some(tid) = choose(&idle) {
                    live.retain(|&t| t != tid);
                    blocked.retain(|&t| t != tid);
                    graph.remove_thread(tid);
                    s.on_abort(tid);
                }
            }
            12..=13 => {
                if let (Some(src), Some(&dst)) =
                    (choose(&live), live.get(n as usize % live.len().max(1)))
                {
                    if src != dst {
                        graph.set(src, dst, (n % 1000) as f64 / 1000.0).unwrap();
                    }
                }
            }
            _ => {
                if pick & 3 == 0 {
                    low = !low;
                }
            }
        }
    }
}

proptest! {
    /// Random engine-protocol sequences on 1, 2 and 8 cpus, LFF and CRT,
    /// with and without annotations, at thresholds that admit cold
    /// threads to every heap (0), the default (8) and a high one (64).
    /// Confidence runs in regimes long enough to degrade and recover.
    #[test]
    fn the_scheduler_matches_the_reference_on_protocol_sequences(
        steps in proptest::collection::vec((0u8..15, 0u64..u64::MAX, 0u64..3000), 1..1500),
        cpus_sel in 0usize..3,
        crt in 0u8..2,
        annotations in 0u8..2,
        threshold_sel in 0usize..3,
    ) {
        let config = LocalityConfig {
            policy: if crt == 1 { PolicyKind::Crt } else { PolicyKind::Lff },
            use_annotations: annotations == 1,
            threshold_lines: [0.0, 8.0, 64.0][threshold_sel],
        };
        let cpus = [1, 2, 8][cpus_sel];
        let outcome = catch_unwind(AssertUnwindSafe(|| play(config, cpus, &steps)));
        if let Err(panic) = outcome {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            prop_assert!(false, "{} cpus, {:?}: {}", cpus, config, msg);
        }
    }
}

/// Runs `spawn`'s workload once under `DiffScheduler` and once under the
/// plain scheduler, and checks the two runs report the same.
fn diffed_run(
    machine: MachineConfig,
    fault: Option<FaultConfig>,
    spawn: impl Fn(&mut Engine),
) -> RunReport {
    let config = LocalityConfig::new(PolicyKind::Lff);
    let diff = DiffScheduler::new(config, machine.l2_lines(), machine.cpus);
    let mut diffed =
        Engine::with_scheduler(machine.clone(), Box::new(diff), EngineConfig::default()).unwrap();
    let mut plain = Engine::new(machine, SchedPolicy::Lff, EngineConfig::default()).unwrap();
    for engine in [&mut diffed, &mut plain] {
        if let Some(fault) = fault {
            engine.machine_mut().install_fault(fault);
        }
        spawn(engine);
    }
    let report = diffed.run().unwrap();
    assert_eq!(report, plain.run().unwrap(), "the diffed run reports differently");
    report
}

#[test]
fn the_scheduler_matches_the_reference_on_overlapped_tasks() {
    let params = TasksParams { tasks: 64, footprint_lines: 100, periods: 10, overlap: 0.25 };
    let report = diffed_run(MachineConfig::enterprise5000(8), None, |e| {
        tasks::spawn_parallel(e, &params);
    });
    assert!(report.steals > 0, "the cell never stole");
}

#[test]
fn the_scheduler_matches_the_reference_through_a_counter_fault() {
    // The ablation's `window` row at small scale: PIC reads trap for the
    // first 400 reads, so the scheduler degrades, then recovers.
    let window = SCENARIOS.iter().find(|s| s.name == "window").unwrap();
    let Injector::Counter(fault) = window.injector else { panic!("{window:?}") };
    let params = TasksParams { tasks: 64, footprint_lines: 100, periods: 10, overlap: 0.5 };
    let report = diffed_run(MachineConfig::enterprise5000(4), fault, |e| {
        tasks::spawn_parallel(e, &params);
    });
    assert!(report.degraded_intervals > 0, "the cell never degraded");
}
