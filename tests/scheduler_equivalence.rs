//! The locality scheduler against `RefScheduler`, its eager O(threads)
//! transcription (`tests/ref_scheduler/`): identical picks, steals,
//! ready counts and degraded-mode transitions after every call, over
//! random sequences that follow the engine's protocol and over whole
//! engine runs: every §5 application under every locality policy on
//! both machines, and every counter-fault and lifecycle-chaos row.

mod ref_scheduler;

use locality_repro::perf::PerfApp;
use locality_repro::scenario::{Injector, SCENARIOS};
use locality_repro::Scale;
use proptest::prelude::*;
use ref_scheduler::DiffScheduler;
use std::panic::{catch_unwind, AssertUnwindSafe};
use thread_locality::core::{PolicyKind, SanitizedInterval, SharingGraph, ThreadId};
use thread_locality::sim::{FaultConfig, MachineConfig};
use thread_locality::threads::sched::LocalityConfig;
use thread_locality::threads::{
    Engine, EngineConfig, RunReport, RuntimeError, SchedPolicy, Scheduler,
};
use thread_locality::workloads::merge::{self, MergeParams};
use thread_locality::workloads::photo::{self, PhotoParams};
use thread_locality::workloads::tasks::{self, TasksParams};
use thread_locality::workloads::tsp::{self, TspParams};

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
/// plain scheduler, both with `config` and `options`, and checks the two
/// runs end the same.
fn diffed_run(
    machine: MachineConfig,
    config: LocalityConfig,
    options: EngineConfig,
    fault: Option<FaultConfig>,
    spawn: impl Fn(&mut Engine),
) -> Result<RunReport, RuntimeError> {
    let diff = DiffScheduler::new(config, machine.l2_lines(), machine.cpus);
    let mut diffed = Engine::with_scheduler(machine.clone(), Box::new(diff), options).unwrap();
    let mut plain = Engine::new(machine, SchedPolicy::Custom(config), options).unwrap();
    for engine in [&mut diffed, &mut plain] {
        if let Some(fault) = fault {
            engine.machine_mut().install_fault(fault);
        }
        spawn(engine);
    }
    let result = diffed.run();
    assert_eq!(result, plain.run(), "the diffed run ends differently");
    result
}

#[test]
fn the_scheduler_matches_the_reference_on_overlapped_tasks() {
    let params = TasksParams { tasks: 64, footprint_lines: 100, periods: 10, overlap: 0.25 };
    let machine = MachineConfig::enterprise5000(8);
    let report = diffed_run(machine, lff(), EngineConfig::default(), None, |e| {
        tasks::spawn_parallel(e, &params);
    })
    .unwrap();
    assert!(report.steals > 0, "the cell never stole");
}

fn lff() -> LocalityConfig {
    LocalityConfig::new(PolicyKind::Lff)
}

#[test]
#[ignore = "24 whole-application runs, each twice; ci.sh runs it in release"]
fn the_scheduler_matches_the_reference_on_every_app_policy_and_machine() {
    // Every §5 application at small scale, under LFF, CRT and LFF
    // without annotations, on the 1-cpu Ultra-1 and the 8-cpu E5000.
    let policies = [
        lff(),
        LocalityConfig::new(PolicyKind::Crt),
        LocalityConfig { use_annotations: false, ..lff() },
    ];
    for app in PerfApp::ALL {
        for config in policies {
            for machine in [MachineConfig::ultra1(), MachineConfig::enterprise5000(8)] {
                let cpus = machine.cpus;
                let report = diffed_run(machine, config, EngineConfig::default(), None, |e| {
                    app.spawn(e, Scale::Small)
                })
                .unwrap_or_else(|e| panic!("{} on {cpus} cpus, {config:?}: {e}", app.name()));
                assert!(report.threads_completed > 0, "{} on {cpus} cpus", app.name());
            }
        }
    }
}

#[test]
fn the_scheduler_matches_the_reference_through_a_counter_fault() {
    // Every counter-fault row at small scale. `trap` reads fail for the
    // whole run and `window` for the first 400 reads, so both must
    // degrade; the clean row must not.
    let params = TasksParams { tasks: 64, footprint_lines: 100, periods: 10, overlap: 0.5 };
    let mut degraded = Vec::new();
    for row in SCENARIOS {
        let Injector::Counter(fault) = row.injector else { continue };
        let machine = MachineConfig::enterprise5000(4);
        let report = diffed_run(machine, lff(), EngineConfig::default(), fault, |e| {
            tasks::spawn_parallel(e, &params);
        })
        .unwrap_or_else(|e| panic!("{}: {e}", row.name));
        if report.degraded_intervals > 0 {
            degraded.push(row.name);
        }
    }
    for name in ["trap", "window"] {
        assert!(degraded.contains(&name), "the {name} row never degraded: {degraded:?}");
    }
    assert!(!degraded.contains(&"clean"), "the clean row degraded");
}

#[test]
fn the_scheduler_matches_the_reference_under_lifecycle_chaos() {
    // Aborts reach the blocked: merge's joins, photo's semaphores and
    // tsp's mutexes, at small scale, under every lifecycle-chaos row. A
    // photo row whose poster dies leaves its readers deadlocked; both
    // runs must then report the same waits.
    let spawns: [fn(&mut Engine); 3] = [
        |e| drop(merge::spawn_parallel(e, &MergeParams::small())),
        |e| drop(photo::spawn_parallel(e, &PhotoParams::small())),
        |e| drop(tsp::spawn_parallel(e, &TspParams::small())),
    ];
    let mut aborted = 0;
    for row in SCENARIOS {
        let Injector::Lifecycle(Some(chaos)) = row.injector else { continue };
        let options = EngineConfig { chaos: Some(chaos), ..EngineConfig::default() };
        for policy in [PolicyKind::Lff, PolicyKind::Crt] {
            for spawn in spawns {
                let machine = MachineConfig::enterprise5000(8);
                let config = LocalityConfig::new(policy);
                if let Ok(report) = diffed_run(machine, config, options, None, spawn) {
                    aborted += report.threads_aborted;
                }
            }
        }
    }
    assert!(aborted > 0, "no lifecycle row aborted a thread");
}
