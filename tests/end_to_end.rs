//! Integration tests spanning all crates through the facade.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use thread_locality::core::{CpuId, FootprintModel, ModelParams};
use thread_locality::sim::{AccessKind, Machine, MachineConfig, PagePlacement, VAddr};
use thread_locality::threads::{
    BatchCtx, Control, Engine, EngineConfig, EngineHook, Program, SchedPolicy, SwitchEvent,
    ThreadId,
};
use thread_locality::workloads::{merge, tasks};

#[test]
fn machine_footprint_matches_model_for_random_walk() {
    // Drive the machine directly (no runtime): uniform random misses over
    // a huge region must follow the case-1 closed form.
    let mut machine = Machine::try_new(MachineConfig::ultra1()).unwrap();
    let tid = ThreadId(1);
    let lines = 8192u64 * 64;
    let region = machine.alloc(lines * 64, 64);
    machine.register_region(tid, region, lines * 64);
    machine.set_running(0, Some(tid));

    let mut x = 0x12345678u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..12_000 {
        let line = step() % lines;
        machine.access(0, region.offset(line * 64), AccessKind::Read);
    }
    let misses = machine.pic(0).misses();
    let observed = machine.l2_footprint_lines(0, tid) as f64;
    let model = FootprintModel::new(ModelParams::new(8192).unwrap());
    let predicted = model.expected_blocking(0.0, misses);
    let err = (observed - predicted).abs() / predicted;
    assert!(err < 0.04, "observed {observed} predicted {predicted:.0} err {err:.3}");
}

/// Reads uniformly random lines of an 8 MiB region, 512 a batch, until
/// `left` reads are done. The region is many times the 512 KiB E-cache, so
/// misses land uniformly over the sets: the stream the model assumes.
struct RandomWalk {
    region: Option<VAddr>,
    left: u64,
    rng: StdRng,
}

impl Program for RandomWalk {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        const BYTES: u64 = 8 << 20;
        let region = *self.region.get_or_insert_with(|| ctx.alloc(BYTES, 64));
        ctx.register_region(region, BYTES);
        let n = self.left.min(512);
        for _ in 0..n {
            ctx.read(region.offset(self.rng.gen_range(0..BYTES / 64) * 64));
        }
        self.left -= n;
        if self.left == 0 {
            Control::Exit
        } else {
            Control::Yield
        }
    }
}

#[test]
fn estimator_tracks_ground_truth_through_the_runtime() {
    // A full runtime run: at every context switch, the scheduler's
    // expected footprint must stay close to the machine's ground truth
    // for the random walker (whose references satisfy the model).
    struct Check {
        tid: ThreadId,
        worst: Rc<RefCell<f64>>,
    }
    impl EngineHook for Check {
        fn on_context_switch(
            &mut self,
            ev: &SwitchEvent,
            view: &thread_locality::threads::events::EngineView<'_>,
        ) {
            if ev.tid != self.tid {
                return;
            }
            let observed = view.machine.l2_footprint_lines(ev.cpu, self.tid) as f64;
            let predicted = view.sched.expected_footprint(ev.cpu, self.tid).unwrap_or(0.0);
            if observed > 512.0 {
                let err = (predicted - observed).abs() / observed;
                let mut worst = self.worst.borrow_mut();
                if err > *worst {
                    *worst = err;
                }
            }
        }
    }
    let mut engine =
        Engine::new(MachineConfig::ultra1(), SchedPolicy::Lff, EngineConfig::default()).unwrap();
    let walk = RandomWalk { region: None, left: 30_000, rng: StdRng::seed_from_u64(42) };
    let tid = engine.spawn(Box::new(walk));
    let worst = Rc::new(RefCell::new(0.0f64));
    engine.add_hook(Box::new(Check { tid, worst: worst.clone() }));
    engine.run().unwrap();
    let worst = *worst.borrow();
    assert!(worst < 0.06, "worst estimator error {worst:.3}");
}

#[test]
fn policies_preserve_program_semantics() {
    // Same sort, three schedulers, identical sorted output, identical
    // thread counts — only cache behaviour may differ.
    let params = merge::MergeParams { elements: 10_000, cutoff: 100, seed: 3 };
    let mut outcomes = Vec::new();
    for policy in [SchedPolicy::Fcfs, SchedPolicy::Lff, SchedPolicy::Crt] {
        let mut engine =
            Engine::new(MachineConfig::enterprise5000(4), policy, EngineConfig::default()).unwrap();
        let (shared, _) = merge::spawn_parallel(&mut engine, &params);
        let report = engine.run().unwrap();
        assert!(shared.is_sorted());
        outcomes.push(report.threads_completed);
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[1], outcomes[2]);
}

#[test]
fn oversubscribed_tasks_shape_holds_end_to_end() {
    let params = tasks::TasksParams { tasks: 200, footprint_lines: 100, periods: 10, overlap: 0.0 };
    let run = |policy| {
        let mut engine =
            Engine::new(MachineConfig::enterprise5000(2), policy, EngineConfig::default()).unwrap();
        tasks::spawn_parallel(&mut engine, &params);
        engine.run().unwrap()
    };
    let fcfs = run(SchedPolicy::Fcfs);
    let lff = run(SchedPolicy::Lff);
    let crt = run(SchedPolicy::Crt);
    assert!(lff.misses_eliminated_vs(&fcfs) > 0.5);
    assert!(crt.misses_eliminated_vs(&fcfs) > 0.5);
    assert!(lff.speedup_over(&fcfs) > 1.2);
    assert!(crt.speedup_over(&fcfs) > 1.2);
}

#[test]
fn counters_are_the_only_model_input() {
    // The scheduler must work (and help) even when ground-truth regions
    // are never registered: the estimator runs on PIC deltas alone.
    struct Toucher {
        region: Option<thread_locality::sim::VAddr>,
        rounds: u32,
    }
    impl Program for Toucher {
        fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
            let region = *self.region.get_or_insert_with(|| ctx.alloc(6400, 64));
            // Note: no register_region at all.
            ctx.read_range(region, 6400, 64);
            self.rounds -= 1;
            if self.rounds == 0 {
                Control::Exit
            } else {
                Control::Sleep(ctx.batch_cycles())
            }
        }
    }
    let run = |policy| {
        let mut engine =
            Engine::new(MachineConfig::ultra1(), policy, EngineConfig::default()).unwrap();
        for _ in 0..200 {
            engine.spawn(Box::new(Toucher { region: None, rounds: 8 }));
        }
        engine.run().unwrap()
    };
    let fcfs = run(SchedPolicy::Fcfs);
    let lff = run(SchedPolicy::Lff);
    assert!(
        lff.misses_eliminated_vs(&fcfs) > 0.5,
        "counters-only affinity must still work: {:.2}",
        lff.misses_eliminated_vs(&fcfs)
    );
}

#[test]
fn cross_cpu_invalidations_are_visible_to_ground_truth_only() {
    // Build footprint on cpu0, write from cpu1: ground truth shrinks, the
    // estimator (which ignores invalidations, paper §3.4) does not.
    use thread_locality::core::{EstimatorConfig, LocalityEstimator, PolicyKind, SharingGraph};
    let mut machine = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
    let mut est = LocalityEstimator::new(EstimatorConfig::new(
        PolicyKind::Lff,
        ModelParams::new(8192).unwrap(),
        2,
    ));
    let graph = SharingGraph::new();
    let a = ThreadId(1);
    let region = machine.alloc(2048 * 64, 64);
    machine.register_region(a, region, 2048 * 64);
    machine.set_running(0, Some(a));
    est.on_dispatch(CpuId(0), a);
    for l in 0..2048u64 {
        machine.access(0, region.offset(l * 64), AccessKind::Read);
    }
    let delta = machine.pic_take_interval(0).expect("clean machine read");
    est.on_interval_end(CpuId(0), a, delta.misses, &graph);

    machine.set_running(1, Some(ThreadId(2)));
    for l in 0..1024u64 {
        machine.access(1, region.offset(l * 64), AccessKind::Write);
    }
    let observed = machine.l2_footprint_lines(0, a) as f64;
    let predicted = est.expected_footprint(CpuId(0), a);
    assert!(observed < 1100.0, "half the lines were invalidated: {observed}");
    // The estimate (~N·(1−k^2048) ≈ 1812) is untouched by the remote
    // writes — far above the real, invalidated footprint.
    assert!(predicted > 1700.0, "the model cannot see invalidations: {predicted}");
    assert!(predicted > observed * 1.5);
}

#[test]
fn runtime_inference_discovers_sharing() {
    // Two iterating threads over one buffer, no annotations: with CML
    // inference enabled, the engine must discover the sharing and place
    // them together (fewer misses than without inference).
    use thread_locality::threads::InferenceConfig;
    struct Pinger {
        buf: thread_locality::sim::VAddr,
        rounds: u32,
    }
    impl Program for Pinger {
        fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
            ctx.register_region(self.buf, 6400);
            ctx.write_range(self.buf, 6400, 64);
            self.rounds -= 1;
            if self.rounds == 0 {
                Control::Exit
            } else {
                Control::Sleep(ctx.batch_cycles())
            }
        }
    }
    let run = |infer: bool| {
        let config = EngineConfig {
            infer_sharing: infer.then(InferenceConfig::default),
            ..EngineConfig::default()
        };
        let mut engine =
            Engine::new(MachineConfig::enterprise5000(2), SchedPolicy::Lff, config).unwrap();
        // Many pairs sharing buffers, interleaved so FIFO separates them.
        for _ in 0..24 {
            let buf = engine.machine_mut().alloc(6400, 8192);
            engine.spawn(Box::new(Pinger { buf, rounds: 12 }));
            engine.spawn(Box::new(Pinger { buf, rounds: 12 }));
        }
        engine.run().unwrap()
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with.total_l2_misses < without.total_l2_misses,
        "inference should colocate sharers: {} vs {}",
        with.total_l2_misses,
        without.total_l2_misses
    );
}

/// A thread whose every batch is one call of the closure.
struct Batches<F>(F);

impl<F: FnMut(&mut BatchCtx<'_>) -> Control> Program for Batches<F> {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        (self.0)(ctx)
    }
}

/// Fetches `va` and says whether the L1-I hit.
fn fetch(ctx: &mut BatchCtx<'_>, va: VAddr) -> bool {
    let misses = |ctx: &mut BatchCtx<'_>| {
        let cpu = ctx.cpu();
        ctx.machine().cpu_stats(cpu).l1i_misses
    };
    let before = misses(ctx);
    ctx.fetch(va);
    misses(ctx) == before
}

#[test]
fn fetched_lines_obey_inclusion() {
    // No workload fetches, so only this test fills an L1-I. Lines `x` and
    // `y` are fetched twice (miss, then hit), `x` is purged from the
    // filling cpu's E-cache, then both are fetched again on that cpu: `x`
    // must be gone from its L1-I and `y` still there. Two threads spin
    // through the stages, so whichever lands on the cpu a stage needs
    // runs it.
    let run = |config: MachineConfig, remote: bool, purge: fn(&mut BatchCtx<'_>, VAddr)| {
        let mut engine = Engine::new(config, SchedPolicy::Fcfs, EngineConfig::default()).unwrap();
        let x = engine.machine_mut().alloc(1 << 20, 1 << 19);
        let y = x.offset(4096);
        // Stage 0 fills, 1 purges, 2 fetches again; `filler` is the cpu
        // that filled.
        let (stage, filler) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let hits = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let (stage, filler, hits) = (stage.clone(), filler.clone(), hits.clone());
            engine.spawn(Box::new(Batches(move |ctx: &mut BatchCtx<'_>| {
                let on_filler = ctx.cpu() == filler.get();
                match stage.get() {
                    0 => {
                        filler.set(ctx.cpu());
                        hits.borrow_mut().extend([x, y, x, y].map(|va| fetch(ctx, va)));
                    }
                    1 if on_filler != remote => purge(ctx, x),
                    2 if on_filler => hits.borrow_mut().extend([x, y].map(|va| fetch(ctx, va))),
                    3 => return Control::Exit,
                    _ => return Control::Yield,
                }
                stage.set(stage.get() + 1);
                Control::Yield
            })));
        }
        engine.run().unwrap();
        assert_eq!(*hits.borrow(), [false, false, true, true, false, true]);
    };
    // An E-cache eviction: under page coloring, `x` and `x + 512 KiB`
    // share a line of the Ultra-1's direct-mapped 512 KiB E-cache.
    let ultra1 = MachineConfig::ultra1().with_placement(PagePlacement::PageColoring);
    run(ultra1, false, |ctx, x| ctx.read(x.offset(1 << 19)));
    // A write from the other cpu invalidates the filler's copy.
    run(MachineConfig::enterprise5000(2), true, |ctx, x| ctx.write(x));
}
