//! Property-based equivalence of the reference-run path, the batch path,
//! the per-address loop, and `RefMachine`, the reference they are all
//! held to.
//!
//! `Machine::access_run` and `Machine::access_batch` (and the `BatchCtx`
//! helpers built on them) promise to be observationally
//! **byte-identical** to issuing each access separately: every counter,
//! statistic, directory bit, CML entry, and observation-log event must
//! come out the same. These tests drive the paths over machines warmed
//! into identical states — including cross-processor sharing so the
//! remote-miss and write-invalidate cases fire — and diff every
//! observable surface, with a `RefMachine` driven the same way as the
//! last party. Every workload's recorded reference trace is replayed
//! into a `RefMachine` too, on three E-cache geometries.

mod ref_machine;

use locality_repro::scenario::{Ablation, Injector};
use proptest::prelude::*;
use ref_machine::RefMachine;
use thread_locality::core::ThreadId;
use thread_locality::sim::{
    AccessKind, CacheGeometry, CmlEntry, CpuStats, Machine, MachineConfig, ThreadStats, TlbConfig,
    VAddr,
};
use thread_locality::threads::sched::FcfsScheduler;
use thread_locality::threads::{
    BatchCtx, ChaosConfig, Control, Engine, EngineConfig, Program, SchedPolicy,
};
use thread_locality::workloads::{
    barnes, fmm, merge, ocean, photo, raytrace, tasks, tsp, typechecker, App,
};

const ARENA: u64 = 64 * 1024;

/// The E-cache geometries of the replays: the Ultra-1's direct-mapped
/// `8192x1`, a 4-way `2048x4`, and the fully associative `1x8192`, whose
/// `RefMachine` set is one LRU stack over the whole cache.
const GEOMETRIES: [CacheGeometry; 3] = [
    CacheGeometry { sets: 8192, ways: 1, line: 64 },
    CacheGeometry { sets: 2048, ways: 4, line: 64 },
    CacheGeometry { sets: 1, ways: 8192, line: 64 },
];

/// A TLB small enough for the replays to overflow and evict from, with
/// walks that cost cycles, so its hit and LRU order show in every count.
const SMALL_TLB: TlbConfig = TlbConfig { sets: 4, ways: 2, walk_cycles: 30 };

fn kind_of(sel: u8) -> AccessKind {
    match sel % 3 {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        _ => AccessKind::Fetch,
    }
}

/// Every externally observable surface of a machine, for diffing.
#[derive(Debug, PartialEq)]
struct Observed {
    cycles: u64,
    cpu0: CpuStats,
    cpu1: CpuStats,
    stats_a: ThreadStats,
    stats_b: ThreadStats,
    pic0: (u32, u32),
    pic1: (u32, u32),
    resident0: u64,
    resident1: u64,
    footprints0: Vec<(ThreadId, u64)>,
    footprints1: Vec<(ThreadId, u64)>,
    total_misses: u64,
    page_faults: u64,
    cml0: Vec<CmlEntry>,
    cml1: Vec<CmlEntry>,
}

/// What the script below asks of a machine, answered alike by `Machine`
/// and `RefMachine`.
trait Driven {
    fn set_running(&mut self, cpu: usize, tid: Option<ThreadId>);
    fn access(&mut self, cpu: usize, va: VAddr, kind: AccessKind) -> u64;
    fn observe(&mut self, cycles: u64) -> Observed;
}

impl Driven for Machine {
    fn set_running(&mut self, cpu: usize, tid: Option<ThreadId>) {
        Machine::set_running(self, cpu, tid);
    }
    fn access(&mut self, cpu: usize, va: VAddr, kind: AccessKind) -> u64 {
        Machine::access(self, cpu, va, kind)
    }
    fn observe(&mut self, cycles: u64) -> Observed {
        Observed {
            cycles,
            cpu0: self.cpu_stats(0),
            cpu1: self.cpu_stats(1),
            stats_a: self.thread_stats(ThreadId(1)),
            stats_b: self.thread_stats(ThreadId(2)),
            pic0: self.pic(0).read_raw(),
            pic1: self.pic(1).read_raw(),
            resident0: self.l2_resident_lines(0),
            resident1: self.l2_resident_lines(1),
            footprints0: self.l2_footprints(0).into_iter().collect(),
            footprints1: self.l2_footprints(1).into_iter().collect(),
            total_misses: self.total_l2_misses(),
            page_faults: self.page_faults(),
            cml0: self.cml_drain(0),
            cml1: self.cml_drain(1),
        }
    }
}

impl Driven for RefMachine {
    fn set_running(&mut self, cpu: usize, tid: Option<ThreadId>) {
        RefMachine::set_running(self, cpu, tid);
    }
    fn access(&mut self, cpu: usize, va: VAddr, kind: AccessKind) -> u64 {
        RefMachine::access(self, cpu, va, kind)
    }
    fn observe(&mut self, cycles: u64) -> Observed {
        Observed {
            cycles,
            cpu0: self.cpu_stats(0),
            cpu1: self.cpu_stats(1),
            stats_a: self.thread_stats(ThreadId(1)),
            stats_b: self.thread_stats(ThreadId(2)),
            pic0: self.pic_raw(0),
            pic1: self.pic_raw(1),
            resident0: self.l2_resident_lines(0),
            resident1: self.l2_resident_lines(1),
            footprints0: self.l2_footprints(0),
            footprints1: self.l2_footprints(1),
            total_misses: self.cpu_stats(0).l2_misses + self.cpu_stats(1).l2_misses,
            page_faults: self.page_faults(),
            cml0: self.cml_drain(0),
            cml1: self.cml_drain(1),
        }
    }
}

/// The warm-up: thread B on cpu 1 touches lines all over the arena (with
/// some writes), so the directory has remote holders and dirty lines
/// before the compared operation runs on cpu 0.
fn warm_up(m: &mut impl Driven, arena: VAddr, prelude: &[(u16, u8)]) {
    m.set_running(1, Some(ThreadId(2)));
    for &(line, write) in prelude {
        let kind = if write == 1 { AccessKind::Write } else { AccessKind::Read };
        m.access(1, arena.offset(u64::from(line) * 64 % ARENA), kind);
    }
    m.set_running(1, None);
}

/// The epilogue: writes from the other processor that collide with the
/// accessed range surface any divergence in directory or cache internals
/// as a stats difference, and cpu 0 then repeats its accesses, so a copy
/// the writes should have purged from an L1 shows up as a hit.
fn epilogue(m: &mut impl Driven, base: VAddr, stride: u64, count: u64, kind: AccessKind) {
    m.set_running(0, None);
    m.set_running(1, Some(ThreadId(2)));
    for i in 0..16u64 {
        m.access(1, base.offset((i * 64) % ARENA), AccessKind::Write);
    }
    m.set_running(1, None);
    for i in 0..count {
        m.access(0, base.offset(i * stride), kind);
    }
}

proptest! {
    /// A run followed by a list of mixed-kind references leaves the
    /// machine in exactly the same state whether the run goes through
    /// `access_run` and the list through `access_batch`, both go through
    /// one `access_batch`, or every reference through its own `access`,
    /// and all three leave it in the state `RefMachine` reaches —
    /// counters, stats, PICs, footprints, CML — for arbitrary strides
    /// (including 0 and page-crossing), counts (including 0), kinds,
    /// warm-up sharing patterns, the three E-cache geometries and a TLB
    /// that evicts; and the four stay indistinguishable under a
    /// follow-up write storm from the other processor and a repeat of
    /// the run (identical internal cache/directory state, not just
    /// identical summaries).
    #[test]
    fn run_matches_scalar_loop(
        prelude in proptest::collection::vec((0u16..1024, 0u8..2), 0..64),
        singles in proptest::collection::vec((0u64..ARENA, 0u8..3), 0..48),
        base_off in 0u64..8192,
        stride in prop_oneof![Just(0u64), Just(1), Just(63), Just(64), Just(65),
                              Just(4096), Just(8192), 0u64..512],
        count in 0u64..96,
        kind_sel in 0u8..3,
        geometry in 0usize..3,
        small_tlb in 0u8..2,
    ) {
        let kind = kind_of(kind_sel);
        let a = ThreadId(1);
        let tlb = if small_tlb == 1 { TlbConfig { sets: 2, ways: 2, walk_cycles: 30 } }
                  else { TlbConfig::default() };
        let config = MachineConfig::enterprise5000(2)
            .with_l2_geometry(GEOMETRIES[geometry])
            .with_tlb(tlb);
        let machine = || {
            let mut m = Machine::try_new(config.clone()).expect("valid config");
            m.enable_cml(64);
            let arena = m.alloc(ARENA, 64);
            m.register_region(ThreadId(2), arena, ARENA);
            warm_up(&mut m, arena, &prelude);
            (m, arena)
        };
        let (mut m1, arena) = machine();
        let (mut m2, arena2) = machine();
        let (mut m3, _) = machine();
        prop_assert_eq!(arena, arena2, "allocation is deterministic");
        let mut r = RefMachine::new(config.clone());
        r.enable_cml(64);
        r.register_region(ThreadId(2), arena, ARENA);
        warm_up(&mut r, arena, &prelude);
        let base = arena.offset(base_off);
        let run = (0..count).map(|i| (base.offset(i * stride), kind));
        let singles: Vec<_> =
            singles.iter().map(|&(off, sel)| (arena.offset(off), kind_of(sel))).collect();
        let refs: Vec<_> = run.chain(singles.iter().copied()).collect();

        m1.set_running(0, Some(a));
        let run_cycles = m1.access_run(0, base, stride, count, kind) + m1.access_batch(0, &singles);
        m3.set_running(0, Some(a));
        let batch_cycles = m3.access_batch(0, &refs);
        let (mut loop_cycles, mut ref_cycles) = (0, 0);
        m2.set_running(0, Some(a));
        r.set_running(0, Some(a));
        for &(va, kind) in &refs {
            loop_cycles += m2.access(0, va, kind);
            ref_cycles += r.access(0, va, kind);
        }
        epilogue(&mut m1, base, stride, count, kind);
        epilogue(&mut m2, base, stride, count, kind);
        epilogue(&mut m3, base, stride, count, kind);
        epilogue(&mut r, base, stride, count, kind);

        let o1 = m1.observe(run_cycles);
        let o2 = m2.observe(loop_cycles);
        let o3 = m3.observe(batch_cycles);
        let o4 = r.observe(ref_cycles);
        prop_assert_eq!(&o1, &o2);
        prop_assert_eq!(&o1, &o3);
        prop_assert_eq!(&o1, &o4);
    }
}

/// A workload of the replays: its name and how it spawns.
type Workload = (&'static str, fn(&mut Engine));

/// The four parallel workloads and the five single-threaded apps not among
/// them, at their small parameters.
const WORKLOADS: [Workload; 9] = [
    ("tasks", |e| {
        tasks::spawn_parallel(e, &tasks::TasksParams::small());
    }),
    ("merge", |e| {
        merge::spawn_parallel(e, &merge::MergeParams::small());
    }),
    ("photo", |e| {
        photo::spawn_parallel(e, &photo::PhotoParams::small());
    }),
    ("tsp", |e| {
        tsp::spawn_parallel(e, &tsp::TspParams::small());
    }),
    ("barnes", |e| {
        barnes::spawn_single(e, &barnes::BarnesParams::small());
    }),
    ("fmm", |e| {
        fmm::spawn_single(e, &fmm::FmmParams::small());
    }),
    ("ocean", |e| {
        ocean::spawn_single(e, &ocean::OceanParams::small());
    }),
    ("raytrace", |e| {
        raytrace::spawn_single(e, &raytrace::RaytraceParams::small());
    }),
    ("typechecker", |e| {
        typechecker::spawn_single(e, &typechecker::TypecheckerParams::small());
    }),
];

/// Workloads that outgrow the E-cache of each processor, so replacement
/// order decides the counts: tasks over 51 200 lines, and the two
/// Figure 7 apps at their default parameters, whose misses differ on
/// each geometry and whose small TLBs miss hundreds of thousands of times.
const EVICTING: [Workload; 3] = [
    ("tasks, 51 200 lines", |e| {
        let params =
            tasks::TasksParams { tasks: 64, footprint_lines: 800, periods: 2, overlap: 0.25 };
        tasks::spawn_parallel(e, &params);
    }),
    ("typechecker, default", |e| {
        App::Typechecker.spawn_single_seeded(e, App::Typechecker.default_seed());
    }),
    ("raytrace, default", |e| {
        App::Raytrace.spawn_single_seeded(e, App::Raytrace.default_seed());
    }),
];

/// Runs a workload on four processors with the trace and a CML on from
/// the first reference, replays the trace into a `RefMachine` with the
/// same CML, and asserts every per-processor memory counter, the
/// resident E-cache lines, both raw PIC registers, the CML entries and
/// the page faults equal. The engine never flushes a processor, so the
/// trace is the whole memory history.
fn replay_matches(workload: Workload, geometry: CacheGeometry, chaos: Option<ChaosConfig>) {
    let (name, spawn) = workload;
    let config = MachineConfig::enterprise5000(4).with_l2_geometry(geometry).with_tlb(SMALL_TLB);
    let engine_config = EngineConfig { chaos, ..EngineConfig::default() };
    let mut engine = Engine::new(config.clone(), SchedPolicy::Lff, engine_config).unwrap();
    engine.machine_mut().start_tracing();
    engine.machine_mut().enable_cml(64);
    spawn(&mut engine);
    // Chaos may leave a workload deadlocked (a killed thread held what
    // the others wait for); the references issued up to then still are
    // the machine's whole history.
    if let Err(error) = engine.run() {
        assert!(chaos.is_some(), "{name} failed clean: {error}");
    }
    let m = engine.machine_mut();
    let trace = m.take_trace().expect("tracing was on");
    let mut r = RefMachine::new(config);
    r.enable_cml(64);
    for rec in trace.iter() {
        r.access(usize::from(rec.cpu), rec.addr, rec.kind);
    }
    // Compute instructions never reach the machine's reference path.
    let memory = |s: CpuStats| CpuStats { instructions: 0, ..s };
    let cell = format!("{name} on {}x{}, chaos {chaos:?}", geometry.sets, geometry.ways);
    for cpu in 0..4 {
        assert_eq!(memory(m.cpu_stats(cpu)), memory(r.cpu_stats(cpu)), "{cell}: cpu{cpu}");
        assert_eq!(m.l2_resident_lines(cpu), r.l2_resident_lines(cpu), "{cell}: cpu{cpu} L2");
        assert_eq!(m.pic(cpu).read_raw(), r.pic_raw(cpu), "{cell}: cpu{cpu} PIC");
        assert_eq!(m.cml_drain(cpu), r.cml_drain(cpu), "{cell}: cpu{cpu} CML");
    }
    assert_eq!(m.page_faults(), r.page_faults(), "{cell}: page faults");
}

/// Tier-1's share of the replay matrix: two workloads, one that shares
/// and writes and one that only reads, on every geometry, clean.
#[test]
fn workload_traces_replay_into_the_reference() {
    for geometry in GEOMETRIES {
        replay_matches(WORKLOADS[0], geometry, None);
        replay_matches(WORKLOADS[1], geometry, None);
    }
}

/// The whole replay matrix: every workload on every geometry, clean and
/// under each lifecycle-chaos scenario's injector, and the evicting
/// workloads on every geometry, clean. Minutes in a debug build, so
/// `ci.sh` runs it in its release suite, which includes the ignored
/// tests.
#[test]
#[ignore = "minutes unoptimised; ci.sh runs it in release"]
fn every_workload_trace_replays_into_the_reference() {
    for row in Ablation::Chaos.rows() {
        let Injector::Lifecycle(chaos) = row.injector else {
            unreachable!("a chaos row installs a lifecycle injector")
        };
        for workload in WORKLOADS {
            for geometry in GEOMETRIES {
                replay_matches(workload, geometry, chaos);
            }
        }
    }
    for workload in EVICTING {
        for geometry in GEOMETRIES {
            replay_matches(workload, geometry, None);
        }
    }
}

/// A program that touches `count` addresses `stride` apart, one batch per
/// period, either as scalar per-address ops or as one range run — the
/// two must be indistinguishable to the machine and the scheduler.
#[derive(Debug)]
struct Toucher {
    batched: bool,
    region: VAddr,
    stride: u64,
    count: u64,
    write: bool,
    periods_left: u32,
}

impl Program for Toucher {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        let span = self.count * self.stride;
        let bytes = span.max(64);
        if self.region.0 == 0 {
            self.region = ctx.alloc(bytes, 64);
        }
        ctx.register_region(self.region, bytes);
        if self.batched {
            if self.write {
                ctx.write_range(self.region, span, self.stride);
            } else {
                ctx.read_range(self.region, span, self.stride);
            }
        } else {
            for i in 0..self.count {
                let va = self.region.offset(i * self.stride);
                if self.write {
                    ctx.write(va);
                } else {
                    ctx.read(va);
                }
            }
        }
        ctx.compute(self.count);
        self.periods_left -= 1;
        if self.periods_left == 0 {
            Control::Exit
        } else {
            Control::Sleep(ctx.batch_cycles())
        }
    }
}

/// One run of `threads` (`(stride, count, write)` each): its observation
/// log, cpu 0's statistics, its context switches and its aborts.
fn run_engine(
    batched: bool,
    config: EngineConfig,
    threads: &[(u64, u64, u8)],
) -> (Vec<String>, Vec<u64>, u64, u64) {
    let mut e =
        Engine::with_scheduler(MachineConfig::ultra1(), Box::new(FcfsScheduler::new()), config)
            .expect("valid config");
    e.enable_observation();
    for &(stride, count, write) in threads {
        e.spawn(Box::new(Toucher {
            batched,
            region: VAddr(0),
            stride,
            count,
            write: write == 1,
            periods_left: 3,
        }));
    }
    let report = e.run().expect("run completes");
    let log = e.take_observation().expect("observation enabled");
    let events: Vec<String> = log.events().iter().map(|ev| format!("{ev:?}")).collect();
    let stats = e.machine().cpu_stats(0);
    (
        events,
        vec![
            stats.l1d_refs,
            stats.l1d_misses,
            stats.l2_refs,
            stats.l2_hits,
            stats.l2_misses,
            stats.mem_cycles,
            stats.instructions,
        ],
        report.context_switches,
        report.threads_aborted,
    )
}

proptest! {
    /// Programs using `read_range`/`write_range` produce the identical
    /// machine statistics and switch count as the same programs issuing
    /// scalar `read`/`write` calls, across interleaved multi-thread
    /// schedules.
    #[test]
    fn range_runs_match_scalar_programs(
        specs in proptest::collection::vec(
            (prop_oneof![Just(32u64), Just(64), Just(192)], 1u64..48, 0u8..2),
            1..6),
    ) {
        let (_, st_a, sw_a, _) = run_engine(true, EngineConfig::default(), &specs);
        let (_, st_b, sw_b, _) = run_engine(false, EngineConfig::default(), &specs);
        prop_assert_eq!(st_a, st_b);
        prop_assert_eq!(sw_a, sw_b);
    }

    /// The equivalence survives the two adversarial engine modes, whose
    /// decisions fall at batch boundaries that batching the accesses
    /// inside a batch does not move: under `schedule_points` every batch
    /// is a decision point, and under chaos the seeded fault stream kills
    /// the same threads at the same points in both variants.
    #[test]
    fn runs_match_under_schedule_points_and_chaos(
        specs in proptest::collection::vec(
            (prop_oneof![Just(32u64), Just(64), Just(192)], 1u64..48, 0u8..2),
            1..5),
        chaos_seed in 0u64..1_024,
    ) {
        let sp = EngineConfig { schedule_points: true, ..EngineConfig::default() };
        let (_, st_a, sw_a, _) = run_engine(true, sp, &specs);
        let (_, st_b, sw_b, _) = run_engine(false, sp, &specs);
        prop_assert_eq!(st_a, st_b);
        prop_assert_eq!(sw_a, sw_b);

        let chaos = EngineConfig {
            chaos: Some(ChaosConfig {
                seed: chaos_seed,
                abort_running_per_64k: 8_192, // ~1/8 per batch: aborts mid-run
                ..ChaosConfig::default()
            }),
            ..EngineConfig::default()
        };
        let (_, st_a, sw_a, ab_a) = run_engine(true, chaos, &specs);
        let (_, st_b, sw_b, ab_b) = run_engine(false, chaos, &specs);
        prop_assert_eq!(st_a, st_b);
        prop_assert_eq!(sw_a, sw_b);
        prop_assert_eq!(ab_a, ab_b, "same seed must kill the same threads");
    }

    /// Spelling the default memory system out explicitly — the ultra1's
    /// direct-mapped 8192×1 L2, 8 KiB pages, and the default TLB — must
    /// be indistinguishable from leaving every `EngineConfig` override
    /// at `None`: same observation-log events, statistics, and switch
    /// counts. The geometry plumbing is a pure generalization, not a
    /// behavior change.
    #[test]
    fn explicit_direct_mapped_geometry_is_byte_identical(
        specs in proptest::collection::vec(
            (prop_oneof![Just(32u64), Just(64), Just(192)], 1u64..48, 0u8..2),
            1..5),
        batched_sel in 0u8..2,
    ) {
        let batched = batched_sel == 1;
        let explicit = EngineConfig {
            l2_geometry: Some(CacheGeometry { sets: 8192, ways: 1, line: 64 }),
            page_bytes: Some(8 * 1024),
            tlb: Some(TlbConfig::default()),
            ..EngineConfig::default()
        };
        let a = run_engine(batched, EngineConfig::default(), &specs);
        let b = run_engine(batched, explicit, &specs);
        prop_assert_eq!(a, b);
    }
}
