//! Property-based equivalence of the batched reference-run path against
//! the scalar per-address loop it replaces.
//!
//! `Machine::access_run` (and the `BatchCtx` run helpers built on it)
//! promise to be observationally **byte-identical** to issuing each
//! access separately: every counter, statistic, directory bit, CML
//! entry, and observation-log event must come out the same. These tests
//! drive both paths over machines warmed into identical states —
//! including cross-processor sharing so the remote-miss and
//! write-invalidate cases fire — and diff every observable surface.

use proptest::prelude::*;
use thread_locality::core::ThreadId;
use thread_locality::sim::{AccessKind, CacheGeometry, Machine, MachineConfig, TlbConfig, VAddr};
use thread_locality::threads::sched::FcfsScheduler;
use thread_locality::threads::{BatchCtx, ChaosConfig, Control, Engine, EngineConfig, Program};

const ARENA: u64 = 64 * 1024;

fn kind_of(sel: u8) -> AccessKind {
    match sel % 3 {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        _ => AccessKind::Fetch,
    }
}

/// Builds a machine with an arena allocated and a warm-up access pattern
/// applied: thread B on cpu 1 touches a prefix of the arena (with some
/// writes), so the directory has remote holders and dirty lines before
/// the compared operation runs on cpu 0.
fn warmed_machine(prelude: &[(u16, u8)]) -> (Machine, VAddr) {
    let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).expect("valid config");
    m.enable_cml(64);
    let arena = m.alloc(ARENA, 64);
    let b = ThreadId(2);
    m.register_region(b, arena, ARENA);
    m.set_running(1, Some(b));
    for &(off, write) in prelude {
        let kind = if write == 1 { AccessKind::Write } else { AccessKind::Read };
        m.access(1, arena.offset(u64::from(off) % ARENA), kind);
    }
    m.set_running(1, None);
    (m, arena)
}

/// Every externally observable surface of a machine, for diffing.
#[derive(Debug, PartialEq)]
struct Observed {
    cycles: u64,
    cpu0: thread_locality::sim::CpuStats,
    cpu1: thread_locality::sim::CpuStats,
    stats_a: thread_locality::sim::ThreadStats,
    stats_b: thread_locality::sim::ThreadStats,
    pic0: (u32, u32),
    pic1: (u32, u32),
    resident0: u64,
    resident1: u64,
    footprints0: Vec<(ThreadId, u64)>,
    footprints1: Vec<(ThreadId, u64)>,
    total_misses: u64,
    page_faults: u64,
    cml0: Vec<thread_locality::sim::CmlEntry>,
    cml1: Vec<thread_locality::sim::CmlEntry>,
}

fn observe(m: &mut Machine, cycles: u64) -> Observed {
    Observed {
        cycles,
        cpu0: m.cpu_stats(0),
        cpu1: m.cpu_stats(1),
        stats_a: m.thread_stats(ThreadId(1)),
        stats_b: m.thread_stats(ThreadId(2)),
        pic0: m.pic(0).read_raw(),
        pic1: m.pic(1).read_raw(),
        resident0: m.l2_resident_lines(0),
        resident1: m.l2_resident_lines(1),
        footprints0: m.l2_footprints(0).into_iter().collect(),
        footprints1: m.l2_footprints(1).into_iter().collect(),
        total_misses: m.total_l2_misses(),
        page_faults: m.page_faults(),
        cml0: m.cml_drain(0),
        cml1: m.cml_drain(1),
    }
}

proptest! {
    /// `access_run` leaves the machine in exactly the state the scalar
    /// loop does — counters, stats, PICs, footprints, CML — for
    /// arbitrary strides (including 0 and page-crossing), counts
    /// (including 0), kinds, and warm-up sharing patterns; and the two
    /// machines stay indistinguishable under a follow-up write storm
    /// from the other processor (identical internal cache/directory
    /// state, not just identical summaries).
    #[test]
    fn run_matches_scalar_loop(
        prelude in proptest::collection::vec((0u16..1024, 0u8..2), 0..64),
        base_off in 0u64..8192,
        stride in prop_oneof![Just(0u64), Just(1), Just(63), Just(64), Just(65),
                              Just(4096), Just(8192), 0u64..512],
        count in 0u64..96,
        kind_sel in 0u8..3,
    ) {
        let kind = kind_of(kind_sel);
        let a = ThreadId(1);
        let (mut m1, arena1) = warmed_machine(&prelude);
        let (mut m2, arena2) = warmed_machine(&prelude);
        prop_assert_eq!(arena1, arena2, "allocation is deterministic");
        let base = arena1.offset(base_off);

        m1.set_running(0, Some(a));
        m2.set_running(0, Some(a));
        let run_cycles = m1.access_run(0, base, stride, count, kind);
        let mut loop_cycles = 0;
        for i in 0..count {
            loop_cycles += m2.access(0, base.offset(i * stride), kind);
        }

        // Epilogue from the other processor: writes that collide with the
        // accessed range surface any divergence in directory or cache
        // internals as a stats difference.
        for m in [&mut m1, &mut m2] {
            m.set_running(0, None);
            m.set_running(1, Some(ThreadId(2)));
            for i in 0..16u64 {
                m.access(1, base.offset((i * 64) % ARENA), AccessKind::Write);
            }
            m.set_running(1, None);
        }

        let o1 = observe(&mut m1, run_cycles);
        let o2 = observe(&mut m2, loop_cycles);
        prop_assert_eq!(o1, o2);
    }
}

/// A program that touches `count` addresses, one batch per period,
/// either as scalar per-address ops or as a points-run — the two must be
/// indistinguishable from outside the engine.
#[derive(Debug)]
struct Toucher {
    batched: bool,
    region: VAddr,
    bytes: u64,
    stride: u64,
    count: u64,
    write: bool,
    periods_left: u32,
}

impl Program for Toucher {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        if self.region.0 == 0 {
            self.region = ctx.alloc(self.bytes, 64);
        }
        ctx.register_region(self.region, self.bytes);
        if self.batched {
            if self.write {
                ctx.write_run_points(self.region, self.stride, self.count);
            } else {
                ctx.read_run_points(self.region, self.stride, self.count);
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
    fn name(&self) -> &str {
        "toucher"
    }
}

fn run_engine(
    batched: bool,
    config: EngineConfig,
    threads: &[(u64, u64, u8)],
) -> (Vec<String>, Vec<u64>, u64, Vec<String>, u64) {
    let mut e =
        Engine::with_scheduler(MachineConfig::ultra1(), Box::new(FcfsScheduler::new()), config)
            .expect("valid config");
    e.enable_observation();
    for &(stride, count, write) in threads {
        e.spawn(Box::new(Toucher {
            batched,
            region: VAddr(0),
            bytes: (count * stride.max(1)).max(64),
            stride,
            count,
            write: write == 1,
            periods_left: 3,
        }));
    }
    let report = e.run().expect("run completes");
    let log = e.take_observation().expect("observation enabled");
    let events: Vec<String> = log.events().iter().map(|ev| format!("{ev:?}")).collect();
    let points: Vec<String> = e.take_schedule_points().iter().map(|p| format!("{p:?}")).collect();
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
        points,
        report.threads_aborted,
    )
}

proptest! {
    /// Programs using `read_run_points`/`write_run_points` produce the
    /// identical observation-log event sequence, machine statistics, and
    /// switch count as the same programs issuing scalar `read`/`write`
    /// calls, across interleaved multi-thread schedules.
    #[test]
    fn points_runs_match_scalar_programs(
        specs in proptest::collection::vec(
            (prop_oneof![Just(0u64), Just(32), Just(64), Just(192)],
             1u64..48,
             0u8..2),
            1..6),
    ) {
        let (ev_a, st_a, sw_a, _, _) = run_engine(true, EngineConfig::default(), &specs);
        let (ev_b, st_b, sw_b, _, _) = run_engine(false, EngineConfig::default(), &specs);
        prop_assert_eq!(ev_a, ev_b);
        prop_assert_eq!(st_a, st_b);
        prop_assert_eq!(sw_a, sw_b);
    }

    /// The equivalence survives the two adversarial engine modes. Under
    /// `schedule_points` the points variants must yield the identical
    /// [`SchedulePoint`] sequence — same visible ops, same one-span-per-
    /// element access lists — because batch boundaries (the decision
    /// points) are unchanged by batching the accesses inside a batch.
    /// Under chaos, abort decisions fire at those same batch boundaries,
    /// so the seeded fault stream kills the same threads at the same
    /// points in both variants.
    #[test]
    fn runs_match_under_schedule_points_and_chaos(
        specs in proptest::collection::vec(
            (prop_oneof![Just(0u64), Just(32), Just(64), Just(192)],
             1u64..48,
             0u8..2),
            1..5),
        chaos_seed in 0u64..1_024,
    ) {
        let sp = EngineConfig { schedule_points: true, ..EngineConfig::default() };
        let (ev_a, st_a, sw_a, pts_a, _) = run_engine(true, sp, &specs);
        let (ev_b, st_b, sw_b, pts_b, _) = run_engine(false, sp, &specs);
        prop_assert_eq!(ev_a, ev_b);
        prop_assert_eq!(st_a, st_b);
        prop_assert_eq!(sw_a, sw_b);
        prop_assert!(!pts_a.is_empty(), "schedule_points must record points");
        prop_assert_eq!(pts_a, pts_b);

        let chaos = EngineConfig {
            chaos: Some(ChaosConfig {
                seed: chaos_seed,
                abort_running_per_64k: 8_192, // ~1/8 per batch: aborts mid-run
                ..ChaosConfig::default()
            }),
            ..EngineConfig::default()
        };
        let (ev_a, st_a, sw_a, _, ab_a) = run_engine(true, chaos, &specs);
        let (ev_b, st_b, sw_b, _, ab_b) = run_engine(false, chaos, &specs);
        prop_assert_eq!(ev_a, ev_b);
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
            (prop_oneof![Just(0u64), Just(32), Just(64), Just(192)],
             1u64..48,
             0u8..2),
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
