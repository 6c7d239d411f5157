//! Property tests of slot recycling: a thread spawned into a recycled
//! dense slot must never inherit the previous occupant's state — not the
//! sanitizer's EWMAs or confidence, not the machine's per-thread counter
//! deltas or cache-line ownership, not the estimator's footprint rows,
//! and not sharing-graph edges. Each property drives random spawn/exit
//! sequences against one slot-indexed consumer and asserts the
//! fresh-on-rebind invariant.

use proptest::prelude::*;
use std::collections::BTreeMap;
use thread_locality::core::{
    CounterSanitizer, CpuId, EstimatorConfig, FootprintEntry, LocalityEstimator, ModelParams,
    PolicyKind, PrioritySchemes, PriorityUpdate, SanitizerConfig, SharingGraph, SlotId, ThreadId,
    ThreadSlots,
};
use thread_locality::sim::{
    AccessKind, CacheGeometry, FootprintScratch, Machine, MachineConfig, TlbConfig, VAddr,
};
use thread_locality::threads::{
    BatchCtx, ChaosConfig, Control, Engine, EngineConfig, MutexId, Program, SchedPolicy,
};

/// One step of a random lifecycle schedule over a small tid universe.
/// `op == 1` binds (idempotent), `op == 0` releases.
fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..2, 0u64..10), 1..200)
}

/// What `registry_never_aliases` maps [`ops`]' ten ids onto: a sequential
/// run from 0 like the engine's, both edges of `ThreadSlots`' direct-table
/// bound (2²⁰: a unit test in `slots.rs` pins the private constant to the
/// 8 MiB it stands for), and the far end of `u64`.
const REGISTRY_IDS: [u64; 10] =
    [0, 1, 2, 3, (1 << 20) - 2, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 1 << 40, u64::MAX];

proptest! {
    /// The registry itself, against a `BTreeMap` of the handles it
    /// issued, over ids from both sides of the bound where its direct
    /// table hands over to its map ([`REGISTRY_IDS`]): recycled indices
    /// always carry a fresh generation, every id looks up to exactly the
    /// model's handle, a released handle is dead even though its index
    /// lives on under a new tenant, and `iter_live` is the model in slot
    /// order. Mutants of `slots.rs` this fails on: the vacancy test on
    /// `generation` instead of `index`; `lookup` without the vacancy test;
    /// `release` leaving the table entry, or the map entry, in place;
    /// `live()` counting the table or the map alone. `<=` at the bound
    /// still answers correctly and passes here: the unit test
    /// `direct_table_never_outgrows_the_bound` is what fails on it.
    #[test]
    fn registry_never_aliases(ops in ops()) {
        let mut slots = ThreadSlots::new();
        let mut live: BTreeMap<u64, SlotId> = Default::default();
        let mut dead: Vec<SlotId> = Vec::new();
        for &(op, t) in &ops {
            let t = REGISTRY_IDS[t as usize];
            if op == 1 {
                let s = slots.bind(ThreadId(t));
                if let Some(&prev) = live.get(&t) {
                    prop_assert_eq!(s, prev, "re-bind of a live tid must be idempotent");
                } else {
                    for &old in &dead {
                        if old.index() == s.index() {
                            prop_assert!(
                                old.generation() != s.generation(),
                                "recycled index {} reissued with a stale generation",
                                s.index()
                            );
                        }
                    }
                    live.insert(t, s);
                }
            } else if let Some(s) = live.remove(&t) {
                prop_assert_eq!(slots.release(ThreadId(t)), Some(s));
                dead.push(s);
            } else {
                prop_assert_eq!(slots.release(ThreadId(t)), None);
            }
            prop_assert_eq!(slots.live(), live.len());
            for t2 in REGISTRY_IDS {
                prop_assert_eq!(slots.lookup(ThreadId(t2)), live.get(&t2).copied(), "id {}", t2);
            }
            let mut in_slot_order: Vec<(SlotId, ThreadId)> =
                live.iter().map(|(&t2, &s2)| (s2, ThreadId(t2))).collect();
            in_slot_order.sort();
            for &(s2, t2) in &in_slot_order {
                prop_assert_eq!(slots.tid_of(s2), Some(t2));
                prop_assert!(slots.is_live(s2));
            }
            prop_assert_eq!(slots.iter_live().collect::<Vec<_>>(), in_slot_order);
            for &s2 in &dead {
                prop_assert!(!slots.is_live(s2), "released handle still resolves");
                prop_assert_eq!(slots.tid_of(s2), None);
            }
        }
    }

    /// Sanitizer: after a thread with established (low-miss) history
    /// exits, a successor in its recycled slot starts at warmup — its
    /// first interval is taken verbatim, never clamped against the dead
    /// thread's EWMA, and its confidence starts back at 1.
    #[test]
    fn sanitizer_state_dies_with_the_thread(
        ops in ops(),
        probe_misses in 500u64..50_000,
    ) {
        let mut san = CounterSanitizer::new(SanitizerConfig::default());
        let mut live: std::collections::BTreeSet<u64> = Default::default();
        for &(op, t) in &ops {
            if op == 1 && live.insert(t) {
                // Establish history: enough clean tiny-miss intervals to
                // pass warmup, plus a trap to depress confidence.
                for _ in 0..8 {
                    let out = san.sanitize(ThreadId(t), 100, 99, 1);
                    prop_assert!(!out.corrected);
                }
                san.note_trap(ThreadId(t));
                prop_assert!(san.confidence(ThreadId(t)) < 1.0);
            } else if op == 0 && live.remove(&t) {
                san.forget(ThreadId(t));
                // A successor reusing the slot (same tid is the sharpest
                // case) sees fresh state: full confidence, and a first
                // interval far above the dead EWMA passes uncorrected
                // where inherited history would have clamped it.
                prop_assert_eq!(san.confidence(ThreadId(t)), 1.0);
                let out = san.sanitize(ThreadId(t), probe_misses, 0, probe_misses);
                prop_assert!(!out.corrected, "recycled slot inherited outlier history");
                prop_assert_eq!(out.misses, probe_misses);
                san.forget(ThreadId(t));
            }
        }
    }

    /// Machine: counter deltas and cache-line ownership are buried with
    /// `retire_thread`; a successor in the recycled slot owns nothing
    /// and counts from zero, even while the dead thread's lines are
    /// still resident in the E-cache.
    #[test]
    fn machine_ownership_dies_with_the_thread(
        lifecycles in proptest::collection::vec((1u64..64, 1u64..32), 1..12),
    ) {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        let mut next_tid = 1u64;
        for &(lines, rounds) in &lifecycles {
            let t = ThreadId(next_tid);
            next_tid += 1;
            let region = m.alloc(lines * 64, 64);
            m.register_region(t, region, lines * 64);
            m.set_running(0, Some(t));
            for _ in 0..rounds {
                for l in 0..lines {
                    m.access(0, region.offset(l * 64), AccessKind::Read);
                }
            }
            prop_assert_eq!(m.thread_stats(t).accesses, lines * rounds);
            prop_assert!(m.l2_footprint_lines(0, t) > 0);
            m.set_running(0, None);
            m.retire_thread(t);
            // Retired threads keep reporting from cold storage...
            prop_assert_eq!(m.thread_stats(t).accesses, lines * rounds);
            // ...but the successor that recycles the slot starts clean.
            let u = ThreadId(next_tid);
            next_tid += 1;
            let fresh = m.alloc(64, 64);
            m.register_region(u, fresh, 64);
            prop_assert_eq!(m.thread_stats(u).accesses, 0);
            prop_assert_eq!(
                m.l2_footprint_lines(0, u), 0,
                "successor inherited resident lines it never touched"
            );
        }
    }

    /// Footprint tracker: after every step of a random history — scalar
    /// accesses and runs (reads and writes on two cpus so invalidations
    /// happen, strides below and above a line, runs crossing pages),
    /// unaligned overlapping repeated registrations (also for threads
    /// that never ran), retirements with a later thread recycling the
    /// slot, flushes — the O(1) tracked count equals the full E-cache
    /// scan for every cpu and every thread ever seen, whenever tracking
    /// was switched on, for a direct-mapped and a 4-way E-cache.
    #[test]
    fn tracked_footprints_equal_the_scan(
        steps in proptest::collection::vec(
            (0u8..12, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            1..48,
        ),
        track_at in 0usize..48,
        four_way in 0u8..2,
    ) {
        const ARENA: u64 = 1 << 20;
        const STRIDES: [u64; 6] = [8, 24, 64, 128, 200, 8192 + 64];
        let geometry = if four_way == 1 {
            CacheGeometry { sets: 2048, ways: 4, line: 64 }
        } else {
            CacheGeometry { sets: 8192, ways: 1, line: 64 }
        };
        let mut m =
            Machine::try_new(MachineConfig::enterprise5000(2).with_l2_geometry(geometry)).unwrap();
        let arena = m.alloc(ARENA, 8192);
        // Four logical threads; retiring one hands its place to a fresh id.
        let mut current: Vec<ThreadId> = (1..=4).map(ThreadId).collect();
        let mut seen = current.clone();
        let mut scratch = FootprintScratch::new();
        for (i, &(op, a, b, c)) in steps.iter().enumerate() {
            if i == track_at {
                m.track_footprints();
            }
            let cpu = (a % 2) as usize;
            let who = (a >> 8) as usize % current.len();
            let kind = if c % 2 == 0 { AccessKind::Read } else { AccessKind::Write };
            match op {
                0..=2 => {
                    m.set_running(cpu, Some(current[who]));
                    m.access(cpu, arena.offset(b % ARENA), kind);
                }
                3..=6 => {
                    let stride = STRIDES[(c >> 8) as usize % STRIDES.len()];
                    let count = ((c >> 16) % 4096 + 1).min((ARENA - b % ARENA) / stride);
                    m.access_run(cpu, arena.offset(b % ARENA), stride, count, kind);
                }
                7..=9 => {
                    let bytes = (c % (96 * 1024)).min(ARENA - b % ARENA);
                    m.register_region(current[who], arena.offset(b % ARENA), bytes);
                }
                10 => {
                    m.retire_thread(current[who]);
                    current[who] = ThreadId(seen.len() as u64 + 1);
                    seen.push(current[who]);
                }
                _ => m.flush_cpu(cpu),
            }
            for cpu in 0..2 {
                m.l2_footprints_into(cpu, &mut scratch);
                for &t in &seen {
                    prop_assert_eq!(
                        m.l2_footprint_lines(cpu, t), scratch.lines(t),
                        "step {} ({:?}): {} on cpu{} (tracking from step {})",
                        i, steps[i], t, cpu, track_at
                    );
                }
            }
        }
    }

    /// Sharing graph: `remove_thread` severs both directions; edges never
    /// resurrect when the tid (or its recycled slot) reappears.
    #[test]
    fn graph_edges_die_with_the_thread(
        seq in proptest::collection::vec((0u64..6, 0u64..6), 1..60),
    ) {
        let mut g = SharingGraph::new();
        let mut model: std::collections::BTreeSet<(u64, u64)> = Default::default();
        for (i, &(a, b)) in seq.iter().enumerate() {
            if a == b {
                continue;
            }
            if i % 3 == 2 {
                g.remove_thread(ThreadId(a));
                model.retain(|&(s, d)| s != a && d != a);
            } else {
                g.set(ThreadId(a), ThreadId(b), 0.5).unwrap();
                model.insert((a, b));
            }
            prop_assert_eq!(g.edge_count(), model.len());
            for t in 0u64..6 {
                let outs: std::collections::BTreeSet<u64> =
                    g.dependents_of(ThreadId(t)).map(|(d, _)| d.0).collect();
                let want: std::collections::BTreeSet<u64> =
                    model.iter().filter(|&&(s, _)| s == t).map(|&(_, d)| d).collect();
                prop_assert_eq!(outs, want, "dependents of t{} diverged", t);
            }
        }
    }
}

/// The estimator as it was before it had slots: one [`FootprintEntry`]
/// per `(cpu, thread)` in a map keyed by thread id, driven through the
/// same public [`PrioritySchemes`] calls. Nothing in it can be recycled,
/// so whatever the slot-indexed rows inherit shows up as a difference.
struct KeyedEstimator {
    schemes: PrioritySchemes,
    misses: Vec<u64>,
    entries: BTreeMap<(usize, ThreadId), FootprintEntry>,
}

impl KeyedEstimator {
    fn new(policy: PolicyKind, params: ModelParams, cpus: usize) -> Self {
        KeyedEstimator {
            schemes: PrioritySchemes::new(policy, params),
            misses: vec![0; cpus],
            entries: BTreeMap::new(),
        }
    }

    fn on_dispatch(&mut self, cpu: usize, tid: ThreadId) {
        let entry = self.entries.entry((cpu, tid)).or_insert_with(FootprintEntry::cold);
        self.schemes.on_dispatch(entry, self.misses[cpu]);
    }

    fn on_interval_end(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        n: u64,
        graph: &SharingGraph,
    ) -> Vec<PriorityUpdate> {
        let m_t0 = self.misses[cpu];
        let entry = self.entries.entry((cpu, tid)).or_insert_with(FootprintEntry::cold);
        let prio = self.schemes.on_block_self(entry, n, m_t0 + n);
        let mut updates = vec![PriorityUpdate { thread: tid, prio }];
        for (dep, q) in graph.dependents_of(tid) {
            let entry = self.entries.entry((cpu, dep)).or_insert_with(FootprintEntry::cold);
            let prio = self.schemes.on_dependent(entry, q, n, m_t0);
            updates.push(PriorityUpdate { thread: dep, prio });
        }
        self.misses[cpu] = m_t0 + n;
        updates
    }

    fn estimate(&self, cpu: usize, tid: ThreadId) -> f64 {
        self.entries
            .get(&(cpu, tid))
            .map_or(0.0, |e| self.schemes.expected_footprint(e, self.misses[cpu]))
    }

    fn priority(&self, cpu: usize, tid: ThreadId) -> f64 {
        self.entries
            .get(&(cpu, tid))
            .map_or_else(|| self.schemes.cold_priority(self.misses[cpu]), |e| e.prio)
    }

    fn retire(&mut self, tid: ThreadId) {
        self.entries.retain(|&(_, t), _| t != tid);
    }
}

proptest! {
    /// Estimator: random spawn / dispatch / interval-end (with and
    /// without dependents) / exit sequences with enough churn to recycle
    /// slots. After every step the estimate and the priority of every
    /// `(cpu, thread)` ever seen equal, bit for bit, those of a
    /// reference keyed by thread id, and a thread that has just been
    /// spawned (into a fresh or a recycled slot) is cold on every cpu.
    /// The cpus `for_each_cpu_at_least` visits, which skips those where
    /// the thread has no row, are likewise the ones a loop over every
    /// cpu of the reference finds, for a threshold cold rows pass (0),
    /// one they do not (8) and one nothing passes (NaN).
    ///
    /// The sequences keep the engine's protocol, which the estimator's
    /// debug-build shadow recompute holds it to: a dispatch puts a thread
    /// that runs nowhere onto an idle cpu, an interval ends only for the
    /// thread running on that cpu and leaves it idle, and only a thread
    /// that runs nowhere exits.
    #[test]
    fn estimator_rows_die_with_the_thread(
        steps in proptest::collection::vec((0u8..10, 0u64..u64::MAX, 0u64..3000), 1..160),
        cpus in 1usize..5,
        crt in 0u8..2,
    ) {
        let policy = if crt == 1 { PolicyKind::Crt } else { PolicyKind::Lff };
        let params = ModelParams::new(1024).unwrap();
        let mut est = LocalityEstimator::new(EstimatorConfig::new(policy, params, cpus));
        let mut reference = KeyedEstimator::new(policy, params, cpus);
        let mut live: Vec<ThreadId> = Vec::new();
        let mut seen: Vec<ThreadId> = Vec::new();
        let mut running: Vec<Option<ThreadId>> = vec![None; cpus];
        for &(op, pick, n) in &steps {
            let cpu = (pick >> 8) as usize % cpus;
            let idle: Vec<ThreadId> =
                live.iter().copied().filter(|&t| !running.contains(&Some(t))).collect();
            let who = idle.get((pick >> 16) as usize % idle.len().max(1)).copied();
            match (op, running[cpu], who) {
                // Spawn (also when no thread is free for the step): ids
                // are never reused, slots are.
                (0..=1, ..) | (2..=7, None, None) | (8.., _, None) => {
                    let tid = ThreadId(seen.len() as u64 + 1);
                    live.push(tid);
                    seen.push(tid);
                    for c in 0..cpus {
                        prop_assert_eq!(est.expected_footprint(CpuId(c), tid), 0.0);
                        prop_assert_eq!(
                            est.priority(CpuId(c), tid).to_bits(),
                            reference.schemes.cold_priority(reference.misses[c]).to_bits(),
                            "{} starts warm on cpu{}", tid, c
                        );
                    }
                }
                (2..=7, None, Some(tid)) => {
                    est.on_dispatch(CpuId(cpu), tid);
                    reference.on_dispatch(cpu, tid);
                    running[cpu] = Some(tid);
                }
                (2..=7, Some(tid), _) => {
                    // Half the interval ends fan out to up to two
                    // dependents, which need not have run anywhere yet.
                    running[cpu] = None;
                    let mut graph = SharingGraph::new();
                    if op >= 5 {
                        for (k, &dep) in live.iter().filter(|&&t| t != tid).take(2).enumerate() {
                            graph.set(tid, dep, 0.25 + 0.5 * k as f64).unwrap();
                        }
                    }
                    let got = est.on_interval_end(CpuId(cpu), tid, n, &graph).to_vec();
                    let want = reference.on_interval_end(cpu, tid, n, &graph);
                    prop_assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert_eq!(g.thread, w.thread);
                        prop_assert_eq!(g.prio.to_bits(), w.prio.to_bits());
                    }
                }
                (8.., _, Some(tid)) => {
                    est.remove_thread(tid);
                    reference.retire(tid);
                    live.retain(|&t| t != tid);
                }
            }
            for c in 0..cpus {
                prop_assert_eq!(est.misses(CpuId(c)), reference.misses[c]);
                for &t in &seen {
                    prop_assert_eq!(
                        est.expected_footprint(CpuId(c), t).to_bits(),
                        reference.estimate(c, t).to_bits(),
                        "estimate of {} on cpu{} after {:?}", t, c, (op, pick, n)
                    );
                    prop_assert_eq!(
                        est.priority(CpuId(c), t).to_bits(),
                        reference.priority(c, t).to_bits(),
                        "priority of {} on cpu{} after {:?}", t, c, (op, pick, n)
                    );
                }
            }
            for threshold in [0.0, 8.0, f64::NAN] {
                for &t in &seen {
                    let mut visited = Vec::new();
                    est.for_each_cpu_at_least(t, threshold, |cpu, prio| {
                        visited.push((cpu.0, prio.to_bits()));
                    });
                    let looped: Vec<_> = (0..cpus)
                        .filter(|&c| reference.estimate(c, t) >= threshold)
                        .map(|c| (c, reference.priority(c, t).to_bits()))
                        .collect();
                    prop_assert_eq!(
                        visited, looped,
                        "cpus at least {} for {} after {:?}", threshold, t, (op, pick, n)
                    );
                }
            }
        }
    }
}

/// Lock a shared mutex, touch a private buffer, unlock, yield — the
/// workload for the engine-level abort properties. Because work happens
/// while the lock is held, chaos kills routinely orphan the mutex.
struct Locker {
    m: MutexId,
    buf: Option<VAddr>,
    rounds: u32,
    phase: u8,
}

impl Program for Locker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        match self.phase {
            0 => {
                self.phase = 1;
                Control::Lock(self.m)
            }
            1 => {
                let buf = *self.buf.get_or_insert_with(|| ctx.alloc(4096, 64));
                ctx.register_region(buf, 4096);
                ctx.read_range(buf, 4096, 64);
                self.phase = 2;
                Control::Unlock(self.m)
            }
            _ => {
                self.rounds -= 1;
                if self.rounds == 0 {
                    Control::Exit
                } else {
                    self.phase = 0;
                    Control::Yield
                }
            }
        }
    }
}

const SPAWNED: u64 = 8;

proptest! {
    /// Engine-level teardown: whatever mix of running aborts, idle kills,
    /// and spawn failures a random chaos config injects, the run
    /// completes, every spawned thread is accounted for, and aborted
    /// threads leave no sharing-graph edge and no owner-directory
    /// footprint behind — the same fresh-slot invariant the component
    /// properties above check, driven through the real abort path.
    #[test]
    fn aborted_threads_leave_no_trace(
        seed in 0u64..u64::MAX,
        abort_rate in 512u32..8192,
        idle_rate in 0u32..2048,
        spawn_rate in 0u32..8192,
    ) {
        let chaos = ChaosConfig {
            seed,
            abort_running_per_64k: abort_rate,
            abort_idle_per_64k: idle_rate,
            spawn_fail_per_64k: spawn_rate,
            ..ChaosConfig::default()
        };
        let config = EngineConfig { chaos: Some(chaos), ..EngineConfig::default() };
        let mut e = Engine::new(
            MachineConfig::enterprise5000(2),
            SchedPolicy::Lff,
            config,
        ).unwrap();
        let m = e.sync_tables_mut().create_mutex();
        let tids: Vec<ThreadId> = (0..SPAWNED)
            .map(|_| e.spawn(Box::new(Locker { m, buf: None, rounds: 6, phase: 0 })))
            .collect();
        // Annotate a sharing chain so the graph has edges to tear down.
        for pair in tids.windows(2) {
            // Stillborn threads are already gone; annotating them errors.
            let _ = e.annotate(pair[0], pair[1], 0.5);
        }
        let report = e.run().expect("chaos run must complete without deadlock or panic");
        prop_assert_eq!(
            report.threads_completed + report.threads_aborted,
            SPAWNED,
            "every spawned thread must retire as completed or aborted"
        );
        prop_assert_eq!(e.graph().edge_count(), 0, "dead threads left sharing-graph edges");
        for &t in &tids {
            prop_assert_eq!(e.graph().dependents_of(t).count(), 0);
            for cpu in 0..2 {
                prop_assert_eq!(
                    e.machine().l2_footprint_lines(cpu, t), 0,
                    "retired thread still owns cache lines in the directory"
                );
            }
        }
    }

    /// Mid-lock-hold deaths: with kills restricted to mutex holders,
    /// every fault orphans a held lock. The run must still complete (no
    /// deadlock on the corpse's mutex), the lock must be poisoned, and
    /// the fault budget must be spent exactly — the reclamation handoff
    /// keeps creating new holders to kill.
    #[test]
    fn lock_holder_deaths_never_deadlock(seed in 0u64..u64::MAX, max_faults in 1u32..4) {
        let chaos = ChaosConfig {
            seed,
            abort_running_per_64k: 65536,
            only_lock_holders: true,
            max_faults,
            ..ChaosConfig::default()
        };
        let config = EngineConfig { chaos: Some(chaos), ..EngineConfig::default() };
        let mut e = Engine::new(
            MachineConfig::enterprise5000(2),
            SchedPolicy::Crt,
            config,
        ).unwrap();
        let m = e.sync_tables_mut().create_mutex();
        for _ in 0..SPAWNED {
            e.spawn(Box::new(Locker { m, buf: None, rounds: 4, phase: 0 }));
        }
        let report = e.run().expect("orphaned locks must be reclaimed, not deadlock");
        prop_assert_eq!(u64::from(max_faults), report.threads_aborted);
        prop_assert_eq!(report.threads_completed, SPAWNED - u64::from(max_faults));
        prop_assert!(e.sync_tables().is_poisoned(m), "owner death must poison the mutex");
        for cpu in 0..2 {
            prop_assert_eq!(e.machine().l2_footprint_lines(cpu, ThreadId(1)), 0);
        }
    }

    /// TLB accounting under slot recycling and chaos aborts: with a tiny
    /// TLB, a charged page-table walk, and random thread kills, every
    /// processor's books must still balance — `misses × walk_cycles`
    /// equals the walk-cycle counter, reach never exceeds the configured
    /// entries, and retired threads leave no directory footprint. Thread
    /// death must never corrupt or leak translation state.
    #[test]
    fn tlb_accounting_survives_chaos_aborts(
        seed in 0u64..u64::MAX,
        abort_rate in 512u32..8192,
        walk in 1u64..64,
        tlb_ways_pow in 0u32..=2,
    ) {
        let chaos = ChaosConfig {
            seed,
            abort_running_per_64k: abort_rate,
            ..ChaosConfig::default()
        };
        let tlb = TlbConfig { sets: 2, ways: 1 << tlb_ways_pow, walk_cycles: walk };
        let config = EngineConfig {
            chaos: Some(chaos),
            l2_geometry: Some(CacheGeometry { sets: 256, ways: 4, line: 64 }),
            page_bytes: Some(4096),
            tlb: Some(tlb),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(
            MachineConfig::enterprise5000(2),
            SchedPolicy::Lff,
            config,
        ).unwrap();
        let m = e.sync_tables_mut().create_mutex();
        let tids: Vec<ThreadId> = (0..SPAWNED)
            .map(|_| e.spawn(Box::new(Locker { m, buf: None, rounds: 6, phase: 0 })))
            .collect();
        let report = e.run().expect("chaos run with a tiny TLB must complete");
        prop_assert_eq!(report.threads_completed + report.threads_aborted, SPAWNED);
        let mut translated = 0u64;
        for cpu in 0..2 {
            let stats = e.machine().cpu_stats(cpu);
            prop_assert_eq!(
                stats.tlb_misses * walk, stats.tlb_walk_cycles,
                "walk cycles must be misses × walk latency on cpu {}", cpu
            );
            translated += stats.tlb_hits + stats.tlb_misses;
        }
        prop_assert!(translated > 0, "the workload must exercise translation");
        for &t in &tids {
            for cpu in 0..2 {
                prop_assert_eq!(e.machine().l2_footprint_lines(cpu, t), 0);
            }
        }
    }
}
