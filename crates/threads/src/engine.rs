//! The multiprocessor runtime engine.
//!
//! The engine owns the simulated [`Machine`], the thread table, the
//! synchronization objects, the annotation graph, and the scheduler. It
//! advances the processor with the smallest local clock one *batch* at a
//! time — a deterministic discrete-event interleaving that models true
//! SMP execution at batch granularity.
//!
//! At every context switch it performs exactly the paper's runtime
//! sequence: read-and-reset the performance counters (a few instructions,
//! charged), run the raw deltas through the [`CounterSanitizer`]
//! (wraparound and outlier correction — the model never sees absurd miss
//! counts even under injected counter faults), hand the sanitized
//! interval to the scheduler (which runs the model's `O(out-degree)`
//! priority updates), fire scheduling-event hooks, and dispatch the next
//! thread.

use crate::chaos::{ChaosConfig, ChaosState, MIN_LIVE};
use crate::error::RuntimeError;
use crate::events::{EngineHook, EngineView, SwitchEvent, SwitchReason};
use crate::inference::{SharingInference, CML_ENTRIES};
use crate::observe::{ObsEvent, ObsLog};
use crate::points::SchedulePoint;
use crate::program::{BatchCtx, Control, PendingSpawn, Program};
use crate::report::RunReport;
use crate::sched::{self, SchedPolicy, Scheduler};
use crate::sync::{MutexId, SyncTables};
use crate::thread::{BlockedOn, Tcb, ThreadState};
use locality_core::{
    CounterSanitizer, SanitizedInterval, SanitizerConfig, SharingGraph, SlotId, ThreadId,
    ThreadSlots,
};
use locality_sim::{AccessKind, CacheGeometry, Machine, MachineConfig, SimError, TlbConfig, VAddr};
use locality_trace::{emit_with, set_clock, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Base context-switch cost in cycles (paper: "a basic context switch
/// cost on the order of 100 instructions").
const SWITCH_COST_CYCLES: u64 = 100;
/// Cost of reading and resetting the PICs at a switch ("only several
/// instructions").
const PIC_READ_CYCLES: u64 = 8;
/// Cost of an uncontended synchronization operation.
const SYNC_OP_CYCLES: u64 = 12;
/// Safety valve: maximum engine steps before aborting the run.
const MAX_STEPS: u64 = 2_000_000_000;

/// Engine tunables; the default is every option off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Runtime sharing inference (the paper's §7 future work): drain a
    /// per-processor Cache Miss Lookaside buffer at each context switch
    /// and write inferred `at_share` edges into the graph.
    pub infer_sharing: bool,
    /// Optional thread-lifecycle fault injection (the chaos layer):
    /// seeded, deterministic thread aborts, spawn failures, and idle
    /// kills at well-defined points of the engine loop.
    pub chaos: Option<ChaosConfig>,
    /// Controlled scheduling for model checking: force a scheduling
    /// decision at every visible operation (the running thread is
    /// preempted after every batch) and record each batch as a
    /// [`SchedulePoint`]. Off for normal runs — the engine then keeps
    /// its fast continue-without-switch paths.
    pub schedule_points: bool,
    /// Optional secondary-cache geometry override, applied to the machine
    /// description before construction (`None` = keep the machine's own
    /// geometry). Lets experiment descriptors vary geometry without
    /// rebuilding the whole [`MachineConfig`].
    pub l2_geometry: Option<CacheGeometry>,
    /// Optional page-size override in bytes (`None` = machine default).
    pub page_bytes: Option<u64>,
    /// Optional TLB configuration override (`None` = machine default:
    /// fully associative, 64 entries, free walks).
    pub tlb: Option<TlbConfig>,
}

impl EngineConfig {
    /// Applies this config's memory-system overrides to a machine
    /// description (identity when all overrides are `None`).
    pub fn apply_overrides(&self, mut machine: MachineConfig) -> MachineConfig {
        if let Some(l2) = self.l2_geometry {
            machine = machine.with_l2_geometry(l2);
        }
        if let Some(page) = self.page_bytes {
            machine = machine.with_page_size(page);
        }
        if let Some(tlb) = self.tlb {
            machine = machine.with_tlb(tlb);
        }
        machine
    }
}

/// The Active Threads runtime over the simulated machine.
///
/// The scheduler is a `Box<dyn Scheduler>`: one dispatch mechanism for
/// `--policy` selection, every figure and the model checker. A
/// monomorphized engine measured no faster on the switch-bound
/// workload (DESIGN.md §9.3), so there is no static-dispatch fork.
pub struct Engine {
    machine: Machine,
    /// The buffer each batch's single references wait in, lent to its
    /// [`BatchCtx`] and empty between batches.
    pending: Vec<(VAddr, AccessKind)>,
    config: EngineConfig,
    sched: Box<dyn Scheduler>,
    /// Dense slot registry over live threads (slots recycle at exit).
    slots: ThreadSlots,
    /// The thread table: a slot-indexed TCB slab arena. A thread holds
    /// its slot from admission to release, and ids are handed out once,
    /// in order, so an id below `next_tid` without a slot is retired.
    tcbs: Vec<Option<Tcb>>,
    sync: SyncTables,
    graph: SharingGraph,
    clocks: Vec<u64>,
    /// The thread on each processor with its slot, resolved once at
    /// dispatch: stepping it and switching it out index the slab.
    current: Vec<Option<(ThreadId, SlotId)>>,
    /// `(wake time, thread, its slot)`. The slot rides along so a wake-up
    /// needs no lookup; a sleeper killed meanwhile leaves an entry whose
    /// slot is no longer live (released, or rebound under a younger
    /// generation).
    sleepers: BinaryHeap<Reverse<(u64, ThreadId, SlotId)>>,
    inference: Option<SharingInference>,
    sanitizer: CounterSanitizer,
    chaos: Option<ChaosState>,
    obs: Option<ObsLog>,
    points: Vec<SchedulePoint>,
    hooks: Vec<Box<dyn EngineHook>>,
    next_tid: u64,
    live: u64,
    completed: u64,
    aborted: u64,
    switches: u64,
    corrected_intervals: u64,
    steps: u64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("policy", &self.sched.name())
            .field("cpus", &self.clocks.len())
            .field("live", &self.live)
            .field("switches", &self.switches)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds an engine over a fresh machine, with the scheduler chosen
    /// at runtime (the `dyn` boundary used by the CLI's `--policy`).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidMachine`] when the machine cannot
    /// host the requested scheduler (E-cache too small for the model,
    /// zero or more than 64 processors).
    pub fn new(
        machine: MachineConfig,
        policy: SchedPolicy,
        config: EngineConfig,
    ) -> Result<Self, RuntimeError> {
        let machine = config.apply_overrides(machine);
        let sched = sched::build(policy, machine.l2_lines(), machine.cpus)?;
        Engine::with_scheduler(machine, sched, config)
    }

    /// Builds an engine over a fresh machine with a caller-constructed
    /// scheduler (the model checker's exploring scheduler, a test's
    /// hand-built policy). A caller that needs to read its scheduler
    /// back after the run keeps a shared handle to that state.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidMachine`] when the machine
    /// description itself is invalid (bad cache geometry, zero
    /// processors); scheduler-specific requirements are the caller's
    /// problem here, since the scheduler arrives already built.
    pub fn with_scheduler(
        machine: MachineConfig,
        sched: Box<dyn Scheduler>,
        config: EngineConfig,
    ) -> Result<Self, RuntimeError> {
        let mut machine = Machine::try_new(config.apply_overrides(machine))
            .map_err(|e| RuntimeError::InvalidMachine { what: e.to_string() })?;
        let cpus = machine.cpu_count();
        let inference = config.infer_sharing.then(|| {
            machine.enable_cml(CML_ENTRIES);
            SharingInference::default()
        });
        Ok(Engine {
            inference,
            machine,
            pending: Vec::new(),
            config,
            sched,
            slots: ThreadSlots::new(),
            tcbs: Vec::new(),
            sync: SyncTables::new(),
            graph: SharingGraph::new(),
            clocks: vec![0; cpus],
            current: vec![None; cpus],
            sleepers: BinaryHeap::new(),
            sanitizer: CounterSanitizer::new(SanitizerConfig::default()),
            chaos: config.chaos.filter(ChaosConfig::is_active).map(|cfg| ChaosState::new(&cfg)),
            obs: None,
            points: Vec::new(),
            hooks: Vec::new(),
            next_tid: 1,
            live: 0,
            completed: 0,
            aborted: 0,
            switches: 0,
            corrected_intervals: 0,
            steps: 0,
        })
    }

    /// The simulated machine (ground truth, allocation, regions).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (experiment setup: prefilling caches,
    /// registering regions for externally-managed memory).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The annotation graph.
    pub fn graph(&self) -> &SharingGraph {
        &self.graph
    }

    /// Adds an `at_share(src, dst, q)` annotation from outside any thread
    /// (equivalent to annotations placed at thread-creation sites).
    ///
    /// An annotation naming an already-retired (exited or aborted)
    /// thread is dropped: the teardown path has pruned that thread from
    /// the graph, and nothing may resurrect edges for a corpse.
    ///
    /// # Errors
    ///
    /// Returns [`locality_core::ModelError`] for invalid coefficients or
    /// self-sharing; annotations are hints, so callers may ignore it.
    pub fn annotate(
        &mut self,
        src: ThreadId,
        dst: ThreadId,
        q: f64,
    ) -> Result<(), locality_core::ModelError> {
        if self.is_retired(src) || self.is_retired(dst) {
            return Ok(());
        }
        self.graph.set(src, dst, q)
    }

    /// The scheduler (e.g. for expected footprints in experiments).
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.sched.as_ref()
    }

    /// Whether `tid` was admitted (or stillborn) and has since exited or
    /// been aborted.
    fn is_retired(&self, tid: ThreadId) -> bool {
        (1..self.next_tid).contains(&tid.0) && self.slots.lookup(tid).is_none()
    }

    /// Resolves a live thread to its slot, surfacing a typed error
    /// instead of panicking when the runtime's tables are inconsistent.
    fn slot_of(&self, tid: ThreadId) -> Result<SlotId, RuntimeError> {
        self.slots.lookup(tid).ok_or(RuntimeError::UnknownThread { thread: tid })
    }

    /// The TCB of the live thread `tid` bound to `slot`.
    fn tcb_at(&mut self, tid: ThreadId, slot: SlotId) -> Result<&mut Tcb, RuntimeError> {
        self.tcbs[slot.index()].as_mut().ok_or(RuntimeError::UnknownThread { thread: tid })
    }

    /// [`tcb_at`](Self::tcb_at) for callers that hold only the thread id.
    fn tcb_mut(&mut self, tid: ThreadId) -> Result<&mut Tcb, RuntimeError> {
        let slot = self.slot_of(tid)?;
        self.tcb_at(tid, slot)
    }

    /// The synchronization tables (pre-creating objects before a run).
    pub fn sync_tables_mut(&mut self) -> &mut SyncTables {
        &mut self.sync
    }

    /// Starts recording an [`ObsLog`] of sync operations, access spans,
    /// spawns/joins/exits, and annotations for offline analysis. Cheap
    /// no-ops everywhere when not enabled.
    pub fn enable_observation(&mut self) {
        self.obs = Some(ObsLog::new());
    }

    /// Takes the recorded observation log, if observation was enabled
    /// (typically after [`run`](Self::run)). Recording stops.
    pub fn take_observation(&mut self) -> Option<ObsLog> {
        self.obs.take()
    }

    fn note(&mut self, ev: ObsEvent) {
        if let Some(log) = &mut self.obs {
            log.record(ev);
        }
    }

    /// Registers an observer hook.
    pub fn add_hook(&mut self, hook: Box<dyn EngineHook>) {
        self.hooks.push(hook);
    }

    /// The largest processor clock (current makespan).
    fn now(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Spawns a root thread (ready immediately).
    pub fn spawn(&mut self, program: Box<dyn Program>) -> ThreadId {
        let tid = ThreadId(self.next_tid);
        self.next_tid += 1;
        self.note(ObsEvent::Spawn { parent: None, child: tid });
        self.admit(PendingSpawn { tid, program });
        tid
    }

    fn admit(&mut self, spawn: PendingSpawn) {
        if let (Some(cfg), Some(st)) = (self.config.chaos, self.chaos.as_mut()) {
            if st.faults() < cfg.max_faults && st.roll(cfg.spawn_fail_per_64k) {
                // Spawn failure: the thread is stillborn. It never binds
                // a slot, never runs a batch, and never reaches the
                // scheduler — but it is joinable, as retired threads are.
                st.note_fault();
                self.aborted += 1;
                self.note(ObsEvent::Abort { tid: spawn.tid });
                emit_with(|| TraceEvent::ThreadAbort { tid: spawn.tid.0 });
                // The parent may have annotated the child between spawn
                // and admission; those edges die with the stillbirth.
                self.graph.remove_thread(spawn.tid);
                return;
            }
        }
        let tcb = Tcb::new(spawn.tid, spawn.program);
        let slot = self.slots.bind(spawn.tid);
        let i = slot.index();
        if i >= self.tcbs.len() {
            self.tcbs.resize_with(i + 1, || None);
        }
        debug_assert!(self.tcbs[i].is_none(), "slot {i} recycled with a live TCB");
        self.tcbs[i] = Some(tcb);
        self.live += 1;
        self.sched.on_spawn(spawn.tid);
    }

    /// Runs until every thread has exited.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::Deadlock`] if blocked threads can never wake;
    /// * [`RuntimeError::StepBudgetExceeded`] on runaway programs;
    /// * sync-object usage errors ([`RuntimeError::NotOwner`], …).
    pub fn run(&mut self) -> Result<RunReport, RuntimeError> {
        while self.live > 0 {
            self.steps += 1;
            if self.steps > MAX_STEPS {
                return Err(RuntimeError::StepBudgetExceeded { budget: MAX_STEPS });
            }
            self.process_wakeups()?;
            let cpu = self.min_clock_cpu();
            match self.current[cpu] {
                Some((tid, slot)) => self.step_thread(cpu, tid, slot)?,
                None => {
                    if !self.dispatch(cpu)? {
                        self.advance_idle(cpu)?;
                    }
                }
            }
            self.maybe_abort_idle(cpu)?;
        }
        Ok(self.report())
    }

    /// Builds a report of the run so far.
    pub fn report(&self) -> RunReport {
        let per_cpu: Vec<_> = (0..self.clocks.len()).map(|c| self.machine.cpu_stats(c)).collect();
        RunReport {
            policy: self.sched.name().to_string(),
            cpus: self.clocks.len(),
            total_cycles: self.now(),
            total_l2_misses: per_cpu.iter().map(|s| s.l2_misses).sum(),
            total_l2_refs: per_cpu.iter().map(|s| s.l2_refs).sum(),
            total_instructions: per_cpu.iter().map(|s| s.instructions).sum(),
            context_switches: self.switches,
            threads_completed: self.completed,
            threads_aborted: self.aborted,
            steals: self.sched.steals(),
            priority_flops: self.sched.priority_flops(),
            degraded_intervals: self.sched.degraded_intervals(),
            corrected_intervals: self.corrected_intervals,
            per_cpu,
        }
    }

    fn min_clock_cpu(&self) -> usize {
        let mut best = 0;
        for (i, &c) in self.clocks.iter().enumerate() {
            if c < self.clocks[best] {
                best = i;
            }
        }
        best
    }

    fn process_wakeups(&mut self) -> Result<(), RuntimeError> {
        let frontier = self.clocks.iter().copied().min().unwrap_or(0);
        while let Some(&Reverse((wake, tid, slot))) = self.sleepers.peek() {
            if wake > frontier {
                break;
            }
            self.sleepers.pop();
            // A sleeper killed by fault injection leaves a stale heap
            // entry behind (the binary heap has no random removal); it is
            // discarded lazily here. Its slot was released and any later
            // tenant holds a younger generation, so a handle that is no
            // longer live can only mean the thread is gone.
            if !self.slots.is_live(slot) {
                continue;
            }
            self.make_ready_at(tid, slot)?;
        }
        Ok(())
    }

    fn make_ready(&mut self, tid: ThreadId) -> Result<(), RuntimeError> {
        let slot = self.slot_of(tid)?;
        self.make_ready_at(tid, slot)
    }

    fn make_ready_at(&mut self, tid: ThreadId, slot: SlotId) -> Result<(), RuntimeError> {
        let tcb = self.tcb_at(tid, slot)?;
        debug_assert!(
            matches!(tcb.state, ThreadState::Blocked(_) | ThreadState::Sleeping),
            "{tid} woken in state {:?}",
            tcb.state
        );
        tcb.state = ThreadState::Ready;
        self.sched.on_ready(tid);
        Ok(())
    }

    fn dispatch(&mut self, cpu: usize) -> Result<bool, RuntimeError> {
        // Stamp trace records emitted during the pick (scheduler dispatch
        // decisions) with this processor's clock.
        set_clock(self.clocks[cpu]);
        let Some(tid) = self.sched.pick(cpu) else { return Ok(false) };
        let slot = self.slot_of(tid)?;
        let tcb = self.tcb_at(tid, slot)?;
        debug_assert_eq!(tcb.state, ThreadState::Ready);
        tcb.state = ThreadState::Running;
        self.current[cpu] = Some((tid, slot));
        self.machine.set_running(cpu, Some(tid));
        self.sched.on_dispatch(cpu, tid);
        emit_with(|| TraceEvent::IntervalBegin {
            cpu: cpu as u32,
            tid: tid.0,
            ready_depth: self.sched.ready_count() as u32,
            expected_footprint: self.sched.expected_footprint(cpu, tid).unwrap_or(f64::NAN),
        });
        // Start the counter interval cleanly at dispatch. A trapping read
        // cannot reset the PICs; the stale span is absorbed by the
        // sanitizer when the interval ends.
        self.machine.pic_restart_interval(cpu);
        Ok(true)
    }

    fn advance_idle(&mut self, cpu: usize) -> Result<(), RuntimeError> {
        let busy_min = self
            .clocks
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.current[i].is_some())
            .map(|(_, &c)| c)
            .min();
        let wake_min = self.sleepers.peek().map(|&Reverse((w, _, _))| w);
        let candidate = match (busy_min, wake_min) {
            (Some(b), Some(w)) => b.min(w),
            (Some(b), None) => b,
            (None, Some(w)) => w,
            (None, None) => {
                // Nothing running, nothing sleeping; with nothing ready
                // either, the remaining threads are deadlocked.
                if self.sched.ready_count() == 0 {
                    let mut blocked: Vec<(ThreadId, BlockedOn)> = self
                        .tcbs
                        .iter()
                        .flatten()
                        .filter_map(|t| match t.state {
                            ThreadState::Blocked(on) => Some((t.id, on)),
                            _ => None,
                        })
                        .collect();
                    blocked.sort_unstable_by_key(|&(tid, _)| tid);
                    return Err(RuntimeError::Deadlock { blocked });
                }
                // Ready work exists but this policy could not hand it to
                // this cpu; retry after a minimal advance.
                self.clocks[cpu] += 1;
                return Ok(());
            }
        };
        self.clocks[cpu] = self.clocks[cpu].max(candidate).max(self.clocks[cpu] + 1);
        Ok(())
    }

    fn step_thread(&mut self, cpu: usize, tid: ThreadId, slot: SlotId) -> Result<(), RuntimeError> {
        let obs_start = self.obs.as_ref().map_or(0, ObsLog::len);
        let mut program = {
            self.tcb_at(tid, slot)?.program.take().ok_or_else(|| RuntimeError::Internal {
                what: format!("{tid} stepped while its program was checked out"),
            })?
        };
        let mut ctx = BatchCtx {
            machine: &mut self.machine,
            pending: &mut self.pending,
            sync: &mut self.sync,
            graph: &mut self.graph,
            cpu,
            tid,
            cycles: 0,
            next_tid: &mut self.next_tid,
            spawns: Vec::new(),
            obs: self.obs.as_mut(),
            accesses: self.config.schedule_points.then(Vec::new),
        };
        let control = program.next_batch(&mut ctx);
        ctx.flush();
        let cycles = ctx.cycles;
        let accesses = ctx.accesses.take();
        let spawns = std::mem::take(&mut ctx.spawns);
        drop(ctx);
        self.tcb_at(tid, slot)?.program = Some(program);
        self.clocks[cpu] += cycles;
        if self.config.schedule_points {
            let point = SchedulePoint {
                tid,
                op: control,
                accesses: accesses.unwrap_or_default(),
                obs_range: (obs_start, obs_start),
            };
            self.sched.on_schedule_point(&point);
            self.points.push(point);
        }
        for spawn in spawns {
            self.admit(spawn);
        }
        // Chaos decision point: a thread aborted at a batch boundary dies
        // *before* its control takes effect — a lock it was about to
        // release stays held (and is reclaimed by the abort), a sync op
        // it was about to issue never happens.
        if self.maybe_abort_running(cpu, tid, slot)? {
            return Ok(());
        }
        self.handle_control(cpu, tid, slot, control)?;
        if self.config.schedule_points {
            let obs_end = self.obs.as_ref().map_or(0, ObsLog::len);
            if let Some(point) = self.points.last_mut() {
                point.obs_range.1 = obs_end;
            }
        }
        // Controlled scheduling: every visible operation is a decision
        // point, so a thread that would continue on-processor (an
        // uncontended lock, a post, an immediate join) is preempted and
        // must be re-picked before its next batch.
        if self.config.schedule_points && self.current[cpu] == Some((tid, slot)) {
            self.switch_out(cpu, tid, slot, SwitchReason::Preempted)?;
        }
        Ok(())
    }

    fn handle_control(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        slot: SlotId,
        control: Control,
    ) -> Result<(), RuntimeError> {
        match control {
            Control::Yield => self.switch_out(cpu, tid, slot, SwitchReason::Yield)?,
            Control::Sleep(dur) => {
                let wake = self.clocks[cpu] + dur;
                self.tcb_at(tid, slot)?.state = ThreadState::Sleeping;
                self.sleepers.push(Reverse((wake, tid, slot)));
                self.switch_out(cpu, tid, slot, SwitchReason::Sleeping)?;
            }
            Control::Exit => {
                self.switch_out(cpu, tid, slot, SwitchReason::Exited)?;
                self.finish_thread(tid)?;
            }
            Control::Lock(m) => {
                let mx = self.sync.mutex(m)?;
                if mx.owner.is_none() {
                    mx.owner = Some(tid);
                    self.note(ObsEvent::MutexAcquire { tid, mutex: m });
                    self.continue_running(cpu);
                } else {
                    // Note: re-locking a held mutex self-deadlocks, like
                    // a non-recursive pthread mutex. The acquire event is
                    // recorded when the unlock hands the mutex over.
                    mx.waiters.push_back(tid);
                    self.block(cpu, tid, slot, BlockedOn::Mutex(m))?;
                }
            }
            Control::Unlock(m) => {
                self.unlock_mutex(m, tid)?;
                self.continue_running(cpu);
            }
            Control::SemWait(s) => {
                let sem = self.sync.sem(s)?;
                if sem.count > 0 {
                    sem.count -= 1;
                    self.note(ObsEvent::SemAcquire { tid, sem: s });
                    self.continue_running(cpu);
                } else {
                    sem.waiters.push_back(tid);
                    self.block(cpu, tid, slot, BlockedOn::Sem(s))?;
                }
            }
            Control::SemPost(s) => {
                let sem = self.sync.sem(s)?;
                let woken = match sem.waiters.pop_front() {
                    Some(w) => Some(w),
                    None => {
                        sem.count += 1;
                        None
                    }
                };
                self.note(ObsEvent::SemPost { tid, sem: s });
                if let Some(w) = woken {
                    self.note(ObsEvent::SemAcquire { tid: w, sem: s });
                    self.make_ready(w)?;
                }
                self.continue_running(cpu);
            }
            Control::BarrierWait(b) => {
                let bar = self.sync.barrier(b)?;
                bar.waiting.push(tid);
                if bar.waiting.len() == bar.parties {
                    let parties: Vec<ThreadId> = bar.waiting.clone();
                    let woken: Vec<ThreadId> =
                        bar.waiting.drain(..).filter(|&w| w != tid).collect();
                    self.note(ObsEvent::BarrierCross { barrier: b, parties });
                    for w in woken {
                        self.make_ready(w)?;
                    }
                    self.continue_running(cpu);
                } else {
                    self.block(cpu, tid, slot, BlockedOn::Barrier(b))?;
                }
            }
            Control::CondWait(c, m) => {
                self.unlock_mutex(m, tid)?;
                self.sync.cond(c)?.waiters.push_back((tid, m));
                self.block(cpu, tid, slot, BlockedOn::Cond(c))?;
            }
            Control::CondSignal(c) => {
                if let Some((w, m)) = self.sync.cond(c)?.waiters.pop_front() {
                    self.note(ObsEvent::CondWake { signaler: tid, woken: w, cond: c });
                    self.grant_or_enqueue_mutex(m, w)?;
                }
                self.continue_running(cpu);
            }
            Control::CondBroadcast(c) => {
                let woken: Vec<(ThreadId, MutexId)> =
                    self.sync.cond(c)?.waiters.drain(..).collect();
                for (w, m) in woken {
                    self.note(ObsEvent::CondWake { signaler: tid, woken: w, cond: c });
                    self.grant_or_enqueue_mutex(m, w)?;
                }
                self.continue_running(cpu);
            }
            Control::Join(target) => {
                // A thread leaves the slab in the call that ends it, so a
                // join finds it live or retired, never exited in place.
                let exited = match self.slots.lookup(target) {
                    Some(target_slot) => {
                        self.tcb_at(target, target_slot)?.join_waiters.push(tid);
                        false
                    }
                    None if self.is_retired(target) => true,
                    None => return Err(RuntimeError::UnknownThread { thread: target }),
                };
                if exited {
                    self.note(ObsEvent::JoinWake { waiter: tid, target });
                    self.continue_running(cpu);
                } else {
                    self.block(cpu, tid, slot, BlockedOn::Join(target))?;
                }
            }
        }
        Ok(())
    }

    fn unlock_mutex(&mut self, m: MutexId, tid: ThreadId) -> Result<(), RuntimeError> {
        let mx = self.sync.mutex(m)?;
        if mx.owner != Some(tid) {
            return Err(RuntimeError::NotOwner { thread: tid, mutex: m.0 });
        }
        mx.owner = None;
        let handoff = mx.waiters.pop_front();
        if let Some(w) = handoff {
            mx.owner = Some(w);
        }
        self.note(ObsEvent::MutexRelease { tid, mutex: m });
        if let Some(w) = handoff {
            self.note(ObsEvent::MutexAcquire { tid: w, mutex: m });
            self.make_ready(w)?;
        }
        Ok(())
    }

    /// Hands the mutex to the signalled condvar waiter `w` (waking it)
    /// or moves `w` onto the mutex's queue, where it now waits.
    fn grant_or_enqueue_mutex(&mut self, m: MutexId, w: ThreadId) -> Result<(), RuntimeError> {
        let mx = self.sync.mutex(m)?;
        if mx.owner.is_none() {
            mx.owner = Some(w);
            self.note(ObsEvent::MutexAcquire { tid: w, mutex: m });
            self.make_ready(w)?;
        } else {
            mx.waiters.push_back(w);
            self.tcb_mut(w)?.state = ThreadState::Blocked(BlockedOn::Mutex(m));
        }
        Ok(())
    }

    fn continue_running(&mut self, cpu: usize) {
        self.clocks[cpu] += SYNC_OP_CYCLES;
    }

    /// Switches out the running thread `tid`, which waits on `on`.
    fn block(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        slot: SlotId,
        on: BlockedOn,
    ) -> Result<(), RuntimeError> {
        let tcb = self.tcb_at(tid, slot)?;
        debug_assert_eq!(tcb.state, ThreadState::Running, "{tid} blocked off-cpu");
        tcb.state = ThreadState::Blocked(on);
        self.switch_out(cpu, tid, slot, SwitchReason::Blocked)
    }

    fn switch_out(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        slot: SlotId,
        reason: SwitchReason,
    ) -> Result<(), RuntimeError> {
        set_clock(self.clocks[cpu]);
        // Read and reset the counters, then sanitize the raw deltas: the
        // scheduler's model never sees wrapped, inconsistent, or absurd
        // values. A trapped read (an injected trap fault) yields an empty
        // interval with reduced confidence — the PICs keep accumulating
        // and the next clean read absorbs the whole span.
        let delta = match self.machine.pic_take_interval(cpu) {
            Ok(raw) => self.sanitizer.sanitize(tid, raw.refs, raw.hits, raw.misses),
            Err(SimError::CounterTrap { .. }) => {
                let confidence = self.sanitizer.note_trap(tid);
                SanitizedInterval { refs: 0, hits: 0, misses: 0, confidence, corrected: true }
            }
            Err(e) => {
                return Err(RuntimeError::Internal { what: format!("counter read failed: {e}") })
            }
        };
        if delta.corrected {
            self.corrected_intervals += 1;
        }
        // Runtime sharing inference (§7): drain the CML and fold inferred
        // edges into the annotation graph before the priority updates.
        if let Some(inference) = &mut self.inference {
            let drained = self.machine.cml_drain(cpu);
            for edge in inference.note_interval(tid, &drained) {
                let _ = self.graph.set(edge.src, edge.dst, edge.q);
            }
        }
        self.clocks[cpu] += SWITCH_COST_CYCLES + PIC_READ_CYCLES;
        self.switches += 1;
        // Model updates: case 1 for the blocker, case 3 for dependents.
        self.sched.on_interval_end(cpu, tid, delta, &self.graph);
        // Trace the finished interval *after* the model updates — the
        // same post-update state the hooks (and the Figure 5/7 monitors)
        // observe. Prediction-vs-ground-truth sampling is NOT done here:
        // the observed footprint is an O(1) read only once the machine
        // tracks footprints (`Machine::track_footprints`, which costs a
        // region lookup per E-cache fill and eviction) and a full
        // E-cache scan otherwise, so drivers that want `PredictionSample`
        // events switch tracking on and install a scheduling-event hook
        // that emits them (hooks run below, under the same trace clock).
        set_clock(self.clocks[cpu]);
        emit_with(|| TraceEvent::IntervalEnd {
            cpu: cpu as u32,
            tid: tid.0,
            reason: reason.as_str(),
            refs: delta.refs,
            misses: delta.misses,
        });
        emit_with(|| {
            let s = self.machine.cpu_stats(cpu);
            TraceEvent::TlbCounters {
                cpu: cpu as u32,
                hits: s.tlb_hits,
                misses: s.tlb_misses,
                walk_cycles: s.tlb_walk_cycles,
            }
        });
        // Scheduling-event hooks observe the post-update state.
        if !self.hooks.is_empty() {
            let mut hooks = std::mem::take(&mut self.hooks);
            let event = SwitchEvent {
                cpu,
                tid,
                reason,
                delta,
                clock: self.clocks[cpu],
                switch_index: self.switches,
            };
            let view = EngineView { machine: &self.machine, sched: self.sched.as_ref() };
            for h in &mut hooks {
                h.on_context_switch(&event, &view);
            }
            self.hooks = hooks;
        }
        if matches!(reason, SwitchReason::Yield | SwitchReason::Preempted) {
            let tcb = self.tcb_at(tid, slot)?;
            tcb.state = ThreadState::Ready;
            self.sched.on_ready(tid);
        }
        self.current[cpu] = None;
        self.machine.set_running(cpu, None);
        Ok(())
    }

    fn finish_thread(&mut self, tid: ThreadId) -> Result<(), RuntimeError> {
        self.live -= 1;
        self.completed += 1;
        self.note(ObsEvent::Exit { tid });
        self.wake_joiners(tid)?;
        self.release_thread(tid, false);
        Ok(())
    }

    /// Wakes every thread joined on `tid`: joins on an aborted thread
    /// complete like joins on an exited one.
    fn wake_joiners(&mut self, tid: ThreadId) -> Result<(), RuntimeError> {
        let waiters = std::mem::take(&mut self.tcb_mut(tid)?.join_waiters);
        for w in waiters {
            self.note(ObsEvent::JoinWake { waiter: w, target: tid });
            self.make_ready(w)?;
        }
        Ok(())
    }

    /// The pruning chain of an exited or aborted thread: annotation graph,
    /// scheduler run-queues (`on_abort` prunes ready structures the exit
    /// path could assume empty), machine owner directory and counter
    /// slots, sanitizer history, inference state. The slot is then free
    /// to recycle, so stale handles never resolve, and the TCB (program
    /// included) is dropped: joins on a dead thread keep working through
    /// [`is_retired`](Self::is_retired) without pinning anything.
    fn release_thread(&mut self, tid: ThreadId, aborted: bool) {
        self.graph.remove_thread(tid);
        if aborted {
            self.sched.on_abort(tid);
        } else {
            self.sched.on_exit(tid);
        }
        self.machine.retire_thread(tid);
        self.sanitizer.forget(tid);
        if let Some(inference) = &mut self.inference {
            inference.forget(tid);
        }
        if let Some(slot) = self.slots.release(tid) {
            self.tcbs[slot.index()] = None;
        }
    }

    /// Chaos decision point for the thread that just finished a batch on
    /// `cpu`. Returns `true` when the thread was aborted (its control
    /// must then be discarded).
    fn maybe_abort_running(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        slot: SlotId,
    ) -> Result<bool, RuntimeError> {
        let Some(cfg) = self.config.chaos else { return Ok(false) };
        let Some(st) = self.chaos.as_mut() else { return Ok(false) };
        if st.faults() >= cfg.max_faults
            || self.live <= MIN_LIVE
            || !st.roll(cfg.abort_running_per_64k)
        {
            return Ok(false);
        }
        if cfg.only_lock_holders && !self.sync.mutexes.iter().any(|m| m.owner == Some(tid)) {
            return Ok(false);
        }
        if let Some(st) = self.chaos.as_mut() {
            st.note_fault();
        }
        // The dying thread's final partial interval is still read and
        // sanitized — the scheduler sees a short interval, exactly what a
        // real abort at an arbitrary PC would produce.
        self.switch_out(cpu, tid, slot, SwitchReason::Aborted)?;
        self.abort_thread(tid)?;
        Ok(true)
    }

    /// Chaos decision point for threads that are *not* running: once per
    /// engine step, possibly kill one ready/sleeping/blocked thread,
    /// chosen uniformly in slot order.
    fn maybe_abort_idle(&mut self, cpu: usize) -> Result<(), RuntimeError> {
        let Some(cfg) = self.config.chaos else { return Ok(()) };
        let Some(st) = self.chaos.as_mut() else { return Ok(()) };
        if st.faults() >= cfg.max_faults
            || self.live <= MIN_LIVE
            || !st.roll(cfg.abort_idle_per_64k)
        {
            return Ok(());
        }
        let victims: Vec<ThreadId> = self
            .tcbs
            .iter()
            .flatten()
            .filter(|t| t.state != ThreadState::Running)
            .map(|t| t.id)
            .collect();
        if victims.is_empty() {
            return Ok(());
        }
        let victim = {
            let Some(st) = self.chaos.as_mut() else { return Ok(()) };
            st.note_fault();
            victims[st.pick(victims.len())]
        };
        set_clock(self.clocks[cpu]);
        self.abort_thread(victim)
    }

    /// Tears a dead thread out of every runtime structure. The victim
    /// must already be off every processor (`current`). This is the
    /// hostile twin of [`finish_thread`](Self::finish_thread): same
    /// pruning chain, plus leaving the one queue it waits in,
    /// orphaned-lock reclamation and barrier membership shrinking — the
    /// recovery invariants §10 of DESIGN.md documents.
    fn abort_thread(&mut self, tid: ThreadId) -> Result<(), RuntimeError> {
        self.live -= 1;
        self.aborted += 1;
        self.note(ObsEvent::Abort { tid });
        emit_with(|| TraceEvent::ThreadAbort { tid: tid.0 });
        // The corpse leaves the queue it waits in before anything below
        // can wake it: a thread that re-locked its own mutex would
        // otherwise be handed that mutex back by its own reclamation.
        let waiting = match self.tcb_mut(tid)?.state {
            ThreadState::Blocked(on) => Some(on),
            _ => None,
        };
        match waiting {
            Some(BlockedOn::Mutex(m)) => self.sync.mutex(m)?.waiters.retain(|&w| w != tid),
            Some(BlockedOn::Sem(s)) => self.sync.sem(s)?.waiters.retain(|&w| w != tid),
            Some(BlockedOn::Cond(c)) => self.sync.cond(c)?.waiters.retain(|&(w, _)| w != tid),
            Some(BlockedOn::Join(target)) => {
                self.tcb_mut(target)?.join_waiters.retain(|&w| w != tid);
            }
            Some(BlockedOn::Barrier(_)) | None => {}
        }
        self.wake_joiners(tid)?;
        // Orphaned-lock reclamation: every mutex the dead thread owned is
        // poisoned, then released on its behalf (FIFO handoff to the next
        // waiter). The release/acquire events are emitted exactly as for
        // a live unlock, and they follow the Abort event — so analyses
        // see the reclamation happens-before ordered by the abort.
        for i in 0..self.sync.mutexes.len() {
            if self.sync.mutexes[i].owner == Some(tid) {
                self.sync.mutexes[i].poisoned = true;
                self.unlock_mutex(MutexId(i), tid)?;
            }
        }
        // A dead thread that already arrived at a barrier is no longer a
        // party: shrink the membership so the survivors still release.
        // (A party that dies *before* arriving cannot be distinguished
        // from a non-party; that barrier will deadlock and be reported by
        // the engine's deadlock detection.)
        if let Some(BlockedOn::Barrier(b)) = waiting {
            let bar = self.sync.barrier(b)?;
            bar.waiting.retain(|&w| w != tid);
            bar.parties -= 1;
            if bar.parties > 0 && bar.waiting.len() == bar.parties {
                let parties: Vec<ThreadId> = bar.waiting.clone();
                let woken: Vec<ThreadId> = bar.waiting.drain(..).collect();
                self.note(ObsEvent::BarrierCross { barrier: b, parties });
                for w in woken {
                    self.make_ready(w)?;
                }
            }
        }
        self.release_thread(tid, true);
        Ok(())
    }

    /// The synchronization tables (read-only: poisoning queries, counts).
    pub fn sync_tables(&self) -> &SyncTables {
        &self.sync
    }

    /// Takes the schedule points recorded so far (model checking with
    /// [`EngineConfig::schedule_points`]; empty otherwise).
    pub fn take_schedule_points(&mut self) -> Vec<SchedulePoint> {
        std::mem::take(&mut self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EngineView;
    use crate::sync::CondId;
    use locality_sim::BATCH_REFS;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn engine(policy: SchedPolicy) -> Engine {
        Engine::new(MachineConfig::ultra1(), policy, EngineConfig::default()).unwrap()
    }

    fn engine_smp(cpus: usize, policy: SchedPolicy) -> Engine {
        Engine::new(MachineConfig::enterprise5000(cpus), policy, EngineConfig::default()).unwrap()
    }

    /// Touches a buffer `rounds` times, yielding in between.
    struct Walker {
        buf: Option<VAddr>,
        bytes: u64,
        rounds: u32,
    }
    impl Walker {
        fn new(bytes: u64, rounds: u32) -> Self {
            Walker { buf: None, bytes, rounds }
        }
    }
    impl Program for Walker {
        fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
            let bytes = self.bytes;
            let buf = *self.buf.get_or_insert_with(|| ctx.alloc(bytes, 64));
            ctx.register_region(buf, bytes);
            ctx.read_range(buf, bytes, 64);
            self.rounds -= 1;
            if self.rounds == 0 {
                Control::Exit
            } else {
                Control::Yield
            }
        }
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut e = engine(SchedPolicy::Fcfs);
        e.spawn(Box::new(Walker::new(4096, 3)));
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert_eq!(report.policy, "fcfs");
        // 64 compulsory misses, then cache hits.
        assert_eq!(report.total_l2_misses, 64);
        assert!(report.total_cycles > 0);
        assert_eq!(report.context_switches, 3); // 2 yields + exit
    }

    /// Each point that must see a batch's buffered single references
    /// resolved — a run, `machine()`, `batch_cycles()`, a registration
    /// for the thread or for another, a full buffer and the batch's end —
    /// leaves none pending, in program order. The machine is read
    /// through the field, past `machine()`'s own flush.
    #[test]
    fn buffered_references_resolve_at_every_flush_point() {
        fn resolved(ctx: &BatchCtx<'_>) -> u64 {
            let stats = ctx.machine.cpu_stats(ctx.cpu);
            stats.l1d_refs + stats.l1i_refs
        }
        struct Flusher {
            buf: Option<VAddr>,
        }
        impl Program for Flusher {
            fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
                if self.buf.is_some() {
                    assert_eq!(resolved(ctx), 3 * 6 + 2 + BATCH_REFS as u64 + 2, "batch end");
                    return Control::Exit;
                }
                let buf = *self.buf.insert(ctx.alloc(1 << 20, 64));
                let mut issued = 0;
                let mut singles = |ctx: &mut BatchCtx<'_>, n: u64| {
                    for _ in 0..n {
                        let va = buf.offset(issued * 64);
                        match issued % 3 {
                            0 => ctx.read(va),
                            1 => ctx.write(va),
                            _ => ctx.fetch(va),
                        }
                        issued += 1;
                    }
                    issued
                };
                let mut runs = 0;
                for point in [
                    "machine",
                    "batch_cycles",
                    "register_region",
                    "register_region_for",
                    "read_range",
                    "write_range",
                ] {
                    let issued = singles(ctx, 3);
                    match point {
                        "machine" => {
                            let _ = ctx.machine();
                        }
                        "batch_cycles" => {
                            let _ = ctx.batch_cycles();
                        }
                        "register_region" => ctx.register_region(buf, 64),
                        "register_region_for" => ctx.register_region_for(ThreadId(99), buf, 64),
                        "read_range" => ctx.read_range(buf, 64, 64),
                        _ => ctx.write_range(buf, 64, 64),
                    }
                    runs += u64::from(matches!(point, "read_range" | "write_range"));
                    assert_eq!(resolved(ctx), issued + runs, "{point}");
                }
                let issued = singles(ctx, BATCH_REFS as u64);
                assert_eq!(resolved(ctx), issued + runs, "a full buffer");
                singles(ctx, 2);
                Control::Yield
            }
        }
        let mut e = engine(SchedPolicy::Fcfs);
        e.machine_mut().start_tracing();
        e.spawn(Box::new(Flusher { buf: None }));
        e.run().unwrap();
        // In program order: each run's one line 0 after the singles
        // issued before it.
        let trace = e.machine_mut().take_trace().unwrap();
        let base = trace.iter().next().unwrap().addr.0;
        let lines: Vec<u64> = trace.iter().map(|r| (r.addr.0 - base) / 64).collect();
        let mut want: Vec<u64> = (0..15).chain([0]).chain(15..18).chain([0]).collect();
        want.extend(18..18 + BATCH_REFS as u64 + 2);
        assert_eq!(lines, want);
    }

    #[test]
    fn engine_config_geometry_overrides_take_effect() {
        // A costly-walk single-entry TLB must charge walk cycles that the
        // default (free-walk) configuration does not.
        let slow = EngineConfig {
            tlb: Some(locality_sim::TlbConfig { sets: 1, ways: 1, walk_cycles: 100 }),
            l2_geometry: Some(CacheGeometry::new(1024, 8, 64).unwrap()),
            page_bytes: Some(4096),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(MachineConfig::ultra1(), SchedPolicy::Fcfs, slow).unwrap();
        e.spawn(Box::new(Walker::new(64 * 1024, 2)));
        let slow_report = e.run().unwrap();
        let l2 = e.machine().config().hierarchy.l2;
        assert_eq!((l2.sets, l2.ways), (1024, 8), "override must reach the machine");
        assert_eq!(e.machine().config().page_bytes, 4096);
        let walks: u64 =
            (0..e.machine().cpu_count()).map(|c| e.machine().cpu_stats(c).tlb_walk_cycles).sum();
        assert!(walks > 0, "a 64 KiB walk over 4 KiB pages must miss the 1-entry TLB");

        let mut e =
            Engine::new(MachineConfig::ultra1(), SchedPolicy::Fcfs, EngineConfig::default())
                .unwrap();
        e.spawn(Box::new(Walker::new(64 * 1024, 2)));
        let fast_report = e.run().unwrap();
        assert!(
            slow_report.total_cycles > fast_report.total_cycles,
            "walk latency must show up in the clock: {} vs {}",
            slow_report.total_cycles,
            fast_report.total_cycles
        );
    }

    #[test]
    fn spawn_and_join() {
        struct Parent {
            phase: u8,
            child: Option<ThreadId>,
        }
        impl Program for Parent {
            fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        let child = ctx.spawn(Box::new(Walker::new(1024, 1)));
                        // Annotate: child's state is inside the parent's.
                        ctx.at_share(child, ctx.self_id(), 1.0).unwrap();
                        self.child = Some(child);
                        Control::Join(child)
                    }
                    _ => Control::Exit,
                }
            }
        }
        let mut e = engine(SchedPolicy::Lff);
        e.spawn(Box::new(Parent { phase: 0, child: None }));
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 2);
    }

    #[test]
    fn join_already_exited_continues() {
        struct P {
            phase: u8,
            child: Option<ThreadId>,
        }
        impl Program for P {
            fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        self.child = Some(ctx.spawn(Box::new(Walker::new(64, 1))));
                        Control::Yield
                    }
                    1 => {
                        self.phase = 2;
                        // Sleep long enough for the child to finish.
                        Control::Sleep(1_000_000)
                    }
                    2 => {
                        self.phase = 3;
                        Control::Join(self.child.unwrap())
                    }
                    _ => Control::Exit,
                }
            }
        }
        let mut e = engine(SchedPolicy::Fcfs);
        e.spawn(Box::new(P { phase: 0, child: None }));
        assert_eq!(e.run().unwrap().threads_completed, 2);
    }

    #[test]
    fn a_finished_threads_program_is_freed_at_exit() {
        struct Holder {
            _held: Rc<()>,
        }
        impl Program for Holder {
            fn next_batch(&mut self, _ctx: &mut BatchCtx<'_>) -> Control {
                Control::Exit
            }
        }
        let held = Rc::new(());
        let mut e = engine(SchedPolicy::Lff);
        let done = e.spawn(Box::new(Holder { _held: Rc::clone(&held) }));
        let other = e.spawn(Box::new(Walker::new(64, 1)));
        assert_eq!(Rc::strong_count(&held), 2);
        assert_eq!(e.run().unwrap().threads_completed, 2);
        assert_eq!(Rc::strong_count(&held), 1, "the engine still holds an exited program");
        // An annotation naming a retired thread is dropped; one naming
        // an id not handed out yet is kept.
        e.annotate(done, other, 0.5).unwrap();
        e.annotate(other, done, 0.5).unwrap();
        assert!(e.graph().is_empty());
        e.annotate(ThreadId(3), ThreadId(4), 0.5).unwrap();
        assert_eq!(e.graph().edge_count(), 1);
    }

    #[test]
    fn mutex_mutual_exclusion_and_handoff() {
        // Two threads increment a shared counter region under a mutex.
        struct Incr {
            m: MutexId,
            buf: VAddr,
            phase: u8,
        }
        impl Program for Incr {
            fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        Control::Lock(self.m)
                    }
                    1 => {
                        self.phase = 2;
                        ctx.write(self.buf);
                        Control::Unlock(self.m)
                    }
                    _ => Control::Exit,
                }
            }
        }
        let mut e = engine_smp(2, SchedPolicy::Fcfs);
        let m = e.sync_tables_mut().create_mutex();
        let buf = e.machine_mut().alloc(64, 64);
        for _ in 0..4 {
            e.spawn(Box::new(Incr { m, buf, phase: 0 }));
        }
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 4);
    }

    #[test]
    fn unlock_not_owner_is_error() {
        let mut e = engine(SchedPolicy::Fcfs);
        e.sync_tables_mut().create_mutex();
        let tid = e.spawn(Script::boxed(&[Control::Unlock(MutexId(0))]));
        assert_eq!(e.run(), Err(RuntimeError::NotOwner { thread: tid, mutex: 0 }));
    }

    #[test]
    fn semaphore_producer_consumer() {
        let mut e = engine_smp(2, SchedPolicy::Fcfs);
        let s = e.sync_tables_mut().create_semaphore(0);
        e.spawn(Script::boxed(&[Control::SemWait(s); 10]));
        e.spawn(Script::boxed(&[Control::SemPost(s); 10]));
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 2);
    }

    #[test]
    fn barrier_releases_all_parties() {
        let mut e = engine_smp(4, SchedPolicy::Fcfs);
        let b = e.sync_tables_mut().create_barrier(4);
        for _ in 0..4 {
            e.spawn(Script::boxed(&[Control::BarrierWait(b)]));
        }
        assert_eq!(e.run().unwrap().threads_completed, 4);
    }

    /// Locks `m`, waits on `c`, and unlocks the mutex it holds again once
    /// woken.
    fn cond_waiter(m: MutexId, c: CondId) -> Box<Script> {
        Script::boxed(&[Control::Lock(m), Control::CondWait(c, m), Control::Unlock(m)])
    }

    #[test]
    fn condvar_signal_wakes_with_mutex_held() {
        let mut e = engine_smp(2, SchedPolicy::Fcfs);
        let m = e.sync_tables_mut().create_mutex();
        let c = e.sync_tables_mut().create_cond();
        e.spawn(cond_waiter(m, c));
        // The sleep lets the waiter wait first.
        e.spawn(Script::boxed(&[Control::Sleep(10_000), Control::CondSignal(c)]));
        assert_eq!(e.run().unwrap().threads_completed, 2);
    }

    #[test]
    fn condvar_broadcast_wakes_everyone() {
        let mut e = engine_smp(2, SchedPolicy::Fcfs);
        let m = e.sync_tables_mut().create_mutex();
        let c = e.sync_tables_mut().create_cond();
        for _ in 0..3 {
            e.spawn(cond_waiter(m, c));
        }
        e.spawn(Script::boxed(&[Control::Sleep(100_000), Control::CondBroadcast(c)]));
        assert_eq!(e.run().unwrap().threads_completed, 4);
    }

    #[test]
    fn deadlock_detected() {
        let mut e = engine(SchedPolicy::Fcfs);
        let m = e.sync_tables_mut().create_mutex();
        // The second lock self-deadlocks.
        let tid = e.spawn(Script::boxed(&[Control::Lock(m), Control::Lock(m)]));
        let blocked = vec![(tid, BlockedOn::Mutex(m))];
        assert_eq!(e.run(), Err(RuntimeError::Deadlock { blocked }));
    }

    /// Runs its controls in order, one a batch, then exits.
    struct Script(std::collections::VecDeque<Control>);
    impl Script {
        fn boxed(controls: &[Control]) -> Box<Self> {
            Box::new(Script(controls.iter().copied().collect()))
        }
    }
    impl Program for Script {
        fn next_batch(&mut self, _ctx: &mut BatchCtx<'_>) -> Control {
            self.0.pop_front().unwrap_or(Control::Exit)
        }
    }

    /// Whether any wait queue or join list still names `tid`.
    fn queued(e: &Engine, tid: ThreadId) -> bool {
        let sync = &e.sync;
        sync.mutexes.iter().any(|m| m.waiters.contains(&tid))
            || sync.sems.iter().any(|s| s.waiters.contains(&tid))
            || sync.barriers.iter().any(|b| b.waiting.contains(&tid))
            || sync.conds.iter().any(|c| c.waiters.iter().any(|&(w, _)| w == tid))
            || e.tcbs.iter().flatten().any(|t| t.join_waiters.contains(&tid))
    }

    #[test]
    fn aborting_a_self_relocking_owner_hands_its_mutex_to_the_next_waiter() {
        let mut e = engine(SchedPolicy::Fcfs);
        let m = e.sync_tables_mut().create_mutex();
        let a = e.spawn(Script::boxed(&[Control::Lock(m), Control::Lock(m)]));
        let b = e.spawn(Script::boxed(&[Control::Lock(m), Control::Unlock(m)]));
        let blocked = vec![(a, BlockedOn::Mutex(m)), (b, BlockedOn::Mutex(m))];
        assert_eq!(e.run(), Err(RuntimeError::Deadlock { blocked }));
        e.abort_thread(a).unwrap();
        assert_eq!(e.sync.mutexes[m.0].owner, Some(b), "the dead owner got its mutex back");
        assert!(!queued(&e, a));
        let report = e.run().expect("the waiter takes the poisoned mutex and finishes");
        assert_eq!((report.threads_completed, report.threads_aborted), (1, 1));
        assert!(e.sync_tables().is_poisoned(m));
    }

    #[test]
    fn an_abort_leaves_the_one_wait_it_is_in_and_deadlocks_name_each_wait() {
        let mut e = engine(SchedPolicy::Fcfs);
        let sync = e.sync_tables_mut();
        let (m, m2, m3) = (sync.create_mutex(), sync.create_mutex(), sync.create_mutex());
        let (s, b) = (sync.create_semaphore(0), sync.create_barrier(2));
        let (c, c2) = (sync.create_cond(), sync.create_cond());
        let holder = ThreadId(1);
        let scripts: [&[Control]; 7] = [
            &[Control::Lock(m), Control::SemWait(s)],
            &[Control::Lock(m)],
            &[Control::BarrierWait(b)],
            &[Control::Lock(m2), Control::CondWait(c, m2)],
            &[Control::Join(holder)],
            &[Control::Lock(m3), Control::CondWait(c2, m3)],
            // Signals while holding m3: its waiter moves onto m3's queue.
            &[Control::Lock(m3), Control::CondSignal(c2), Control::SemWait(s)],
        ];
        for script in scripts {
            e.spawn(Script::boxed(script));
        }
        let mut blocked = vec![
            (holder, BlockedOn::Sem(s)),
            (ThreadId(2), BlockedOn::Mutex(m)),
            (ThreadId(3), BlockedOn::Barrier(b)),
            (ThreadId(4), BlockedOn::Cond(c)),
            (ThreadId(5), BlockedOn::Join(holder)),
            (ThreadId(6), BlockedOn::Mutex(m3)),
            (ThreadId(7), BlockedOn::Sem(s)),
        ];
        assert_eq!(e.run(), Err(RuntimeError::Deadlock { blocked: blocked.clone() }));
        // Every waiter but the holder, the moved condvar waiter before
        // the owner of the mutex it moved onto.
        for victim in [2, 3, 4, 5, 6, 7].map(ThreadId) {
            assert!(queued(&e, victim), "{victim} waits nowhere before its abort");
            e.abort_thread(victim).unwrap();
            assert!(!queued(&e, victim), "a queue still names {victim}");
            blocked.retain(|&(tid, _)| tid != victim);
            assert_eq!(e.run(), Err(RuntimeError::Deadlock { blocked: blocked.clone() }));
        }
        assert_eq!(e.sync.barriers[b.0].parties, 1, "the dead arrival left the barrier");
        assert!(e.sync_tables().is_poisoned(m3), "the signaller died holding m3");
    }

    #[test]
    fn sleep_orders_by_wake_time() {
        struct Sleeper {
            dur: u64,
            order: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
            tag: u64,
            phase: u8,
        }
        impl Program for Sleeper {
            fn next_batch(&mut self, _ctx: &mut BatchCtx<'_>) -> Control {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        Control::Sleep(self.dur)
                    }
                    _ => {
                        self.order.borrow_mut().push(self.tag);
                        Control::Exit
                    }
                }
            }
        }
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut e = engine(SchedPolicy::Fcfs);
        for (tag, dur) in [(1u64, 50_000u64), (2, 10_000), (3, 30_000)] {
            e.spawn(Box::new(Sleeper { dur, order: order.clone(), tag, phase: 0 }));
        }
        e.run().unwrap();
        assert_eq!(*order.borrow(), vec![2, 3, 1], "wake order must follow durations");
    }

    #[test]
    fn multi_cpu_runs_in_parallel() {
        let mut e = engine_smp(4, SchedPolicy::Fcfs);
        for _ in 0..4 {
            e.spawn(Box::new(Walker::new(256 * 1024, 20)));
        }
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 4);
        // Work must actually spread: several cpus saw instructions.
        let active = report.per_cpu.iter().filter(|s| s.instructions > 0).count();
        assert!(active >= 2, "expected parallel execution, got {active} active cpus");
        // Parallel makespan must be well under the serial sum.
        let serial: u64 = report.per_cpu.iter().map(|s| s.mem_cycles).sum();
        assert!(report.total_cycles < serial);
    }

    #[test]
    fn hooks_see_every_switch() {
        struct SharedHook {
            events: Rc<RefCell<Vec<SwitchEvent>>>,
        }
        impl EngineHook for SharedHook {
            fn on_context_switch(&mut self, event: &SwitchEvent, view: &EngineView<'_>) {
                // The hook can read model state at the switch.
                let _ = view.sched.expected_footprint(event.cpu, event.tid);
                self.events.borrow_mut().push(*event);
            }
        }
        let events = Rc::new(RefCell::new(Vec::new()));
        let mut e = engine(SchedPolicy::Lff);
        e.add_hook(Box::new(SharedHook { events: events.clone() }));
        e.spawn(Box::new(Walker::new(4096, 5)));
        let report = e.run().unwrap();
        let events = events.borrow();
        assert_eq!(events.len() as u64, report.context_switches);
        assert_eq!(events.len(), 5);
        // The first interval carried the compulsory misses.
        assert_eq!(events[0].delta.misses, 64);
        assert_eq!(events.last().unwrap().reason, SwitchReason::Exited);
    }

    #[test]
    fn determinism_same_seeds_same_report() {
        let run = || {
            let mut e = engine_smp(4, SchedPolicy::Crt);
            for _ in 0..8 {
                e.spawn(Box::new(Walker::new(64 * 1024, 10)));
            }
            e.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "two identical runs must produce identical reports");
    }

    #[test]
    fn survives_persistent_wraparound_fault() {
        use locality_sim::{FaultConfig, FaultKind};
        let mut e = engine(SchedPolicy::Lff);
        e.machine_mut().install_fault(FaultConfig::always(FaultKind::Wraparound, 7));
        for _ in 0..3 {
            e.spawn(Box::new(Walker::new(64 * 1024, 30)));
        }
        let report = e.run().expect("run must complete under counter faults");
        assert_eq!(report.threads_completed, 3);
        assert!(report.corrected_intervals > 0, "wrap artifacts must be corrected");
    }

    #[test]
    fn degrades_under_trap_fault_and_recovers() {
        use locality_sim::{FaultConfig, FaultKind};
        let mut e = engine(SchedPolicy::Lff);
        // Every counter read traps for the first 150 reads, then the
        // fault clears for good.
        e.machine_mut().install_fault(FaultConfig::windowed(FaultKind::TrapOnRead, 3, 0, 150));
        for _ in 0..3 {
            e.spawn(Box::new(Walker::new(64 * 1024, 80)));
        }
        let report = e.run().expect("run must complete under trap faults");
        assert_eq!(report.threads_completed, 3);
        assert!(
            report.degraded_intervals > 0,
            "sustained traps must push the scheduler into degraded mode"
        );
        assert!(
            !e.scheduler().is_degraded(),
            "scheduler must recover once the fault window passes"
        );
        assert!(report.corrected_intervals > 0);
    }

    #[test]
    fn fcfs_unaffected_by_faults() {
        use locality_sim::{FaultConfig, FaultKind};
        let run = |fault: Option<FaultConfig>| {
            let mut e = engine(SchedPolicy::Fcfs);
            if let Some(f) = fault {
                e.machine_mut().install_fault(f);
            }
            for _ in 0..3 {
                e.spawn(Box::new(Walker::new(16 * 1024, 10)));
            }
            e.run().unwrap()
        };
        let clean = run(None);
        let noisy = run(Some(FaultConfig::always(FaultKind::Noise { percent: 50 }, 11)));
        // FCFS never consults the counters: identical schedule and misses.
        assert_eq!(clean.total_l2_misses, noisy.total_l2_misses);
        assert_eq!(clean.context_switches, noisy.context_switches);
        assert_eq!(clean.degraded_intervals, 0);
        assert_eq!(noisy.degraded_intervals, 0);
    }

    #[test]
    fn locality_policy_reports_flops() {
        let mut e = engine(SchedPolicy::Lff);
        for _ in 0..3 {
            e.spawn(Box::new(Walker::new(128 * 1024, 5)));
        }
        let report = e.run().unwrap();
        assert!(report.priority_flops.0 > 0, "LFF must have spent flops on updates");
        assert_eq!(report.policy, "lff");
    }

    /// Lock → touch the buffer → Unlock → Yield, `rounds` times.
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

    fn chaos_engine(cpus: usize, policy: SchedPolicy, chaos: ChaosConfig) -> Engine {
        let config = EngineConfig { chaos: Some(chaos), ..EngineConfig::default() };
        Engine::new(MachineConfig::enterprise5000(cpus), policy, config).unwrap()
    }

    #[test]
    fn chaos_abort_running_completes_across_policies() {
        for policy in [SchedPolicy::Fcfs, SchedPolicy::Lff, SchedPolicy::Crt] {
            let mut e = chaos_engine(
                4,
                policy,
                ChaosConfig { seed: 7, abort_running_per_64k: 1024, ..ChaosConfig::default() },
            );
            for _ in 0..16 {
                e.spawn(Box::new(Walker::new(64 * 1024, 20)));
            }
            let report = e.run().expect("chaos run must complete");
            assert!(report.threads_aborted > 0, "{policy:?}: nobody died at this rate/seed");
            assert_eq!(
                report.threads_completed + report.threads_aborted,
                16,
                "{policy:?}: every spawned thread must be accounted for"
            );
        }
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run = || {
            let churn = ChaosConfig {
                seed: 99,
                abort_running_per_64k: 512,
                spawn_fail_per_64k: 2048,
                abort_idle_per_64k: 256,
                ..ChaosConfig::default()
            };
            let mut e = chaos_engine(4, SchedPolicy::Lff, churn);
            for _ in 0..12 {
                e.spawn(Box::new(Walker::new(64 * 1024, 15)));
            }
            e.run().unwrap()
        };
        let a = run();
        let b = run();
        assert!(a.threads_aborted > 0, "churn must kill somebody");
        assert_eq!(a, b, "identical chaos config must reproduce the identical report");
    }

    #[test]
    fn chaos_poisoned_mutex_is_reclaimed_by_waiters() {
        // Deterministic holder kill: every roll fires, victims must hold
        // a mutex, and exactly one fault is allowed — the first thread to
        // finish a batch while holding the lock dies, its Unlock is
        // discarded, and the orphaned lock must reach the waiters anyway.
        let chaos = ChaosConfig {
            seed: 1,
            abort_running_per_64k: 65536,
            only_lock_holders: true,
            max_faults: 1,
            ..ChaosConfig::default()
        };
        let mut e = chaos_engine(2, SchedPolicy::Fcfs, chaos);
        let m = e.sync_tables_mut().create_mutex();
        for _ in 0..3 {
            e.spawn(Box::new(Locker { m, buf: None, rounds: 4, phase: 0 }));
        }
        let report = e.run().expect("orphaned lock must be reclaimed, not deadlock");
        assert_eq!(report.threads_aborted, 1);
        assert_eq!(report.threads_completed, 2, "survivors must finish all their rounds");
        assert!(e.sync_tables().is_poisoned(m), "owner death must poison the mutex");
        assert_eq!(e.sync_tables().poisoned_mutexes(), 1);
    }

    #[test]
    fn chaos_stillborn_spawns_are_joinable() {
        // Every admission rolls and the first two faults are spent on the
        // two walkers: both are stillborn. The joiner (admitted after the
        // fault budget is exhausted) runs and joins both corpses.
        struct Joiner {
            targets: Vec<ThreadId>,
        }
        impl Program for Joiner {
            fn next_batch(&mut self, _ctx: &mut BatchCtx<'_>) -> Control {
                match self.targets.pop() {
                    Some(t) => Control::Join(t),
                    None => Control::Exit,
                }
            }
        }
        let chaos = ChaosConfig {
            seed: 5,
            spawn_fail_per_64k: 65536,
            max_faults: 2,
            ..ChaosConfig::default()
        };
        let mut e = chaos_engine(2, SchedPolicy::Lff, chaos);
        let a = e.spawn(Box::new(Walker::new(1024, 1)));
        let b = e.spawn(Box::new(Walker::new(1024, 1)));
        e.spawn(Box::new(Joiner { targets: vec![a, b] }));
        let report = e.run().expect("joins on stillborn threads must complete");
        assert_eq!(report.threads_aborted, 2);
        assert_eq!(report.threads_completed, 1);
    }

    #[test]
    fn chaos_idle_kills_leave_consistent_queues() {
        let idle = ChaosConfig { seed: 11, abort_idle_per_64k: 512, ..ChaosConfig::default() };
        let mut e = chaos_engine(2, SchedPolicy::Crt, idle);
        for _ in 0..10 {
            e.spawn(Box::new(Walker::new(32 * 1024, 25)));
        }
        let report = e.run().expect("idle kills must not corrupt the run queue");
        assert!(report.threads_aborted > 0, "nobody died at this rate/seed");
        assert_eq!(report.threads_completed + report.threads_aborted, 10);
    }
}
