//! The locality schedulers (LFF and CRT), paper §4–5.
//!
//! Structure per the paper's implementation notes:
//!
//! * one **priority heap per processor** keyed by the policy priority
//!   (equivalently: expected footprint for LFF, reload ratio for CRT);
//! * threads whose expected footprint on a processor drops below a
//!   **threshold** are removed from that heap to bound heap sizes; a
//!   thread resident in no heap waits in a single **global FIFO queue**;
//! * a processor with an empty heap consults the global queue; if that is
//!   empty too, it **steals the thread with the lowest priority** from a
//!   neighbour (it has the least to lose from migrating);
//! * at each context switch the estimator returns `O(out-degree)`
//!   priority updates (blocker + annotation dependents); ready dependents
//!   whose footprint just crossed the threshold are *promoted* from the
//!   global queue into the processor's heap.
//!
//! ## Data layout
//!
//! The scheduler interns every spawned thread into a dense slot via its
//! own [`ThreadSlots`] registry (released at exit, recycled with a fresh
//! generation). Per-thread dispatch state (the thread and its heap
//! membership bitmask) lives in one slot-indexed
//! `Vec<Option<SlotState>>`, and the per-processor heaps and both FIFOs
//! are slot-indexed too, so everything past the single `ThreadId → slot`
//! lookup at each entry point is plain vector indexing. The estimator
//! keeps a registry of its own behind the same by-`ThreadId` interface,
//! and a thread that becomes ready asks it once which heaps it belongs
//! in (`LocalityEstimator::for_each_cpu_at_least`: only the processors
//! where the thread has state, unless cold threads qualify too). The
//! vectors a context switch fills (the estimator's updates, a sweep's
//! demotions, the degraded-mode preference list) are reused. The global and
//! arrival FIFOs are one slot-linked queue type: a thread joins at the
//! back and leaves, from anywhere, in O(1) the moment it stops belonging,
//! so each queue holds exactly its members. A thread is ready while it
//! is in the arrival queue, and footprint-less while it is in the global
//! one. Ties and orderings are always [`ThreadId`]-based — never
//! slot-based, which is recycling-dependent — and queue order is join
//! order, so the dispatch sequence does not depend on slot recycling.
//!
//! ## Graceful degradation
//!
//! Counter-derived priorities are only as good as the counters. Each
//! sanitized interval carries a per-thread confidence score (see
//! [`locality_core::sanitizer`]); the scheduler folds those samples into
//! a machine-wide EWMA. When that estimate stays below
//! `DEGRADE_LOW` (0.5) for
//! `HYSTERESIS_INTERVALS` (4) consecutive intervals, the
//! scheduler enters [`SchedMode::Degraded`]: priorities computed from
//! counter data are no longer trusted for dispatch. In that mode picks
//! use *annotations only* — the `at_share` dependents of the processor's
//! last blocker run first (they share state regardless of what the
//! counters claim) — and otherwise fall back to plain arrival-order FIFO,
//! making the policy FCFS-equivalent when annotations are off. The
//! estimator keeps consuming sanitized (bounded) intervals throughout,
//! so footprint state stays warm; once confidence holds above
//! `RECOVER_HIGH` (0.8) for the same streak length the
//! scheduler returns to [`SchedMode::Normal`] automatically. The
//! two-threshold band plus streak requirement gives hysteresis against
//! flapping on noisy confidence samples.

use super::Scheduler;
use crate::heap::PrioHeap;
use crate::RuntimeError;
use locality_core::{
    CpuId, EstimatorConfig, LocalityEstimator, ModelParams, PolicyKind, PriorityUpdate,
    SanitizedInterval, SharingGraph, SlotId, ThreadId, ThreadSlots,
};
use locality_trace::{emit_with, TraceEvent};
use std::collections::VecDeque;

/// Smoothing factor of the machine-wide confidence EWMA.
const CONF_ALPHA: f64 = 0.25;
/// Enter [`SchedMode::Degraded`] when the confidence EWMA stays below
/// this value.
const DEGRADE_LOW: f64 = 0.5;
/// Return to [`SchedMode::Normal`] when the confidence EWMA stays above
/// this value (kept above `DEGRADE_LOW` for hysteresis).
const RECOVER_HIGH: f64 = 0.8;
/// Consecutive intervals the EWMA must sit beyond a threshold before the
/// mode flips (streak hysteresis against flapping).
const HYSTERESIS_INTERVALS: u64 = 4;
/// The processor's heap is swept for under-threshold entries every this
/// many context switches.
const SWEEP_INTERVAL: u64 = 64;

/// Whether the scheduler currently trusts counter-derived priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Counters look sane: full LFF/CRT priority dispatch.
    Normal,
    /// Counters are distrusted: annotations-only preference, then
    /// arrival-order FIFO (FCFS-equivalent without annotations).
    Degraded,
}

/// Tunables of a locality scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityConfig {
    /// LFF or CRT.
    pub policy: PolicyKind,
    /// Whether `at_share` annotations feed the model (off = the paper's
    /// counters-only ablation).
    pub use_annotations: bool,
    /// Heap-eviction threshold in expected lines.
    pub threshold_lines: f64,
}

impl LocalityConfig {
    /// Default parameters for a policy: annotations on, 8-line threshold.
    pub fn new(policy: PolicyKind) -> Self {
        LocalityConfig { policy, use_annotations: true, threshold_lines: 8.0 }
    }
}

/// Per-slot dispatch state. A ready thread is in exactly one of two
/// places: at least one per-processor heap (`heap_mask != 0`) or the
/// global FIFO.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    tid: ThreadId,
    slot: SlotId,
    /// Bitmask of per-processor heaps holding this thread.
    heap_mask: u64,
}

/// The end of a [`SlotFifo`] chain.
const NIL: u32 = u32::MAX;

/// A FIFO of slot indices, linked through the slots: `push_back`,
/// `front`, `contains` and removal from anywhere are all O(1).
#[derive(Debug)]
struct SlotFifo {
    /// Slot index → `(prev, next)` while the slot is queued.
    links: Vec<Option<(u32, u32)>>,
    head: u32,
    tail: u32,
    len: usize,
}

impl SlotFifo {
    fn new() -> Self {
        SlotFifo { links: Vec::new(), head: NIL, tail: NIL, len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, i: usize) -> bool {
        matches!(self.links.get(i), Some(Some(_)))
    }

    fn front(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head as usize)
    }

    fn link(&mut self, i: u32) -> &mut (u32, u32) {
        self.links[i as usize].as_mut().expect("linked slot is queued")
    }

    fn push_back(&mut self, i: usize) {
        debug_assert!(!self.contains(i), "slot {i} queued twice");
        if i >= self.links.len() {
            self.links.resize(i + 1, None);
        }
        self.links[i] = Some((self.tail, NIL));
        match self.tail {
            NIL => self.head = i as u32,
            tail => self.link(tail).1 = i as u32,
        }
        self.tail = i as u32;
        self.len += 1;
    }

    /// Takes slot `i` out of the queue, if it is queued.
    fn remove(&mut self, i: usize) {
        let Some(Some((prev, next))) = self.links.get(i).copied() else { return };
        self.links[i] = None;
        match prev {
            NIL => self.head = next,
            prev => self.link(prev).1 = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.link(next).0 = prev,
        }
        self.len -= 1;
    }
}

/// LFF/CRT scheduler over per-processor priority heaps, keyed by the
/// paper's direct-mapped closed forms ([`LocalityEstimator`]) whatever
/// the simulated E-cache's associativity: scheduling from a per-set
/// model instead moved no miss count by more than 5 % (DESIGN §14.2).
#[derive(Debug)]
pub struct LocalityScheduler {
    config: LocalityConfig,
    est: LocalityEstimator,
    /// Dense thread-slot registry (scheduler-internal interning).
    slots: ThreadSlots,
    /// Slot-indexed dispatch state (`None` = slot free or never used).
    states: Vec<Option<SlotState>>,
    heaps: Vec<PrioHeap>,
    /// Footprint-less ready threads (in no heap), in the order they
    /// became so.
    global: SlotFifo,
    /// All ready threads in arrival order (the degraded-mode FIFO).
    arrival: SlotFifo,
    /// Per-cpu annotation dependents of the cpu's last blocker, by
    /// descending share weight (degraded-mode preference list). Lazy on
    /// purpose: an entry that is not ready when reached is dropped, but
    /// a dependent that became ready again meanwhile is still preferred.
    preferred: Vec<VecDeque<ThreadId>>,
    empty_graph: SharingGraph,
    /// Scratch reused across calls, so a context switch allocates
    /// nothing: the estimator's updates (copied out so the queues can be
    /// edited while walking them), the entries a sweep demotes, and the
    /// blocker's dependents by weight in degraded mode.
    updates: Vec<PriorityUpdate>,
    demoted: Vec<(ThreadId, SlotId)>,
    by_weight: Vec<(ThreadId, f64)>,
    mode: SchedMode,
    conf: f64,
    low_streak: u64,
    high_streak: u64,
    degraded_intervals: u64,
    interval_ends: u64,
    steals: u64,
}

impl LocalityScheduler {
    /// Creates the scheduler for a machine with `cpus` processors whose
    /// E-caches have `l2_lines` lines.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidMachine`] if `l2_lines` is outside
    /// `2..=ModelParams::MAX_LINES`, `cpus == 0`, or `cpus > 64` (the
    /// heap-membership bitmask is a `u64`). These used to be an
    /// `assert!` and an `.expect()`; a bad machine description now
    /// reaches the caller as a typed error.
    pub fn new(config: LocalityConfig, l2_lines: usize, cpus: usize) -> Result<Self, RuntimeError> {
        if cpus == 0 || cpus > 64 {
            return Err(RuntimeError::InvalidMachine {
                what: format!("cpus must be in 1..=64, got {cpus}"),
            });
        }
        let params = ModelParams::new(l2_lines)
            .map_err(|e| RuntimeError::InvalidMachine { what: e.to_string() })?;
        Ok(LocalityScheduler {
            config,
            est: LocalityEstimator::new(EstimatorConfig::new(config.policy, params, cpus)),
            slots: ThreadSlots::new(),
            states: Vec::new(),
            heaps: (0..cpus).map(|_| PrioHeap::new()).collect(),
            global: SlotFifo::new(),
            arrival: SlotFifo::new(),
            preferred: (0..cpus).map(|_| VecDeque::new()).collect(),
            empty_graph: SharingGraph::new(),
            updates: Vec::new(),
            demoted: Vec::new(),
            by_weight: Vec::new(),
            mode: SchedMode::Normal,
            conf: 1.0,
            low_streak: 0,
            high_streak: 0,
            degraded_intervals: 0,
            interval_ends: 0,
            steals: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> LocalityConfig {
        self.config
    }

    /// The current dispatch mode.
    pub fn mode(&self) -> SchedMode {
        self.mode
    }

    /// The machine-wide counter-confidence EWMA in `[0, 1]`.
    pub fn confidence(&self) -> f64 {
        self.conf
    }

    /// Heap size on `cpu` (diagnostics / heap-bounding tests).
    pub fn heap_len(&self, cpu: usize) -> usize {
        self.heaps[cpu].len()
    }

    /// Interns `tid` into a dense slot, resetting the slot's state on a
    /// fresh binding (a recycled slot inherits nothing).
    fn bind(&mut self, tid: ThreadId) -> SlotId {
        if let Some(slot) = self.slots.lookup(tid) {
            return slot;
        }
        let slot = self.slots.bind(tid);
        let i = slot.index();
        if i >= self.states.len() {
            self.states.resize(i + 1, None);
        }
        self.states[i] = Some(SlotState { tid, slot, heap_mask: 0 });
        slot
    }

    fn is_ready(&self, slot: SlotId) -> bool {
        self.arrival.contains(slot.index())
    }

    fn enqueue_ready(&mut self, tid: ThreadId, slot: SlotId) {
        debug_assert!(!self.is_ready(slot), "{tid} enqueued twice");
        let mut mask = 0u64;
        let heaps = &mut self.heaps;
        self.est.for_each_cpu_at_least(tid, self.config.threshold_lines, |cpu, prio| {
            heaps[cpu.0].push(tid, slot, prio);
            mask |= 1 << cpu.0;
        });
        let i = slot.index();
        self.arrival.push_back(i);
        if mask == 0 {
            self.global.push_back(i);
        }
        self.states[i].as_mut().expect("bound slot has state").heap_mask = mask;
    }

    /// Removes a slot's thread from every ready structure.
    fn remove_slot(&mut self, slot: SlotId) {
        let i = slot.index();
        let Some(st) = self.states[i].as_mut() else { return };
        let mask = std::mem::take(&mut st.heap_mask);
        self.arrival.remove(i);
        self.global.remove(i);
        for cpu in 0..self.heaps.len() {
            if mask & (1 << cpu) != 0 {
                self.heaps[cpu].remove(slot);
            }
        }
    }

    /// Takes the ready thread at the front of a FIFO off every ready
    /// structure.
    fn take_front(&mut self, front: usize) -> ThreadId {
        let st = self.states[front].expect("queued slot has state");
        self.remove_slot(st.slot);
        st.tid
    }

    /// Demotes a ready thread out of `cpu`'s heap; if it is then in no
    /// heap, it joins the global queue.
    fn demote(&mut self, cpu: usize, slot: SlotId) {
        let i = slot.index();
        let Some(st) = self.states[i].as_mut() else { return };
        if st.heap_mask & (1 << cpu) == 0 {
            return;
        }
        st.heap_mask &= !(1 << cpu);
        if st.heap_mask == 0 {
            self.global.push_back(i);
        }
        self.heaps[cpu].remove(slot);
    }

    /// Promotes a ready thread into `cpu`'s heap with the given priority.
    fn promote(&mut self, cpu: usize, tid: ThreadId, slot: SlotId, prio: f64) {
        let i = slot.index();
        let Some(st) = self.states[i].as_mut() else { return };
        self.global.remove(i);
        if st.heap_mask & (1 << cpu) == 0 {
            st.heap_mask |= 1 << cpu;
            self.heaps[cpu].push(tid, slot, prio);
        } else {
            self.heaps[cpu].update(slot, prio);
        }
    }

    fn sweep(&mut self, cpu: usize) {
        let mut demoted = std::mem::take(&mut self.demoted);
        demoted.clear();
        demoted.extend(
            self.heaps[cpu]
                .iter()
                .filter(|&(tid, _, _)| {
                    self.est.expected_footprint(CpuId(cpu), tid) < self.config.threshold_lines
                })
                .map(|(tid, slot, _)| (tid, slot)),
        );
        demoted.sort_unstable_by_key(|&(tid, _)| tid);
        for &(_, slot) in &demoted {
            self.demote(cpu, slot);
        }
        self.demoted = demoted;
    }

    /// Folds one confidence sample into the EWMA and runs the streak
    /// hysteresis that flips the dispatch mode. `cpu` is the processor
    /// whose interval end carried the sample (trace attribution only).
    fn note_confidence(&mut self, cpu: usize, sample: f64) {
        let sample = if sample.is_finite() { sample.clamp(0.0, 1.0) } else { 0.0 };
        self.conf += CONF_ALPHA * (sample - self.conf);
        match self.mode {
            SchedMode::Normal => {
                self.high_streak = 0;
                if self.conf < DEGRADE_LOW {
                    self.low_streak += 1;
                    if self.low_streak >= HYSTERESIS_INTERVALS {
                        self.mode = SchedMode::Degraded;
                        self.low_streak = 0;
                        emit_with(|| TraceEvent::ModeTransition {
                            cpu: cpu as u32,
                            degraded: true,
                            confidence: self.conf,
                        });
                    }
                } else {
                    self.low_streak = 0;
                }
            }
            SchedMode::Degraded => {
                self.low_streak = 0;
                if self.conf > RECOVER_HIGH {
                    self.high_streak += 1;
                    if self.high_streak >= HYSTERESIS_INTERVALS {
                        self.mode = SchedMode::Normal;
                        self.high_streak = 0;
                        for p in &mut self.preferred {
                            p.clear();
                        }
                        emit_with(|| TraceEvent::ModeTransition {
                            cpu: cpu as u32,
                            degraded: false,
                            confidence: self.conf,
                        });
                    }
                } else {
                    self.high_streak = 0;
                }
            }
        }
    }

    /// Degraded-mode pick: ready annotation dependents of `cpu`'s last
    /// blocker first, then plain arrival-order FIFO.
    fn pick_degraded(&mut self, cpu: usize) -> Option<ThreadId> {
        while let Some(tid) = self.preferred[cpu].pop_front() {
            if let Some(slot) = self.slots.lookup(tid).filter(|&slot| self.is_ready(slot)) {
                self.remove_slot(slot);
                self.trace_dispatch(cpu, tid, || (f64::NAN, f64::NAN));
                return Some(tid);
            }
        }
        let tid = self.take_front(self.arrival.front()?);
        self.trace_dispatch(cpu, tid, || (f64::NAN, f64::NAN));
        Some(tid)
    }

    /// Emits the dispatch trace point. `values` gives the chosen
    /// thread's priority and its margin over the runner-up, and runs only
    /// when a sink is installed: a pick from the global queue would
    /// otherwise ask the estimator for a number nobody reads.
    fn trace_dispatch(&self, cpu: usize, tid: ThreadId, values: impl FnOnce() -> (f64, f64)) {
        emit_with(|| {
            let (priority, margin) = values();
            TraceEvent::Dispatch {
                cpu: cpu as u32,
                tid: tid.0,
                priority,
                margin,
                degraded: self.mode == SchedMode::Degraded,
            }
        });
    }
}

impl Scheduler for LocalityScheduler {
    fn on_spawn(&mut self, tid: ThreadId) {
        let slot = self.bind(tid);
        self.enqueue_ready(tid, slot);
    }

    fn on_ready(&mut self, tid: ThreadId) {
        let slot = self.bind(tid);
        self.enqueue_ready(tid, slot);
    }

    fn on_dispatch(&mut self, cpu: usize, tid: ThreadId) {
        if let Some(slot) = self.slots.lookup(tid) {
            self.remove_slot(slot);
        }
        self.est.on_dispatch(CpuId(cpu), tid);
    }

    fn on_interval_end(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        interval: SanitizedInterval,
        graph: &SharingGraph,
    ) {
        let model_graph = if self.config.use_annotations { graph } else { &self.empty_graph };
        // The estimator always consumes the (sanitized, bounded) interval,
        // even in degraded mode: keeping footprint state warm makes the
        // switch back to Normal seamless once confidence recovers.
        let mut updates = std::mem::take(&mut self.updates);
        updates.clear();
        updates.extend_from_slice(self.est.on_interval_end(
            CpuId(cpu),
            tid,
            interval.misses,
            model_graph,
        ));
        for &u in &updates {
            if u.thread == tid {
                // The blocker is still Running from the scheduler's point
                // of view; the engine re-enqueues it (or not) afterwards.
                continue;
            }
            let Some(slot) = self.slots.lookup(u.thread) else { continue };
            if !self.is_ready(slot) {
                continue;
            }
            if self.est.expected_footprint(CpuId(cpu), u.thread) >= self.config.threshold_lines {
                self.promote(cpu, u.thread, slot, u.prio);
            } else {
                self.demote(cpu, slot);
            }
        }
        self.updates = updates;
        self.interval_ends += 1;
        if self.interval_ends.is_multiple_of(SWEEP_INTERVAL) {
            self.sweep(cpu);
        }
        self.note_confidence(cpu, interval.confidence);
        if self.mode == SchedMode::Degraded {
            self.degraded_intervals += 1;
            if self.config.use_annotations {
                // Cache the blocker's annotation dependents for the
                // annotations-only picks (pick() has no graph access).
                self.by_weight.clear();
                self.by_weight.extend(graph.dependents_of(tid));
                // total_cmp keeps the order deterministic even for NaN
                // weights (partial_cmp would silently leave them wherever
                // the sort happened to visit them).
                self.by_weight.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                self.preferred[cpu].clear();
                self.preferred[cpu].extend(self.by_weight.iter().map(|&(dep, _)| dep));
            }
        }
    }

    fn pick(&mut self, cpu: usize) -> Option<ThreadId> {
        if self.mode == SchedMode::Degraded {
            return self.pick_degraded(cpu);
        }
        // Local heap first, lazily demoting entries that decayed below the
        // threshold since they were queued.
        while let Some((tid, slot, prio)) = self.heaps[cpu].pop_max() {
            let i = slot.index();
            let st = self.states[i].as_mut().expect("heaped slot has state");
            st.heap_mask &= !(1 << cpu);
            let heapless = st.heap_mask == 0;
            if self.est.expected_footprint(CpuId(cpu), tid) < self.config.threshold_lines {
                // Decayed: it stays wherever else it still belongs.
                if heapless {
                    self.global.push_back(i);
                }
                continue;
            }
            self.remove_slot(slot);
            // Margin over the runner-up still queued on this cpu (NaN
            // when the heap emptied).
            self.trace_dispatch(cpu, tid, || {
                (prio, self.heaps[cpu].peek_max().map_or(f64::NAN, |(_, _, p)| prio - p))
            });
            return Some(tid);
        }
        // Global queue of footprint-less threads.
        if let Some(front) = self.global.front() {
            let tid = self.take_front(front);
            self.trace_dispatch(cpu, tid, || (self.est.priority(CpuId(cpu), tid), f64::NAN));
            return Some(tid);
        }
        // Steal the lowest-priority thread from the fullest neighbour.
        let victim_cpu = (0..self.heaps.len())
            .filter(|&c| c != cpu && !self.heaps[c].is_empty())
            .max_by_key(|&c| (self.heaps[c].len(), usize::MAX - c))?;
        let (tid, slot, prio) = self.heaps[victim_cpu].min_entry()?;
        self.remove_slot(slot);
        self.steals += 1;
        self.trace_dispatch(cpu, tid, || (prio, f64::NAN));
        Some(tid)
    }

    fn on_exit(&mut self, tid: ThreadId) {
        if let Some(slot) = self.slots.release(tid) {
            self.remove_slot(slot);
            self.states[slot.index()] = None;
        }
        self.est.remove_thread(tid);
    }

    fn expected_footprint(&self, cpu: usize, tid: ThreadId) -> Option<f64> {
        Some(self.est.expected_footprint(CpuId(cpu), tid))
    }

    fn ready_count(&self) -> usize {
        self.arrival.len()
    }

    fn steals(&self) -> u64 {
        self.steals
    }

    fn priority_flops(&self) -> (u64, u64) {
        let counter = self.est.schemes().flop_counter();
        (counter.flops(), counter.lookups())
    }

    fn degraded_intervals(&self) -> u64 {
        self.degraded_intervals
    }

    fn is_degraded(&self) -> bool {
        self.mode == SchedMode::Degraded
    }

    fn name(&self) -> &'static str {
        match (self.config.policy, self.config.use_annotations) {
            (PolicyKind::Lff, true) => "lff",
            (PolicyKind::Crt, true) => "crt",
            (PolicyKind::Lff, false) => "lff-noann",
            (PolicyKind::Crt, false) => "crt-noann",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    impl LocalityScheduler {
        /// Takes `tid` off every ready structure, as a `pick` would have.
        fn remove_everywhere(&mut self, tid: ThreadId) {
            if let Some(slot) = self.slots.lookup(tid) {
                self.remove_slot(slot);
            }
        }
    }

    fn sched(cpus: usize) -> LocalityScheduler {
        LocalityScheduler::new(LocalityConfig::new(PolicyKind::Lff), 1024, cpus).unwrap()
    }

    fn interval(misses: u64, confidence: f64) -> SanitizedInterval {
        SanitizedInterval { refs: misses, hits: 0, misses, confidence, corrected: false }
    }

    /// Run a synthetic interval: dispatch tid on cpu, charge misses, end.
    fn run_interval(s: &mut LocalityScheduler, cpu: usize, tid: ThreadId, misses: u64) {
        s.on_dispatch(cpu, tid);
        s.on_interval_end(cpu, tid, interval(misses, 1.0), &SharingGraph::new());
    }

    /// Like [`run_interval`] but with an explicit confidence sample.
    fn run_interval_conf(
        s: &mut LocalityScheduler,
        cpu: usize,
        tid: ThreadId,
        misses: u64,
        confidence: f64,
    ) {
        s.on_dispatch(cpu, tid);
        s.on_interval_end(cpu, tid, interval(misses, confidence), &SharingGraph::new());
    }

    #[test]
    fn cold_threads_go_to_global_queue() {
        let mut s = sched(2);
        s.on_spawn(t(1));
        s.on_spawn(t(2));
        assert_eq!(s.ready_count(), 2);
        assert_eq!(s.heap_len(0), 0);
        assert_eq!(s.pick(0), Some(t(1)), "FIFO from global when no footprints");
        assert_eq!(s.pick(0), Some(t(2)));
        assert_eq!(s.pick(0), None);
    }

    #[test]
    fn warm_thread_enters_heap_and_wins() {
        let mut s = sched(1);
        // t1 runs and builds footprint, then becomes ready again.
        s.on_spawn(t(1));
        assert_eq!(s.pick(0), Some(t(1)));
        run_interval(&mut s, 0, t(1), 400);
        s.on_ready(t(1));
        assert_eq!(s.heap_len(0), 1, "warm thread sits in the heap");
        // A cold thread arrives first in FIFO terms...
        s.on_spawn(t(2));
        // ...but the warm thread is dispatched first (heap beats global).
        assert_eq!(s.pick(0), Some(t(1)));
    }

    #[test]
    fn lff_picks_largest_footprint() {
        let mut s = sched(1);
        for (tid, misses) in [(t(1), 100u64), (t(2), 600), (t(3), 300)] {
            s.on_spawn(tid);
            s.remove_everywhere(tid);
            run_interval(&mut s, 0, tid, misses);
            s.on_ready(tid);
        }
        assert_eq!(s.pick(0), Some(t(2)));
        assert_eq!(s.pick(0), Some(t(3)));
        assert_eq!(s.pick(0), Some(t(1)));
    }

    #[test]
    fn threshold_demotion_to_global() {
        let mut s = LocalityScheduler::new(
            LocalityConfig { threshold_lines: 50.0, ..LocalityConfig::new(PolicyKind::Lff) },
            1024,
            1,
        )
        .unwrap();
        s.on_spawn(t(1));
        s.pick(0);
        run_interval(&mut s, 0, t(1), 100); // ~91 lines expected
        s.on_ready(t(1));
        assert_eq!(s.heap_len(0), 1);
        // Now another thread trashes the cache; t1 decays below 50 lines.
        s.on_spawn(t(2));
        s.pick(0); // t1 still beats t2? t1 in heap wins; force: pop order
                   // Actually pick returned t1 (heap first). Re-run it with 0 misses
                   // and requeue, then run t2 with many misses.
        run_interval(&mut s, 0, t(1), 0);
        s.on_ready(t(1));
        assert_eq!(s.pick(0), Some(t(1)));
        run_interval(&mut s, 0, t(1), 0);
        s.on_ready(t(1));
        // t2 is still queued; dispatch it and take a huge interval.
        // t1 is in the heap; pick must prefer t1 (warm). Remove it first.
        assert_eq!(s.pick(0), Some(t(1)));
        run_interval(&mut s, 0, t(1), 0);
        s.on_ready(t(1));
        // Directly dispatch t2 (simulating its turn) with many misses.
        s.remove_everywhere(t(2));
        run_interval(&mut s, 0, t(2), 5000);
        s.on_ready(t(2));
        // t1's footprint decayed to ~0.7 lines < 50: pick must demote it
        // and hand out t2 (warm), then t1 from the global queue.
        assert_eq!(s.pick(0), Some(t(2)));
        assert_eq!(s.pick(0), Some(t(1)), "demoted thread still runnable via global queue");
    }

    #[test]
    fn stealing_takes_lowest_priority_from_neighbour() {
        let mut s = sched(2);
        for (tid, misses) in [(t(1), 600u64), (t(2), 100)] {
            s.on_spawn(tid);
            s.remove_everywhere(tid);
            run_interval(&mut s, 0, tid, misses);
            s.on_ready(tid);
        }
        assert_eq!(s.heap_len(0), 2);
        // cpu1 has nothing: it steals the *lowest* priority thread (t2).
        assert_eq!(s.pick(1), Some(t(2)));
        assert_eq!(s.steals(), 1);
        // cpu0 keeps its hottest thread.
        assert_eq!(s.pick(0), Some(t(1)));
    }

    #[test]
    fn dependent_promotion_from_global() {
        let mut s = sched(1);
        let mut graph = SharingGraph::new();
        graph.set(t(1), t(2), 0.8).unwrap();
        // t2 is ready but cold: global queue.
        s.on_spawn(t(2));
        assert_eq!(s.heap_len(0), 0);
        // t1 runs and takes lots of misses; t2 (dependent) gains footprint.
        s.on_spawn(t(1));
        // pick returns t2 first (FIFO within global)... we want t1; force.
        s.remove_everywhere(t(1));
        s.on_dispatch(0, t(1));
        s.on_interval_end(0, t(1), interval(2000, 1.0), &graph);
        // t2 must now sit in cpu0's heap (promoted).
        assert_eq!(s.heap_len(0), 1);
        assert_eq!(s.pick(0), Some(t(2)));
        assert_eq!(s.pick(0), None, "t2 must have left the global queue too");
    }

    #[test]
    fn no_annotations_mode_ignores_graph() {
        let mut s = LocalityScheduler::new(
            LocalityConfig { use_annotations: false, ..LocalityConfig::new(PolicyKind::Lff) },
            1024,
            1,
        )
        .unwrap();
        let mut graph = SharingGraph::new();
        graph.set(t(1), t(2), 1.0).unwrap();
        s.on_spawn(t(2));
        s.on_spawn(t(1));
        s.remove_everywhere(t(1));
        s.on_dispatch(0, t(1));
        s.on_interval_end(0, t(1), interval(2000, 1.0), &graph);
        assert_eq!(s.heap_len(0), 0, "dependent must NOT be promoted");
        assert_eq!(s.name(), "lff-noann");
    }

    #[test]
    fn exit_cleans_everything() {
        let mut s = sched(2);
        s.on_spawn(t(1));
        s.pick(0);
        run_interval(&mut s, 0, t(1), 500);
        s.on_ready(t(1));
        s.on_exit(t(1));
        assert_eq!(s.ready_count(), 0);
        assert_eq!(s.pick(0), None);
        assert_eq!(s.expected_footprint(0, t(1)), Some(0.0));
    }

    #[test]
    fn sweep_bounds_heap_size() {
        let mut s = LocalityScheduler::new(
            LocalityConfig { threshold_lines: 100.0, ..LocalityConfig::new(PolicyKind::Lff) },
            1024,
            1,
        )
        .unwrap();
        // The sweep comes with every SWEEP_INTERVAL-th interval end: one
        // more thread spends all but eleven of them on nothing, so that
        // its trashing interval below is the one that sweeps.
        s.on_spawn(t(99));
        s.remove_everywhere(t(99));
        for _ in 0..SWEEP_INTERVAL - 11 {
            run_interval(&mut s, 0, t(99), 0);
        }
        // Ten warm-ish threads in the heap.
        for i in 0..10u64 {
            let tid = t(i);
            s.on_spawn(tid);
            s.remove_everywhere(tid);
            run_interval(&mut s, 0, tid, 200);
            s.on_ready(tid);
        }
        let before = s.heap_len(0);
        assert!(before > 0);
        // A long cache-trashing interval decays all of them; the sweep
        // must demote the under-threshold ones right away.
        run_interval(&mut s, 0, t(99), 20_000);
        assert_eq!(s.heap_len(0), 0, "sweep must evict all decayed entries");
        assert_eq!(s.ready_count(), 10, "demoted threads remain runnable");
    }

    #[test]
    fn crt_prefers_smallest_reload_ratio() {
        let mut s = LocalityScheduler::new(LocalityConfig::new(PolicyKind::Crt), 1024, 1).unwrap();
        // t1 blocks with a large footprint, then t2 blocks; t2 just ran
        // (ratio 0) so it must be picked before t1 (which decayed).
        for (tid, misses) in [(t(1), 700u64), (t(2), 300)] {
            s.on_spawn(tid);
            s.remove_everywhere(tid);
            run_interval(&mut s, 0, tid, misses);
            s.on_ready(tid);
        }
        assert_eq!(s.pick(0), Some(t(2)), "most recently blocked has ratio 0");
    }

    /// An LFF scheduler for the degradation tests.
    fn degradable(use_annotations: bool, cpus: usize) -> LocalityScheduler {
        LocalityScheduler::new(
            LocalityConfig { use_annotations, ..LocalityConfig::new(PolicyKind::Lff) },
            1024,
            cpus,
        )
        .unwrap()
    }

    /// Drive `tid` through low-confidence intervals until the scheduler
    /// degrades (bounded; panics if it never does).
    fn force_degrade(s: &mut LocalityScheduler, tid: ThreadId) {
        for _ in 0..32 {
            s.remove_everywhere(tid);
            run_interval_conf(s, 0, tid, 100, 0.0);
            s.on_ready(tid);
            if s.is_degraded() {
                return;
            }
        }
        panic!("scheduler never degraded");
    }

    #[test]
    fn sustained_low_confidence_degrades() {
        let mut s = degradable(true, 1);
        s.on_spawn(t(1));
        assert!(!s.is_degraded());
        assert_eq!(s.degraded_intervals(), 0);
        force_degrade(&mut s, t(1));
        assert_eq!(s.mode(), SchedMode::Degraded);
        assert!(s.degraded_intervals() > 0, "degraded intervals are counted");
        assert!(s.confidence() < 0.5);
    }

    #[test]
    fn one_bad_sample_does_not_degrade() {
        let mut s = degradable(true, 1);
        s.on_spawn(t(1));
        // Alternating good/bad samples: the EWMA dips but the streak
        // requirement keeps the mode stable.
        for i in 0..20 {
            s.remove_everywhere(t(1));
            run_interval_conf(&mut s, 0, t(1), 100, if i % 2 == 0 { 0.0 } else { 1.0 });
            s.on_ready(t(1));
        }
        assert!(!s.is_degraded(), "hysteresis must absorb alternating samples");
    }

    #[test]
    fn degraded_mode_is_arrival_fifo_without_annotations() {
        let mut s = degradable(false, 1);
        // t1 arrives first and stays cold; t2 arrives later and runs hot.
        s.on_spawn(t(1));
        s.on_spawn(t(2));
        force_degrade(&mut s, t(2));
        // t2 now has a large footprint (heap) but distrusted counters:
        // dispatch must follow arrival order, i.e. t1 first.
        assert_eq!(s.pick(0), Some(t(1)), "degraded pick ignores footprints");
        assert_eq!(s.pick(0), Some(t(2)));
        assert_eq!(s.pick(0), None);
    }

    #[test]
    fn degraded_mode_prefers_annotation_dependents() {
        let mut s = degradable(true, 1);
        let mut graph = SharingGraph::new();
        graph.set(t(1), t(3), 1.0).unwrap();
        // t2 arrives before t3; FIFO alone would pick t2 first.
        s.on_spawn(t(2));
        s.on_spawn(t(3));
        s.on_spawn(t(1));
        // Degrade while t1 blocks repeatedly, so cpu0's preference list
        // holds t1's dependents.
        for _ in 0..8 {
            s.remove_everywhere(t(1));
            s.on_dispatch(0, t(1));
            s.on_interval_end(0, t(1), interval(100, 0.0), &graph);
            s.on_ready(t(1));
            if s.is_degraded() {
                break;
            }
        }
        assert!(s.is_degraded());
        assert_eq!(s.pick(0), Some(t(3)), "dependent of the last blocker runs first");
        assert_eq!(s.pick(0), Some(t(2)), "then arrival order");
    }

    #[test]
    fn recovers_when_confidence_returns() {
        let mut s = degradable(true, 1);
        s.on_spawn(t(1));
        force_degrade(&mut s, t(1));
        let degraded_so_far = s.degraded_intervals();
        for _ in 0..32 {
            s.remove_everywhere(t(1));
            run_interval_conf(&mut s, 0, t(1), 100, 1.0);
            s.on_ready(t(1));
            if !s.is_degraded() {
                break;
            }
        }
        assert_eq!(s.mode(), SchedMode::Normal, "clean counters must restore Normal mode");
        assert!(s.degraded_intervals() >= degraded_so_far);
        // Normal dispatch again: the warm thread comes from the heap.
        let final_count = s.degraded_intervals();
        s.remove_everywhere(t(1));
        run_interval(&mut s, 0, t(1), 400);
        s.on_ready(t(1));
        s.on_spawn(t(2));
        assert_eq!(s.pick(0), Some(t(1)), "heap priority wins again after recovery");
        assert_eq!(s.degraded_intervals(), final_count, "counting stops after recovery");
    }

    #[test]
    fn slot_recycling_keeps_queues_clean() {
        // Spawn→exit→spawn reusing the slot: the recycled slot must not
        // inherit ready state or queue membership.
        let mut s = sched(1);
        s.on_spawn(t(1));
        s.on_exit(t(1));
        assert_eq!(s.ready_count(), 0);
        s.on_spawn(t(2)); // reuses t1's slot
        assert_eq!(s.ready_count(), 1);
        assert_eq!(s.pick(0), Some(t(2)), "only the new binding is dispatchable");
        assert_eq!(s.pick(0), None, "the stale t1 entry must stay dead");
    }
}
