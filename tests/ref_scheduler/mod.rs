//! `RefScheduler`: the LFF/CRT dispatch rule of
//! `active_threads::sched::LocalityScheduler`, transcribed eagerly and
//! slowly, and `DiffScheduler`, which runs both side by side.
//!
//! The reference keeps plain `Vec`s and `BTreeMap`s keyed by
//! [`ThreadId`], no slots, no bitmasks, and spends O(threads) per pick.
//! It owns a [`LocalityEstimator`] of its own, fed the same events, so a
//! divergence is in the queueing, not in the model. The rule it states:
//!
//! * a thread that becomes ready joins the heap of every cpu where its
//!   expected footprint is at least the threshold, keyed by its priority
//!   there, and the global FIFO if it joins none; every ready thread is
//!   in the arrival FIFO;
//! * an interval end applies the estimator's updates to ready
//!   dependents on that cpu: at or above the threshold the thread leaves
//!   the global FIFO and takes the update's key in the cpu's heap, below
//!   it the thread leaves that heap; a thread left in no heap joins the
//!   back of the global FIFO. Every 64th interval end (machine-wide)
//!   then demotes, in thread-id order, each entry of that cpu's heap
//!   below the threshold;
//! * a pick takes the best key of the cpu's heap (ties to the smaller
//!   id), demoting entries found below the threshold on the way, then
//!   the front of the global FIFO, then steals the worst key (ties to
//!   the larger id) of the fullest other heap (ties to the lower cpu);
//! * the confidence samples feed an EWMA: four intervals in a row below
//!   0.5 degrade, four above 0.8 recover. Degraded picks take the first
//!   still-ready annotation dependent of the cpu's last blocker (by
//!   weight, then id), dropping the entries passed over, and otherwise
//!   follow arrival order.

use std::collections::BTreeMap;
use thread_locality::core::{
    CpuId, EstimatorConfig, LocalityEstimator, ModelParams, SanitizedInterval, SharingGraph,
    ThreadId,
};
use thread_locality::threads::sched::{LocalityConfig, LocalityScheduler};
use thread_locality::threads::Scheduler;

/// `a` is dispatched before `b`: the higher key, ties to the smaller id.
fn beats(a: (f64, ThreadId), b: (f64, ThreadId)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The eager, obvious locality scheduler.
pub struct RefScheduler {
    config: LocalityConfig,
    est: LocalityEstimator,
    /// Every ready thread, in the order it became ready.
    arrival: Vec<ThreadId>,
    /// The ready threads in no heap, in the order they joined.
    global: Vec<ThreadId>,
    /// Per cpu: its heap's threads and their keys.
    heaps: Vec<BTreeMap<ThreadId, f64>>,
    /// Per cpu: the degraded-mode preference list, front first.
    preferred: Vec<Vec<ThreadId>>,
    degraded: bool,
    conf: f64,
    low_streak: u64,
    high_streak: u64,
    degraded_intervals: u64,
    interval_ends: u64,
    steals: u64,
}

impl RefScheduler {
    pub fn new(config: LocalityConfig, l2_lines: usize, cpus: usize) -> Self {
        let params = ModelParams::new(l2_lines).expect("valid E-cache size");
        RefScheduler {
            config,
            est: LocalityEstimator::new(EstimatorConfig::new(config.policy, params, cpus)),
            arrival: Vec::new(),
            global: Vec::new(),
            heaps: vec![BTreeMap::new(); cpus],
            preferred: vec![Vec::new(); cpus],
            degraded: false,
            conf: 1.0,
            low_streak: 0,
            high_streak: 0,
            degraded_intervals: 0,
            interval_ends: 0,
            steals: 0,
        }
    }

    fn above_threshold(&self, cpu: usize, tid: ThreadId) -> bool {
        self.est.expected_footprint(CpuId(cpu), tid) >= self.config.threshold_lines
    }

    fn in_a_heap(&self, tid: ThreadId) -> bool {
        self.heaps.iter().any(|h| h.contains_key(&tid))
    }

    pub fn on_ready(&mut self, tid: ThreadId) {
        assert!(!self.arrival.contains(&tid), "{tid} made ready twice");
        for cpu in 0..self.heaps.len() {
            if self.above_threshold(cpu, tid) {
                let key = self.est.priority(CpuId(cpu), tid);
                self.heaps[cpu].insert(tid, key);
            }
        }
        self.arrival.push(tid);
        if !self.in_a_heap(tid) {
            self.global.push(tid);
        }
    }

    /// Takes `tid` off every ready structure.
    fn remove(&mut self, tid: ThreadId) {
        self.arrival.retain(|&t| t != tid);
        self.global.retain(|&t| t != tid);
        for heap in &mut self.heaps {
            heap.remove(&tid);
        }
    }

    fn demote(&mut self, cpu: usize, tid: ThreadId) {
        if self.heaps[cpu].remove(&tid).is_some() && !self.in_a_heap(tid) {
            self.global.push(tid);
        }
    }

    pub fn on_dispatch(&mut self, cpu: usize, tid: ThreadId) {
        self.remove(tid);
        self.est.on_dispatch(CpuId(cpu), tid);
    }

    pub fn on_interval_end(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        interval: SanitizedInterval,
        graph: &SharingGraph,
    ) {
        let empty = SharingGraph::new();
        let model_graph = if self.config.use_annotations { graph } else { &empty };
        let updates =
            self.est.on_interval_end(CpuId(cpu), tid, interval.misses, model_graph).to_vec();
        for u in updates {
            if u.thread == tid || !self.arrival.contains(&u.thread) {
                continue;
            }
            if self.above_threshold(cpu, u.thread) {
                self.global.retain(|&t| t != u.thread);
                self.heaps[cpu].insert(u.thread, u.prio);
            } else {
                self.demote(cpu, u.thread);
            }
        }
        self.interval_ends += 1;
        if self.interval_ends.is_multiple_of(64) {
            // `BTreeMap` keys come in thread-id order.
            let decayed: Vec<ThreadId> = self.heaps[cpu]
                .keys()
                .copied()
                .filter(|&t| !self.above_threshold(cpu, t))
                .collect();
            for t in decayed {
                self.demote(cpu, t);
            }
        }
        self.note_confidence(interval.confidence);
        if self.degraded {
            self.degraded_intervals += 1;
            if self.config.use_annotations {
                let mut deps: Vec<(ThreadId, f64)> = graph.dependents_of(tid).collect();
                deps.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                self.preferred[cpu] = deps.into_iter().map(|(t, _)| t).collect();
            }
        }
    }

    fn note_confidence(&mut self, sample: f64) {
        let sample = if sample.is_finite() { sample.clamp(0.0, 1.0) } else { 0.0 };
        self.conf += 0.25 * (sample - self.conf);
        if self.degraded {
            self.low_streak = 0;
            self.high_streak = if self.conf > 0.8 { self.high_streak + 1 } else { 0 };
            if self.high_streak >= 4 {
                self.degraded = false;
                self.high_streak = 0;
                self.preferred.iter_mut().for_each(Vec::clear);
            }
        } else {
            self.high_streak = 0;
            self.low_streak = if self.conf < 0.5 { self.low_streak + 1 } else { 0 };
            if self.low_streak >= 4 {
                self.degraded = true;
                self.low_streak = 0;
            }
        }
    }

    pub fn pick(&mut self, cpu: usize) -> Option<ThreadId> {
        if self.degraded {
            while !self.preferred[cpu].is_empty() {
                let t = self.preferred[cpu].remove(0);
                if self.arrival.contains(&t) {
                    self.remove(t);
                    return Some(t);
                }
            }
            let t = *self.arrival.first()?;
            self.remove(t);
            return Some(t);
        }
        loop {
            let best =
                self.heaps[cpu].iter().map(|(&t, &key)| (key, t)).fold(
                    None,
                    |best, e| match best {
                        Some(b) if !beats(e, b) => Some(b),
                        _ => Some(e),
                    },
                );
            let Some((_, t)) = best else { break };
            self.heaps[cpu].remove(&t);
            if self.above_threshold(cpu, t) {
                self.remove(t);
                return Some(t);
            }
            if !self.in_a_heap(t) {
                self.global.push(t);
            }
        }
        if let Some(&t) = self.global.first() {
            self.remove(t);
            return Some(t);
        }
        let mut victim: Option<usize> = None;
        for c in (0..self.heaps.len()).filter(|&c| c != cpu && !self.heaps[c].is_empty()) {
            if victim.is_none_or(|v| self.heaps[c].len() > self.heaps[v].len()) {
                victim = Some(c);
            }
        }
        let worst =
            self.heaps[victim?].iter().map(|(&t, &key)| (key, t)).fold(
                None,
                |worst, e| match worst {
                    Some(w) if !beats(w, e) => Some(w),
                    _ => Some(e),
                },
            );
        let (_, t) = worst?;
        self.remove(t);
        self.steals += 1;
        Some(t)
    }

    pub fn on_exit(&mut self, tid: ThreadId) {
        self.remove(tid);
        self.est.remove_thread(tid);
    }

    pub fn ready_count(&self) -> usize {
        self.arrival.len()
    }
}

/// A [`Scheduler`] that drives a [`LocalityScheduler`] and a
/// [`RefScheduler`] with every call and panics, naming the call, when
/// they pick differently or disagree on `ready_count`, `steals`,
/// `is_degraded` or `degraded_intervals`. It answers with the real
/// scheduler's values, so an engine run over it is the plain run.
pub struct DiffScheduler {
    real: LocalityScheduler,
    reference: RefScheduler,
    calls: u64,
}

impl DiffScheduler {
    pub fn new(config: LocalityConfig, l2_lines: usize, cpus: usize) -> Self {
        DiffScheduler {
            real: LocalityScheduler::new(config, l2_lines, cpus).expect("valid machine"),
            reference: RefScheduler::new(config, l2_lines, cpus),
            calls: 0,
        }
    }

    fn check(&mut self, call: std::fmt::Arguments<'_>) {
        self.calls += 1;
        let (real, reference) = (&self.real, &self.reference);
        let real_state =
            (real.ready_count(), real.steals(), real.is_degraded(), real.degraded_intervals());
        let ref_state = (
            reference.ready_count(),
            reference.steals,
            reference.degraded,
            reference.degraded_intervals,
        );
        assert_eq!(
            real_state, ref_state,
            "(ready, steals, degraded, degraded intervals) after call {} ({call})",
            self.calls
        );
    }
}

impl Scheduler for DiffScheduler {
    fn on_spawn(&mut self, tid: ThreadId) {
        self.real.on_spawn(tid);
        self.reference.on_ready(tid);
        self.check(format_args!("on_spawn({tid})"));
    }

    fn on_ready(&mut self, tid: ThreadId) {
        self.real.on_ready(tid);
        self.reference.on_ready(tid);
        self.check(format_args!("on_ready({tid})"));
    }

    fn on_dispatch(&mut self, cpu: usize, tid: ThreadId) {
        self.real.on_dispatch(cpu, tid);
        self.reference.on_dispatch(cpu, tid);
        self.check(format_args!("on_dispatch({cpu}, {tid})"));
    }

    fn on_interval_end(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        interval: SanitizedInterval,
        graph: &SharingGraph,
    ) {
        self.real.on_interval_end(cpu, tid, interval, graph);
        self.reference.on_interval_end(cpu, tid, interval, graph);
        self.check(format_args!("on_interval_end({cpu}, {tid}, {interval:?})"));
    }

    fn pick(&mut self, cpu: usize) -> Option<ThreadId> {
        let got = self.real.pick(cpu);
        let want = self.reference.pick(cpu);
        assert_eq!(got, want, "pick({cpu}) at call {}", self.calls + 1);
        self.check(format_args!("pick({cpu})"));
        got
    }

    fn on_exit(&mut self, tid: ThreadId) {
        self.real.on_exit(tid);
        self.reference.on_exit(tid);
        self.check(format_args!("on_exit({tid})"));
    }

    fn on_abort(&mut self, tid: ThreadId) {
        self.real.on_abort(tid);
        self.reference.on_exit(tid);
        self.check(format_args!("on_abort({tid})"));
    }

    fn expected_footprint(&self, cpu: usize, tid: ThreadId) -> Option<f64> {
        self.real.expected_footprint(cpu, tid)
    }

    fn ready_count(&self) -> usize {
        self.real.ready_count()
    }

    fn steals(&self) -> u64 {
        self.real.steals()
    }

    fn priority_flops(&self) -> (u64, u64) {
        self.real.priority_flops()
    }

    fn degraded_intervals(&self) -> u64 {
        self.real.degraded_intervals()
    }

    fn is_degraded(&self) -> bool {
        self.real.is_degraded()
    }

    fn name(&self) -> &'static str {
        self.real.name()
    }
}
