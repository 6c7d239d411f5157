//! The online per-processor footprint estimator.
//!
//! [`LocalityEstimator`] is the piece the runtime talks to: it owns one
//! footprint table per processor, the processor-wide miss counts `m_p(t)`,
//! and a [`PrioritySchemes`] engine. At every context switch the runtime
//! reports the interval's miss count (read from the performance counters)
//! and receives back the `O(out-degree)` set of priority changes to apply
//! to its run queues — the complete realization of the paper's "no work
//! for independent threads" property.

use crate::graph::SharingGraph;
use crate::priority::{FootprintEntry, PolicyKind, PrioritySchemes, PriorityUpdate};
use crate::tables::PrecomputedTables;
use crate::{CpuId, ModelParams, ThreadId};
use std::collections::HashMap;

/// The seam between the schedulers and a footprint model.
///
/// LFF/CRT only ever need four operations from whatever model predicts
/// per-thread cache footprints: note a dispatch, consume an interval's
/// miss count, read back an estimate/priority, and forget exited
/// threads. [`LocalityEstimator`] (the paper's direct-mapped Markov
/// closed forms with `O(out-degree)` log-space updates) is the default
/// implementation; [`PerSetEstimator`](crate::perset::PerSetEstimator)
/// generalizes the birth–death chain to set-associative LRU geometries,
/// and a reuse-distance competitor would plug in the same way.
pub trait FootprintEstimator {
    /// Records that `tid` was dispatched on `cpu` (its interval begins).
    fn on_switch(&mut self, cpu: CpuId, tid: ThreadId);

    /// Records the end of `tid`'s interval on `cpu` with `n` misses and
    /// returns the priority updates to apply to run queues — the blocking
    /// thread first, its `graph` dependents after.
    fn on_miss(
        &mut self,
        cpu: CpuId,
        tid: ThreadId,
        n: u64,
        graph: &SharingGraph,
    ) -> Vec<PriorityUpdate>;

    /// Current expected footprint of `tid` in `cpu`'s cache, in lines
    /// (0 if the thread has no state there).
    fn estimate(&self, cpu: CpuId, tid: ThreadId) -> f64;

    /// Current scheduling priority of `tid` on `cpu`. Must order threads
    /// identically to [`estimate`](Self::estimate) on any one processor.
    fn priority(&self, cpu: CpuId, tid: ThreadId) -> f64;

    /// Forgets `tid` on every processor (thread exit).
    fn retire(&mut self, tid: ThreadId);

    /// `(flops, table lookups)` spent on priority maintenance so far, if
    /// the implementation counts them (Table 3); `(0, 0)` otherwise.
    fn flop_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Configuration of a [`LocalityEstimator`].
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// Which policy's priorities to maintain.
    pub policy: PolicyKind,
    /// The cache model parameters (one secondary cache per processor).
    pub params: ModelParams,
    /// Number of processors.
    pub cpus: usize,
    /// Optional override of the `kⁿ` table length.
    pub kpow_entries: Option<usize>,
}

impl EstimatorConfig {
    /// Convenience constructor with the default table sizes.
    pub fn new(policy: PolicyKind, params: ModelParams, cpus: usize) -> Self {
        EstimatorConfig { policy, params, cpus, kpow_entries: None }
    }
}

#[derive(Debug, Default)]
struct CpuState {
    /// Total secondary-cache misses on this processor since program start.
    m: u64,
    /// Footprint entries for threads with (expected) state in this cache.
    entries: HashMap<ThreadId, FootprintEntry>,
    /// Eagerly-recomputed footprints (naive `O(threads)` per switch),
    /// maintained purely to cross-check the incremental path.
    #[cfg(feature = "invariant-checks")]
    shadow: std::collections::BTreeMap<ThreadId, f64>,
}

/// Online estimator of every thread's expected footprint in every
/// processor's cache, with incremental priority maintenance.
///
/// ```
/// use locality_core::{
///     CpuId, EstimatorConfig, LocalityEstimator, ModelParams, PolicyKind, SharingGraph, ThreadId,
/// };
/// let params = ModelParams::new(8192)?;
/// let mut est = LocalityEstimator::new(EstimatorConfig::new(PolicyKind::Lff, params, 2));
/// let graph = SharingGraph::new();
/// let (cpu, t) = (CpuId(0), ThreadId(1));
///
/// est.on_dispatch(cpu, t);
/// let updates = est.on_interval_end(cpu, t, 4000, &graph);
/// assert_eq!(updates.len(), 1); // only the blocking thread itself
/// assert!(est.expected_footprint(cpu, t) > 3000.0);
/// assert_eq!(est.expected_footprint(CpuId(1), t), 0.0); // never ran there
/// # Ok::<(), locality_core::ModelError>(())
/// ```
#[derive(Debug)]
pub struct LocalityEstimator {
    schemes: PrioritySchemes,
    cpus: Vec<CpuState>,
    #[cfg(feature = "invariant-checks")]
    checks: u64,
}

impl LocalityEstimator {
    /// Creates an estimator for `config.cpus` processors.
    pub fn new(config: EstimatorConfig) -> Self {
        let tables = match config.kpow_entries {
            Some(entries) => PrecomputedTables::with_kpow_entries(config.params, entries),
            None => PrecomputedTables::new(config.params),
        };
        let schemes = PrioritySchemes::with_tables(config.policy, tables);
        let cpus = (0..config.cpus).map(|_| CpuState::default()).collect();
        LocalityEstimator {
            schemes,
            cpus,
            #[cfg(feature = "invariant-checks")]
            checks: 0,
        }
    }

    /// The policy in use.
    pub fn policy(&self) -> PolicyKind {
        self.schemes.policy()
    }

    /// The model parameters in use.
    pub fn params(&self) -> ModelParams {
        self.schemes.params()
    }

    /// The priority-update engine (exposes the flop counter for Table 3).
    pub fn schemes(&self) -> &PrioritySchemes {
        &self.schemes
    }

    /// Number of processors.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Total secondary-cache misses recorded for `cpu` so far (`m_p(t)`).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn misses(&self, cpu: CpuId) -> u64 {
        self.cpus[cpu.0].m
    }

    /// Records that `tid` was dispatched on `cpu`: snapshots its footprint
    /// at the interval start (`S` of the case-1 formula).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn on_dispatch(&mut self, cpu: CpuId, tid: ThreadId) {
        let state = &mut self.cpus[cpu.0];
        let m_now = state.m;
        let entry = state.entries.entry(tid).or_insert_with(FootprintEntry::cold);
        self.schemes.on_dispatch(entry, m_now);
        #[cfg(feature = "invariant-checks")]
        state.shadow.entry(tid).or_insert(0.0);
    }

    /// Records the end of `tid`'s scheduling interval on `cpu` with `n`
    /// misses (from the performance counters), applying:
    ///
    /// * case 1 to `tid` itself,
    /// * case 3 to every dependent of `tid` in `graph`,
    /// * case 2 (nothing!) to everyone else.
    ///
    /// Returns the priority updates to apply to run queues, the blocking
    /// thread first, dependents after in thread-id order.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn on_interval_end(
        &mut self,
        cpu: CpuId,
        tid: ThreadId,
        n: u64,
        graph: &SharingGraph,
    ) -> Vec<PriorityUpdate> {
        // Differential check, step 1: the naive O(threads) recompute. Every
        // tracked thread gets the exact case-1/2/3 formula applied eagerly;
        // the incremental path below touches only the blocker and its
        // dependents. `verify_invariants` compares the two afterwards.
        #[cfg(feature = "invariant-checks")]
        {
            let nn = self.schemes.params().n();
            let kn = self.schemes.tables().k_pow(n);
            let state = &mut self.cpus[cpu.0];
            state.shadow.entry(tid).or_insert(0.0);
            let deps: Vec<ThreadId> = graph.dependents_of(tid).map(|(t, _)| t).collect();
            for dep in deps {
                state.shadow.entry(dep).or_insert(0.0);
            }
            for (&x, f) in state.shadow.iter_mut() {
                if x == tid {
                    // Case 1: the blocker grows toward N.
                    *f = nn - (nn - *f) * kn;
                } else {
                    let q = graph.weight(tid, x);
                    if q > 0.0 {
                        // Case 3: dependents grow toward q·N.
                        let target = q * nn;
                        *f = target - (target - *f) * kn;
                    } else {
                        // Case 2: independent threads decay by kⁿ.
                        *f *= kn;
                    }
                }
            }
        }

        let state = &mut self.cpus[cpu.0];
        let m_t0 = state.m;
        let m_new = m_t0 + n;
        let mut updates = Vec::with_capacity(1 + graph.out_degree(tid));

        let entry = state.entries.entry(tid).or_insert_with(FootprintEntry::cold);
        let prio = self.schemes.on_block_self(entry, n, m_new);
        updates.push(PriorityUpdate { thread: tid, prio });

        for (dep, q) in graph.dependents_of(tid) {
            let entry = state.entries.entry(dep).or_insert_with(FootprintEntry::cold);
            let prio = self.schemes.on_dependent(entry, q, n, m_t0);
            updates.push(PriorityUpdate { thread: dep, prio });
        }
        self.schemes.on_independent(); // case 2: all other threads, zero work

        state.m = m_new;
        #[cfg(feature = "invariant-checks")]
        self.verify_invariants(cpu, tid);
        locality_trace::emit_with(|| locality_trace::TraceEvent::PriorityUpdates {
            tid: tid.0,
            fanout: updates.len() as u32,
        });
        updates
    }

    /// Differential check, step 2: after the incremental updates, every
    /// tracked entry's lazily-decayed footprint must match the naive eager
    /// recompute, stay within `[0, N]`, and its stored log-space priority
    /// must be reconstructible from the current footprint (the paper's
    /// invariance-under-independent-decay property, §4.1).
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic message on any divergence — the point of
    /// the feature is to fail loudly in CI.
    #[cfg(feature = "invariant-checks")]
    fn verify_invariants(&mut self, cpu: CpuId, blocker: ThreadId) {
        use crate::priority::PolicyKind;
        let state = &self.cpus[cpu.0];
        let nn = self.schemes.params().n();
        let m_now = state.m;
        let tables = self.schemes.tables();
        for (&x, entry) in &state.entries {
            let lazy = self.schemes.expected_footprint(entry, m_now);
            let naive = *state.shadow.get(&x).unwrap_or_else(|| {
                panic!("invariant-checks: {x} tracked on cpu{} but absent from shadow", cpu.0)
            });
            // The lazy path composes decays in one k^(Δm) jump (clamped to
            // 0 past the table) while the shadow multiplies per-interval
            // factors; allow only floating-point noise between them.
            let tol = 1e-7 * nn + 1e-9 * lazy.abs().max(naive.abs());
            assert!(
                (lazy - naive).abs() <= tol,
                "invariant-checks: cpu{} {x} after {blocker} blocked at m={m_now}: \
                 incremental footprint {lazy} != naive recompute {naive} (tol {tol})",
                cpu.0
            );
            assert!(
                (-1e-9..=nn * (1.0 + 1e-9)).contains(&lazy),
                "invariant-checks: cpu{} {x}: E[F] = {lazy} outside [0, N={nn}]",
                cpu.0
            );
            // Log-space priority consistency: reconstruct the priority from
            // the *current* footprint; it must equal the stored (possibly
            // never-updated) priority up to the whole-line rounding of the
            // log table (~1/F per lookup). Entries decayed below two lines
            // hit the log-table clamp and are excluded.
            if lazy >= 2.0 {
                let reconstructed = match self.schemes.policy() {
                    PolicyKind::Lff => tables.log_footprint(lazy) - m_now as f64 * tables.log_k(),
                    PolicyKind::Crt => {
                        tables.log_footprint(lazy)
                            - tables.log_footprint(entry.e_f_last_run)
                            - m_now as f64 * tables.log_k()
                    }
                };
                let tol = 2.5 / lazy + 1e-6;
                assert!(
                    (entry.prio - reconstructed).abs() <= tol,
                    "invariant-checks: cpu{} {x}: stored priority {} inconsistent with \
                     footprint {lazy} at m={m_now} (reconstructed {reconstructed}, tol {tol})",
                    cpu.0,
                    entry.prio
                );
            }
        }
        self.checks += 1;
    }

    /// Number of context switches the differential invariant checker has
    /// verified so far.
    #[cfg(feature = "invariant-checks")]
    pub fn invariant_checks(&self) -> u64 {
        self.checks
    }

    /// Current priority of `tid` on `cpu` (the cold priority if the thread
    /// has no state there).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn priority(&self, cpu: CpuId, tid: ThreadId) -> f64 {
        let state = &self.cpus[cpu.0];
        match state.entries.get(&tid) {
            Some(e) => e.prio,
            None => self.schemes.cold_priority(state.m),
        }
    }

    /// Current expected footprint of `tid` in `cpu`'s cache, in lines.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn expected_footprint(&self, cpu: CpuId, tid: ThreadId) -> f64 {
        let state = &self.cpus[cpu.0];
        match state.entries.get(&tid) {
            Some(e) => self.schemes.expected_footprint(e, state.m),
            None => 0.0,
        }
    }

    /// Drops `tid`'s entry on `cpu` (e.g. after threshold eviction from
    /// that processor's heap).
    pub fn remove_on_cpu(&mut self, cpu: CpuId, tid: ThreadId) {
        self.cpus[cpu.0].entries.remove(&tid);
        #[cfg(feature = "invariant-checks")]
        self.cpus[cpu.0].shadow.remove(&tid);
    }

    /// Drops `tid` everywhere (thread exit).
    pub fn remove_thread(&mut self, tid: ThreadId) {
        for cpu in &mut self.cpus {
            cpu.entries.remove(&tid);
            #[cfg(feature = "invariant-checks")]
            cpu.shadow.remove(&tid);
        }
    }

    /// Number of tracked entries on `cpu` (for bounding heap sizes).
    pub fn tracked_on(&self, cpu: CpuId) -> usize {
        self.cpus[cpu.0].entries.len()
    }

    /// The processor (if any) where `tid`'s expected footprint is largest,
    /// with that footprint. Useful for wake-up placement hints.
    pub fn best_cpu(&self, tid: ThreadId) -> Option<(CpuId, f64)> {
        let mut best: Option<(CpuId, f64)> = None;
        for (i, state) in self.cpus.iter().enumerate() {
            if let Some(e) = state.entries.get(&tid) {
                let f = self.schemes.expected_footprint(e, state.m);
                if best.is_none_or(|(_, bf)| f > bf) {
                    best = Some((CpuId(i), f));
                }
            }
        }
        best
    }
}

impl FootprintEstimator for LocalityEstimator {
    fn on_switch(&mut self, cpu: CpuId, tid: ThreadId) {
        self.on_dispatch(cpu, tid);
    }

    fn on_miss(
        &mut self,
        cpu: CpuId,
        tid: ThreadId,
        n: u64,
        graph: &SharingGraph,
    ) -> Vec<PriorityUpdate> {
        self.on_interval_end(cpu, tid, n, graph)
    }

    fn estimate(&self, cpu: CpuId, tid: ThreadId) -> f64 {
        self.expected_footprint(cpu, tid)
    }

    fn priority(&self, cpu: CpuId, tid: ThreadId) -> f64 {
        LocalityEstimator::priority(self, cpu, tid)
    }

    fn retire(&mut self, tid: ThreadId) {
        self.remove_thread(tid);
    }

    fn flop_counts(&self) -> (u64, u64) {
        let c = self.schemes.flop_counter();
        (c.flops(), c.lookups())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator(policy: PolicyKind, cpus: usize) -> LocalityEstimator {
        let params = ModelParams::new(1024).unwrap();
        LocalityEstimator::new(EstimatorConfig {
            policy,
            params,
            cpus,
            kpow_entries: Some(1 << 16),
        })
    }

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn run_and_block_builds_footprint() {
        let mut est = estimator(PolicyKind::Lff, 1);
        let g = SharingGraph::new();
        est.on_dispatch(CpuId(0), t(1));
        let ups = est.on_interval_end(CpuId(0), t(1), 500, &g);
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].thread, t(1));
        let f = est.expected_footprint(CpuId(0), t(1));
        let expect = 1024.0 * (1.0 - est.params().k_pow(500));
        assert!((f - expect).abs() < 1e-9);
        assert_eq!(est.misses(CpuId(0)), 500);
    }

    #[test]
    fn independent_threads_untouched() {
        let mut est = estimator(PolicyKind::Lff, 1);
        let g = SharingGraph::new();
        // t1 builds state and blocks.
        est.on_dispatch(CpuId(0), t(1));
        est.on_interval_end(CpuId(0), t(1), 500, &g);
        let p1 = est.priority(CpuId(0), t(1));
        // t2 runs; t1 is independent: its stored priority must not move.
        est.on_dispatch(CpuId(0), t(2));
        let ups = est.on_interval_end(CpuId(0), t(2), 300, &g);
        assert_eq!(ups.len(), 1, "only the blocker updates");
        assert_eq!(est.priority(CpuId(0), t(1)), p1);
        // ...but its *footprint* decayed.
        let f1 = est.expected_footprint(CpuId(0), t(1));
        let expect = 1024.0 * (1.0 - est.params().k_pow(500)) * est.params().k_pow(300);
        assert!((f1 - expect).abs() < 1e-9);
    }

    #[test]
    fn dependents_updated_and_reported() {
        let mut est = estimator(PolicyKind::Lff, 1);
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        g.set(t(1), t(3), 0.25).unwrap();
        est.on_dispatch(CpuId(0), t(1));
        let ups = est.on_interval_end(CpuId(0), t(1), 1000, &g);
        assert_eq!(ups.len(), 3);
        assert_eq!(ups[0].thread, t(1));
        assert_eq!(ups[1].thread, t(2));
        assert_eq!(ups[2].thread, t(3));
        let f2 = est.expected_footprint(CpuId(0), t(2));
        let f3 = est.expected_footprint(CpuId(0), t(3));
        let e2 = 512.0 * (1.0 - est.params().k_pow(1000));
        let e3 = 256.0 * (1.0 - est.params().k_pow(1000));
        assert!((f2 - e2).abs() < 1e-9);
        assert!((f3 - e3).abs() < 1e-9);
        assert!(f2 > f3);
    }

    #[test]
    fn per_cpu_isolation() {
        let mut est = estimator(PolicyKind::Lff, 2);
        let g = SharingGraph::new();
        est.on_dispatch(CpuId(0), t(1));
        est.on_interval_end(CpuId(0), t(1), 400, &g);
        assert!(est.expected_footprint(CpuId(0), t(1)) > 0.0);
        assert_eq!(est.expected_footprint(CpuId(1), t(1)), 0.0);
        assert_eq!(est.misses(CpuId(1)), 0);
    }

    #[test]
    fn best_cpu_finds_largest_footprint() {
        let mut est = estimator(PolicyKind::Lff, 3);
        let g = SharingGraph::new();
        est.on_dispatch(CpuId(0), t(1));
        est.on_interval_end(CpuId(0), t(1), 100, &g);
        est.on_dispatch(CpuId(2), t(1));
        est.on_interval_end(CpuId(2), t(1), 700, &g);
        let (cpu, f) = est.best_cpu(t(1)).unwrap();
        assert_eq!(cpu, CpuId(2));
        assert!(f > est.expected_footprint(CpuId(0), t(1)));
        assert!(est.best_cpu(t(9)).is_none());
    }

    #[test]
    fn remove_thread_clears_everywhere() {
        let mut est = estimator(PolicyKind::Crt, 2);
        let g = SharingGraph::new();
        for cpu in 0..2 {
            est.on_dispatch(CpuId(cpu), t(1));
            est.on_interval_end(CpuId(cpu), t(1), 100, &g);
        }
        est.remove_thread(t(1));
        assert_eq!(est.expected_footprint(CpuId(0), t(1)), 0.0);
        assert_eq!(est.expected_footprint(CpuId(1), t(1)), 0.0);
        assert_eq!(est.tracked_on(CpuId(0)), 0);
    }

    #[test]
    fn remove_on_cpu_is_local() {
        let mut est = estimator(PolicyKind::Lff, 2);
        let g = SharingGraph::new();
        for cpu in 0..2 {
            est.on_dispatch(CpuId(cpu), t(1));
            est.on_interval_end(CpuId(cpu), t(1), 100, &g);
        }
        est.remove_on_cpu(CpuId(0), t(1));
        assert_eq!(est.expected_footprint(CpuId(0), t(1)), 0.0);
        assert!(est.expected_footprint(CpuId(1), t(1)) > 0.0);
    }

    #[test]
    fn lff_scheduler_would_pick_largest_footprint() {
        // End-to-end ordering check at the estimator level: three threads
        // run in turn; at the end, priorities order by current footprint.
        let mut est = estimator(PolicyKind::Lff, 1);
        let g = SharingGraph::new();
        let intervals = [(t(1), 2000u64), (t(2), 100), (t(3), 800)];
        for (tid, n) in intervals {
            est.on_dispatch(CpuId(0), tid);
            est.on_interval_end(CpuId(0), tid, n, &g);
        }
        let mut by_prio: Vec<_> = (1..=3).map(|i| (est.priority(CpuId(0), t(i)), t(i))).collect();
        by_prio.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let mut by_foot: Vec<_> =
            (1..=3).map(|i| (est.expected_footprint(CpuId(0), t(i)), t(i))).collect();
        by_foot.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let prio_order: Vec<_> = by_prio.iter().map(|x| x.1).collect();
        let foot_order: Vec<_> = by_foot.iter().map(|x| x.1).collect();
        assert_eq!(prio_order, foot_order);
    }

    #[cfg(feature = "invariant-checks")]
    #[test]
    fn differential_checker_runs_and_passes() {
        // Mixed blockers, dependents, cpus, and interval sizes: the naive
        // O(threads) recompute must agree with the incremental updates at
        // every single interval end, for both policies.
        for policy in [PolicyKind::Lff, PolicyKind::Crt] {
            let params = ModelParams::new(1024).unwrap();
            let mut est = LocalityEstimator::new(EstimatorConfig::new(policy, params, 2));
            let mut g = SharingGraph::new();
            g.set(t(1), t(2), 0.5).unwrap();
            g.set(t(2), t(3), 0.25).unwrap();
            let pattern = [(1u64, 400u64), (2, 150), (3, 900), (1, 10), (2, 0), (3, 2000)];
            for round in 0..50usize {
                for &(tid, n) in &pattern {
                    let cpu = CpuId((round + tid as usize) % 2);
                    est.on_dispatch(cpu, t(tid));
                    est.on_interval_end(cpu, t(tid), n, &g);
                }
            }
            assert!(est.invariant_checks() >= 300, "checker must run at every interval end");
        }
    }

    #[test]
    fn trait_surface_delegates_to_inherent_methods() {
        let mut est = estimator(PolicyKind::Lff, 1);
        let g = SharingGraph::new();
        FootprintEstimator::on_switch(&mut est, CpuId(0), t(1));
        let ups = FootprintEstimator::on_miss(&mut est, CpuId(0), t(1), 500, &g);
        assert_eq!(ups.len(), 1);
        assert_eq!(est.estimate(CpuId(0), t(1)), est.expected_footprint(CpuId(0), t(1)));
        assert_eq!(
            FootprintEstimator::priority(&est, CpuId(0), t(1)),
            LocalityEstimator::priority(&est, CpuId(0), t(1))
        );
        let (flops, lookups) = est.flop_counts();
        assert!(flops > 0 && lookups > 0, "the Markov impl counts its work");
        FootprintEstimator::retire(&mut est, t(1));
        assert_eq!(est.estimate(CpuId(0), t(1)), 0.0);
    }

    #[test]
    fn zero_miss_interval_is_harmless() {
        let mut est = estimator(PolicyKind::Crt, 1);
        let g = SharingGraph::new();
        est.on_dispatch(CpuId(0), t(1));
        let ups = est.on_interval_end(CpuId(0), t(1), 0, &g);
        assert_eq!(ups.len(), 1);
        assert_eq!(est.misses(CpuId(0)), 0);
        assert_eq!(est.expected_footprint(CpuId(0), t(1)), 0.0);
    }
}
