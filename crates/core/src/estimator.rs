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
use crate::slots::{SlotId, ThreadSlots};
use crate::{CpuId, ModelParams, ThreadId};

/// The two calls `core.estimator_switch_ns` times, for either estimator.
///
/// This is not an extension point. The schedulers own a concrete
/// [`LocalityEstimator`] and call its inherent methods; scheduling from
/// the per-set model was measured and rejected (DESIGN §14.2). The trait
/// and [`PerSetEstimator`](crate::perset::PerSetEstimator) remain only
/// because the benchmark's `.per_set` probe compiles against them, and
/// go when that probe does.
pub trait FootprintEstimator {
    /// Records that `tid` was dispatched on `cpu` (its interval begins).
    fn on_switch(&mut self, cpu: CpuId, tid: ThreadId);

    /// Records the end of `tid`'s interval on `cpu` with `n` misses and
    /// returns priority updates, the blocking thread first, in a buffer
    /// the estimator reuses: the slice holds until the next call.
    fn on_miss(
        &mut self,
        cpu: CpuId,
        tid: ThreadId,
        n: u64,
        graph: &SharingGraph,
    ) -> &[PriorityUpdate];
}

/// Configuration of a [`LocalityEstimator`].
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// Which policy's priorities to maintain.
    pub policy: PolicyKind,
    /// The cache model parameters (one secondary cache per processor).
    pub params: ModelParams,
    /// Number of processors (at most 64).
    pub cpus: usize,
}

impl EstimatorConfig {
    /// Convenience constructor with the default table sizes.
    pub fn new(policy: PolicyKind, params: ModelParams, cpus: usize) -> Self {
        EstimatorConfig { policy, params, cpus }
    }
}

/// The footprint entries, thread-major: `entries[slot * cpus + cpu]`,
/// with a per-slot bitmask of the processors where the thread has one.
///
/// An entry means something only where its mask bit is set. Setting a
/// bit writes the cold entry first and [`clear`](Self::clear), run when a
/// slot is bound, zeroes the mask, so a thread in a recycled slot is cold
/// on every processor whatever the previous tenant left behind.
#[derive(Debug)]
struct Rows {
    cpus: usize,
    masks: Vec<u64>,
    entries: Vec<FootprintEntry>,
}

impl Rows {
    /// Forgets the slot's entries on every processor, growing the table
    /// to hold the slot first if it is new.
    fn clear(&mut self, slot: SlotId) {
        if slot.index() >= self.masks.len() {
            self.masks.resize(slot.index() + 1, 0);
            self.entries.resize(self.masks.len() * self.cpus, FootprintEntry::cold());
        }
        self.masks[slot.index()] = 0;
    }

    /// Bitmask of the processors where the slot's thread has an entry.
    fn mask(&self, slot: SlotId) -> u64 {
        self.masks[slot.index()]
    }

    /// `cpu`'s bit in a mask; the range check every entry access shares.
    fn bit(&self, cpu: CpuId) -> u64 {
        assert!(cpu.0 < self.cpus, "cpu{} out of range ({} processors)", cpu.0, self.cpus);
        1 << cpu.0
    }

    fn get(&self, slot: SlotId, cpu: CpuId) -> Option<&FootprintEntry> {
        (self.mask(slot) & self.bit(cpu) != 0)
            .then(|| &self.entries[slot.index() * self.cpus + cpu.0])
    }

    /// The entry on `cpu`, created cold if the thread had none there.
    fn get_or_cold(&mut self, slot: SlotId, cpu: CpuId) -> &mut FootprintEntry {
        let bit = self.bit(cpu);
        let entry = &mut self.entries[slot.index() * self.cpus + cpu.0];
        let mask = &mut self.masks[slot.index()];
        if *mask & bit == 0 {
            *mask |= bit;
            *entry = FootprintEntry::cold();
        }
        entry
    }
}

/// The processors named by a bitmask, ascending.
fn cpus_in(mut mask: u64) -> impl Iterator<Item = CpuId> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let cpu = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            CpuId(cpu)
        })
    })
}

/// Online estimator of every thread's expected footprint in every
/// processor's cache, with incremental priority maintenance.
///
/// Threads are interned into dense slots on first sight and released by
/// [`remove_thread`](Self::remove_thread); every by-[`ThreadId`] method
/// resolves its thread once and indexes the entry table from there.
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
    /// Total secondary-cache misses per processor since program start
    /// (`m_p(t)`).
    misses: Vec<u64>,
    slots: ThreadSlots,
    rows: Rows,
    /// The buffer [`on_interval_end`](Self::on_interval_end) hands out.
    updates: Vec<PriorityUpdate>,
    /// Per processor, eagerly-recomputed footprints (naive `O(threads)`
    /// per switch), maintained purely to cross-check the incremental path
    /// in debug builds; release builds compile none of it.
    #[cfg(debug_assertions)]
    shadow: Vec<std::collections::BTreeMap<ThreadId, f64>>,
    #[cfg(debug_assertions)]
    checks: u64,
}

impl LocalityEstimator {
    /// Creates an estimator for `config.cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `config.cpus > 64`: the processors where a thread has
    /// state are a `u64` bitmask, like the scheduler's heap membership.
    pub fn new(config: EstimatorConfig) -> Self {
        assert!(config.cpus <= 64, "at most 64 processors, got {}", config.cpus);
        LocalityEstimator {
            schemes: PrioritySchemes::new(config.policy, config.params),
            misses: vec![0; config.cpus],
            slots: ThreadSlots::new(),
            rows: Rows { cpus: config.cpus, masks: Vec::new(), entries: Vec::new() },
            updates: Vec::new(),
            #[cfg(debug_assertions)]
            shadow: vec![Default::default(); config.cpus],
            #[cfg(debug_assertions)]
            checks: 0,
        }
    }

    /// The priority-update engine (exposes the flop counter for Table 3).
    pub fn schemes(&self) -> &PrioritySchemes {
        &self.schemes
    }

    /// Total secondary-cache misses recorded for `cpu` so far (`m_p(t)`).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn misses(&self, cpu: CpuId) -> u64 {
        self.misses[cpu.0]
    }

    /// The slot of `tid`, interning the thread (cold everywhere) on
    /// first sight.
    fn intern(&mut self, tid: ThreadId) -> SlotId {
        if let Some(slot) = self.slots.lookup(tid) {
            return slot;
        }
        let slot = self.slots.bind(tid);
        self.rows.clear(slot);
        slot
    }

    /// Records that `tid` was dispatched on `cpu`: snapshots its footprint
    /// at the interval start (`S` of the case-1 formula).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn on_dispatch(&mut self, cpu: CpuId, tid: ThreadId) {
        let m_now = self.misses[cpu.0];
        let slot = self.intern(tid);
        self.schemes.on_dispatch(self.rows.get_or_cold(slot, cpu), m_now);
        #[cfg(debug_assertions)]
        self.shadow[cpu.0].entry(tid).or_insert(0.0);
    }

    /// Records the end of `tid`'s scheduling interval on `cpu` with `n`
    /// misses (from the performance counters), applying:
    ///
    /// * case 1 to `tid` itself,
    /// * case 3 to every dependent of `tid` in `graph`,
    /// * case 2 (nothing!) to everyone else.
    ///
    /// Returns the priority updates to apply to run queues, the blocking
    /// thread first, dependents after in thread-id order, in a buffer
    /// that is reused: the slice holds until the next call.
    ///
    /// The caller must have dispatched `tid` on `cpu` with
    /// [`on_dispatch`](Self::on_dispatch) and ended no other interval on
    /// `cpu` since, as the engine does: case 1 starts from the footprint
    /// snapshotted at that dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range, and in a debug build if the
    /// incremental footprints or priorities diverge from the naive
    /// recompute.
    pub fn on_interval_end(
        &mut self,
        cpu: CpuId,
        tid: ThreadId,
        n: u64,
        graph: &SharingGraph,
    ) -> &[PriorityUpdate] {
        // Differential check, step 1: the naive O(threads) recompute. Every
        // tracked thread gets the exact case-1/2/3 formula applied eagerly;
        // the incremental path below touches only the blocker and its
        // dependents. `verify_invariants` compares the two afterwards.
        #[cfg(debug_assertions)]
        {
            let nn = self.schemes.params().n();
            let kn = self.schemes.tables().k_pow(n);
            let shadow = &mut self.shadow[cpu.0];
            shadow.entry(tid).or_insert(0.0);
            for (dep, _) in graph.dependents_of(tid) {
                shadow.entry(dep).or_insert(0.0);
            }
            for (&x, f) in shadow.iter_mut() {
                // Cases 1, 3 and 2 at once: the blocker moves toward N
                // (q = 1), a dependent toward qN, everyone else toward 0.
                let q = if x == tid { 1.0 } else { graph.weight(tid, x) };
                *f = crate::footprint::toward(q * nn, *f, kn);
            }
        }

        let m_t0 = self.misses[cpu.0];
        let m_new = m_t0 + n;
        self.updates.clear();

        let slot = self.intern(tid);
        let prio = self.schemes.on_block_self(self.rows.get_or_cold(slot, cpu), n, m_new);
        self.updates.push(PriorityUpdate { thread: tid, prio });

        for (dep, q) in graph.dependents_of(tid) {
            let slot = self.intern(dep);
            let prio = self.schemes.on_dependent(self.rows.get_or_cold(slot, cpu), q, n, m_t0);
            self.updates.push(PriorityUpdate { thread: dep, prio });
        }
        self.schemes.on_independent(); // case 2: all other threads, zero work

        self.misses[cpu.0] = m_new;
        #[cfg(debug_assertions)]
        self.verify_invariants(cpu, tid);
        locality_trace::emit_with(|| locality_trace::TraceEvent::PriorityUpdates {
            tid: tid.0,
            fanout: self.updates.len() as u32,
        });
        &self.updates
    }

    /// Differential check, step 2: after the incremental updates, every
    /// tracked entry's lazily-decayed footprint must match the naive eager
    /// recompute, stay within `[0, N]`, and its stored log-space priority
    /// must be reconstructible from the current footprint (the paper's
    /// invariance-under-independent-decay property, §4.1). The shadow is
    /// keyed by thread id and ordered, so the walk does not depend on
    /// which slots the threads happen to hold; both directions are
    /// checked, so an entry a recycled slot inherited shows up as a
    /// thread the shadow never saw.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic message on any divergence, so that every
    /// engine run of a debug-build test checks the incremental path.
    #[cfg(debug_assertions)]
    fn verify_invariants(&mut self, cpu: CpuId, blocker: ThreadId) {
        let nn = self.schemes.params().n();
        let m_now = self.misses[cpu.0];
        let tracked = self.tracked_on(cpu);
        assert_eq!(
            tracked,
            self.shadow[cpu.0].len(),
            "shadow check: cpu{} tracks {tracked} threads, the shadow {}",
            cpu.0,
            self.shadow[cpu.0].len()
        );
        for (&x, &naive) in &self.shadow[cpu.0] {
            let entry =
                self.slots.lookup(x).and_then(|slot| self.rows.get(slot, cpu)).unwrap_or_else(
                    || panic!("shadow check: {x} in cpu{}'s shadow but not tracked", cpu.0),
                );
            let lazy = self.schemes.expected_footprint(entry, m_now);
            // The lazy path composes decays in one k^(Δm) jump (clamped to
            // 0 past the table) while the shadow multiplies per-interval
            // factors; allow only floating-point noise between them.
            let tol = 1e-7 * nn + 1e-9 * lazy.abs().max(naive.abs());
            assert!(
                (lazy - naive).abs() <= tol,
                "shadow check: cpu{} {x} after {blocker} blocked at m={m_now}: \
                 incremental footprint {lazy} != naive recompute {naive} (tol {tol})",
                cpu.0
            );
            assert!(
                (-1e-9..=nn * (1.0 + 1e-9)).contains(&lazy),
                "shadow check: cpu{} {x}: E[F] = {lazy} outside [0, N={nn}]",
                cpu.0
            );
            // Log-space priority consistency: reconstruct the priority from
            // the *current* footprint; it must equal the stored (possibly
            // never-updated) priority up to the whole-line rounding of the
            // log table (~1/F per lookup). Entries decayed below two lines
            // hit the log-table clamp and are excluded.
            if lazy >= 2.0 {
                let reconstructed = self.schemes.priority(lazy, entry.e_f_last_run, m_now);
                let tol = 2.5 / lazy + 1e-6;
                assert!(
                    (entry.prio - reconstructed).abs() <= tol,
                    "shadow check: cpu{} {x}: stored priority {} inconsistent with \
                     footprint {lazy} at m={m_now} (reconstructed {reconstructed}, tol {tol})",
                    cpu.0,
                    entry.prio
                );
            }
        }
        self.checks += 1;
    }

    /// Number of context switches the differential invariant checker has
    /// verified so far (debug builds only).
    #[cfg(debug_assertions)]
    pub fn invariant_checks(&self) -> u64 {
        self.checks
    }

    /// `tid`'s entry on `cpu`, if the thread is known and has one there.
    fn entry(&self, cpu: CpuId, tid: ThreadId) -> Option<&FootprintEntry> {
        self.rows.get(self.slots.lookup(tid)?, cpu)
    }

    /// Current priority of `tid` on `cpu` (the cold priority if the thread
    /// has no state there).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn priority(&self, cpu: CpuId, tid: ThreadId) -> f64 {
        match self.entry(cpu, tid) {
            Some(e) => e.prio,
            None => self.schemes.cold_priority(self.misses[cpu.0]),
        }
    }

    /// Current expected footprint of `tid` in `cpu`'s cache, in lines.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn expected_footprint(&self, cpu: CpuId, tid: ThreadId) -> f64 {
        let m_now = self.misses[cpu.0];
        self.entry(cpu, tid).map_or(0.0, |e| self.schemes.expected_footprint(e, m_now))
    }

    /// Drops `tid` everywhere (thread exit) and frees its slot.
    pub fn remove_thread(&mut self, tid: ThreadId) {
        #[cfg(debug_assertions)]
        for cpu in cpus_in(self.slots.lookup(tid).map_or(0, |slot| self.rows.mask(slot))) {
            self.shadow[cpu.0].remove(&tid);
        }
        // The entries stay where they are: nothing resolves to a released
        // slot, and binding it again clears its mask.
        self.slots.release(tid);
    }

    /// Number of tracked entries on `cpu` (diagnostics; walks the slots).
    pub fn tracked_on(&self, cpu: CpuId) -> usize {
        self.slots.iter_live().filter(|&(slot, _)| self.rows.get(slot, cpu).is_some()).count()
    }

    /// Calls `visit(cpu, priority)`, in ascending processor order, for
    /// each processor where `tid`'s
    /// [`expected_footprint`](Self::expected_footprint) is at least
    /// `threshold_lines`: the heaps a thread that just became ready
    /// belongs in.
    ///
    /// One resolution, then only the processors where the thread has an
    /// entry. On any other processor the estimate is exactly `0.0`, so
    /// skipping it changes nothing unless `0.0` itself clears the
    /// threshold (`threshold_lines <= 0`), in which case every processor
    /// is visited, the cold ones with the cold priority.
    pub fn for_each_cpu_at_least<F: FnMut(CpuId, f64)>(
        &self,
        tid: ThreadId,
        threshold_lines: f64,
        mut visit: F,
    ) {
        let slot = self.slots.lookup(tid);
        let warm = slot.map_or(0, |slot| self.rows.mask(slot));
        let cpus = self.rows.cpus;
        let all = if cpus >= 64 { u64::MAX } else { (1 << cpus) - 1 };
        let candidates = if 0.0 >= threshold_lines { all } else { warm };
        for cpu in cpus_in(candidates) {
            let m_now = self.misses[cpu.0];
            let entry = slot.and_then(|slot| self.rows.get(slot, cpu));
            let estimate = entry.map_or(0.0, |e| self.schemes.expected_footprint(e, m_now));
            if estimate >= threshold_lines {
                visit(cpu, entry.map_or_else(|| self.schemes.cold_priority(m_now), |e| e.prio));
            }
        }
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
    ) -> &[PriorityUpdate] {
        self.on_interval_end(cpu, tid, n, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator(policy: PolicyKind, cpus: usize) -> LocalityEstimator {
        let params = ModelParams::new(1024).unwrap();
        LocalityEstimator::new(EstimatorConfig::new(policy, params, cpus))
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
        let expect = 1024.0 * (1.0 - est.schemes().params().k_pow(500));
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
        let expect =
            1024.0 * (1.0 - est.schemes().params().k_pow(500)) * est.schemes().params().k_pow(300);
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
        let e2 = 512.0 * (1.0 - est.schemes().params().k_pow(1000));
        let e3 = 256.0 * (1.0 - est.schemes().params().k_pow(1000));
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
    fn recycled_slot_starts_cold_everywhere() {
        let mut est = estimator(PolicyKind::Lff, 2);
        let g = SharingGraph::new();
        for cpu in 0..2 {
            est.on_dispatch(CpuId(cpu), t(1));
            est.on_interval_end(CpuId(cpu), t(1), 300, &g);
        }
        est.remove_thread(t(1));
        // t2 takes over t1's slot and has only been dispatched on cpu0.
        est.on_dispatch(CpuId(0), t(2));
        assert_eq!(est.expected_footprint(CpuId(0), t(2)), 0.0);
        assert_eq!(est.expected_footprint(CpuId(1), t(2)), 0.0);
        assert_eq!(est.priority(CpuId(1), t(2)), est.schemes().cold_priority(300));
        assert_eq!(est.tracked_on(CpuId(0)), 1);
        assert_eq!(est.tracked_on(CpuId(1)), 0);
    }

    #[test]
    fn ready_visit_skips_cold_cpus_only_when_they_cannot_qualify() {
        let mut est = estimator(PolicyKind::Lff, 4);
        let g = SharingGraph::new();
        est.on_dispatch(CpuId(2), t(1));
        est.on_interval_end(CpuId(2), t(1), 500, &g);
        let visits = |tid, threshold| {
            let mut seen = Vec::new();
            est.for_each_cpu_at_least(tid, threshold, |cpu, prio| seen.push((cpu, prio)));
            seen
        };
        // A positive threshold: only where the thread has state.
        assert_eq!(visits(t(1), 8.0), vec![(CpuId(2), est.priority(CpuId(2), t(1)))]);
        assert!(visits(t(1), 1000.0).is_empty());
        // Zero lines clear a zero threshold: every cpu, cold ones included,
        // and a thread the estimator has never seen likewise.
        for tid in [t(1), t(9)] {
            let all = visits(tid, 0.0);
            assert_eq!(all.len(), 4);
            for (cpu, prio) in all {
                assert_eq!(prio, est.priority(cpu, tid));
            }
        }
        assert!(visits(t(1), f64::NAN).is_empty(), "nothing is >= NaN");
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

    #[cfg(debug_assertions)]
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
