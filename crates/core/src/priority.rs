//! Log-space priority schemes for LFF and CRT scheduling (paper §4).
//!
//! Both policies need, at every context switch, the runnable thread with
//! (LFF) the largest expected footprint or (CRT) the smallest cache-reload
//! ratio on the switching processor. Recomputing every thread's footprint
//! at each switch would cost `O(T)`; instead the paper picks priority
//! functions that are **invariant under the decay of independent threads**:
//!
//! Let `m(t)` be the total number of secondary-cache misses taken by the
//! processor since program start, and `k = (N−1)/N`. Then
//!
//! * **LFF**: `p(t) = log(E[F](t)) − m(t)·log k`
//! * **CRT**: `p(t) = log(E[F](t)) − log(E[F_last]) − m(t)·log k`
//!
//! For a thread *B* independent of the running thread, `E[F_B]` decays by
//! exactly `k^Δm`, so `log E[F_B]` falls by `Δm·log k` — precisely the
//! amount the `−m(t)·log k` term rises by. Its priority is therefore
//! *constant* and never needs updating: only the blocking thread and its
//! `out-degree` dependents are touched, in a handful of floating-point
//! instructions each (Table 3).
//!
//! Since `(p_A < p_B) ⇔ (E[F_A] < E[F_B])` at any instant (for LFF; the
//! analogous relation with reload ratios holds for CRT), the schemes order
//! threads exactly as the raw model would.

use crate::flops::FlopCounter;
use crate::footprint::toward;
use crate::tables::PrecomputedTables;
use crate::{ModelParams, ThreadId};

/// Which of the paper's two locality policies a priority value encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Largest Footprint First (paper §4.1): dispatch the runnable thread
    /// with the largest expected footprint in this processor's cache.
    Lff,
    /// Smallest cache-reload ratio (paper §4.2, extending Squillante &
    /// Lazowska): dispatch the runnable thread with the smallest fraction
    /// of its last-run footprint left to reload.
    Crt,
}

impl PolicyKind {
    /// Short lowercase name used in reports ("lff" / "crt").
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lff => "lff",
            PolicyKind::Crt => "crt",
        }
    }
}

/// Per-(thread, processor) footprint bookkeeping.
///
/// `prio` is the policy priority, valid at *any* time until the thread is
/// next involved in an update (that is the whole trick). `e_f` is the
/// exact expected footprint at processor-miss-count `m_at_update`, kept
/// separately so footprints can be recovered without exponentiating the
/// (rounded, table-based) priority. `e_f_last_run` is the CRT denominator:
/// the expected footprint the thread had when it last finished running on
/// this processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FootprintEntry {
    /// Policy priority (log-space, inflated; see module docs).
    pub prio: f64,
    /// Expected footprint in lines at `m_at_update`.
    pub e_f: f64,
    /// Processor miss count when `e_f` was computed.
    pub m_at_update: u64,
    /// Expected footprint when the thread last finished a run here
    /// (`E[F_last]`, the CRT reload-ratio denominator).
    pub e_f_last_run: f64,
}

impl FootprintEntry {
    /// A cold entry: no cached state on this processor.
    pub fn cold() -> Self {
        FootprintEntry { prio: 0.0, e_f: 0.0, m_at_update: 0, e_f_last_run: 0.0 }
    }
}

/// A priority-update result for one thread, produced at a context switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityUpdate {
    /// The thread whose priority changed.
    pub thread: ThreadId,
    /// Its new priority value.
    pub prio: f64,
}

/// The update engine for one policy: applies the paper's case-1/2/3
/// formulas to [`FootprintEntry`] values using precomputed tables, and
/// counts the floating-point work it does.
#[derive(Debug, Clone)]
pub struct PrioritySchemes {
    policy: PolicyKind,
    tables: PrecomputedTables,
    counter: FlopCounter,
}

impl PrioritySchemes {
    /// Creates an update engine for `policy` over a cache described by
    /// `params`.
    pub fn new(policy: PolicyKind, params: ModelParams) -> Self {
        PrioritySchemes {
            policy,
            tables: PrecomputedTables::new(params),
            counter: FlopCounter::new(),
        }
    }

    /// The model parameters in use.
    pub fn params(&self) -> ModelParams {
        self.tables.params()
    }

    /// The precomputed tables in use.
    pub fn tables(&self) -> &PrecomputedTables {
        &self.tables
    }

    /// The floating-point-operation counter (for Table 3).
    pub fn flop_counter(&self) -> &FlopCounter {
        &self.counter
    }

    /// Priority of a thread with **no cached state** on this processor, as
    /// of miss count `m_now`. Comparable with every stored priority thanks
    /// to the shared `−m·log k` inflation.
    pub fn cold_priority(&self, m_now: u64) -> f64 {
        // log(E[F]) clamps to log(1) = 0 for an empty footprint; for CRT the
        // numerator and denominator are both empty, so only the inflation
        // term remains in either policy.
        -(m_now as f64) * self.tables.log_k()
    }

    /// The thread's expected footprint (lines) at miss count `m_now`.
    ///
    /// Pure decay since the entry's last update: `e_f · k^(m_now − m_upd)`.
    #[inline(always)]
    pub fn expected_footprint(&self, entry: &FootprintEntry, m_now: u64) -> f64 {
        entry.e_f * self.tables.k_pow(m_now.saturating_sub(entry.m_at_update))
    }

    /// The policy's log-space priority of footprint `e` at miss count `m`
    /// (module docs): LFF `log E − m·log k`, CRT `log E − log E_last −
    /// m·log k` with `e_last` the footprint of the thread's last run here.
    /// Pure; callers count the lookups and flops it costs.
    #[inline(always)]
    pub(crate) fn priority(&self, e: f64, e_last: f64, m: u64) -> f64 {
        let log_e = self.tables.log_footprint(e);
        match self.policy {
            PolicyKind::Lff => log_e - m as f64 * self.tables.log_k(),
            PolicyKind::Crt => {
                log_e - self.tables.log_footprint(e_last) - m as f64 * self.tables.log_k()
            }
        }
    }

    /// Called when the thread is dispatched on the processor at miss count
    /// `m_now`: decays the stored footprint to "now" so that the upcoming
    /// interval's case-1 update starts from the right `S_A`.
    pub fn on_dispatch(&self, entry: &mut FootprintEntry, m_now: u64) {
        let s = self.expected_footprint(entry, m_now);
        self.counter.add_flops(1);
        self.counter.add_lookups(1);
        entry.e_f = s;
        entry.m_at_update = m_now;
    }

    /// Case 1 — the thread itself blocks (or yields) after taking `n`
    /// misses; processor miss count becomes `m_new = m(t₀) + n`.
    ///
    /// Returns the new priority. Cost: a few flops + table lookups,
    /// recorded in the [`FlopCounter`].
    pub fn on_block_self(&self, entry: &mut FootprintEntry, n: u64, m_new: u64) -> f64 {
        // S is e_f as set at dispatch; nothing else ran on this cpu since.
        let kn = self.tables.k_pow(n);
        self.counter.add_lookups(1);
        let e_new = toward(self.params().n(), entry.e_f, kn);
        self.counter.add_flops(3); // sub, mul, sub
        entry.e_f = e_new;
        entry.m_at_update = m_new;
        entry.e_f_last_run = e_new; // it just ran: nothing left to reload (R = 0)
        let prio = match self.policy {
            PolicyKind::Lff => {
                self.counter.add_lookups(1);
                self.counter.add_flops(2); // mul, sub
                self.priority(e_new, e_new, m_new)
            }
            PolicyKind::Crt => {
                // log(E) − log(E_last) cancels exactly: p = −m·log k, the
                // cold priority.
                self.counter.add_flops(1); // mul (−log k precomputed)
                self.cold_priority(m_new)
            }
        };
        entry.prio = prio;
        prio
    }

    /// Case 3 — a thread dependent on the blocker through an edge of
    /// weight `q`. `m_t0` is the processor miss count at the *start* of
    /// the blocker's interval, `n` the misses of the interval.
    ///
    /// Returns the new priority.
    pub fn on_dependent(&self, entry: &mut FootprintEntry, q: f64, n: u64, m_t0: u64) -> f64 {
        // Decay the stored footprint to the interval start to get S_C.
        let s_c = self.expected_footprint(entry, m_t0);
        self.counter.add_flops(1);
        self.counter.add_lookups(1);
        let kn = self.tables.k_pow(n);
        self.counter.add_lookups(1);
        let e_new = toward(q * self.params().n(), s_c, kn);
        self.counter.add_flops(4); // mul(q·N), sub, mul, sub
        let m_new = m_t0 + n;
        entry.e_f = e_new;
        entry.m_at_update = m_new;
        // LFF: one log lookup, mul, sub; CRT: two lookups, sub, mul, sub.
        let (lookups, flops) = match self.policy {
            PolicyKind::Lff => (1, 2),
            PolicyKind::Crt => (2, 3),
        };
        self.counter.add_lookups(lookups);
        self.counter.add_flops(flops);
        let prio = self.priority(e_new, entry.e_f_last_run, m_new);
        entry.prio = prio;
        prio
    }

    /// Case 2 — independent threads: **no update**. Provided so call sites
    /// document the case explicitly; compiles to nothing.
    #[inline]
    pub fn on_independent(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schemes(policy: PolicyKind, lines: usize) -> PrioritySchemes {
        PrioritySchemes::new(policy, ModelParams::new(lines).unwrap())
    }

    /// Simulate: thread runs, blocks with n misses; then other independent
    /// threads push m forward; its stored priority must stay consistent
    /// with its decayed footprint.
    #[test]
    fn lff_priority_invariant_under_independent_decay() {
        let s = schemes(PolicyKind::Lff, 1024);
        let mut e = FootprintEntry::cold();
        s.on_dispatch(&mut e, 0);
        let p0 = s.on_block_self(&mut e, 500, 500);
        // 2000 further misses by independent threads.
        let m_now = 2500;
        let f_now = s.expected_footprint(&e, m_now);
        // Reconstruct priority from the decayed footprint at m_now; it must
        // equal the stored (never-updated) priority up to table rounding.
        let reconstructed = s.priority(f_now, e.e_f_last_run, m_now);
        // Tolerance: both sides round footprints to whole lines before the
        // log lookup, contributing up to ~1/(2·F) of relative error each.
        assert!((p0 - reconstructed).abs() < 2e-2, "{p0} vs {reconstructed}");
        assert_eq!(e.prio, p0);
    }

    #[test]
    fn lff_orders_by_footprint() {
        // Two threads block at different times with different footprints;
        // the one with the larger *current* footprint must have the larger
        // stored priority, with no updates in between.
        let s = schemes(PolicyKind::Lff, 4096);
        let mut a = FootprintEntry::cold();
        let mut b = FootprintEntry::cold();

        // A runs first, takes 3000 misses, blocks at m=3000.
        s.on_dispatch(&mut a, 0);
        s.on_block_self(&mut a, 3000, 3000);
        // B runs next, takes 500 misses, blocks at m=3500.
        s.on_dispatch(&mut b, 3000);
        s.on_block_self(&mut b, 500, 3500);

        let m_now = 3500;
        let fa = s.expected_footprint(&a, m_now);
        let fb = s.expected_footprint(&b, m_now);
        assert!(fa > fb, "A built far more state: {fa} vs {fb}");
        assert!(a.prio > b.prio, "priorities must order like footprints");
    }

    #[test]
    fn crt_blocking_thread_has_top_priority() {
        // The thread that just blocked has R=0 — the best possible ratio —
        // so its priority must exceed that of a thread that blocked earlier
        // (whose footprint has decayed, R > 0).
        let s = schemes(PolicyKind::Crt, 1024);
        let mut a = FootprintEntry::cold();
        let mut b = FootprintEntry::cold();
        s.on_dispatch(&mut a, 0);
        s.on_block_self(&mut a, 400, 400);
        s.on_dispatch(&mut b, 400);
        s.on_block_self(&mut b, 400, 800);
        // At m=800: B just blocked (R=0); A has decayed (R>0).
        assert!(b.prio > a.prio);
    }

    #[test]
    fn crt_priority_matches_ratio_ordering() {
        // p = log(E/E_last) − m·log k; smaller reload ratio ⇔ larger E/E_last
        // ⇔ larger priority at equal m.
        let s = schemes(PolicyKind::Crt, 2048);
        let mut a = FootprintEntry::cold();
        let mut b = FootprintEntry::cold();
        // A blocks with a big footprint at m=2000.
        s.on_dispatch(&mut a, 0);
        s.on_block_self(&mut a, 2000, 2000);
        // B blocks with a small footprint at m=2500.
        s.on_dispatch(&mut b, 2000);
        s.on_block_self(&mut b, 500, 2500);
        // Let another 3000 independent misses pass.
        let m_now = 5500;
        let fa = s.expected_footprint(&a, m_now);
        let fb = s.expected_footprint(&b, m_now);
        let ra = 1.0 - fa / a.e_f_last_run;
        let rb = 1.0 - fb / b.e_f_last_run;
        // Both decayed by the same factor since their blocks... A decayed
        // longer, so A's ratio is worse.
        assert!(ra > rb);
        assert!(a.prio < b.prio, "worse ratio must mean lower priority");
    }

    #[test]
    fn dependent_update_grows_toward_q_n() {
        for policy in [PolicyKind::Lff, PolicyKind::Crt] {
            let s = schemes(policy, 1000);
            let mut c = FootprintEntry::cold();
            // c acquired a little state earlier.
            c.e_f = 50.0;
            c.m_at_update = 0;
            c.e_f_last_run = 50.0;
            let p1 = s.on_dependent(&mut c, 0.5, 2000, 0);
            assert!(c.e_f > 50.0 && c.e_f < 500.0, "policy {policy:?}: e_f={}", c.e_f);
            let p2 = s.on_dependent(&mut c, 0.5, 2000, 2000);
            assert!(c.e_f > 300.0, "should be close to 500 now: {}", c.e_f);
            assert!(p2 > p1 - 1e-9, "growing footprint must not lose priority: {p1} {p2}");
        }
    }

    #[test]
    fn dependent_with_q0_equals_pure_decay() {
        let s = schemes(PolicyKind::Lff, 1024);
        let mut c = FootprintEntry::cold();
        c.e_f = 400.0;
        c.m_at_update = 0;
        s.on_dependent(&mut c, 0.0, 1000, 0);
        let direct = 400.0 * s.params().k_pow(1000);
        assert!((c.e_f - direct).abs() < 1e-9);
    }

    #[test]
    fn cold_priority_comparable_with_entries() {
        let s = schemes(PolicyKind::Lff, 1024);
        let mut a = FootprintEntry::cold();
        s.on_dispatch(&mut a, 0);
        s.on_block_self(&mut a, 200, 200);
        // Any thread with state beats a cold thread at the same m.
        assert!(a.prio > s.cold_priority(200));
        // But after enormous decay the entry converges to the cold level.
        let m_far = 2_000_000;
        let f = s.expected_footprint(&a, m_far);
        assert!(f < 1.0);
        assert!(a.prio <= s.cold_priority(m_far) + 1e-9);
    }

    #[test]
    fn independent_update_is_free() {
        let s = schemes(PolicyKind::Lff, 1024);
        s.flop_counter().take();
        s.on_independent();
        assert_eq!(s.flop_counter().take(), (0, 0));
    }

    #[test]
    fn flop_costs_are_constant_and_small() {
        for policy in [PolicyKind::Lff, PolicyKind::Crt] {
            let s = schemes(policy, 4096);
            let mut e = FootprintEntry::cold();
            s.on_dispatch(&mut e, 0);
            s.flop_counter().take();
            s.on_block_self(&mut e, 100, 100);
            let (f_block, l_block) = s.flop_counter().take();
            assert!(f_block <= 8, "{policy:?} blocking flops {f_block}");
            assert!(l_block <= 3);
            s.on_dependent(&mut e, 0.5, 100, 100);
            let (f_dep, l_dep) = s.flop_counter().take();
            assert!(f_dep <= 10, "{policy:?} dependent flops {f_dep}");
            assert!(l_dep <= 5);
        }
    }

    #[test]
    fn crt_cheaper_than_lff_for_blocking_thread() {
        // Paper: CRT blocking update needs "just two (or even one)" FP
        // instructions; LFF needs the log lookup too.
        let lff = schemes(PolicyKind::Lff, 1024);
        let crt = schemes(PolicyKind::Crt, 1024);
        let mut e1 = FootprintEntry::cold();
        let mut e2 = FootprintEntry::cold();
        lff.on_dispatch(&mut e1, 0);
        crt.on_dispatch(&mut e2, 0);
        lff.flop_counter().take();
        crt.flop_counter().take();
        lff.on_block_self(&mut e1, 10, 10);
        crt.on_block_self(&mut e2, 10, 10);
        let lff_cost = lff.flop_counter().take();
        let crt_cost = crt.flop_counter().take();
        assert!(crt_cost.0 < lff_cost.0, "crt {crt_cost:?} vs lff {lff_cost:?}");
    }

    #[test]
    fn policy_names() {
        assert_eq!(PolicyKind::Lff.name(), "lff");
        assert_eq!(PolicyKind::Crt.name(), "crt");
    }
}
