//! Runtime sharing inference — the paper's §7 future work, implemented.
//!
//! "It is even more attractive to identify state sharing patterns
//! entirely at runtime to handle, for instance, the existing unmodified
//! POSIX and Java Threads application bases. … perhaps with the use of a
//! related hardware device [a Cache Miss Lookaside buffer] combined with
//! the VM techniques, some sharing patterns could be inferred without
//! user intervention." (paper §7)
//!
//! The engine drains each processor's [CML](locality_sim::cml) at every
//! context switch: the virtual pages the interval's thread missed on.
//! The accumulated page sets live in a
//! [`RegionTable`], the same table that
//! states exact sharing, which derives approximate coefficients
//! `q̂_ab = |pages_a ∩ pages_b| / |pages_a|` — the same quantity a
//! perfectly annotated program states exactly, discovered instead from
//! miss history. Edges are written into the ordinary
//! [`SharingGraph`](locality_core::SharingGraph),
//! so the LFF/CRT machinery downstream is completely unchanged.
//!
//! Inference is approximate by construction: the CML is lossy, page
//! granularity over-counts (two threads touching different lines of one
//! page look shared), and the page sets are capped. The paper's
//! annotations remain the precision tool; inference is the
//! zero-annotation fallback, and the `ablation` binary quantifies the
//! gap.

use locality_core::ThreadId;
use locality_sim::cml::CmlEntry;
use locality_sim::{RegionTable, VAddr};
use std::collections::BTreeSet;

/// CML slots per processor.
pub(crate) const CML_ENTRIES: usize = 128;

/// Cap on tracked pages per thread (bounds memory and update cost).
pub const MAX_PAGES_PER_THREAD: u64 = 512;

/// An inferred (or updated) sharing edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferredEdge {
    /// Source thread (whose state fraction is described).
    pub src: ThreadId,
    /// Destination thread.
    pub dst: ThreadId,
    /// Inferred coefficient `q̂ ∈ [0, 1]`.
    pub q: f64,
}

/// The incremental page-overlap tracker. Each thread's missed pages are
/// its state in a [`RegionTable`] whose addresses are page numbers, one
/// byte per page, so the table's byte counts are page counts and its
/// coefficient is `q̂`. A page number is at most 2⁵⁸ (pages are at least
/// 64 bytes), far below the table's saturation at `u64::MAX`.
#[derive(Debug, Default)]
pub struct SharingInference {
    pages: RegionTable,
}

impl SharingInference {
    /// Ingests one interval's CML drain for `tid` and returns the edges
    /// whose coefficients changed (both directions per affected pair).
    pub fn note_interval(&mut self, tid: ThreadId, drained: &[CmlEntry]) -> Vec<InferredEdge> {
        let mut touched: BTreeSet<ThreadId> = BTreeSet::new();
        for entry in drained {
            let page = VAddr(entry.vpn);
            if self.pages.covers(tid, page, 1) {
                continue;
            }
            if self.tracked_pages(tid) >= MAX_PAGES_PER_THREAD {
                break; // page set capped
            }
            // Whoever missed here first now shares the page with `tid`.
            touched.extend(self.pages.owners_of(page));
            self.pages.register(tid, page, 1);
        }
        // Every thread in `touched` shares at least the page that put it
        // there, so each pair yields its two edges.
        let mut edges = Vec::with_capacity(2 * touched.len());
        for other in touched {
            edges.push(InferredEdge { src: tid, dst: other, q: self.coefficient(tid, other) });
            edges.push(InferredEdge { src: other, dst: tid, q: self.coefficient(other, tid) });
        }
        edges
    }

    /// Shared-page count of a pair.
    pub fn shared_pages(&self, a: ThreadId, b: ThreadId) -> u64 {
        self.pages.shared_bytes(a, b)
    }

    /// The inferred coefficient `q̂_ab = |a ∩ b| / |a|` (0 if `a` has no
    /// tracked pages).
    pub fn coefficient(&self, a: ThreadId, b: ThreadId) -> f64 {
        self.pages.coefficient(a, b)
    }

    /// Pages tracked for a thread.
    pub fn tracked_pages(&self, tid: ThreadId) -> u64 {
        self.pages.state_bytes(tid)
    }

    /// Forgets a thread (exit): removes its pages, and with them its
    /// share of every pair.
    pub fn forget(&mut self, tid: ThreadId) {
        self.pages.remove_thread(tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(vpns: &[u64]) -> Vec<CmlEntry> {
        vpns.iter().map(|&vpn| CmlEntry { vpn, count: 1 }).collect()
    }

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn disjoint_threads_infer_nothing() {
        let mut inf = SharingInference::default();
        assert!(inf.note_interval(t(1), &entries(&[1, 2, 3])).is_empty());
        assert!(inf.note_interval(t(2), &entries(&[4, 5])).is_empty());
        assert_eq!(inf.shared_pages(t(1), t(2)), 0);
        assert_eq!(inf.coefficient(t(1), t(2)), 0.0);
    }

    #[test]
    fn overlap_yields_both_directions() {
        let mut inf = SharingInference::default();
        inf.note_interval(t(1), &entries(&[10, 11, 12, 13]));
        let edges = inf.note_interval(t(2), &entries(&[12, 13]));
        // t2 shares both of its pages with t1; t1 shares half.
        assert_eq!(edges.len(), 2);
        let q21 = edges.iter().find(|e| e.src == t(2)).unwrap().q;
        let q12 = edges.iter().find(|e| e.src == t(1)).unwrap().q;
        assert!((q21 - 1.0).abs() < 1e-12, "q21 = {q21}");
        assert!((q12 - 0.5).abs() < 1e-12, "q12 = {q12}");
    }

    #[test]
    fn repeated_drains_are_idempotent() {
        let mut inf = SharingInference::default();
        inf.note_interval(t(1), &entries(&[7]));
        inf.note_interval(t(2), &entries(&[7]));
        let before = inf.shared_pages(t(1), t(2));
        inf.note_interval(t(2), &entries(&[7])); // re-missing the same page
        assert_eq!(inf.shared_pages(t(1), t(2)), before);
    }

    #[test]
    fn page_cap_bounds_tracking() {
        let mut inf = SharingInference::default();
        let pages: Vec<u64> = (0..MAX_PAGES_PER_THREAD + 3).collect();
        inf.note_interval(t(1), &entries(&pages));
        assert_eq!(inf.tracked_pages(t(1)), MAX_PAGES_PER_THREAD);
    }

    #[test]
    fn forget_removes_all_traces() {
        let mut inf = SharingInference::default();
        inf.note_interval(t(1), &entries(&[1, 2]));
        inf.note_interval(t(2), &entries(&[2, 3]));
        inf.forget(t(1));
        assert_eq!(inf.tracked_pages(t(1)), 0);
        assert_eq!(inf.shared_pages(t(1), t(2)), 0);
        // t2's own pages remain; a third thread can still overlap t2.
        let edges = inf.note_interval(t(3), &entries(&[3]));
        assert!(edges.iter().any(|e| e.src == t(3) && e.dst == t(2) && e.q == 1.0));
    }
}
