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
//! [`RegionTable`](locality_sim::RegionTable), the same table that
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

/// Tunables of the runtime sharing inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceConfig {
    /// Cap on tracked pages per thread (bounds memory and update cost).
    pub max_pages_per_thread: usize,
    /// Minimum shared pages before an edge is emitted (noise floor).
    pub min_shared_pages: u64,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig { max_pages_per_thread: 512, min_shared_pages: 1 }
    }
}

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
    config: InferenceConfig,
    pages: RegionTable,
}

impl SharingInference {
    /// Creates the tracker.
    pub fn new(config: InferenceConfig) -> Self {
        SharingInference { config, ..SharingInference::default() }
    }

    /// The configuration.
    pub fn config(&self) -> InferenceConfig {
        self.config
    }

    /// Ingests one interval's CML drain for `tid` and returns the edges
    /// whose coefficients changed (both directions per affected pair).
    pub fn note_interval(&mut self, tid: ThreadId, drained: &[CmlEntry]) -> Vec<InferredEdge> {
        let mut touched: BTreeSet<ThreadId> = BTreeSet::new();
        for entry in drained {
            let page = VAddr(entry.vpn);
            if self.pages.covers(tid, page, 1) {
                continue;
            }
            if self.tracked_pages(tid) >= self.config.max_pages_per_thread as u64 {
                break; // page set capped
            }
            // Whoever missed here first now shares the page with `tid`.
            touched.extend(self.pages.owners_of(page));
            self.pages.register(tid, page, 1);
        }
        let mut edges = Vec::with_capacity(2 * touched.len());
        for other in touched {
            if self.shared_pages(tid, other) < self.config.min_shared_pages {
                continue;
            }
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
        let mut inf = SharingInference::new(InferenceConfig::default());
        assert!(inf.note_interval(t(1), &entries(&[1, 2, 3])).is_empty());
        assert!(inf.note_interval(t(2), &entries(&[4, 5])).is_empty());
        assert_eq!(inf.shared_pages(t(1), t(2)), 0);
        assert_eq!(inf.coefficient(t(1), t(2)), 0.0);
    }

    #[test]
    fn overlap_yields_both_directions() {
        let mut inf = SharingInference::new(InferenceConfig::default());
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
        let mut inf = SharingInference::new(InferenceConfig::default());
        inf.note_interval(t(1), &entries(&[7]));
        inf.note_interval(t(2), &entries(&[7]));
        let before = inf.shared_pages(t(1), t(2));
        inf.note_interval(t(2), &entries(&[7])); // re-missing the same page
        assert_eq!(inf.shared_pages(t(1), t(2)), before);
    }

    #[test]
    fn page_cap_bounds_tracking() {
        let config = InferenceConfig { max_pages_per_thread: 4, ..Default::default() };
        let mut inf = SharingInference::new(config);
        inf.note_interval(t(1), &entries(&[1, 2, 3, 4, 5, 6, 7]));
        assert_eq!(inf.tracked_pages(t(1)), 4);
    }

    #[test]
    fn forget_removes_all_traces() {
        let mut inf = SharingInference::new(InferenceConfig::default());
        inf.note_interval(t(1), &entries(&[1, 2]));
        inf.note_interval(t(2), &entries(&[2, 3]));
        inf.forget(t(1));
        assert_eq!(inf.tracked_pages(t(1)), 0);
        assert_eq!(inf.shared_pages(t(1), t(2)), 0);
        // t2's own pages remain; a third thread can still overlap t2.
        let edges = inf.note_interval(t(3), &entries(&[3]));
        assert!(edges.iter().any(|e| e.src == t(3) && e.dst == t(2) && e.q == 1.0));
    }

    #[test]
    fn noise_floor_suppresses_single_page_edges() {
        let config = InferenceConfig { min_shared_pages: 2, ..Default::default() };
        let mut inf = SharingInference::new(config);
        inf.note_interval(t(1), &entries(&[1, 2, 3]));
        assert!(inf.note_interval(t(2), &entries(&[3])).is_empty(), "below the floor");
        let edges = inf.note_interval(t(2), &entries(&[2]));
        assert_eq!(edges.len(), 2, "second shared page crosses the floor");
    }
}
