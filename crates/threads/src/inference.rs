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
//! From the accumulated page sets it maintains, incrementally, the
//! page-granular overlap between every pair of threads and derives
//! approximate sharing coefficients
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
use std::collections::{BTreeMap, BTreeSet};

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

fn pair_key(a: ThreadId, b: ThreadId) -> (ThreadId, ThreadId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The incremental page-overlap tracker.
#[derive(Debug, Default)]
pub struct SharingInference {
    config: InferenceConfig,
    /// Which threads have missed on each page.
    page_threads: BTreeMap<u64, Vec<ThreadId>>,
    /// Which pages each thread has missed on.
    thread_pages: BTreeMap<ThreadId, BTreeSet<u64>>,
    /// Shared-page counts per unordered thread pair.
    pair_shared: BTreeMap<(ThreadId, ThreadId), u64>,
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
            let pages = self.thread_pages.entry(tid).or_default();
            if pages.contains(&entry.vpn) {
                continue;
            }
            if pages.len() >= self.config.max_pages_per_thread {
                break; // page set capped
            }
            pages.insert(entry.vpn);
            let owners = self.page_threads.entry(entry.vpn).or_default();
            for &other in owners.iter() {
                *self.pair_shared.entry(pair_key(tid, other)).or_insert(0) += 1;
                touched.insert(other);
            }
            owners.push(tid);
        }
        let mut edges = Vec::with_capacity(2 * touched.len());
        for other in touched {
            let shared = self.shared_pages(tid, other);
            if shared < self.config.min_shared_pages {
                continue;
            }
            if let Some(q) = self.coefficient(tid, other) {
                edges.push(InferredEdge { src: tid, dst: other, q });
            }
            if let Some(q) = self.coefficient(other, tid) {
                edges.push(InferredEdge { src: other, dst: tid, q });
            }
        }
        edges
    }

    /// Shared-page count of a pair.
    pub fn shared_pages(&self, a: ThreadId, b: ThreadId) -> u64 {
        self.pair_shared.get(&pair_key(a, b)).copied().unwrap_or(0)
    }

    /// The inferred coefficient `q̂_ab = |a ∩ b| / |a|` (None if `a` has
    /// no tracked pages).
    pub fn coefficient(&self, a: ThreadId, b: ThreadId) -> Option<f64> {
        let pages_a = self.thread_pages.get(&a)?.len();
        if pages_a == 0 {
            return None;
        }
        Some((self.shared_pages(a, b) as f64 / pages_a as f64).clamp(0.0, 1.0))
    }

    /// Pages tracked for a thread.
    pub fn tracked_pages(&self, tid: ThreadId) -> usize {
        self.thread_pages.get(&tid).map_or(0, BTreeSet::len)
    }

    /// Forgets a thread (exit): removes its pages and pair counts.
    pub fn forget(&mut self, tid: ThreadId) {
        if let Some(pages) = self.thread_pages.remove(&tid) {
            for vpn in pages {
                if let Some(owners) = self.page_threads.get_mut(&vpn) {
                    owners.retain(|&t| t != tid);
                    if owners.is_empty() {
                        self.page_threads.remove(&vpn);
                    }
                }
            }
        }
        self.pair_shared.retain(|&(a, b), _| a != tid && b != tid);
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
        assert_eq!(inf.coefficient(t(1), t(2)), Some(0.0));
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
