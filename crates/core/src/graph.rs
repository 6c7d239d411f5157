//! The dynamic shared-state dependency graph built from user annotations
//! (paper §2.3).
//!
//! An `at_share(a, b, q)` annotation adds (or re-weights) the directed edge
//! `(a → b)` with coefficient `q ∈ [0, 1]`: *fraction `q` of thread `a`'s
//! state is shared with thread `b`*. The destination of an edge *depends
//! on* the source: when `a` runs and misses, `b`'s cached state is dragged
//! toward `q·N`.
//!
//! Unspecified edges implicitly carry coefficient 0 (pure decay, the
//! independent case). No transitivity is assumed; edges need not be
//! bidirectional (mergesort's children feed the parent but not vice
//! versa). Annotations are *hints*: wrong or missing ones affect only
//! performance, never correctness — which is why [`SharingGraph::set`]
//! validates the coefficient but the lookup path never fails.
//!
//! Threads come and go while the scheduler reads, so the graph keeps a
//! single sorted adjacency that is edited in place: a read never needs a
//! rebuild first, and an exiting thread costs its own degree.

use crate::params::check_coefficient;
use crate::slots::ThreadSlots;
use crate::{ModelError, ThreadId};
use std::collections::BTreeMap;

/// A directed, weighted state-sharing graph `G = (V, E)` with coefficients
/// `q ∈ [0, 1]` on each edge.
///
/// There is one adjacency: a source's out-edges are a `Vec` sorted by
/// destination, so the row the per-switch `O(out-degree)` priority update
/// walks is already a contiguous slice and every read sees the latest
/// write. A source finds its row through [`ThreadSlots`], the id→slot
/// index the estimator and the machine use, so the lookup is `O(1)`
/// where a map would descend. Rows are sorted and [`edges`](Self::edges)
/// lists sources in id order, so iteration order (and therefore every
/// simulated schedule that consults the graph) is deterministic. A
/// reverse index of sources per destination lets an exiting thread edit
/// only the rows that name it. A row that empties releases its slot, and
/// `==` compares the edges alone, so two graphs holding the same edges
/// are equal whatever their histories.
///
/// ```
/// use locality_core::{SharingGraph, ThreadId};
/// let (parent, left, right) = (ThreadId(1), ThreadId(2), ThreadId(3));
/// let mut g = SharingGraph::new();
/// // Mergesort: each child's state is fully contained in the parent's.
/// g.set(left, parent, 1.0)?;
/// g.set(right, parent, 1.0)?;
/// assert_eq!(g.weight(left, parent), 1.0);
/// assert_eq!(g.weight(parent, left), 0.0); // not symmetric
/// assert_eq!(g.out_degree(left), 1);
/// # Ok::<(), locality_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharingGraph {
    /// The sources that have a row, each bound to the slot its row sits
    /// at.
    sources: ThreadSlots,
    /// Out-edges by source slot: each `(dst, q)` row sorted by
    /// destination, empty at a free slot.
    rows: Vec<Vec<(ThreadId, f64)>>,
    /// Reverse index: each destination's sources, sorted.
    into: BTreeMap<ThreadId, Vec<ThreadId>>,
}

impl PartialEq for SharingGraph {
    fn eq(&self, other: &Self) -> bool {
        self.edges().eq(other.edges())
    }
}

impl SharingGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SharingGraph::default()
    }

    /// Adds or re-weights the edge `(src → dst)` with coefficient `q`.
    ///
    /// This is the runtime effect of the `at_share(src, dst, q)` annotation.
    /// Setting `q = 0` removes the edge (an absent edge and a zero edge are
    /// indistinguishable to the model).
    ///
    /// # Errors
    ///
    /// * [`ModelError::NonFiniteSharingCoefficient`] if `q` is NaN or
    ///   infinite;
    /// * [`ModelError::InvalidSharingCoefficient`] if `q ∉ [0, 1]`;
    /// * [`ModelError::SelfSharing`] if `src == dst`.
    pub fn set(&mut self, src: ThreadId, dst: ThreadId, q: f64) -> Result<(), ModelError> {
        check_coefficient(q)?;
        if src == dst {
            return Err(ModelError::SelfSharing { thread: src.0 });
        }
        if q == 0.0 {
            self.remove_edge(src, dst);
            return Ok(());
        }
        let i = self.sources.bind(src).index();
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, Vec::new);
        }
        let row = &mut self.rows[i];
        match row.binary_search_by_key(&dst, |e| e.0) {
            Ok(i) => row[i].1 = q,
            Err(i) => {
                row.insert(i, (dst, q));
                let srcs = self.into.entry(dst).or_default();
                srcs.insert(srcs.partition_point(|&s| s < src), src);
            }
        }
        Ok(())
    }

    /// Removes the edge `(src → dst)`; returns its previous weight, if any.
    pub fn remove_edge(&mut self, src: ThreadId, dst: ThreadId) -> Option<f64> {
        let q = self.unlink_dst(src, dst)?;
        unlink_src(&mut self.into, dst, src);
        Some(q)
    }

    /// Removes `dst` from `src`'s row, and the row with it when that was
    /// its last entry; returns the edge's weight.
    fn unlink_dst(&mut self, src: ThreadId, dst: ThreadId) -> Option<f64> {
        let row = &mut self.rows[self.sources.lookup(src)?.index()];
        let (_, q) = row.remove(row.binary_search_by_key(&dst, |e| e.0).ok()?);
        if row.is_empty() {
            self.sources.release(src);
        }
        Some(q)
    }

    /// Coefficient of the edge `(src → dst)`, or 0 when absent.
    ///
    /// The graph is conceptually complete with unspecified edges carrying
    /// 0 coefficients (paper §2.3), so this lookup never fails.
    pub fn weight(&self, src: ThreadId, dst: ThreadId) -> f64 {
        let row = self.row(src);
        row.binary_search_by_key(&dst, |e| e.0).map_or(0.0, |i| row[i].1)
    }

    fn row(&self, src: ThreadId) -> &[(ThreadId, f64)] {
        self.sources.lookup(src).map_or(&[], |slot| &self.rows[slot.index()])
    }

    /// Threads whose cached state depends on `src` — the destinations of
    /// edges starting at `src` — with their coefficients, in thread-id
    /// order: one contiguous row, the hot `O(out-degree)` path.
    pub fn dependents_of(&self, src: ThreadId) -> impl Iterator<Item = (ThreadId, f64)> + '_ {
        self.row(src).iter().copied()
    }

    /// Does nothing: there is no read snapshot to rebuild. Called only by
    /// the frozen `benchmark/src/{layers,probes}.rs`; goes with
    /// `PerSetEstimator` in the next `[benchmark]` PR. No crate, test or
    /// example may call it (`ci.sh` checks).
    pub fn compact(&mut self) {}

    /// Always true; kept, like [`compact`](Self::compact), for the frozen
    /// benchmark alone.
    pub fn is_compact(&self) -> bool {
        true
    }

    /// Threads `dst` depends on — the sources of edges ending at `dst` —
    /// with their coefficients, in thread-id order.
    pub fn dependencies_of(&self, dst: ThreadId) -> impl Iterator<Item = (ThreadId, f64)> + '_ {
        self.into.get(&dst).into_iter().flatten().map(move |&src| (src, self.weight(src, dst)))
    }

    /// Number of dependents of `src` (out-degree `d`; the per-switch
    /// priority-update cost is `O(d)`).
    pub fn out_degree(&self, src: ThreadId) -> usize {
        self.row(src).len()
    }

    /// Total number of edges with non-zero coefficients.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// True if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.sources.live() == 0
    }

    /// Removes every edge incident to `t` (called when the thread exits):
    /// its own two rows, and its entry in each row they name.
    pub fn remove_thread(&mut self, t: ThreadId) {
        if let Some(slot) = self.sources.release(t) {
            for (dst, _) in std::mem::take(&mut self.rows[slot.index()]) {
                unlink_src(&mut self.into, dst, t);
            }
        }
        for src in self.into.remove(&t).unwrap_or_default() {
            self.unlink_dst(src, t);
        }
    }

    /// All edges `(src, dst, q)`, sources in id order and each row in
    /// destination order. Off the switch path: the sources are sorted
    /// per call.
    pub fn edges(&self) -> impl Iterator<Item = (ThreadId, ThreadId, f64)> + '_ {
        let mut sources: Vec<_> = self.sources.iter_live().collect();
        sources.sort_unstable_by_key(|&(_, src)| src);
        sources.into_iter().flat_map(move |(slot, src)| {
            self.rows[slot.index()].iter().map(move |&(dst, q)| (src, dst, q))
        })
    }
}

/// Removes `src` from `dst`'s reverse-index entry, and the entry with it
/// when that was its last source.
fn unlink_src(into: &mut BTreeMap<ThreadId, Vec<ThreadId>>, dst: ThreadId, src: ThreadId) {
    let Some(srcs) = into.get_mut(&dst) else { return };
    srcs.retain(|&s| s != src);
    if srcs.is_empty() {
        into.remove(&dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn set_and_weight() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        assert_eq!(g.weight(t(1), t(2)), 0.5);
        assert_eq!(g.weight(t(2), t(1)), 0.0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn reweight_does_not_duplicate() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        g.set(t(1), t(2), 0.9).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weight(t(1), t(2)), 0.9);
    }

    #[test]
    fn zero_weight_removes() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        g.set(t(1), t(2), 0.0).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.weight(t(1), t(2)), 0.0);
    }

    #[test]
    fn rejects_self_edges_and_bad_q() {
        let mut g = SharingGraph::new();
        assert_eq!(g.set(t(1), t(1), 0.5), Err(ModelError::SelfSharing { thread: 1 }));
        assert!(g.set(t(1), t(2), 1.5).is_err());
        assert!(g.set(t(1), t(2), -0.5).is_err());
        assert!(g.is_empty());
    }

    #[test]
    fn rejects_non_finite_q_with_dedicated_variant() {
        let mut g = SharingGraph::new();
        assert!(matches!(
            g.set(t(1), t(2), f64::NAN),
            Err(ModelError::NonFiniteSharingCoefficient { q }) if q.is_nan()
        ));
        assert!(matches!(
            g.set(t(1), t(2), f64::INFINITY),
            Err(ModelError::NonFiniteSharingCoefficient { q }) if q == f64::INFINITY
        ));
        assert!(matches!(
            g.set(t(1), t(2), f64::NEG_INFINITY),
            Err(ModelError::NonFiniteSharingCoefficient { .. })
        ));
        // Out-of-range-but-finite keeps the original variant.
        assert!(matches!(
            g.set(t(1), t(2), 2.0),
            Err(ModelError::InvalidSharingCoefficient { q }) if q == 2.0
        ));
        assert!(g.is_empty(), "rejected annotations must not touch the graph");
    }

    #[test]
    fn dependents_sorted_and_complete() {
        let mut g = SharingGraph::new();
        g.set(t(5), t(9), 0.1).unwrap();
        g.set(t(5), t(2), 0.2).unwrap();
        g.set(t(5), t(7), 0.3).unwrap();
        g.set(t(6), t(2), 0.4).unwrap();
        let deps: Vec<_> = g.dependents_of(t(5)).collect();
        assert_eq!(deps, vec![(t(2), 0.2), (t(7), 0.3), (t(9), 0.1)]);
        assert_eq!(g.out_degree(t(5)), 3);
        assert_eq!(g.out_degree(t(42)), 0);
    }

    #[test]
    fn dependencies_inverse_of_dependents() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(3), 0.5).unwrap();
        g.set(t(2), t(3), 0.7).unwrap();
        let deps: Vec<_> = g.dependencies_of(t(3)).collect();
        assert_eq!(deps, vec![(t(1), 0.5), (t(2), 0.7)]);
    }

    #[test]
    fn remove_thread_cleans_both_directions() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        g.set(t(2), t(1), 0.6).unwrap();
        g.set(t(2), t(3), 0.7).unwrap();
        g.set(t(3), t(2), 0.8).unwrap();
        g.remove_thread(t(2));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.weight(t(1), t(2)), 0.0);
        assert_eq!(g.weight(t(3), t(2)), 0.0);
        assert_eq!(g.dependents_of(t(2)).count(), 0);
    }

    #[test]
    fn remove_thread_keeps_unrelated_edges() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        g.set(t(3), t(4), 0.6).unwrap();
        g.remove_thread(t(1));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weight(t(3), t(4)), 0.6);
    }

    #[test]
    fn edges_iterator_is_deterministic() {
        let mut g = SharingGraph::new();
        g.set(t(2), t(1), 0.2).unwrap();
        g.set(t(1), t(2), 0.1).unwrap();
        g.set(t(1), t(3), 0.3).unwrap();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all, vec![(t(1), t(2), 0.1), (t(1), t(3), 0.3), (t(2), t(1), 0.2)]);
    }

    #[test]
    fn mergesort_annotation_pattern() {
        // Figure 3 of the paper: children point at the parent with q=1,
        // no parent->child edges (parent prefetches nothing for children).
        let mut g = SharingGraph::new();
        let (parent, l, r) = (t(10), t(11), t(12));
        g.set(l, parent, 1.0).unwrap();
        g.set(r, parent, 1.0).unwrap();
        assert_eq!(g.dependents_of(l).collect::<Vec<_>>(), vec![(parent, 1.0)]);
        assert_eq!(g.out_degree(parent), 0);
    }
}
