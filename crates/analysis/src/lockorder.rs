//! Lock-acquisition-order graph with cycle detection and witnesses.
//!
//! Whenever a thread acquires mutex `b` while already holding mutex `a`,
//! the directed edge `a → b` is added, remembering the first thread that
//! exhibited it. A cycle in this graph means two executions could
//! acquire the same locks in opposite orders — a potential deadlock even
//! if this particular run completed. [`cycles`](LockOrderGraph::cycles)
//! reports each conflicting lock set together with a *minimal* edge path
//! with the acquiring thread of every edge — the concrete evidence `repro
//! analyze` prints.

use active_threads::MutexId;
use locality_core::ThreadId;
use std::collections::{BTreeMap, VecDeque};

/// One `outer → inner` edge of a cycle witness: `tid` acquired `inner`
/// while holding `outer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessEdge {
    /// The already-held mutex.
    pub outer: MutexId,
    /// The mutex acquired while holding `outer`.
    pub inner: MutexId,
    /// The first thread observed taking the locks in this order.
    pub tid: ThreadId,
}

impl std::fmt::Display for WitnessEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} took m{} while holding m{}", self.tid, self.inner.0, self.outer.0)
    }
}

/// A set of locks that can be acquired in conflicting orders, with the
/// concrete evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockCycle {
    /// The component's mutexes, sorted.
    pub locks: Vec<MutexId>,
    /// A minimal witness: the shortest edge path from the smallest mutex
    /// back to itself.
    pub witness: Vec<WitnessEdge>,
}

/// Directed graph over mutexes, edges meaning "acquired before", each
/// edge carrying the first acquiring thread as its witness.
#[derive(Debug, Clone, Default)]
pub struct LockOrderGraph {
    edges: BTreeMap<MutexId, BTreeMap<MutexId, ThreadId>>,
}

impl LockOrderGraph {
    /// An empty graph.
    pub fn new() -> Self {
        LockOrderGraph::default()
    }

    /// Records that `tid` acquired `inner` while holding `outer`. The
    /// first acquiring thread per edge is kept as the edge's witness.
    pub fn add_edge(&mut self, outer: MutexId, inner: MutexId, tid: ThreadId) {
        self.edges.entry(outer).or_default().entry(inner).or_insert(tid);
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeMap::len).sum()
    }

    /// Node list and a compact adjacency list over node indices,
    /// computed once so traversals don't rebuild successor sets per
    /// visit.
    fn adjacency(&self) -> (Vec<MutexId>, Vec<Vec<usize>>) {
        let nodes: Vec<MutexId> = {
            let mut set: BTreeMap<MutexId, ()> = BTreeMap::new();
            for (&a, bs) in &self.edges {
                set.insert(a, ());
                for &b in bs.keys() {
                    set.insert(b, ());
                }
            }
            set.into_keys().collect()
        };
        let index_of: BTreeMap<MutexId, usize> =
            nodes.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let adj: Vec<Vec<usize>> = nodes
            .iter()
            .map(|m| {
                self.edges
                    .get(m)
                    .map(|s| s.keys().map(|b| index_of[b]).collect())
                    .unwrap_or_default()
            })
            .collect();
        (nodes, adj)
    }

    /// Strongly-connected components as node-index sets (Tarjan,
    /// iterative), using the precomputed adjacency.
    fn sccs(nodes: &[MutexId], adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let n = nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        // Explicit DFS stack of (node, next-neighbor position).
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut ni)) = call.last_mut() {
                if *ni == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *ni < adj[v].len() {
                    let w = adj[v][*ni];
                    *ni += 1;
                    if index[w] == usize::MAX {
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&mut (p, _)) = call.last_mut() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs
    }

    /// Strongly-connected components with more than one mutex (or a
    /// self-loop): each is a set of locks that can be acquired in
    /// conflicting orders, returned with its witness, sorted by lock set.
    pub fn cycles(&self) -> Vec<LockCycle> {
        let (nodes, adj) = self.adjacency();
        let mut cycles: Vec<LockCycle> = Vec::new();
        for mut comp in Self::sccs(&nodes, &adj) {
            if comp.len() == 1 && !adj[comp[0]].contains(&comp[0]) {
                continue;
            }
            // Node indices follow mutex order, so sorted indices give the
            // sorted lock set and put the smallest mutex first.
            comp.sort_unstable();
            let locks = comp.iter().map(|&i| nodes[i]).collect();
            cycles.push(LockCycle { locks, witness: self.witness(&nodes, &adj, &comp) });
        }
        cycles.sort_by(|a, b| a.locks.cmp(&b.locks));
        cycles
    }

    /// The shortest edge path from a sorted component's smallest mutex
    /// back to itself, each edge labelled with the thread that first
    /// exhibited it.
    fn witness(&self, nodes: &[MutexId], adj: &[Vec<usize>], comp: &[usize]) -> Vec<WitnessEdge> {
        let witness_of = |outer: usize, inner: usize| -> WitnessEdge {
            let tid = self.edges[&nodes[outer]][&nodes[inner]];
            WitnessEdge { outer: nodes[outer], inner: nodes[inner], tid }
        };
        let start = comp[0];
        if adj[start].contains(&start) {
            return vec![witness_of(start, start)];
        }
        let mut in_comp = vec![false; nodes.len()];
        for &i in comp {
            in_comp[i] = true;
        }
        // BFS within the component for the shortest path start → … → u
        // with an edge u → start closing the cycle.
        let mut parent = vec![usize::MAX; nodes.len()];
        let mut dist = vec![usize::MAX; nodes.len()];
        dist[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v] {
                if in_comp[w] && dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    parent[w] = v;
                    queue.push_back(w);
                }
            }
        }
        let closer = comp
            .iter()
            .copied()
            .filter(|&u| u != start && dist[u] != usize::MAX && adj[u].contains(&start))
            .min_by_key(|&u| (dist[u], nodes[u].0));
        // Every member of a genuine SCC reaches `start`, so one closes it.
        let Some(closer) = closer else { return Vec::new() };
        let mut rev = vec![witness_of(closer, start)];
        let mut cur = closer;
        while cur != start {
            rev.push(witness_of(parent[cur], cur));
            cur = parent[cur];
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: usize) -> MutexId {
        MutexId(i)
    }

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    fn locks(g: &LockOrderGraph) -> Vec<Vec<MutexId>> {
        g.cycles().into_iter().map(|c| c.locks).collect()
    }

    fn witnesses(g: &LockOrderGraph) -> Vec<Vec<WitnessEdge>> {
        g.cycles().into_iter().map(|c| c.witness).collect()
    }

    #[test]
    fn acyclic_graph_has_no_cycles() {
        let mut g = LockOrderGraph::new();
        g.add_edge(m(0), m(1), t(1));
        g.add_edge(m(1), m(2), t(1));
        g.add_edge(m(0), m(2), t(2));
        assert!(g.cycles().is_empty());
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn ab_ba_cycle_detected() {
        let mut g = LockOrderGraph::new();
        g.add_edge(m(0), m(1), t(1));
        g.add_edge(m(1), m(0), t(2));
        assert_eq!(locks(&g), vec![vec![m(0), m(1)]]);
    }

    #[test]
    fn three_lock_ring_detected() {
        let mut g = LockOrderGraph::new();
        g.add_edge(m(0), m(1), t(1));
        g.add_edge(m(1), m(2), t(2));
        g.add_edge(m(2), m(0), t(3));
        g.add_edge(m(5), m(6), t(1)); // unrelated acyclic part
        assert_eq!(locks(&g), vec![vec![m(0), m(1), m(2)]]);
    }

    #[test]
    fn duplicate_edges_are_idempotent_and_keep_first_witness() {
        let mut g = LockOrderGraph::new();
        g.add_edge(m(0), m(1), t(1));
        g.add_edge(m(0), m(1), t(9));
        g.add_edge(m(1), m(0), t(2));
        assert_eq!(g.edge_count(), 2);
        let w = witnesses(&g);
        assert_eq!(
            w,
            vec![vec![
                WitnessEdge { outer: m(0), inner: m(1), tid: t(1) },
                WitnessEdge { outer: m(1), inner: m(0), tid: t(2) },
            ]]
        );
    }

    #[test]
    fn witness_path_is_minimal() {
        // Two ways around: a long ring 0→1→2→3→0 and a chord 1→0 that
        // shortens the cycle through node 0 to two edges.
        let mut g = LockOrderGraph::new();
        g.add_edge(m(0), m(1), t(1));
        g.add_edge(m(1), m(2), t(1));
        g.add_edge(m(2), m(3), t(2));
        g.add_edge(m(3), m(0), t(2));
        g.add_edge(m(1), m(0), t(3));
        let w = witnesses(&g);
        assert_eq!(w.len(), 1);
        assert_eq!(
            w[0],
            vec![
                WitnessEdge { outer: m(0), inner: m(1), tid: t(1) },
                WitnessEdge { outer: m(1), inner: m(0), tid: t(3) },
            ]
        );
    }

    #[test]
    fn self_loop_witnessed_as_single_edge() {
        let mut g = LockOrderGraph::new();
        g.add_edge(m(4), m(4), t(7));
        assert_eq!(locks(&g), vec![vec![m(4)]]);
        assert_eq!(witnesses(&g), vec![vec![WitnessEdge { outer: m(4), inner: m(4), tid: t(7) }]]);
    }

    #[test]
    fn witness_edges_form_a_closed_cycle() {
        let mut g = LockOrderGraph::new();
        g.add_edge(m(0), m(1), t(1));
        g.add_edge(m(1), m(2), t(2));
        g.add_edge(m(2), m(0), t(3));
        let w = witnesses(&g);
        assert_eq!(w.len(), 1);
        let path = &w[0];
        for pair in path.windows(2) {
            assert_eq!(pair[0].inner, pair[1].outer);
        }
        assert_eq!(path.last().unwrap().inner, path[0].outer);
    }
}
