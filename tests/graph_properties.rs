//! Property-based tests of [`SharingGraph`] structural invariants
//! (proptest): random operation sequences against a flat-map mirror, with
//! every row and column read back after every operation.

use proptest::prelude::*;
use std::collections::BTreeMap;
use thread_locality::core::{SharingGraph, ThreadId};

/// One random graph operation over a small thread-id universe.
#[derive(Debug, Clone)]
enum Op {
    Set { src: u64, dst: u64, q: f64 },
    RemoveEdge { src: u64, dst: u64 },
    RemoveThread { t: u64 },
}

/// The universe of most tests: ids the engine itself hands out.
const NARROW: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Ids on both sides of `ThreadSlots`' direct-table bound (2²⁰), through
/// which the graph finds a source's row: below it a table indexed by the
/// id, at or above it an ordered map.
const WIDE: [u64; 8] =
    [1, 2, (1 << 20) - 2, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 1 << 40, u64::MAX];

fn op_strategy(ids: &'static [u64; 8]) -> impl Strategy<Value = Op> {
    let tid = move || (0usize..8).prop_map(move |i| ids[i]);
    prop_oneof![
        // Mostly valid coefficients, occasionally invalid or zero, so the
        // sequences exercise rejection and edge removal too.
        4 => (tid(), tid(), prop_oneof![
            5 => 0.0f64..=1.0,
            1 => Just(0.0f64),
            1 => Just(1.5f64),
            1 => Just(f64::NAN),
        ])
            .prop_map(|(src, dst, q)| Op::Set { src, dst, q }),
        1 => (tid(), tid()).prop_map(|(src, dst)| Op::RemoveEdge { src, dst }),
        1 => tid().prop_map(|t| Op::RemoveThread { t }),
    ]
}

/// Applies ops to both the graph and a plain `(src, dst) → q` mirror.
/// Reads are interleaved with the writes: after each op, every thread's
/// `dependents_of` must be the mirror's row and its `dependencies_of` the
/// mirror's column, as exact sequences in thread-id order, and `edges()`
/// the mirror's entries in their order.
fn apply(ops: &[Op], ids: &[u64; 8]) -> (SharingGraph, BTreeMap<(u64, u64), f64>) {
    let mut g = SharingGraph::new();
    let mut mirror = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Set { src, dst, q } => {
                let accepted = g.set(ThreadId(src), ThreadId(dst), q).is_ok();
                let valid = q.is_finite() && (0.0..=1.0).contains(&q) && src != dst;
                assert_eq!(accepted, valid, "set({src}, {dst}, {q})");
                if valid {
                    if q == 0.0 {
                        mirror.remove(&(src, dst));
                    } else {
                        mirror.insert((src, dst), q);
                    }
                }
            }
            Op::RemoveEdge { src, dst } => {
                let prev = g.remove_edge(ThreadId(src), ThreadId(dst));
                assert_eq!(prev, mirror.remove(&(src, dst)));
            }
            Op::RemoveThread { t } => {
                g.remove_thread(ThreadId(t));
                mirror.retain(|&(s, d), _| s != t && d != t);
            }
        }
        for &t in ids {
            let row: Vec<_> = g.dependents_of(ThreadId(t)).collect();
            let want: Vec<_> =
                mirror.iter().filter(|(e, _)| e.0 == t).map(|(e, &q)| (ThreadId(e.1), q)).collect();
            assert_eq!(row, want, "row of t{t} after {op:?}");
            let column: Vec<_> = g.dependencies_of(ThreadId(t)).collect();
            let want: Vec<_> =
                mirror.iter().filter(|(e, _)| e.1 == t).map(|(e, &q)| (ThreadId(e.0), q)).collect();
            assert_eq!(column, want, "column of t{t} after {op:?}");
        }
        let listed: Vec<_> = g.edges().map(|(s, d, q)| ((s.0, d.0), q)).collect();
        let want: Vec<_> = mirror.iter().map(|(&e, &q)| (e, q)).collect();
        assert_eq!(listed, want, "edges() after {op:?}");
    }
    (g, mirror)
}

proptest! {
    /// After any operation sequence the graph matches the mirror exactly:
    /// same edge set via `edges()`, same weights via `weight()`, same
    /// degrees (`apply` has already held every row and column to it).
    #[test]
    fn graph_matches_mirror(ops in proptest::collection::vec(op_strategy(&NARROW), 0..64)) {
        let (g, mirror) = apply(&ops, &NARROW);

        // edges() round-trips through weight() and matches the mirror.
        let listed: BTreeMap<(u64, u64), f64> =
            g.edges().map(|(s, d, q)| ((s.0, d.0), q)).collect();
        prop_assert_eq!(&listed, &mirror);
        for (&(s, d), &q) in &mirror {
            prop_assert_eq!(g.weight(ThreadId(s), ThreadId(d)), q);
        }
        prop_assert_eq!(g.edge_count(), mirror.len());
        prop_assert_eq!(g.is_empty(), mirror.is_empty());

        for t in 0..8u64 {
            let degree = mirror.keys().filter(|e| e.0 == t).count();
            prop_assert_eq!(g.out_degree(ThreadId(t)), degree);
        }
    }

    /// Equality is over the edge set alone: a graph that reached `edges`
    /// through `history` (rows emptied and refilled on the way) equals
    /// one built from nothing but those edges.
    #[test]
    fn equal_edge_sets_are_equal_graphs(
        history in proptest::collection::vec(op_strategy(&NARROW), 0..64),
    ) {
        let (g, mirror) = apply(&history, &NARROW);
        let mut fresh = SharingGraph::new();
        for (&(s, d), &q) in mirror.iter().rev() {
            fresh.set(ThreadId(s), ThreadId(d), q).unwrap();
        }
        prop_assert_eq!(g, fresh);
    }

    /// `remove_thread` leaves no incident edges in either direction, and
    /// never disturbs edges between other threads.
    #[test]
    fn remove_thread_removes_all_incident_edges(
        ops in proptest::collection::vec(op_strategy(&NARROW), 0..48),
        victim in 0u64..8,
    ) {
        let (mut g, mirror) = apply(&ops, &NARROW);
        g.remove_thread(ThreadId(victim));

        let v = ThreadId(victim);
        prop_assert_eq!(g.out_degree(v), 0);
        prop_assert_eq!(g.dependencies_of(v).count(), 0);
        prop_assert!(g.edges().all(|(s, d, _)| s != v && d != v));

        let expected: BTreeMap<(u64, u64), f64> = mirror
            .into_iter()
            .filter(|&((s, d), _)| s != victim && d != victim)
            .collect();
        let listed: BTreeMap<(u64, u64), f64> =
            g.edges().map(|(s, d, q)| ((s.0, d.0), q)).collect();
        prop_assert_eq!(listed, expected);
    }

    /// The same across the direct-table bound, where sources are released
    /// and bound again as their rows empty and refill: `apply` holds every
    /// row, column and `edges()` order to the model after each operation;
    /// here `weight` and `out_degree` of every pair, and `==` with graphs
    /// that reach the same edges in other orders, but not with one that
    /// differs in one weight.
    #[test]
    fn rows_match_the_model_across_the_direct_table_bound(
        ops in proptest::collection::vec(op_strategy(&WIDE), 0..96),
        rotate in 0usize..64,
    ) {
        let (g, mirror) = apply(&ops, &WIDE);
        for &s in &WIDE {
            let degree = mirror.keys().filter(|e| e.0 == s).count();
            prop_assert_eq!(g.out_degree(ThreadId(s)), degree);
            for &d in &WIDE {
                let want = mirror.get(&(s, d)).copied().unwrap_or(0.0);
                prop_assert_eq!(g.weight(ThreadId(s), ThreadId(d)), want);
            }
        }
        let mut edges: Vec<_> = mirror.iter().map(|(&e, &q)| (e, q)).collect();
        if !edges.is_empty() {
            let mid = rotate % edges.len();
            edges.rotate_left(mid);
        }
        let (mut forward, mut backward) = (SharingGraph::new(), SharingGraph::new());
        for (&((s, d), q), &((rs, rd), rq)) in edges.iter().zip(edges.iter().rev()) {
            forward.set(ThreadId(s), ThreadId(d), q).unwrap();
            backward.set(ThreadId(rs), ThreadId(rd), rq).unwrap();
        }
        prop_assert_eq!(&forward, &g);
        prop_assert_eq!(&backward, &g);
        if let Some(&((s, d), q)) = edges.first() {
            forward.set(ThreadId(s), ThreadId(d), q / 2.0).unwrap();
            prop_assert!(forward != g, "a changed weight must make the graphs differ");
        }
    }
}
