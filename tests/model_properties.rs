//! Property-based tests of the core model invariants (proptest).

use proptest::prelude::*;
use thread_locality::core::markov::{expectation, total_mass, DependentChain};
use thread_locality::core::priority::FootprintEntry;
use thread_locality::core::{
    FootprintModel, ModelParams, PolicyKind, PrioritySchemes, SharingGraph, ThreadId,
};

proptest! {
    /// The closed form equals the exact Markov-chain expectation for any
    /// q, initial footprint, and miss count (small cache so the chain is
    /// cheap).
    #[test]
    fn closed_form_equals_chain(
        q in 0.0f64..=1.0,
        s0 in 0usize..=64,
        n in 0u64..400,
    ) {
        let params = ModelParams::new(64).unwrap();
        let model = FootprintModel::new(params);
        let chain = DependentChain::new(params, q).unwrap();
        let exact = chain.expected_after(s0, n);
        let closed = model.expected_dependent(q, s0 as f64, n);
        prop_assert!((exact - closed).abs() < 1e-7,
            "q={q} s0={s0} n={n}: exact {exact} vs closed {closed}");
    }

    /// The chain's distribution stays a probability distribution.
    #[test]
    fn chain_conserves_mass(q in 0.0f64..=1.0, s0 in 0usize..=32, n in 0u64..200) {
        let params = ModelParams::new(32).unwrap();
        let chain = DependentChain::new(params, q).unwrap();
        let dist = chain.distribution_after(s0, n);
        prop_assert!((total_mass(&dist) - 1.0).abs() < 1e-9);
        prop_assert!(dist.iter().all(|&p| (-1e-12..=1.0 + 1e-9).contains(&p)));
        let e = expectation(&dist);
        prop_assert!((0.0..=32.0).contains(&e));
    }

    /// Footprints are always within [0, N] and move monotonically toward
    /// the fixed point qN.
    #[test]
    fn dependent_moves_toward_fixed_point(
        q in 0.0f64..=1.0,
        s0 in 0.0f64..=1024.0,
        n1 in 0u64..5_000,
        dn in 1u64..5_000,
    ) {
        let model = FootprintModel::new(ModelParams::new(1024).unwrap());
        let target = q * 1024.0;
        let f1 = model.expected_dependent(q, s0, n1);
        let f2 = model.expected_dependent(q, s0, n1 + dn);
        prop_assert!((0.0..=1024.0).contains(&f1));
        prop_assert!((f2 - target).abs() <= (f1 - target).abs() + 1e-9,
            "must approach the fixed point: {f1} then {f2}, target {target}");
    }

    /// Case 1 and case 2 are the q=1 / q=0 specializations of case 3.
    #[test]
    fn case_specializations(s0 in 0.0f64..=512.0, n in 0u64..10_000) {
        let model = FootprintModel::new(ModelParams::new(512).unwrap());
        let blocking = model.expected_blocking(s0, n);
        let dep1 = model.expected_dependent(1.0, s0, n);
        let independent = model.expected_independent(s0, n);
        let dep0 = model.expected_dependent(0.0, s0, n);
        prop_assert!((blocking - dep1).abs() < 1e-9);
        prop_assert!((independent - dep0).abs() < 1e-9);
    }

    /// The LFF log-space priority orders any two entries exactly like
    /// their current expected footprints, no matter when each was last
    /// updated (the paper's equivalence claim in §4.1).
    #[test]
    fn lff_priority_equivalent_to_footprint_order(
        misses_a in 1u64..3_000,
        misses_b in 1u64..3_000,
        gap in 0u64..3_000,
    ) {
        let schemes = PrioritySchemes::new(PolicyKind::Lff, ModelParams::new(4096).unwrap());
        let mut a = FootprintEntry::cold();
        let mut b = FootprintEntry::cold();
        // A runs first, then B; priorities are never updated afterwards.
        schemes.on_dispatch(&mut a, 0);
        schemes.on_block_self(&mut a, misses_a, misses_a);
        schemes.on_dispatch(&mut b, misses_a);
        schemes.on_block_self(&mut b, misses_b, misses_a + misses_b);
        let m_now = misses_a + misses_b + gap;
        let fa = schemes.expected_footprint(&a, m_now);
        let fb = schemes.expected_footprint(&b, m_now);
        // Table rounding makes near-ties ambiguous; require a 2% margin.
        if (fa - fb).abs() > 0.02 * fa.max(fb).max(1.0) {
            prop_assert_eq!(a.prio > b.prio, fa > fb,
                "prio ({}, {}) vs footprints ({}, {})", a.prio, b.prio, fa, fb);
        }
    }

    /// Graph edges round-trip and removal really removes.
    #[test]
    fn graph_set_get_remove(
        edges in proptest::collection::vec((0u64..20, 0u64..20, 0.0f64..=1.0), 0..60)
    ) {
        let mut g = SharingGraph::new();
        let mut expected = std::collections::BTreeMap::new();
        for (src, dst, q) in edges {
            if src == dst {
                prop_assert!(g.set(ThreadId(src), ThreadId(dst), q).is_err());
                continue;
            }
            g.set(ThreadId(src), ThreadId(dst), q).unwrap();
            if q == 0.0 {
                expected.remove(&(src, dst));
            } else {
                expected.insert((src, dst), q);
            }
        }
        prop_assert_eq!(g.edge_count(), expected.len());
        for (&(src, dst), &q) in &expected {
            prop_assert_eq!(g.weight(ThreadId(src), ThreadId(dst)), q);
        }
        // Removing every thread empties the graph.
        for t in 0..20 {
            g.remove_thread(ThreadId(t));
        }
        prop_assert!(g.is_empty());
    }
}

// Boundary cases the closed form and the memoized tables must agree on
// exactly: zero misses (the identity transient), and the degenerate
// sharing coefficients q = 0 (footprint only decays) and q = 1 (every
// miss is a shared-state fill). Each test pins the boundary coordinate
// and randomizes everything else.
proptest! {
    /// Zero misses change nothing, for every q, s0, and query route
    /// (exact chain, closed form, memoized table).
    #[test]
    fn n_zero_is_identity(q in 0.0f64..=1.0, s0 in 0usize..=64) {
        let params = ModelParams::new(64).unwrap();
        let chain = DependentChain::new(params, q).unwrap();
        prop_assert_eq!(chain.expected_after(s0, 0), s0 as f64);
        let dist = chain.distribution_after(s0, 0);
        prop_assert_eq!(dist[s0], 1.0);
        prop_assert!((total_mass(&dist) - 1.0).abs() < 1e-12);
        let model = FootprintModel::new(params);
        prop_assert!((model.expected_dependent(q, s0 as f64, 0) - s0 as f64).abs() < 1e-12);
        let table = chain.tabulate(256);
        prop_assert!((table.expected_after(s0 as f64, 0) - s0 as f64).abs() < 1e-12);
    }

    /// At q = 0 and q = 1 the exact chain, the closed form, and the
    /// memoized transient table agree for arbitrary (s0, n) — including
    /// queries past the table's grid, which continue analytically.
    #[test]
    fn degenerate_q_routes_agree(
        q_one in prop_oneof![Just(0.0f64), Just(1.0f64)],
        s0 in 0usize..=64,
        n in 0u64..1_000,
    ) {
        let params = ModelParams::new(64).unwrap();
        let model = FootprintModel::new(params);
        let chain = DependentChain::new(params, q_one).unwrap();
        let exact = chain.expected_after(s0, n);
        let closed = model.expected_dependent(q_one, s0 as f64, n);
        prop_assert!((exact - closed).abs() < 1e-7,
            "q={q_one} s0={s0} n={n}: exact {exact} vs closed {closed}");
        // Table built shorter than the largest query: exercises both the
        // interpolated and the extrapolated (n > n_max) paths. Off-grid
        // queries interpolate the exponential transient linearly, so the
        // table is only accurate to the grid spacing — hold it to a
        // twentieth of a line, not float precision.
        let table = chain.tabulate(128);
        let tabulated = table.expected_after(s0 as f64, n);
        prop_assert!((tabulated - closed).abs() < 5e-2,
            "q={q_one} s0={s0} n={n}: table {tabulated} vs closed {closed}");
    }

    /// The hybrid eager/on-demand kⁿ table returns the same values as
    /// the exact formula wherever the eager prefix ends.
    #[test]
    fn kpow_table_matches_formula(
        entries in 1usize..512,
        n in 0u64..2_048,
    ) {
        use thread_locality::core::tables::PrecomputedTables;
        let params = ModelParams::new(512).unwrap();
        let tables = PrecomputedTables::with_kpow_entries(params, entries);
        let got = tables.k_pow(n);
        let want = if (n as usize) < entries { params.k_pow(n) } else { 0.0 };
        prop_assert!((got - want).abs() < 1e-12,
            "entries={entries} n={n}: table {got} vs formula {want}");
    }

    /// The scheduler's arithmetic is the closed forms' own: wherever the
    /// eager kⁿ prefix answers (`1 ≤ n < 4096`, filled with
    /// `ModelParams::k_pow`), the footprint `on_block_self` and
    /// `on_dependent` leave equals `expected_blocking` and
    /// `expected_dependent` from the decayed start, bit for bit, under
    /// either policy.
    #[test]
    fn scheduler_updates_equal_the_closed_forms(
        lines in 2usize..=16_384,
        policy in prop_oneof![Just(PolicyKind::Lff), Just(PolicyKind::Crt)],
        s_frac in 0.0f64..=1.0,
        q in 0.0f64..=1.0,
        n in 1u64..4_096,
        gap in 0u64..4_096,
    ) {
        let params = ModelParams::new(lines).unwrap();
        let schemes = PrioritySchemes::new(policy, params);
        let model = FootprintModel::new(params);
        let s = s_frac * params.n();
        let start = FootprintEntry { e_f: s, e_f_last_run: s, ..FootprintEntry::cold() };

        let mut blocker = start;
        schemes.on_block_self(&mut blocker, n, n);
        prop_assert_eq!(blocker.e_f.to_bits(), model.expected_blocking(s, n).to_bits());

        let mut dependent = start;
        schemes.on_dependent(&mut dependent, q, n, gap);
        let s_c = model.expected_independent(s, gap);
        prop_assert_eq!(dependent.e_f.to_bits(), model.expected_dependent(q, s_c, n).to_bits());
    }
}
