//! Property-based tests of the machine substrate: the cache against a
//! naive reference model, regions against a brute-force byte map, and
//! the priority heap against a sorted list.

use proptest::prelude::*;
use thread_locality::core::{ThreadId, ThreadSlots};
use thread_locality::sim::{Cache, CacheGeometry, RegionTable, Tlb, TlbConfig, VAddr};
use thread_locality::threads::heap::PrioHeap;

/// A naive direct-mapped cache reference: one slot per set.
fn reference_direct_mapped(lines: u64, accesses: &[u64]) -> (u64, Vec<Option<u64>>) {
    let mut slots: Vec<Option<u64>> = vec![None; lines as usize];
    let mut misses = 0;
    for &pline in accesses {
        let set = (pline % lines) as usize;
        if slots[set] != Some(pline) {
            misses += 1;
            slots[set] = Some(pline);
        }
    }
    (misses, slots)
}

proptest! {
    /// The set-associative cache with one way behaves exactly like the
    /// naive direct-mapped reference.
    #[test]
    fn direct_mapped_matches_reference(
        accesses in proptest::collection::vec(0u64..256, 1..400)
    ) {
        let lines = 32u64;
        let mut cache = Cache::new(CacheGeometry::new(lines, 1, 64).unwrap());
        let mut misses = 0;
        for &pline in &accesses {
            if !cache.probe(pline) {
                misses += 1;
                cache.insert(pline, false);
            }
        }
        let (ref_misses, ref_slots) = reference_direct_mapped(lines, &accesses);
        prop_assert_eq!(misses, ref_misses);
        let mut resident: Vec<u64> = cache.iter_resident().collect();
        resident.sort_unstable();
        let mut expected: Vec<u64> = ref_slots.into_iter().flatten().collect();
        expected.sort_unstable();
        prop_assert_eq!(resident, expected);
    }

    /// An LRU set-associative cache never misses more than a
    /// direct-mapped cache of the same *set count* per set... instead we
    /// check the simpler hit-after-insert invariant and capacity bound.
    #[test]
    fn set_associative_invariants(
        accesses in proptest::collection::vec(0u64..128, 1..300),
        ways_pow in 0u32..=2,
    ) {
        let ways = 1u64 << ways_pow; // 1, 2 or 4 (sizes must be powers of two)
        let sets = 16u64;
        let geom = CacheGeometry::new(sets, ways, 64).unwrap();
        let mut cache = Cache::new(geom);
        for &pline in &accesses {
            if !cache.probe(pline) {
                cache.insert(pline, false);
            }
            // Just-accessed line must be resident.
            prop_assert!(cache.contains(pline));
            prop_assert!(cache.resident_lines() <= sets * ways);
        }
    }

    /// Set-index mapping is exclusive: a line lives in exactly the set
    /// `pline mod sets`. Lines of one residue class can only displace
    /// each other — traffic on every other residue leaves the class
    /// untouched, and overfilling the class evicts a class member.
    #[test]
    fn set_index_mapping_is_exclusive(
        sets_pow in 0u32..=4,
        ways_pow in 0u32..=2,
        residue_sel in 0u64..16,
        others in proptest::collection::vec(0u64..512, 0..64),
    ) {
        let sets = 1u64 << sets_pow;
        let ways = 1u64 << ways_pow;
        let residue = residue_sel % sets;
        let mut cache = Cache::new(CacheGeometry::new(sets, ways, 64).unwrap());
        let family: Vec<u64> = (0..ways).map(|i| residue + i * sets).collect();
        for &l in &family {
            cache.insert(l, false);
        }
        // Arbitrary traffic on other residues cannot displace the family.
        for &o in &others {
            if o % sets != residue {
                cache.probe_or_fill(o, false);
            }
        }
        for &l in &family {
            prop_assert!(cache.contains(l), "cross-set traffic evicted line {}", l);
        }
        // One more line of the same residue displaces a family member.
        let (hit, evicted) = cache.probe_or_fill(residue + ways * sets, false);
        prop_assert!(!hit);
        let e = evicted.expect("the set was full");
        prop_assert_eq!(e.pline % sets, residue, "victim came from another set");
        prop_assert!(family.contains(&e.pline));
    }

    /// The set-associative cache implements exact per-set LRU: hits,
    /// eviction victims, and final residency all match a recency-list
    /// reference model, for every geometry.
    #[test]
    fn lru_eviction_matches_reference(
        accesses in proptest::collection::vec(0u64..96, 1..400),
        sets_pow in 0u32..=3,
        ways_pow in 0u32..=3,
        dirt in proptest::collection::vec(0u8..2, 400),
    ) {
        let sets = 1u64 << sets_pow;
        let ways = 1u64 << ways_pow;
        let mut cache = Cache::new(CacheGeometry::new(sets, ways, 64).unwrap());
        let mut refsets: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        for (i, &pline) in accesses.iter().enumerate() {
            let set = &mut refsets[(pline % sets) as usize];
            let ref_hit = set.iter().position(|&p| p == pline);
            let (hit, evicted) = cache.probe_or_fill(pline, dirt[i] == 1);
            prop_assert_eq!(hit, ref_hit.is_some());
            match ref_hit {
                Some(pos) => {
                    set.remove(pos);
                    prop_assert_eq!(evicted, None, "a hit must not evict");
                }
                None => {
                    let victim =
                        if set.len() == ways as usize { Some(set.remove(0)) } else { None };
                    prop_assert_eq!(evicted.map(|e| e.pline), victim);
                }
            }
            set.push(pline); // most recently used
        }
        let mut resident: Vec<u64> = cache.iter_resident().collect();
        resident.sort_unstable();
        let mut expected: Vec<u64> = refsets.into_iter().flatten().collect();
        expected.sort_unstable();
        prop_assert_eq!(resident, expected);
    }

    /// The TLB against an independent recency-list model, step by step:
    /// the hit verdict, the page `insert` displaces, `contains` for every
    /// page seen so far and `resident_entries`. The geometries include the
    /// default 1×64, 16×4, 64×1, 1×1 and 128×4 — 512 entries, more than
    /// the fast path's `u8` hint can name. Pages come from three pools:
    /// `k·256 + c`, whose members collide in a hint slot; a dense range
    /// half again as large as the TLB; and the last two sets, the entries
    /// furthest past what the hint can name, oversubscribed by two pages.
    /// Flushes land mid-stream, so pages are reused after one.
    #[test]
    fn tlb_matches_lru_reference_within_reach(
        geometry in 0usize..8,
        ops in proptest::collection::vec((0u8..64, 0u64..1 << 20), 1..600),
        walk in 0u64..100,
    ) {
        let (sets, ways) =
            [(1u64, 64u64), (16, 4), (64, 1), (1, 1), (128, 4), (2, 2), (4, 16), (1, 8)][geometry];
        let config = TlbConfig { sets, ways, walk_cycles: walk };
        prop_assert!(config.validate().is_ok());
        let mut tlb = Tlb::new(config);
        prop_assert_eq!(tlb.walk_cycles(), walk);
        let entries = config.entries();
        let mut refsets: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        let mut seen = std::collections::BTreeSet::new();
        for &(sel, v) in &ops {
            if sel == 63 {
                tlb.flush();
                refsets.iter_mut().for_each(Vec::clear);
            } else {
                let vpn = match sel % 4 {
                    0 => (v % 8) * 256 + (v / 8) % 4,
                    1 => (sets - 1).saturating_sub(v % 2) + sets * ((v / 2) % (ways + 2)),
                    _ => v % (entries + entries / 2 + 1),
                };
                seen.insert(vpn);
                let set = &mut refsets[(vpn % sets) as usize];
                let ref_hit = set.iter().position(|&p| p == vpn);
                prop_assert_eq!(tlb.probe(vpn), ref_hit.is_some(), "probe of {}", vpn);
                match ref_hit {
                    Some(pos) => {
                        set.remove(pos);
                    }
                    None => {
                        let victim =
                            if set.len() == ways as usize { Some(set.remove(0)) } else { None };
                        prop_assert_eq!(tlb.insert(vpn), victim, "insert of {}", vpn);
                    }
                }
                set.push(vpn); // most recently used
            }
            for &p in &seen {
                let held = refsets[(p % sets) as usize].contains(&p);
                prop_assert_eq!(tlb.contains(p), held, "page {}", p);
            }
            let resident: usize = refsets.iter().map(Vec::len).sum();
            prop_assert_eq!(tlb.resident_entries(), resident as u64);
        }
    }

    /// RegionTable agrees with a brute-force byte→owners map.
    #[test]
    fn regions_match_bruteforce(
        regions in proptest::collection::vec((0u64..8, 0u64..200, 1u64..60), 1..25),
        queries in proptest::collection::vec(0u64..300, 1..40),
    ) {
        let mut table = RegionTable::new();
        let mut brute: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
            Default::default();
        for &(tid, start, len) in &regions {
            table.register(ThreadId(tid), VAddr(start), len);
            for b in start..start + len {
                brute.entry(b).or_default().insert(tid);
            }
        }
        for &q in &queries {
            let got: Vec<u64> = table.owners_of(VAddr(q)).iter().map(|t| t.0).collect();
            let expected: Vec<u64> =
                brute.get(&q).map(|s| s.iter().copied().collect()).unwrap_or_default();
            prop_assert_eq!(got, expected, "owners at byte {}", q);
        }
        // State sizes agree too.
        for tid in 0..8u64 {
            let expected = brute.values().filter(|s| s.contains(&tid)).count() as u64;
            prop_assert_eq!(table.state_bytes(ThreadId(tid)), expected);
        }
    }

    /// Re-registration is free: registering the same range twice — after
    /// arbitrary other registrations have split it into many segments —
    /// leaves every observable of the table as it was, and the read-only
    /// `covers` predicate is true exactly when a `register` of the same
    /// arguments would be such a no-op.
    #[test]
    fn reregistration_is_a_noop_exactly_when_covered(
        first in (0u64..4, 0u64..200, 0u64..60),
        others in proptest::collection::vec((0u64..4, 0u64..260, 0u64..60), 0..20),
        probes in proptest::collection::vec((0u64..4, 0u64..260, 0u64..60), 1..20),
    ) {
        // Everything a caller can see: the segment count, every state
        // size, every pairwise overlap, the owners of every byte.
        fn observe(t: &RegionTable) -> (usize, Vec<u64>, Vec<u64>, Vec<Vec<ThreadId>>) {
            (
                t.segment_count(),
                (0..4).map(|a| t.state_bytes(ThreadId(a))).collect(),
                (0..16).map(|p| t.shared_bytes(ThreadId(p / 4), ThreadId(p % 4))).collect(),
                (0..340).map(|b| t.owners_of(VAddr(b)).to_vec()).collect(),
            )
        }
        let mut table = RegionTable::new();
        table.register(ThreadId(first.0), VAddr(first.1), first.2);
        for &(tid, start, len) in &others {
            table.register(ThreadId(tid), VAddr(start), len);
        }
        let before = observe(&table);
        prop_assert!(table.covers(ThreadId(first.0), VAddr(first.1), first.2));
        table.register(ThreadId(first.0), VAddr(first.1), first.2);
        prop_assert_eq!(&observe(&table), &before, "second register of {:?} changed the table", first);

        for &(tid, start, len) in &probes {
            let covered = table.covers(ThreadId(tid), VAddr(start), len);
            let owns_every_byte =
                (start..start + len).all(|b| table.owners_of(VAddr(b)).contains(&ThreadId(tid)));
            prop_assert_eq!(covered, owns_every_byte, "covers({}, {}, {})", tid, start, len);
            let mut again = table.clone();
            again.register(ThreadId(tid), VAddr(start), len);
            prop_assert_eq!(
                observe(&again) == before, covered,
                "register({}, {}, {}) a no-op vs covers", tid, start, len
            );
        }
    }

    /// Sharing coefficients are symmetric in the numerator:
    /// q_ab·|a| == q_ba·|b| (both equal |a ∩ b|).
    #[test]
    fn coefficient_consistency(
        regions in proptest::collection::vec((0u64..4, 0u64..100, 1u64..40), 2..16),
    ) {
        let mut table = RegionTable::new();
        for &(tid, start, len) in &regions {
            table.register(ThreadId(tid), VAddr(start), len);
        }
        for a in 0..4u64 {
            for b in 0..4u64 {
                if a == b { continue; }
                let (ta, tb) = (ThreadId(a), ThreadId(b));
                let lhs = table.coefficient(ta, tb) * table.state_bytes(ta) as f64;
                let rhs = table.coefficient(tb, ta) * table.state_bytes(tb) as f64;
                prop_assert!((lhs - rhs).abs() < 1e-6);
                prop_assert_eq!(lhs.round() as u64, table.shared_bytes(ta, tb));
            }
        }
    }

    /// The slot-indexed heap pops in exactly sorted order after any mix
    /// of pushes, updates, and removals.
    #[test]
    fn heap_matches_sorted_reference(
        ops in proptest::collection::vec((0u8..4, 0u64..24, 0u32..1000), 1..250)
    ) {
        let mut slots = ThreadSlots::new();
        let handles: Vec<_> = (0..24).map(|tid| slots.bind(ThreadId(tid))).collect();
        let mut heap = PrioHeap::new();
        let mut reference: std::collections::BTreeMap<u64, f64> = Default::default();
        for &(op, tid, prio) in &ops {
            let t = ThreadId(tid);
            let slot = handles[tid as usize];
            let p = prio as f64;
            match op {
                0 | 1 => {
                    heap.push(t, slot, p);
                    reference.insert(tid, p);
                }
                2 => {
                    let got = heap.remove(slot);
                    let expected = reference.remove(&tid);
                    prop_assert_eq!(got, expected);
                }
                _ => {
                    let got = heap.pop_max().map(|(t2, _, p2)| (t2, p2));
                    let expected = reference
                        .iter()
                        .map(|(&t2, &p2)| (p2, t2))
                        .max_by(|a, b| {
                            a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1))
                        })
                        .map(|(p2, t2)| (ThreadId(t2), p2));
                    prop_assert_eq!(got, expected);
                    if let Some((t2, _)) = got {
                        reference.remove(&t2.0);
                    }
                }
            }
            prop_assert!(heap.check_invariants());
            prop_assert_eq!(heap.len(), reference.len());
        }
    }
}
