//! A generic set-associative cache with true-LRU replacement.
//!
//! Direct-mapped caches (the L1-D and the E-cache of the simulated
//! UltraSPARC-1) are the `associativity = 1` special case. The cache
//! stores no data — only which physical lines are resident and whether
//! they are dirty — which is all the locality experiments need.

use crate::SimError;

/// Geometry of one cache level, in its index-native form: the address
/// split is `line` offset bits, then `log2(sets)` index bits, then the
/// tag. Capacity is the derived quantity (`sets × ways × line`), not a
/// stored one — `8192×1` (direct-mapped), `1024×8` (8-way), and `1×8192`
/// (fully associative) all describe the same 512 KiB of 64-byte lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets (1 = fully associative).
    pub sets: u64,
    /// Number of ways per set (1 = direct-mapped).
    pub ways: u64,
    /// Line size in bytes.
    pub line: u64,
}

impl CacheGeometry {
    /// The largest cache a geometry may describe, in lines (64 MiB of
    /// 64-byte lines, 128 E-caches): the footprint model's own cap,
    /// `ModelParams::MAX_LINES`. The tag store is allocated up front at
    /// 16 bytes a line per processor, so an uncapped `sets × ways` from a
    /// command line is an allocation failure — an abort, not an error.
    pub const MAX_LINES: u64 = locality_core::ModelParams::MAX_LINES as u64;

    /// Creates and validates a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadGeometry`] if any parameter is zero or not a
    /// power of two, or the capacity is over the cap.
    pub fn new(sets: u64, ways: u64, line: u64) -> Result<Self, SimError> {
        let geom = CacheGeometry { sets, ways, line };
        geom.validate()?;
        Ok(geom)
    }

    /// Validates the geometry: all three parameters must be non-zero
    /// powers of two, `sets × ways` at most [`MAX_LINES`](Self::MAX_LINES),
    /// and the capacity in bytes representable — so [`lines`](Self::lines)
    /// and [`size_bytes`](Self::size_bytes) cannot wrap on a validated
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadGeometry`] on any violation.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [("sets", self.sets), ("ways", self.ways), ("line", self.line)] {
            if v == 0 || !v.is_power_of_two() {
                return Err(SimError::BadGeometry {
                    reason: format!("{name} = {v} must be a non-zero power of two"),
                });
            }
        }
        let lines = self.sets.checked_mul(self.ways).filter(|&n| n <= Self::MAX_LINES);
        if lines.and_then(|n| n.checked_mul(self.line)).is_none() {
            return Err(SimError::BadGeometry {
                reason: format!(
                    "{} sets x {} ways of {} bytes is over the cap of {} lines",
                    self.sets,
                    self.ways,
                    self.line,
                    Self::MAX_LINES
                ),
            });
        }
        Ok(())
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.sets * self.ways * self.line
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.sets * self.ways
    }
}

/// Result of inserting a line: what, if anything, was displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The displaced physical line number.
    pub pline: u64,
    /// Whether it was dirty (would be written back).
    pub dirty: bool,
}

/// Sentinel for a vacant way. Tags are stored as `pline + 1` so the
/// vacant encoding is zero: a freshly built tag array is all-zero and the
/// allocator can hand back untouched (lazily zeroed) pages instead of a
/// real fill — machine construction sits inside the benchmarks' timed
/// region. The `+ 1` cannot overflow: that would need a physical address
/// within one line of the top of the 64-bit space.
const EMPTY: u64 = 0;

/// Tag encoding of a physical line number (see [`EMPTY`]).
#[inline(always)]
fn tag_of(pline: u64) -> u64 {
    pline + 1
}

/// A set-associative cache tracking resident physical line numbers.
///
/// Storage is structure-of-arrays: the tag array (`plines`) is one `u64`
/// per way, so the hot probe path touches 8 bytes per way instead of a
/// padded tag/dirty/LRU record; the dirty bits and LRU timestamps live in
/// side arrays only read on the insert/eviction paths.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `sets − 1`; the validated geometry makes `sets` a power of two, so
    /// set selection is a mask instead of a modulo on the access path.
    set_mask: u64,
    /// Tag per way (`pline + 1`, [`EMPTY`] = vacant), row-major by set.
    plines: Vec<u64>,
    /// Dirty flag per way (meaningless where `plines` is [`EMPTY`]).
    dirty: Vec<bool>,
    /// LRU timestamp per way (global monotone counter; unused, and left
    /// untouched, for direct-mapped geometries).
    last_use: Vec<u64>,
    tick: u64,
    resident: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(geometry: CacheGeometry) -> Self {
        let n = geometry.lines() as usize;
        Cache {
            geometry,
            set_mask: geometry.sets - 1,
            plines: vec![EMPTY; n], // all-zero: backed by untouched pages
            dirty: vec![false; n],
            // Direct-mapped caches never consult LRU state; skip the
            // allocation (every `last_use` access is behind a
            // `ways > 1` guard).
            last_use: if geometry.ways == 1 { Vec::new() } else { vec![0; n] },
            tick: 0,
            resident: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    #[inline]
    fn set_of(&self, pline: u64) -> usize {
        (pline & self.set_mask) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.geometry.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// Looks the line up and, on a hit, refreshes its LRU position.
    /// Returns `true` on hit.
    #[inline(always)]
    pub fn probe(&mut self, pline: u64) -> bool {
        // Direct-mapped: one way per set, so LRU state can never affect a
        // victim choice — a probe is a single tag load and compare, with
        // no timestamp maintenance (the probed line stays clean in the
        // host cache).
        if self.geometry.ways == 1 {
            return self.plines[(pline & self.set_mask) as usize] == tag_of(pline);
        }
        self.tick += 1;
        let tick = self.tick;
        let tag = tag_of(pline);
        let range = self.set_range(self.set_of(pline));
        for i in range {
            if self.plines[i] == tag {
                self.last_use[i] = tick;
                return true;
            }
        }
        false
    }

    /// Whether the line is resident, without touching LRU state.
    pub fn contains(&self, pline: u64) -> bool {
        let range = self.set_range(self.set_of(pline));
        self.plines[range].contains(&tag_of(pline))
    }

    /// Marks a resident line dirty. Returns `true` if the line was found.
    pub fn mark_dirty(&mut self, pline: u64) -> bool {
        let tag = tag_of(pline);
        let range = self.set_range(self.set_of(pline));
        for i in range {
            if self.plines[i] == tag {
                self.dirty[i] = true;
                return true;
            }
        }
        false
    }

    /// Inserts the line (it must not already be resident — use
    /// [`probe`](Self::probe) first), evicting the LRU way of its set if
    /// the set is full. Returns the eviction, if any.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already resident.
    pub fn insert(&mut self, pline: u64, dirty: bool) -> Option<Eviction> {
        debug_assert!(!self.contains(pline), "line {pline:#x} already resident");
        // Direct-mapped: the single way of the set is the victim; no LRU
        // scan or timestamp needed.
        if self.geometry.ways == 1 {
            let set = (pline & self.set_mask) as usize;
            let old = self.plines[set];
            let old_dirty = self.dirty[set];
            self.plines[set] = tag_of(pline);
            self.dirty[set] = dirty;
            return if old == EMPTY {
                self.resident += 1;
                None
            } else {
                Some(Eviction { pline: old - 1, dirty: old_dirty })
            };
        }
        self.tick += 1;
        let range = self.set_range(self.set_of(pline));

        // Empty way first; otherwise evict the LRU way. The set range is
        // never empty (geometry validation keeps `ways ≥ 1`), so seeding
        // the victim with the first index is always in range and the
        // fallthrough below only runs when every way is occupied.
        let mut victim = range.start;
        let mut victim_use = u64::MAX;
        for i in range {
            if self.plines[i] == EMPTY {
                self.plines[i] = tag_of(pline);
                self.dirty[i] = dirty;
                self.last_use[i] = self.tick;
                self.resident += 1;
                return None;
            }
            if self.last_use[i] < victim_use {
                victim_use = self.last_use[i];
                victim = i;
            }
        }
        let evicted = Eviction { pline: self.plines[victim] - 1, dirty: self.dirty[victim] };
        self.plines[victim] = tag_of(pline);
        self.dirty[victim] = dirty;
        self.last_use[victim] = self.tick;
        Some(evicted)
    }

    /// Fused lookup-plus-fill: probes for the line and, on a miss, inserts
    /// it in the same step. Returns `(hit, eviction)`. On a hit the dirty
    /// bit is set when `dirty` is passed (a store) and left untouched
    /// otherwise (a load) — exactly `probe` + `mark_dirty`/`insert`,
    /// which the set-associative path literally is; the direct-mapped
    /// path just avoids recomputing the set and reloading the tag.
    #[inline(always)]
    pub fn probe_or_fill(&mut self, pline: u64, dirty: bool) -> (bool, Option<Eviction>) {
        if self.geometry.ways == 1 {
            let set = (pline & self.set_mask) as usize;
            let tag = tag_of(pline);
            let old = self.plines[set];
            if old == tag {
                if dirty {
                    self.dirty[set] = true;
                }
                return (true, None);
            }
            let old_dirty = self.dirty[set];
            self.plines[set] = tag;
            self.dirty[set] = dirty;
            return if old == EMPTY {
                self.resident += 1;
                (false, None)
            } else {
                (false, Some(Eviction { pline: old - 1, dirty: old_dirty }))
            };
        }
        if self.probe(pline) {
            if dirty {
                self.mark_dirty(pline);
            }
            (true, None)
        } else {
            (false, self.insert(pline, dirty))
        }
    }

    /// Removes the line if resident; returns whether it was dirty.
    pub fn invalidate(&mut self, pline: u64) -> Option<bool> {
        let tag = tag_of(pline);
        let range = self.set_range(self.set_of(pline));
        for i in range {
            if self.plines[i] == tag {
                self.plines[i] = EMPTY;
                self.resident -= 1;
                return Some(self.dirty[i]);
            }
        }
        None
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> u64 {
        self.resident
    }

    /// Iterates over resident physical line numbers (set order).
    pub fn iter_resident(&self) -> impl Iterator<Item = u64> + '_ {
        self.plines.iter().copied().filter(|&p| p != EMPTY).map(|p| p - 1)
    }

    /// Empties the cache (e.g. between experiment phases, mirroring the
    /// paper's "state is flushed from the cache" setup for Figure 5).
    pub fn flush(&mut self) {
        self.plines.fill(EMPTY);
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_cache(lines: u64) -> Cache {
        Cache::new(CacheGeometry::new(lines, 1, 64).unwrap())
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(8192, 1, 64).is_ok());
        assert!(CacheGeometry::new(0, 1, 64).is_err());
        assert!(CacheGeometry::new(1024, 1, 0).is_err());
        assert!(CacheGeometry::new(1024, 0, 64).is_err());
        assert!(CacheGeometry::new(1000, 1, 64).is_err(), "non power of two");
        // The cap, a line count that wraps to 0, and a byte count that wraps.
        let max = CacheGeometry::MAX_LINES;
        assert!(CacheGeometry::new(max / 4, 4, 64).is_ok());
        assert!(CacheGeometry::new(max / 2, 4, 64).is_err());
        assert!(CacheGeometry::new(1 << 62, 4, 64).is_err());
        assert!(CacheGeometry::new(max, 1, 1 << 44).is_err());
    }

    #[test]
    fn geometry_derived_quantities() {
        let g = CacheGeometry::new(8192, 1, 64).unwrap();
        assert_eq!(g.lines(), 8192);
        assert_eq!(g.size_bytes(), 512 * 1024);
        let g = CacheGeometry::new(256, 2, 32).unwrap();
        assert_eq!(g.lines(), 512);
        assert_eq!(g.size_bytes(), 16 * 1024);
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut c = dm_cache(16);
        assert!(!c.probe(5));
        assert_eq!(c.insert(5, false), None);
        assert!(c.probe(5));
        assert!(c.contains(5));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = dm_cache(16);
        c.insert(3, false);
        // 3 and 19 share set 3 in a 16-set direct-mapped cache.
        let ev = c.insert(19, false).expect("conflict must evict");
        assert_eq!(ev.pline, 3);
        assert!(!ev.dirty);
        assert!(!c.contains(3));
        assert!(c.contains(19));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = dm_cache(16);
        c.insert(3, false);
        assert!(c.mark_dirty(3));
        let ev = c.insert(19, false).unwrap();
        assert!(ev.dirty);
        assert!(!c.mark_dirty(3), "gone after eviction");
    }

    #[test]
    fn lru_in_two_way_set() {
        let g = CacheGeometry::new(4, 2, 64).unwrap(); // 4 sets, 2 ways
        let mut c = Cache::new(g);
        // Lines 0, 4, 8 all map to set 0.
        c.insert(0, false);
        c.insert(4, false);
        assert!(c.probe(0)); // 0 becomes MRU; 4 is LRU
        let ev = c.insert(8, false).unwrap();
        assert_eq!(ev.pline, 4, "LRU way must be evicted");
        assert!(c.contains(0) && c.contains(8));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = dm_cache(8);
        c.insert(1, false);
        c.insert(2, true);
        assert_eq!(c.invalidate(2), Some(true));
        assert_eq!(c.invalidate(2), None);
        assert_eq!(c.invalidate(1), Some(false));
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn iter_resident_and_flush() {
        let mut c = dm_cache(8);
        for l in [1u64, 2, 5] {
            c.insert(l, false);
        }
        let mut res: Vec<u64> = c.iter_resident().collect();
        res.sort_unstable();
        assert_eq!(res, vec![1, 2, 5]);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.iter_resident().count(), 0);
    }

    #[test]
    fn fills_whole_cache_without_evictions() {
        let mut c = dm_cache(32);
        for l in 0..32u64 {
            assert_eq!(c.insert(l, false), None);
        }
        assert_eq!(c.resident_lines(), 32);
        // The 33rd distinct line must evict.
        assert!(c.insert(32, false).is_some());
    }
}
