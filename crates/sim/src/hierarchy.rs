//! One processor's cache hierarchy: L1-I, L1-D, unified L2, and the PIC
//! block, with L2 inclusion over both L1s.
//!
//! The L1 data cache is write-through / no-write-allocate (UltraSPARC-1),
//! so every store references the E-cache; the E-cache is write-back and
//! write-allocate. When an L2 line is evicted or invalidated, the covered
//! L1 lines are invalidated too (inclusion).

use crate::cache::{Cache, Eviction};
use crate::config::HierarchyConfig;
use crate::counters::Pic;

/// What a single access did at the L2 level (for directory maintenance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2Change {
    /// Line brought into the L2 by this access.
    pub filled: Option<u64>,
    /// Line displaced from the L2 (inclusion already enforced).
    pub evicted: Option<Eviction>,
}

/// Outcome of one access against a [`CpuCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Hit in the relevant L1.
    pub l1_hit: bool,
    /// Whether the E-cache was referenced.
    pub l2_ref: bool,
    /// Whether the E-cache reference hit (meaningless if `!l2_ref`).
    pub l2_hit: bool,
    /// L2 fill/eviction performed.
    pub change: L2Change,
}

/// The kind of access at the hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierAccess {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch.
    Fetch,
}

/// One processor's caches and counters.
#[derive(Debug, Clone)]
pub struct CpuCache {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    pic: Pic,
    /// `log2(line_bytes)` of the L1s / L2 — line sizes are validated
    /// powers of two, so line-number extraction is a shift, not a divide.
    l1_shift: u32,
    l2_shift: u32,
}

impl CpuCache {
    /// Builds the hierarchy from a validated configuration.
    pub fn new(config: &HierarchyConfig) -> Self {
        CpuCache {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            pic: Pic::new(),
            l1_shift: config.l1d.line.trailing_zeros(),
            l2_shift: config.l2.line.trailing_zeros(),
        }
    }

    /// The performance counters (read-only).
    pub fn pic(&self) -> &Pic {
        &self.pic
    }

    /// The performance counters (for interval reads / reconfiguration).
    pub fn pic_mut(&mut self) -> &mut Pic {
        &mut self.pic
    }

    /// The unified L2 (E-cache), read-only — used for footprint ground
    /// truth.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Performs one access at physical address `pa`.
    #[inline(always)]
    pub fn access(&mut self, pa: u64, kind: HierAccess) -> AccessOutcome {
        let outcome = self.access_quiet(pa, kind);
        if outcome.l2_ref {
            self.pic.record_l2(outcome.l2_hit);
        }
        outcome
    }

    /// [`access`](Self::access) without the PIC update. The run-level
    /// machine path accumulates E-cache refs/hits across a whole run and
    /// records them in one [`Pic::record_l2_bulk`] call; the final counter
    /// values are identical because the PIC is a pure event counter.
    #[inline(always)]
    pub fn access_quiet(&mut self, pa: u64, kind: HierAccess) -> AccessOutcome {
        let pline1 = pa >> self.l1_shift;
        let pline2 = pa >> self.l2_shift;
        match kind {
            HierAccess::Read => self.read_like(pline1, pline2, false),
            HierAccess::Fetch => self.read_like(pline1, pline2, true),
            HierAccess::Write => self.write(pline1, pline2),
        }
    }

    #[inline(always)]
    fn read_like(&mut self, pline1: u64, pline2: u64, fetch: bool) -> AccessOutcome {
        let l1 = if fetch { &mut self.l1i } else { &mut self.l1d };
        if l1.probe(pline1) {
            return AccessOutcome {
                l1_hit: true,
                l2_ref: false,
                l2_hit: false,
                change: L2Change::default(),
            };
        }
        let (l2_hit, evicted) = self.l2.probe_or_fill(pline2, false);
        let mut change = L2Change::default();
        if !l2_hit {
            if let Some(ev) = evicted {
                self.enforce_inclusion(ev.pline);
            }
            change = L2Change { filled: Some(pline2), evicted };
        }
        // The L1 read-allocates (a displaced L1 line is clean under
        // write-through and simply dropped) after the E-cache step, whose
        // inclusion purge may free a way of this line's set: filling first
        // would displace a line instead in the 2-way L1-I. The fused fill,
        // whose probe misses, keeps a direct-mapped fill inline.
        let l1 = if fetch { &mut self.l1i } else { &mut self.l1d };
        l1.probe_or_fill(pline1, false);
        AccessOutcome { l1_hit: false, l2_ref: true, l2_hit, change }
    }

    #[inline(always)]
    fn write(&mut self, pline1: u64, pline2: u64) -> AccessOutcome {
        // Write-through L1: update in place if present (stays clean), no
        // allocation on a write miss.
        let l1_hit = self.l1d.probe(pline1);
        // The store always references the E-cache: a hit marks the line
        // dirty, a miss write-allocates it dirty.
        let (l2_hit, evicted) = self.l2.probe_or_fill(pline2, true);
        let mut change = L2Change::default();
        if !l2_hit {
            if let Some(ev) = evicted {
                self.enforce_inclusion(ev.pline);
            }
            change = L2Change { filled: Some(pline2), evicted };
        }
        AccessOutcome { l1_hit, l2_ref: true, l2_hit, change }
    }

    /// Invalidates the L1 lines covered by an evicted/invalidated L2 line.
    /// An L1 that holds nothing is skipped: invalidating it would change
    /// nothing, LRU state included. No workload fetches, so their runs
    /// skip the L1-I at every eviction.
    #[inline(never)]
    fn enforce_inclusion(&mut self, pline2: u64) {
        let sublines = 1u64 << (self.l2_shift - self.l1_shift);
        let first = pline2 << (self.l2_shift - self.l1_shift);
        for l1 in [&mut self.l1d, &mut self.l1i] {
            if l1.resident_lines() > 0 {
                for pl1 in first..first + sublines {
                    l1.invalidate(pl1);
                }
            }
        }
    }

    /// Externally invalidates an L2 line (coherence). Returns `true` if
    /// the line was resident.
    pub fn invalidate_line(&mut self, pline2: u64) -> bool {
        if self.l2.invalidate(pline2).is_some() {
            self.enforce_inclusion(pline2);
            true
        } else {
            false
        }
    }

    /// Whether the L2 holds the line (no LRU side effects).
    pub fn l2_contains(&self, pline2: u64) -> bool {
        self.l2.contains(pline2)
    }

    /// Flushes all three caches.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuCache {
        CpuCache::new(&HierarchyConfig::ultrasparc1())
    }

    #[test]
    fn read_miss_then_hits() {
        let mut c = cpu();
        let o = c.access(0x1000, HierAccess::Read);
        assert!(!o.l1_hit && o.l2_ref && !o.l2_hit);
        assert_eq!(o.change.filled, Some(0x1000 / 64));
        // Same address: L1 hit, no L2 traffic.
        let o = c.access(0x1000, HierAccess::Read);
        assert!(o.l1_hit && !o.l2_ref);
        // Next L1 line within the same L2 line: L1 miss, L2 hit.
        let o = c.access(0x1020, HierAccess::Read);
        assert!(!o.l1_hit && o.l2_ref && o.l2_hit);
        assert_eq!(c.pic().refs(), 2);
        assert_eq!(c.pic().misses(), 1);
    }

    #[test]
    fn write_through_always_references_l2() {
        let mut c = cpu();
        c.access(0x2000, HierAccess::Read); // L1+L2 fill
        let o = c.access(0x2000, HierAccess::Write);
        assert!(o.l1_hit, "line is in L1");
        assert!(o.l2_ref && o.l2_hit, "write-through still references E-cache");
    }

    #[test]
    fn write_miss_does_not_allocate_l1() {
        let mut c = cpu();
        let o = c.access(0x3000, HierAccess::Write);
        assert!(!o.l1_hit && o.l2_ref && !o.l2_hit);
        // A read after the write: L1 must miss (no-write-allocate), L2 hit.
        let o = c.access(0x3000, HierAccess::Read);
        assert!(!o.l1_hit && o.l2_hit);
    }

    #[test]
    fn dirty_line_reported_on_eviction() {
        let mut c = cpu();
        c.access(0x4000, HierAccess::Write);
        // Conflict in the direct-mapped 512 KiB L2: same index, 512 KiB apart.
        let o = c.access(0x4000 + 512 * 1024, HierAccess::Read);
        let ev = o.change.evicted.expect("conflict eviction");
        assert_eq!(ev.pline, 0x4000 / 64);
        assert!(ev.dirty, "written line must evict dirty");
    }

    #[test]
    fn inclusion_invalidates_l1_on_l2_eviction() {
        let mut c = cpu();
        c.access(0x5000, HierAccess::Read); // in L1D and L2
        c.access(0x5000 + 512 * 1024, HierAccess::Read); // evicts L2 line
                                                         // The L1 copy must be gone: a re-read misses both.
        let o = c.access(0x5000, HierAccess::Read);
        assert!(!o.l1_hit, "inclusion must purge the L1 copy");
        assert!(!o.l2_hit);
    }

    #[test]
    fn inclusion_purge_frees_an_l1i_way_before_the_fill() {
        // 0x2000 and 0 share an L1-I set (two ways); 512 KiB displaces 0
        // from the direct-mapped E-cache and so from the L1-I, and then
        // takes the freed way: 0x2000, the older line, stays.
        let mut c = cpu();
        for pa in [0x2000, 0, 512 * 1024] {
            assert!(!c.access(pa, HierAccess::Fetch).l1_hit);
        }
        assert!(c.access(0x2000, HierAccess::Fetch).l1_hit);
        assert!(!c.access(0, HierAccess::Fetch).l1_hit);
    }

    #[test]
    fn fetches_use_l1i() {
        let mut c = cpu();
        let o = c.access(0x6000, HierAccess::Fetch);
        assert!(!o.l1_hit && o.l2_ref);
        let o = c.access(0x6000, HierAccess::Fetch);
        assert!(o.l1_hit);
        // A data read of the same address misses L1D but hits the unified L2.
        let o = c.access(0x6000, HierAccess::Read);
        assert!(!o.l1_hit && o.l2_hit);
    }

    #[test]
    fn external_invalidation() {
        let mut c = cpu();
        c.access(0x7000, HierAccess::Read);
        assert!(c.l2_contains(0x7000 / 64));
        assert!(c.invalidate_line(0x7000 / 64));
        assert!(!c.l2_contains(0x7000 / 64));
        assert!(!c.invalidate_line(0x7000 / 64), "already gone");
        // The L1 copy is gone too (inclusion).
        let o = c.access(0x7000, HierAccess::Read);
        assert!(!o.l1_hit && !o.l2_hit);
    }

    #[test]
    fn flush_empties_everything() {
        let mut c = cpu();
        for a in (0..4096u64).step_by(64) {
            c.access(a, HierAccess::Read);
        }
        assert!(c.l2().resident_lines() > 0);
        c.flush();
        assert_eq!(c.l2().resident_lines(), 0);
        let o = c.access(0, HierAccess::Read);
        assert!(!o.l1_hit && !o.l2_hit);
    }
}
