//! A set-associative translation lookaside buffer with true-LRU
//! replacement.
//!
//! The TLB caches virtual-page-number translations per processor. Like
//! [`Cache`](crate::Cache) it stores no frame numbers — the simulated
//! page table never remaps a page once allocated, so the TLB only has to
//! model *reach*: which translations are held, and whether an access pays
//! the page-table-walk latency. The default configuration is the
//! UltraSPARC-style fully associative 64-entry dTLB with a zero-cycle
//! walk, which leaves every historical cycle count byte-identical while
//! still exposing hit/miss reach counters.
//!
//! The machine probes the TLB whenever the accessed page changes, which
//! pointer-chasing code does on almost every reference, so a hit must not
//! cost a walk of the set. [`Tlb::probe`] first looks where a page with
//! the same low VPN bits was last found or installed (a 256-slot table of
//! entry indices) and compares that one entry's tag; only when it differs
//! does it walk the set, as it always does on a miss. A page is held in at
//! most one entry, so a matching hinted entry *is* the entry the walk
//! would stop at: the verdict, the `last_use` slot written and the tick
//! written into it are the walk's, and with them every later LRU victim.
//! The table is a guess that is checked, never a second source of truth —
//! eviction and [`Tlb::flush`] leave it stale and the tag compare rejects
//! it, and entries past index 255 of a large TLB are simply never hinted.

use crate::SimError;

/// Geometry and walk cost of one processor's TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets (1 = fully associative).
    pub sets: u64,
    /// Number of ways per set.
    pub ways: u64,
    /// Cycles charged for the page-table walk on a TLB miss.
    pub walk_cycles: u64,
}

impl Default for TlbConfig {
    /// Fully associative, 64 entries, free walks — the configuration that
    /// reproduces the pre-TLB simulator's cycle counts exactly.
    fn default() -> Self {
        TlbConfig { sets: 1, ways: 64, walk_cycles: 0 }
    }
}

impl TlbConfig {
    /// The largest TLB a configuration may describe, in entries (three
    /// orders of magnitude past any real one). The entry arrays are
    /// allocated up front at 16 bytes an entry per processor, and a
    /// `sets × ways` that wraps would index out of them.
    pub const MAX_ENTRIES: u64 = 1 << 20;

    /// Validates the geometry: sets and ways must be non-zero powers of
    /// two and `sets × ways` at most [`MAX_ENTRIES`](Self::MAX_ENTRIES),
    /// so [`entries`](Self::entries) cannot wrap on a validated value.
    /// `MachineConfig::validate` bounds the walk latency with the others.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadGeometry`] on any violation.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [("tlb sets", self.sets), ("tlb ways", self.ways)] {
            if v == 0 || !v.is_power_of_two() {
                return Err(SimError::BadGeometry {
                    reason: format!("{name} = {v} must be a non-zero power of two"),
                });
            }
        }
        if self.sets.checked_mul(self.ways).is_none_or(|n| n > Self::MAX_ENTRIES) {
            return Err(SimError::BadGeometry {
                reason: format!(
                    "tlb of {} sets x {} ways is over the cap of {} entries",
                    self.sets,
                    self.ways,
                    Self::MAX_ENTRIES
                ),
            });
        }
        Ok(())
    }

    /// Total number of entries.
    pub fn entries(&self) -> u64 {
        self.sets * self.ways
    }
}

/// Sentinel for a vacant way: VPNs are stored as `vpn + 1` so a freshly
/// zeroed entry array means "all vacant" (same trick as the cache tag
/// store).
const EMPTY: u64 = 0;

#[inline(always)]
fn tag_of(vpn: u64) -> u64 {
    vpn + 1
}

/// Slots in the hint table, indexed by the low bits of the VPN.
const HINT_SLOTS: usize = 256;

/// One processor's TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// `sets − 1` (sets is a validated power of two).
    set_mask: u64,
    /// VPN tag per way (`vpn + 1`, [`EMPTY`] = vacant), row-major by set.
    vpns: Vec<u64>,
    /// LRU timestamp per way.
    last_use: Vec<u64>,
    tick: u64,
    /// Where a page with these low VPN bits was last found or installed:
    /// an index into `vpns`. Only a guess — [`probe`](Self::probe) trusts
    /// it when `vpns` at that index still holds the probed tag, so
    /// eviction, aliasing pages and [`flush`](Self::flush) need no
    /// invalidation, and an entry past `u8::MAX` is simply never hinted.
    hint: [u8; HINT_SLOTS],
}

impl Tlb {
    /// Creates an empty TLB from a validated configuration.
    pub fn new(config: TlbConfig) -> Self {
        let n = config.entries() as usize;
        Tlb {
            config,
            set_mask: config.sets - 1,
            vpns: vec![EMPTY; n],
            last_use: vec![0; n],
            tick: 0,
            hint: [0; HINT_SLOTS],
        }
    }

    /// The TLB configuration.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Cycles charged on a miss (the page-table walk).
    #[inline]
    pub fn walk_cycles(&self) -> u64 {
        self.config.walk_cycles
    }

    fn set_range(&self, vpn: u64) -> std::ops::Range<usize> {
        let set = (vpn & self.set_mask) as usize;
        let ways = self.config.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// Remembers that `vpn` lives at entry `i`, if the hint can name it.
    #[inline]
    fn remember(&mut self, vpn: u64, i: usize) {
        if let Ok(way) = u8::try_from(i) {
            self.hint[vpn as usize % HINT_SLOTS] = way;
        }
    }

    /// Looks the translation up and, on a hit, refreshes its LRU
    /// position. Returns `true` on hit.
    ///
    /// A page is held in at most one entry, so the hinted entry, when its
    /// tag matches, is the entry the set walk would have stopped at: the
    /// verdict and the `last_use` slot written are the walk's.
    #[inline]
    pub fn probe(&mut self, vpn: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let tag = tag_of(vpn);
        let hinted = usize::from(self.hint[vpn as usize % HINT_SLOTS]);
        if self.vpns[hinted] == tag {
            self.last_use[hinted] = tick;
            return true;
        }
        for i in self.set_range(vpn) {
            if self.vpns[i] == tag {
                self.last_use[i] = tick;
                self.remember(vpn, i);
                return true;
            }
        }
        false
    }

    /// Whether the translation is held, without touching LRU state.
    pub fn contains(&self, vpn: u64) -> bool {
        let range = self.set_range(vpn);
        self.vpns[range].contains(&tag_of(vpn))
    }

    /// Installs a translation after a walk (the VPN must not already be
    /// held — [`probe`](Self::probe) first), evicting the LRU way of its
    /// set if the set is full. Returns the displaced VPN, if any.
    pub fn insert(&mut self, vpn: u64) -> Option<u64> {
        debug_assert!(!self.contains(vpn), "vpn {vpn:#x} already held");
        self.tick += 1;
        let range = self.set_range(vpn);
        let mut victim = range.start;
        let mut victim_use = u64::MAX;
        for i in range {
            if self.vpns[i] == EMPTY {
                victim = i;
                break;
            }
            if self.last_use[i] < victim_use {
                victim_use = self.last_use[i];
                victim = i;
            }
        }
        let displaced = self.vpns[victim].checked_sub(1);
        self.vpns[victim] = tag_of(vpn);
        self.last_use[victim] = self.tick;
        self.remember(vpn, victim);
        displaced
    }

    /// Number of held translations.
    pub fn resident_entries(&self) -> u64 {
        self.vpns.iter().filter(|&&v| v != EMPTY).count() as u64
    }

    /// Drops every translation (e.g. alongside a cache flush).
    pub fn flush(&mut self) {
        self.vpns.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_pre_tlb_behaviour() {
        let c = TlbConfig::default();
        assert_eq!(c.entries(), 64);
        assert_eq!(c.walk_cycles, 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn config_validation() {
        assert!(TlbConfig { sets: 0, ways: 4, walk_cycles: 0 }.validate().is_err());
        assert!(TlbConfig { sets: 4, ways: 0, walk_cycles: 0 }.validate().is_err());
        assert!(TlbConfig { sets: 3, ways: 4, walk_cycles: 0 }.validate().is_err());
        assert!(TlbConfig { sets: 16, ways: 4, walk_cycles: 30 }.validate().is_ok());
        // The cap, and a product that wraps to 0 before it could be compared.
        let max = TlbConfig::MAX_ENTRIES;
        assert!(TlbConfig { sets: max / 4, ways: 4, walk_cycles: 0 }.validate().is_ok());
        assert!(TlbConfig { sets: max / 2, ways: 4, walk_cycles: 0 }.validate().is_err());
        assert!(TlbConfig { sets: 1 << 62, ways: 4, walk_cycles: 0 }.validate().is_err());
    }

    #[test]
    fn probe_miss_insert_hit() {
        let mut t = Tlb::new(TlbConfig::default());
        assert!(!t.probe(7));
        assert_eq!(t.insert(7), None);
        assert!(t.probe(7));
        assert!(t.contains(7));
        assert_eq!(t.resident_entries(), 1);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // 2 sets × 2 ways: VPNs 0, 2, 4 all map to set 0.
        let mut t = Tlb::new(TlbConfig { sets: 2, ways: 2, walk_cycles: 0 });
        t.insert(0);
        t.insert(2);
        assert!(t.probe(0)); // 0 becomes MRU; 2 is LRU
        assert_eq!(t.insert(4), Some(2), "LRU way must be displaced");
        assert!(t.contains(0) && t.contains(4) && !t.contains(2));
    }

    #[test]
    fn reach_is_bounded_by_entries() {
        let mut t = Tlb::new(TlbConfig { sets: 4, ways: 2, walk_cycles: 0 });
        for vpn in 0..64u64 {
            if !t.probe(vpn) {
                t.insert(vpn);
            }
        }
        assert_eq!(t.resident_entries(), 8, "reach can never exceed sets × ways");
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(TlbConfig::default());
        t.insert(1);
        t.insert(2);
        t.flush();
        assert_eq!(t.resident_entries(), 0);
        assert!(!t.contains(1));
    }
}
