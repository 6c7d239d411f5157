//! Machine configurations, including the paper's two platforms.
//!
//! Table 1 of the paper gives the simulated UltraSPARC-1 memory hierarchy;
//! §5 adds the Enterprise 5000 numbers (E-cache miss of 50 cycles, or 80
//! if the line is cached by another processor) and the interconnect.

use crate::cache::CacheGeometry;
use crate::paging::PagePlacement;
use crate::tlb::TlbConfig;
use crate::SimError;

/// Cycle costs of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLatencies {
    /// An access that hits in the L1 (data or instruction).
    pub l1_hit: u64,
    /// An L1 miss that hits in the unified E-cache (paper: 3 cycles).
    pub l2_hit: u64,
    /// An E-cache miss served from memory (Ultra-1: 42; E5000: 50).
    pub l2_miss: u64,
    /// An E-cache miss for a line currently cached by *another* processor
    /// (E5000: 80; equal to `l2_miss` on single-processor machines).
    pub l2_miss_remote: u64,
}

impl CacheLatencies {
    /// The largest cost, in cycles, of any one latency and of the TLB's
    /// `walk_cycles` (three orders of magnitude past a real memory). At
    /// that cost a `u64` cycle count still takes 2⁴⁴ accesses to wrap; an
    /// unbounded one overflows on the first access that pays it.
    pub const MAX_CYCLES: u64 = 1 << 20;
}

/// Geometries of the three caches of one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache (Table 1: 16 KiB, 2-way, 32-byte lines).
    pub l1i: CacheGeometry,
    /// L1 data cache (Table 1: 16 KiB, direct-mapped, 32-byte lines,
    /// write-through).
    pub l1d: CacheGeometry,
    /// Unified external (L2) E-cache (Table 1: 512 KiB, direct-mapped,
    /// 64-byte lines, write-back, inclusive of both L1s).
    pub l2: CacheGeometry,
}

impl HierarchyConfig {
    /// The Table 1 UltraSPARC-1 hierarchy.
    pub fn ultrasparc1() -> Self {
        HierarchyConfig {
            l1i: CacheGeometry { sets: 256, ways: 2, line: 32 },
            l1d: CacheGeometry { sets: 512, ways: 1, line: 32 },
            l2: CacheGeometry { sets: 8192, ways: 1, line: 64 },
        }
    }

    /// Validates all three geometries and the inclusion requirement
    /// (L2 line size must be a multiple of the L1 line sizes).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadGeometry`] on any violation.
    pub fn validate(&self) -> Result<(), SimError> {
        self.l1i.validate()?;
        self.l1d.validate()?;
        self.l2.validate()?;
        if !self.l2.line.is_multiple_of(self.l1d.line)
            || !self.l2.line.is_multiple_of(self.l1i.line)
        {
            return Err(SimError::BadGeometry {
                reason: "L2 line size must be a multiple of the L1 line sizes (inclusion)".into(),
            });
        }
        Ok(())
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of processors.
    pub cpus: usize,
    /// Per-processor cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Cycle costs.
    pub latencies: CacheLatencies,
    /// Page size in bytes (UltraSPARC/Solaris: 8 KiB).
    pub page_bytes: u64,
    /// Virtual→physical page placement policy.
    pub placement: PagePlacement,
    /// Per-processor TLB geometry and walk latency.
    pub tlb: TlbConfig,
}

impl MachineConfig {
    /// The paper's single-processor platform: a stand-alone 167 MHz
    /// UltraSPARC-1 workstation (Table 1: E-cache miss penalty 42 cycles).
    pub fn ultra1() -> Self {
        MachineConfig {
            cpus: 1,
            hierarchy: HierarchyConfig::ultrasparc1(),
            latencies: CacheLatencies { l1_hit: 1, l2_hit: 3, l2_miss: 42, l2_miss_remote: 42 },
            page_bytes: 8 * 1024,
            placement: PagePlacement::bin_hopping(),
            tlb: TlbConfig::default(),
        }
    }

    /// The paper's multiprocessor platform: an `cpus`-way Sun Enterprise
    /// 5000 (E-cache miss: 50 cycles, or 80 if the line is cached by
    /// another processor). The paper uses 8 processors.
    pub fn enterprise5000(cpus: usize) -> Self {
        MachineConfig {
            cpus,
            hierarchy: HierarchyConfig::ultrasparc1(),
            latencies: CacheLatencies { l1_hit: 1, l2_hit: 3, l2_miss: 50, l2_miss_remote: 80 },
            page_bytes: 8 * 1024,
            placement: PagePlacement::bin_hopping(),
            tlb: TlbConfig::default(),
        }
    }

    /// Replaces the page placement policy (builder-style).
    #[must_use]
    pub fn with_placement(mut self, placement: PagePlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Replaces the E-cache geometry (builder-style). Line size and the
    /// L1s are untouched, so Table 1 inclusion still validates.
    #[must_use]
    pub fn with_l2_geometry(mut self, l2: CacheGeometry) -> Self {
        self.hierarchy.l2 = l2;
        self
    }

    /// Replaces the page size (builder-style).
    #[must_use]
    pub fn with_page_size(mut self, page_bytes: u64) -> Self {
        self.page_bytes = page_bytes;
        self
    }

    /// Replaces the TLB configuration (builder-style).
    #[must_use]
    pub fn with_tlb(mut self, tlb: TlbConfig) -> Self {
        self.tlb = tlb;
        self
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCpus`], [`SimError::BadGeometry`] or
    /// [`SimError::BadLatency`] (a latency or the TLB walk over
    /// [`CacheLatencies::MAX_CYCLES`]).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.cpus == 0 {
            return Err(SimError::NoCpus);
        }
        self.hierarchy.validate()?;
        if self.page_bytes == 0 || !self.page_bytes.is_power_of_two() {
            return Err(SimError::BadGeometry {
                reason: format!("page size {} must be a power of two", self.page_bytes),
            });
        }
        // A page that holds less than a line maps several virtual lines
        // onto one physical line: references alias, and a walk that waits
        // for a miss count never ends.
        let h = &self.hierarchy;
        let line = h.l1i.line.max(h.l1d.line).max(h.l2.line);
        if self.page_bytes < line {
            return Err(SimError::BadGeometry {
                reason: format!(
                    "page size {} is smaller than the {line}-byte cache line",
                    self.page_bytes
                ),
            });
        }
        self.tlb.validate()?;
        let l = self.latencies;
        let names = ["l1_hit", "l2_hit", "l2_miss", "l2_miss_remote", "tlb walk_cycles"];
        let costs = [l.l1_hit, l.l2_hit, l.l2_miss, l.l2_miss_remote, self.tlb.walk_cycles];
        if let Some((&name, &cycles)) =
            names.iter().zip(&costs).find(|&(_, &c)| c > CacheLatencies::MAX_CYCLES)
        {
            return Err(SimError::BadLatency { name, cycles });
        }
        Ok(())
    }

    /// Number of E-cache lines `N` — the cache-model parameter.
    pub fn l2_lines(&self) -> usize {
        self.hierarchy.l2.lines() as usize
    }

    /// Number of page-sized bins in the L2 cache (for placement policies).
    pub fn l2_page_bins(&self) -> u64 {
        (self.hierarchy.l2.size_bytes() / self.page_bytes).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ultra1_matches_table1() {
        let c = MachineConfig::ultra1();
        assert_eq!(c.cpus, 1);
        assert_eq!(c.hierarchy.l2.size_bytes(), 512 * 1024);
        assert_eq!(c.hierarchy.l2.line, 64);
        assert_eq!(c.hierarchy.l2.ways, 1);
        assert_eq!(c.tlb, TlbConfig::default());
        assert_eq!(c.l2_lines(), 8192);
        assert_eq!(c.latencies.l2_hit, 3);
        assert_eq!(c.latencies.l2_miss, 42);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn e5000_miss_costs() {
        let c = MachineConfig::enterprise5000(8);
        assert_eq!(c.cpus, 8);
        assert_eq!(c.latencies.l2_miss, 50);
        assert_eq!(c.latencies.l2_miss_remote, 80);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = MachineConfig::ultra1();
        c.cpus = 0;
        assert_eq!(c.validate(), Err(SimError::NoCpus));

        let mut c = MachineConfig::ultra1();
        c.page_bytes = 3000;
        assert!(c.validate().is_err());

        for page_bytes in [1, 32] {
            let err = MachineConfig::ultra1().with_page_size(page_bytes).validate().unwrap_err();
            assert!(err.to_string().contains("64-byte cache line"), "{err}");
        }
        assert!(MachineConfig::ultra1().with_page_size(64).validate().is_ok());

        let mut c = MachineConfig::ultra1();
        c.hierarchy.l1d.line = 128; // larger than the L2 line
        assert!(c.validate().is_err());

        let mut c = MachineConfig::ultra1();
        c.tlb.ways = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_bounds_latencies() {
        // Unbounded, either overflows a cycle count on the first access
        // that pays it.
        let mut c = MachineConfig::ultra1();
        c.latencies.l2_miss = u64::MAX;
        assert!(matches!(c.validate(), Err(SimError::BadLatency { name: "l2_miss", .. })));
        let mut c = MachineConfig::ultra1();
        c.tlb.walk_cycles = u64::MAX;
        assert!(matches!(c.validate(), Err(SimError::BadLatency { name: "tlb walk_cycles", .. })));
        c.tlb.walk_cycles = CacheLatencies::MAX_CYCLES;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn page_bins() {
        let c = MachineConfig::ultra1();
        assert_eq!(c.l2_page_bins(), 64); // 512 KiB / 8 KiB
    }

    #[test]
    fn l1_geometries_match_table1() {
        let h = HierarchyConfig::ultrasparc1();
        assert_eq!(h.l1i.size_bytes(), 16 * 1024);
        assert_eq!(h.l1i.ways, 2);
        assert_eq!(h.l1i.line, 32);
        assert_eq!(h.l1d.ways, 1);

        let c = MachineConfig::ultra1()
            .with_l2_geometry(CacheGeometry { sets: 1024, ways: 8, line: 64 })
            .with_page_size(4096)
            .with_tlb(TlbConfig { sets: 16, ways: 4, walk_cycles: 30 });
        assert!(c.validate().is_ok());
        assert_eq!(c.l2_lines(), 8192);
        assert_eq!(c.l2_page_bins(), 128);
    }
}
