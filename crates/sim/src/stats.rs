//! Per-processor and per-thread event accounting.
//!
//! These counters are the *simulator's* omniscient view (used by the
//! figures and the harness); the scheduling policies themselves only ever
//! see the [`crate::Pic`] counters, like on real hardware.

/// Events observed by one processor since machine creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// L1 data-cache references.
    pub l1d_refs: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L1 instruction-cache references.
    pub l1i_refs: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// E-cache (L2) references.
    pub l2_refs: u64,
    /// E-cache hits.
    pub l2_hits: u64,
    /// E-cache misses.
    pub l2_misses: u64,
    /// E-cache misses satisfied while another processor cached the line
    /// (the E5000's 80-cycle case).
    pub l2_misses_remote: u64,
    /// Lines invalidated in this processor's caches by other processors'
    /// writes.
    pub invalidations: u64,
    /// Instructions executed (memory accesses + compute).
    pub instructions: u64,
    /// Cycles charged for memory accesses on this processor.
    pub mem_cycles: u64,
    /// TLB hits (probes only fire on page transitions).
    pub tlb_hits: u64,
    /// TLB misses (each pays a page-table walk).
    pub tlb_misses: u64,
    /// Cycles spent in page-table walks (0 under the default free-walk
    /// TLB configuration).
    pub tlb_walk_cycles: u64,
}

/// Events attributed to one thread (wherever it ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Memory accesses issued.
    pub accesses: u64,
    /// E-cache references caused.
    pub l2_refs: u64,
    /// E-cache misses caused.
    pub l2_misses: u64,
    /// Instructions executed (accesses + compute).
    pub instructions: u64,
    /// Cycles charged for memory accesses.
    pub mem_cycles: u64,
}

impl From<&CpuStats> for ThreadStats {
    /// The per-thread quantities as one processor has counted them, for
    /// everything that ran on it: every access is exactly one L1-D or
    /// L1-I reference. [`crate::Machine`] attributes by differencing two
    /// of these readings, like a runtime reading counters at a switch.
    fn from(cpu: &CpuStats) -> Self {
        ThreadStats {
            accesses: cpu.l1d_refs + cpu.l1i_refs,
            l2_refs: cpu.l2_refs,
            l2_misses: cpu.l2_misses,
            instructions: cpu.instructions,
            mem_cycles: cpu.mem_cycles,
        }
    }
}

impl ThreadStats {
    /// Credits the thread with what a processor counted between two
    /// readings of it, `earlier` and `now`.
    pub(crate) fn add_since(&mut self, now: ThreadStats, earlier: ThreadStats) {
        self.accesses += now.accesses - earlier.accesses;
        self.l2_refs += now.l2_refs - earlier.l2_refs;
        self.l2_misses += now.l2_misses - earlier.l2_misses;
        self.instructions += now.instructions - earlier.instructions;
        self.mem_cycles += now.mem_cycles - earlier.mem_cycles;
    }
}

impl CpuStats {
    /// E-cache misses per 1000 instructions — the paper's Figure 6 metric.
    pub fn mpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpi_computation() {
        let s = CpuStats { l2_misses: 5, instructions: 1000, ..CpuStats::default() };
        assert!((s.mpi() - 5.0).abs() < 1e-12);
        let s = CpuStats::default();
        assert_eq!(s.mpi(), 0.0);
    }
}
