//! The simulated heap allocator.
//!
//! Hands out virtual address ranges in the single shared address space.
//! It is a bump allocator with alignment and an optional free list for
//! exact-size reuse — the paper's tsp workload allocates and frees
//! solution-subspace matrices continuously through "a standard Solaris
//! memory allocator protected by the mutual exclusion lock", and reuse
//! through a free list reproduces the address-recycling behaviour that
//! makes some of tsp's misses unavoidable.

use crate::addr::VAddr;
use std::collections::BTreeMap;

/// A bump allocator with size-class reuse over the simulated address
/// space.
#[derive(Debug, Clone)]
pub struct SimAllocator {
    next: u64,
    /// Freed blocks by (rounded) size.
    free: BTreeMap<u64, Vec<VAddr>>,
}

/// Allocations start here, leaving page zero unmapped (null-ish guard).
const HEAP_BASE: u64 = 0x0001_0000;

impl Default for SimAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl SimAllocator {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        SimAllocator { next: HEAP_BASE, free: BTreeMap::new() }
    }

    fn round(bytes: u64, align: u64) -> u64 {
        let align = align.max(1);
        bytes.max(1).div_ceil(align) * align
    }

    /// Allocates `bytes` bytes aligned to `align` (which must be a power
    /// of two; 0 is treated as 1). Freed blocks of the same rounded size
    /// are reused LIFO.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> VAddr {
        let align = align.max(1);
        assert!(align.is_power_of_two(), "alignment {align} must be a power of two");
        let size = Self::round(bytes, align);
        if let Some(list) = self.free.get_mut(&size) {
            if let Some(addr) = list.pop() {
                if list.is_empty() {
                    self.free.remove(&size);
                }
                return addr;
            }
        }
        // Bump: align the cursor, carve the block.
        self.next = self.next.div_ceil(align) * align;
        let addr = VAddr(self.next);
        self.next += size;
        addr
    }

    /// Returns a block for reuse. The size/alignment must match the
    /// original request for the block to be found again.
    pub fn free(&mut self, addr: VAddr, bytes: u64, align: u64) {
        let size = Self::round(bytes, align.max(1));
        self.free.entry(size).or_default().push(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_do_not_overlap() {
        let mut a = SimAllocator::new();
        let x = a.alloc(100, 8);
        let y = a.alloc(100, 8);
        assert!(y.0 >= x.0 + 100 || x.0 >= y.0 + 100);
    }

    #[test]
    fn alignment_respected() {
        let mut a = SimAllocator::new();
        for align in [1u64, 8, 64, 4096] {
            let x = a.alloc(10, align);
            assert_eq!(x.0 % align, 0, "align {align}");
        }
    }

    #[test]
    fn free_list_reuses_lifo() {
        let mut a = SimAllocator::new();
        let x = a.alloc(256, 64);
        let y = a.alloc(256, 64);
        a.free(x, 256, 64);
        a.free(y, 256, 64);
        assert_eq!(a.alloc(256, 64), y, "LIFO reuse");
        assert_eq!(a.alloc(256, 64), x);
        let z = a.alloc(256, 64);
        assert!(z != x && z != y, "exhausted free list bumps");
    }

    #[test]
    fn different_sizes_do_not_mix() {
        let mut a = SimAllocator::new();
        let x = a.alloc(128, 64);
        a.free(x, 128, 64);
        let y = a.alloc(256, 64);
        assert_ne!(x, y);
    }

    #[test]
    fn zero_sized_requests_still_distinct() {
        let mut a = SimAllocator::new();
        let x = a.alloc(0, 1);
        let y = a.alloc(0, 1);
        assert_ne!(x, y);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        SimAllocator::new().alloc(8, 3);
    }
}
