//! Virtual→physical translation and page placement.
//!
//! The E-cache is physically indexed while workloads generate virtual
//! addresses, so the virtual→physical mapping chosen at page-fault time
//! determines which cache bins pages land in. The paper (§3.1) uses a
//! variant of the **hierarchical/careful page mapping of Kessler & Hill**,
//! which reduces conflict misses compared to naive placement. We provide
//! three policies and an ablation experiment comparing them:
//!
//! * [`PagePlacement::Arbitrary`] — a pseudo-random frame per fault (the
//!   "naive (arbitrary) page placement" baseline of the paper);
//! * [`PagePlacement::PageColoring`] — frame color = virtual page color;
//! * [`PagePlacement::BinHopping`] — Kessler & Hill bin hopping: faults
//!   walk the cache bins round-robin, so pages touched close in *time*
//!   land in different bins.

use crate::addr::{PAddr, VAddr};
use std::collections::HashMap;

/// Sentinel for "no mapping" in the flat translation tables.
const UNMAPPED: u64 = u64::MAX;

/// Virtual pages below this number are mapped in the flat table (8 MiB
/// of it at most); higher ones, which a dense table would have to grow
/// to reach, sparsely.
const DENSE_VPNS: u64 = 1 << 20;

/// A page-placement policy (chooses the cache bin of each new frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePlacement {
    /// Pseudo-random bin per fault (xorshift over the given seed).
    Arbitrary {
        /// RNG seed, so runs stay reproducible.
        seed: u64,
    },
    /// Frame color equals virtual page color (`vpn mod bins`).
    PageColoring,
    /// Kessler & Hill bin hopping: consecutive faults take consecutive
    /// bins.
    BinHopping,
}

impl PagePlacement {
    /// The default-seeded arbitrary policy.
    pub const fn arbitrary() -> Self {
        PagePlacement::Arbitrary { seed: 0x9e3779b97f4a7c15 }
    }

    /// The bin-hopping policy (the paper's choice).
    pub fn bin_hopping() -> Self {
        PagePlacement::BinHopping
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PagePlacement::Arbitrary { .. } => "arbitrary",
            PagePlacement::PageColoring => "page-coloring",
            PagePlacement::BinHopping => "bin-hopping",
        }
    }
}

/// The simulated page table: demand-allocates a frame for each virtual
/// page on first touch and remembers the inverse mapping so resident
/// physical lines can be attributed back to virtual regions.
#[derive(Debug, Clone)]
pub struct PageTable {
    page_bytes: u64,
    /// `log2(page_bytes)` / `page_bytes − 1`: page sizes are powers of
    /// two, so page-number/offset splits are shift/mask on the hot path.
    page_shift: u32,
    page_mask: u64,
    /// Number of page-sized bins in the (physically indexed) L2.
    bins: u64,
    /// `bins − 1` (bin counts are powers of two).
    bin_mask: u64,
    policy: PagePlacement,
    /// Flat `vpn -> frame` table for pages below [`DENSE_VPNS`]
    /// ([`UNMAPPED`] = never touched). The simulated allocator hands out
    /// dense low virtual addresses, so a plain `Vec` keeps translation —
    /// which sits on the per-access hot path — a single bounds-checked
    /// load instead of a hash probe.
    vpn_to_frame: Vec<u64>,
    /// The pages at and above [`DENSE_VPNS`] that were touched.
    high_vpns: HashMap<u64, u64>,
    /// Flat inverse table, same representation.
    frame_to_vpn: Vec<u64>,
    /// Next frame index within each bin (frames are `bin + bins * i`).
    bin_fill: Vec<u64>,
    /// Bin-hopping cursor.
    next_bin: u64,
    /// Xorshift state for `Arbitrary`.
    rng: u64,
    faults: u64,
}

impl PageTable {
    /// Creates an empty page table.
    ///
    /// `bins` is the number of page-sized bins in the L2
    /// (`l2_bytes / page_bytes`); it must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `bins` or `page_bytes` is zero or not a power of two
    /// (both derive from validated machine geometry, which only admits
    /// power-of-two sizes; the table exploits that for shift/mask
    /// translation on the access path).
    pub fn new(page_bytes: u64, bins: u64, policy: PagePlacement) -> Self {
        assert!(
            page_bytes.is_power_of_two() && bins.is_power_of_two(),
            "page size and bin count must be non-zero powers of two"
        );
        let rng = match policy {
            PagePlacement::Arbitrary { seed } => seed.max(1),
            _ => 1,
        };
        PageTable {
            page_bytes,
            page_shift: page_bytes.trailing_zeros(),
            page_mask: page_bytes - 1,
            bins,
            bin_mask: bins - 1,
            policy,
            vpn_to_frame: Vec::new(),
            high_vpns: HashMap::new(),
            frame_to_vpn: Vec::new(),
            bin_fill: vec![0; bins as usize],
            next_bin: 0,
            rng,
            faults: 0,
        }
    }

    /// The page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Number of page faults taken (frames allocated).
    pub fn faults(&self) -> u64 {
        self.faults
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn allocate_frame(&mut self, vpn: u64) -> u64 {
        let bin = match self.policy {
            PagePlacement::Arbitrary { .. } => self.xorshift() & self.bin_mask,
            PagePlacement::PageColoring => vpn & self.bin_mask,
            PagePlacement::BinHopping => {
                let b = self.next_bin;
                self.next_bin = (self.next_bin + 1) & self.bin_mask;
                b
            }
        };
        let fill = &mut self.bin_fill[bin as usize];
        let frame = bin + self.bins * *fill;
        *fill += 1;
        self.faults += 1;
        frame
    }

    /// Translates a virtual address, faulting a frame in if needed.
    #[inline]
    pub fn translate(&mut self, va: VAddr) -> PAddr {
        let vpn = va.0 >> self.page_shift;
        let frame = self.frame_of(vpn);
        PAddr((frame << self.page_shift) | (va.0 & self.page_mask))
    }

    /// The frame holding virtual page `vpn`, faulting it in if needed.
    /// The run-access path caches the result per page so a whole run pays
    /// one translation per page it touches.
    #[inline(always)]
    pub fn frame_of(&mut self, vpn: u64) -> u64 {
        match self.vpn_to_frame.get(vpn as usize) {
            Some(&f) if f != UNMAPPED => f,
            _ => self.fault(vpn),
        }
    }

    /// [`frame_of`](Self::frame_of) off the flat table: a first touch,
    /// or a page above it, which the simulated allocator never hands out.
    #[inline(never)]
    fn fault(&mut self, vpn: u64) -> u64 {
        if let Some(&f) = self.high_vpns.get(&vpn) {
            return f;
        }
        let f = self.allocate_frame(vpn);
        if vpn < DENSE_VPNS {
            Self::set(&mut self.vpn_to_frame, vpn, f);
        } else {
            self.high_vpns.insert(vpn, f);
        }
        Self::set(&mut self.frame_to_vpn, f, vpn);
        f
    }

    /// `log2(page_bytes)` (pages are powers of two).
    #[inline]
    pub fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// `page_bytes − 1`, the in-page offset mask.
    #[inline]
    pub fn page_mask(&self) -> u64 {
        self.page_mask
    }

    fn set(table: &mut Vec<u64>, key: u64, value: u64) {
        let key = key as usize;
        if key >= table.len() {
            table.resize(key + 1, UNMAPPED);
        }
        table[key] = value;
    }

    fn get(table: &[u64], key: u64) -> Option<u64> {
        match table.get(usize::try_from(key).ok()?) {
            Some(&v) if v != UNMAPPED => Some(v),
            _ => None,
        }
    }

    /// Translates without faulting; `None` if the page was never touched.
    pub fn translate_existing(&self, va: VAddr) -> Option<PAddr> {
        let vpn = va.0 >> self.page_shift;
        let frame = if vpn < DENSE_VPNS {
            Self::get(&self.vpn_to_frame, vpn)
        } else {
            self.high_vpns.get(&vpn).copied()
        };
        frame.map(|f| PAddr((f << self.page_shift) | (va.0 & self.page_mask)))
    }

    /// Inverse translation of a physical address (for footprint ground
    /// truth); `None` for frames the table never allocated.
    pub fn reverse(&self, pa: PAddr) -> Option<VAddr> {
        let frame = pa.0 >> self.page_shift;
        Self::get(&self.frame_to_vpn, frame)
            .map(|vpn| VAddr((vpn << self.page_shift) | (pa.0 & self.page_mask)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new(8192, 64, PagePlacement::bin_hopping());
        let a = pt.translate(VAddr(0x4000));
        let b = pt.translate(VAddr(0x4000));
        assert_eq!(a, b);
        assert_eq!(pt.faults(), 1);
    }

    #[test]
    fn offsets_preserved_within_page() {
        let mut pt = PageTable::new(8192, 64, PagePlacement::bin_hopping());
        let base = pt.translate(VAddr(0x4000));
        let off = pt.translate(VAddr(0x4000 + 100));
        assert_eq!(off.0 - base.0, 100);
    }

    #[test]
    fn reverse_round_trips() {
        let mut pt = PageTable::new(8192, 64, PagePlacement::arbitrary());
        for page in 0..100u64 {
            let va = VAddr(page * 8192 + 17);
            let pa = pt.translate(va);
            assert_eq!(pt.reverse(pa), Some(va));
        }
        assert_eq!(pt.reverse(PAddr(u64::MAX - 5)), None);
    }

    #[test]
    fn translate_existing_does_not_fault() {
        let mut pt = PageTable::new(8192, 64, PagePlacement::bin_hopping());
        assert_eq!(pt.translate_existing(VAddr(0x2000)), None);
        assert_eq!(pt.faults(), 0);
        let pa = pt.translate(VAddr(0x2000));
        assert_eq!(pt.translate_existing(VAddr(0x2000)), Some(pa));
    }

    #[test]
    fn bin_hopping_spreads_consecutive_faults() {
        let mut pt = PageTable::new(8192, 64, PagePlacement::bin_hopping());
        // 64 consecutive virtual pages must land in 64 distinct bins.
        let mut bins: Vec<u64> =
            (0..64u64).map(|p| pt.translate(VAddr(p * 8192)).0 / 8192 % 64).collect();
        bins.sort_unstable();
        bins.dedup();
        assert_eq!(bins.len(), 64);
    }

    #[test]
    fn page_coloring_matches_vpn_color() {
        let mut pt = PageTable::new(8192, 64, PagePlacement::PageColoring);
        for vpn in [0u64, 1, 63, 64, 65, 130] {
            let pa = pt.translate(VAddr(vpn * 8192));
            assert_eq!(pa.0 / 8192 % 64, vpn % 64, "vpn {vpn}");
        }
    }

    #[test]
    fn frames_are_never_reused() {
        let mut pt = PageTable::new(8192, 4, PagePlacement::PageColoring);
        // Many pages of the same color must get distinct frames.
        let mut frames: Vec<u64> =
            (0..50u64).map(|i| pt.translate(VAddr(i * 4 * 8192)).0 / 8192).collect();
        frames.sort_unstable();
        frames.dedup();
        assert_eq!(frames.len(), 50);
    }

    #[test]
    fn arbitrary_is_seed_deterministic() {
        let run = |seed| {
            let mut pt = PageTable::new(8192, 64, PagePlacement::Arbitrary { seed });
            (0..20u64).map(|p| pt.translate(VAddr(p * 8192)).0).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn policy_names() {
        assert_eq!(PagePlacement::arbitrary().name(), "arbitrary");
        assert_eq!(PagePlacement::PageColoring.name(), "page-coloring");
        assert_eq!(PagePlacement::bin_hopping().name(), "bin-hopping");
    }
}
