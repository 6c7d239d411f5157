//! Virtual and physical address newtypes.
//!
//! The simulator never stores data behind these addresses; workloads keep
//! their real data in native Rust structures and use simulated addresses
//! purely to model memory *layout* and the resulting cache behaviour.

use std::fmt;
use std::ops::Range;

/// A virtual address in the single shared simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

/// A physical address assigned by the simulated VM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(pub u64);

impl VAddr {
    /// The address `offset` bytes past this one.
    #[must_use]
    pub fn offset(self, offset: u64) -> VAddr {
        VAddr(self.0 + offset)
    }

    /// The virtual page number for pages of `page_bytes` bytes.
    pub fn page(self, page_bytes: u64) -> u64 {
        self.0 / page_bytes
    }

    /// The byte range `[self, self + len)`.
    pub fn range(self, len: u64) -> Range<u64> {
        self.0..self.0 + len
    }
}

impl PAddr {
    /// The address `offset` bytes past this one.
    #[must_use]
    pub fn offset(self, offset: u64) -> PAddr {
        PAddr(self.0 + offset)
    }

    /// The physical line number for lines of `line_bytes` bytes.
    pub fn line(self, line_bytes: u64) -> u64 {
        self.0 / line_bytes
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:#x}", self.0)
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{:#x}", self.0)
    }
}

impl From<u64> for VAddr {
    fn from(raw: u64) -> Self {
        VAddr(raw)
    }
}

impl From<u64> for PAddr {
    fn from(raw: u64) -> Self {
        PAddr(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_and_pages() {
        let a = VAddr(0x2000);
        assert_eq!(a.offset(0x10), VAddr(0x2010));
        assert_eq!(a.page(0x2000), 1);
        assert_eq!(a.range(4), 0x2000..0x2004);
    }

    #[test]
    fn paddr_lines() {
        let p = PAddr(192);
        assert_eq!(p.line(64), 3);
        assert_eq!(p.offset(64).line(64), 4);
    }

    #[test]
    fn display_forms() {
        assert_eq!(VAddr(0x10).to_string(), "v0x10");
        assert_eq!(PAddr(0x20).to_string(), "p0x20");
    }

    #[test]
    fn conversions() {
        assert_eq!(VAddr::from(7u64), VAddr(7));
        assert_eq!(PAddr::from(9u64), PAddr(9));
    }
}
