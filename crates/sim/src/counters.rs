//! Performance instrumentation counters (PICs).
//!
//! The UltraSPARC exposes two 32-bit Performance Instrumentation Counters
//! configured through the Performance Control Register (PCR); with the
//! user-access bit set, a runtime can read them without a system call
//! (paper §2.2). The paper's runtime programs them once, to count
//! **E-cache references** and **E-cache hits** with user access on, and
//! reads both at every context switch; the difference is the miss count
//! `n` fed to the cache model.
//!
//! [`Pic`] models exactly that fixed configuration: two counters, a cheap
//! read, and an interval-delta helper. Overflow wraps at 32 bits like the
//! hardware (callers that read every context switch never notice). A read
//! that traps is not a PIC state: it is an injected
//! [`TrapOnRead`](crate::faults::FaultKind::TrapOnRead) fault.

/// The per-processor performance-counter block.
///
/// ```
/// use locality_sim::Pic;
/// let mut pic = Pic::new();
/// pic.record_l2(true);
/// pic.record_l2(false);
/// assert_eq!(pic.refs(), 2);
/// assert_eq!(pic.hits(), 1);
/// assert_eq!(pic.misses(), 1);
/// let delta = pic.take_interval();
/// assert_eq!(delta.misses, 1);
/// assert_eq!(pic.take_interval().refs, 0); // interval was reset
/// ```
#[derive(Debug, Clone)]
pub struct Pic {
    /// PIC0: E-cache references.
    pic0: u32,
    /// PIC1: E-cache hits.
    pic1: u32,
    /// Snapshot of (pic0, pic1) at the last `take_interval`.
    snap: (u32, u32),
}

impl Default for Pic {
    fn default() -> Self {
        Self::new()
    }
}

/// Counter deltas over a scheduling interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PicDelta {
    /// E-cache references during the interval.
    pub refs: u64,
    /// E-cache hits during the interval.
    pub hits: u64,
    /// E-cache misses (`refs − hits`).
    pub misses: u64,
}

impl Pic {
    /// Creates a PIC block configured the way the paper's runtime uses it:
    /// PIC0 = E-cache references, PIC1 = E-cache hits, user access on.
    pub fn new() -> Self {
        Pic { pic0: 0, pic1: 0, snap: (0, 0) }
    }

    /// Records one E-cache access (called by the cache hierarchy).
    pub fn record_l2(&mut self, hit: bool) {
        self.record_l2_bulk(1, u64::from(hit));
    }

    /// Records `refs` E-cache accesses of which `hits` hit, in one shot.
    ///
    /// Equivalent to `refs` calls of [`record_l2`](Self::record_l2) with
    /// `hits` of them hitting: the counters are pure wrapping sums, so a
    /// bulk add lands on exactly the same register values.
    pub fn record_l2_bulk(&mut self, refs: u64, hits: u64) {
        // `n as u32` is `n mod 2³²` — the same value `n` wrapping
        // single-increments leave behind, for `n` = `refs` and `hits`.
        self.pic0 = self.pic0.wrapping_add(refs as u32);
        self.pic1 = self.pic1.wrapping_add(hits as u32);
    }

    /// Raw register values `(PIC0, PIC1)`.
    pub fn read_raw(&self) -> (u32, u32) {
        (self.pic0, self.pic1)
    }

    /// Cumulative E-cache references.
    pub fn refs(&self) -> u64 {
        self.pic0 as u64
    }

    /// Cumulative E-cache hits.
    pub fn hits(&self) -> u64 {
        self.pic1 as u64
    }

    /// Cumulative E-cache misses (`refs − hits`, 32-bit wrapping like the
    /// hardware registers).
    pub fn misses(&self) -> u64 {
        self.pic0.wrapping_sub(self.pic1) as u64
    }

    /// Reads the interval deltas since the previous call and starts a new
    /// interval — exactly what the runtime does at a context switch
    /// ("reading and resetting the appropriate registers", paper §5).
    pub fn take_interval(&mut self) -> PicDelta {
        let refs = self.pic0.wrapping_sub(self.snap.0) as u64;
        let hits = self.pic1.wrapping_sub(self.snap.1) as u64;
        self.snap = (self.pic0, self.pic1);
        PicDelta { refs, hits, misses: refs.saturating_sub(hits) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration() {
        let pic = Pic::new();
        assert_eq!(pic.read_raw(), (0, 0));
    }

    #[test]
    fn records_refs_and_hits() {
        let mut pic = Pic::new();
        for i in 0..10 {
            pic.record_l2(i % 2 == 0);
        }
        assert_eq!(pic.refs(), 10);
        assert_eq!(pic.hits(), 5);
        assert_eq!(pic.misses(), 5);
    }

    #[test]
    fn interval_deltas_reset() {
        let mut pic = Pic::new();
        pic.record_l2(false);
        pic.record_l2(false);
        pic.record_l2(true);
        let d = pic.take_interval();
        assert_eq!(d, PicDelta { refs: 3, hits: 1, misses: 2 });
        pic.record_l2(false);
        let d = pic.take_interval();
        assert_eq!(d, PicDelta { refs: 1, hits: 0, misses: 1 });
    }

    #[test]
    fn wrapping_at_32_bits() {
        let mut pic = Pic::new();
        pic.pic0 = u32::MAX;
        pic.snap = (u32::MAX, 0);
        pic.record_l2(false); // pic0 wraps to 0
        let d = pic.take_interval();
        assert_eq!(d.refs, 1, "wrap must still yield a correct delta");
    }

    #[test]
    fn both_registers_wrap_between_snapshots() {
        // An interval in which pic0 (refs) and pic1 (hits) each cross
        // the 32-bit boundary: the wrapping deltas must still be exact.
        let mut pic = Pic::new();
        pic.pic0 = u32::MAX - 2;
        pic.pic1 = u32::MAX - 1;
        pic.snap = (pic.pic0, pic.pic1);
        for i in 0..10 {
            pic.record_l2(i % 2 == 0); // 10 refs, 5 hits
        }
        assert!(pic.pic0 < 10, "pic0 must have wrapped");
        assert!(pic.pic1 < 10, "pic1 must have wrapped");
        let d = pic.take_interval();
        assert_eq!(d, PicDelta { refs: 10, hits: 5, misses: 5 });
    }

    #[test]
    fn hits_register_wraps_alone() {
        // Only pic1 crosses the boundary (hits trail references, so the
        // registers sit at different counts): the delta for pic1
        // must still come out right, and misses must not underflow.
        let mut pic = Pic::new();
        pic.pic1 = u32::MAX;
        pic.snap = (0, u32::MAX);
        pic.record_l2(true); // both bump; pic1 wraps to 0
        pic.record_l2(true);
        let d = pic.take_interval();
        assert_eq!(d.hits, 2, "pic1 wrap must still yield a correct delta");
        assert_eq!(d.refs, 2);
        assert_eq!(d.misses, 0);
        // Next interval starts clean from the post-wrap snapshot.
        assert_eq!(pic.take_interval(), PicDelta::default());
    }
}
