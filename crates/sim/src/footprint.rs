//! Ground-truth footprints: the scan and the incremental tracker.
//!
//! The machine answers "how many of `cpu`'s resident E-cache lines belong
//! to thread `t`" two ways:
//!
//! * **The scan** ([`Machine::l2_footprints_into`] into a reusable
//!   [`FootprintScratch`]): walk every resident line, translate it back
//!   to its virtual address and ask the region table who owns it. One
//!   walk is 8192 reverse translations and B-tree probes, so it is the
//!   slow, obviously-right **oracle** — what tests and one-off queries
//!   call — and far too heavy to repeat at every context switch.
//! * **The tracker** ([`FootprintTracker`], switched on by
//!   [`Machine::track_footprints`]): per-cpu, per-thread counters kept
//!   current *as residency changes* — the way the paper's Shade-based
//!   simulator follows the reference stream (§3). With it on,
//!   [`Machine::l2_footprint_lines`] is an O(1) counter read, which is
//!   what per-switch observers use.
//!
//! The tracker's invariant, for every cpu and thread:
//!
//! ```text
//! counter[cpu][tid] = |{ resident lines on cpu whose 64 B span touches a region of tid }|
//! ```
//!
//! It is re-established at each place either side of that equation can
//! change: a fill, an eviction or a remote write-invalidation in either
//! access path, `flush_cpu`, a region registration, a thread's
//! retirement. The scan computes the right-hand side from nothing, so
//! `tracked == scanned` is checkable at any instant.
//!
//! ```
//! use locality_sim::{FootprintScratch, Machine, MachineConfig};
//! use locality_sim::machine::AccessKind;
//! use locality_core::ThreadId;
//!
//! let mut m = Machine::try_new(MachineConfig::ultra1())?;
//! m.track_footprints();
//! let a = m.alloc(4096, 64);
//! m.register_region(ThreadId(1), a, 4096);
//! for i in (0..4096u64).step_by(64) {
//!     m.access(0, a.offset(i), AccessKind::Read);
//! }
//! // The counter read and the oracle agree.
//! assert_eq!(m.l2_footprint_lines(0, ThreadId(1)), 64);
//! let mut scratch = FootprintScratch::new();
//! m.l2_footprints_into(0, &mut scratch);
//! assert_eq!(scratch.lines(ThreadId(1)), 64);
//! # Ok::<(), locality_sim::SimError>(())
//! ```
//!
//! [`Machine::l2_footprints_into`]: crate::machine::Machine::l2_footprints_into
//! [`Machine::l2_footprint_lines`]: crate::machine::Machine::l2_footprint_lines
//! [`Machine::track_footprints`]: crate::machine::Machine::track_footprints

use crate::addr::PAddr;
use crate::paging::PageTable;
use crate::regions::RegionTable;
use locality_core::{ThreadId, ThreadSlots};

/// Reusable output buffer for [`Machine::l2_footprints_into`].
///
/// Holds the per-thread resident-line counts of the most recent scan.
/// Thread ids seen across scans are interned once; subsequent scans
/// reuse the slot, so a scratch that has warmed up performs no
/// allocation at all.
///
/// [`Machine::l2_footprints_into`]: crate::machine::Machine::l2_footprints_into
#[derive(Debug, Clone, Default)]
pub struct FootprintScratch {
    /// Scratch-local interning of owner ids (never released: a stale
    /// thread simply keeps a zero count).
    slots: ThreadSlots,
    /// Slot-indexed resident-line counts of the current scan.
    counts: Vec<u64>,
    /// Slots with a non-zero count this scan, in first-touch order.
    touched: Vec<(u32, ThreadId)>,
    /// Per-line owner list, loaned to the scan via
    /// [`take_owner_buf`](Self::take_owner_buf).
    owners: Vec<ThreadId>,
}

impl FootprintScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        FootprintScratch::default()
    }

    /// Resident lines of `tid` in the most recent scan (zero if the
    /// thread owned nothing).
    pub fn lines(&self, tid: ThreadId) -> u64 {
        match self.slots.lookup(tid) {
            Some(slot) => self.counts.get(slot.index()).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// The `(thread, lines)` pairs of the most recent scan, sorted by
    /// thread id (control path: collects and sorts).
    pub fn to_sorted(&self) -> Vec<(ThreadId, u64)> {
        let mut out: Vec<(ThreadId, u64)> =
            self.touched.iter().map(|&(i, tid)| (tid, self.counts[i as usize])).collect();
        out.sort_unstable_by_key(|&(tid, _)| tid);
        out
    }

    /// Resets the counts of the previous scan (sparse reset: only slots
    /// that were touched are zeroed).
    pub(crate) fn begin(&mut self) {
        for &(i, _) in &self.touched {
            self.counts[i as usize] = 0;
        }
        self.touched.clear();
    }

    /// Loans out the per-line owner buffer (return it with
    /// [`restore_owner_buf`](Self::restore_owner_buf)).
    pub(crate) fn take_owner_buf(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.owners)
    }

    /// Returns the loaned owner buffer for reuse by the next scan.
    pub(crate) fn restore_owner_buf(&mut self, buf: Vec<ThreadId>) {
        self.owners = buf;
    }

    /// Credits one resident line to every owner in `owners`.
    pub(crate) fn tally(&mut self, owners: &[ThreadId]) {
        for &tid in owners {
            let slot = self.slots.bind(tid);
            let i = slot.index();
            if i >= self.counts.len() {
                self.counts.resize(i + 1, 0);
            }
            if self.counts[i] == 0 {
                self.touched.push((i as u32, tid));
            }
            self.counts[i] += 1;
        }
    }
}

/// One residency change of a physical E-cache line, logged by the access
/// element and applied after the access or run (see
/// [`FootprintTracker::apply_logged`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineChange {
    pub cpu: u32,
    pub pline: u64,
    /// `true` for a fill, `false` for an eviction or invalidation.
    pub gained: bool,
}

/// Incrementally maintained per-cpu, per-thread resident-line counters
/// (module docs give the invariant and the update sites).
///
/// Owner ids are interned into a tracker-local slot registry on first
/// credit — a region may be registered for a thread that has never run,
/// so the machine's statistics slots cannot be reused — and released
/// when the thread's regions are dropped.
#[derive(Debug, Clone)]
pub(crate) struct FootprintTracker {
    cpus: usize,
    slots: ThreadSlots,
    /// Slot-major counters: `counts[slot * cpus + cpu]`.
    counts: Vec<u64>,
    /// Reused owner list of the line being credited or debited.
    owners: Vec<ThreadId>,
    /// Changes logged by the current access or run, in order.
    log: Vec<LineChange>,
}

impl FootprintTracker {
    /// An all-zero tracker for a machine of `cpus` processors.
    pub fn new(cpus: usize) -> Self {
        FootprintTracker {
            cpus,
            slots: ThreadSlots::new(),
            counts: Vec::new(),
            owners: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Resident lines of `tid` on `cpu`.
    pub fn lines(&self, cpu: usize, tid: ThreadId) -> u64 {
        match self.slots.lookup(tid) {
            Some(slot) => self.counts[slot.index() * self.cpus + cpu],
            None => 0,
        }
    }

    /// Adds `lines` resident lines on `cpu` to `tid`'s counter.
    pub fn credit(&mut self, cpu: usize, tid: ThreadId, lines: u64) {
        let slot = match self.slots.lookup(tid) {
            Some(slot) => slot,
            None => self.slots.bind(tid),
        };
        let base = slot.index() * self.cpus;
        if base + self.cpus > self.counts.len() {
            self.counts.resize(base + self.cpus, 0);
        }
        self.counts[base + cpu] += lines;
    }

    fn debit(&mut self, cpu: usize, tid: ThreadId) {
        // An owner of a resident line was credited when the line came in
        // (or when the region was registered), so the slot exists and the
        // counter is positive; a violated invariant must not underflow.
        if let Some(slot) = self.slots.lookup(tid) {
            let count = &mut self.counts[slot.index() * self.cpus + cpu];
            debug_assert!(*count > 0, "footprint counter of {tid} on cpu{cpu} underflows");
            *count = count.saturating_sub(1);
        }
    }

    /// Physical line `pline` became resident on (`gained`) or left
    /// `cpu`: credit or debit every thread whose regions touch its span.
    pub fn line_changed(
        &mut self,
        regions: &RegionTable,
        page_table: &PageTable,
        line_bytes: u64,
        change: LineChange,
    ) {
        let Some(va) = page_table.reverse(PAddr(change.pline * line_bytes)) else {
            return;
        };
        let mut owners = std::mem::take(&mut self.owners);
        regions.owners_in_range_into(va, line_bytes, &mut owners);
        for &tid in &owners {
            if change.gained {
                self.credit(change.cpu as usize, tid, 1);
            } else {
                self.debit(change.cpu as usize, tid);
            }
        }
        self.owners = owners;
    }

    /// The change log the access element fills.
    pub fn log_mut(&mut self) -> &mut Vec<LineChange> {
        &mut self.log
    }

    /// Applies, in order, the changes an access or run logged. Deferring
    /// them to the end of a run is sound because nothing the counters
    /// depend on besides residency can change inside one: regions are
    /// only registered and dropped between batches, and a frame, once
    /// mapped, keeps its page.
    pub fn apply_logged(&mut self, regions: &RegionTable, page_table: &PageTable, line_bytes: u64) {
        for i in 0..self.log.len() {
            self.line_changed(regions, page_table, line_bytes, self.log[i]);
        }
        self.log.clear();
    }

    /// Zeroes `tid` on every cpu and recycles its slot (regions dropped).
    pub fn forget(&mut self, tid: ThreadId) {
        if let Some(slot) = self.slots.release(tid) {
            let base = slot.index() * self.cpus;
            self.counts[base..base + self.cpus].fill(0);
        }
    }

    /// Zeroes every thread on `cpu` (cache flushed).
    pub fn clear_cpu(&mut self, cpu: usize) {
        for count in self.counts.iter_mut().skip(cpu).step_by(self.cpus) {
            *count = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn tally_counts_and_resets() {
        let mut s = FootprintScratch::new();
        s.begin();
        s.tally(&[t(1), t(2)]);
        s.tally(&[t(1)]);
        assert_eq!(s.lines(t(1)), 2);
        assert_eq!(s.lines(t(2)), 1);
        assert_eq!(s.lines(t(3)), 0);
        assert_eq!(s.to_sorted(), [(t(1), 2), (t(2), 1)]);
        // A new scan fully forgets the previous one.
        s.begin();
        s.tally(&[t(3)]);
        assert_eq!(s.lines(t(1)), 0);
        assert_eq!(s.lines(t(3)), 1);
        assert_eq!(s.to_sorted(), [(t(3), 1)]);
    }

    #[test]
    fn to_sorted_orders_by_thread_id() {
        let mut s = FootprintScratch::new();
        s.begin();
        s.tally(&[t(9)]);
        s.tally(&[t(2), t(9)]);
        assert_eq!(s.to_sorted(), vec![(t(2), 1), (t(9), 2)]);
    }

    #[test]
    fn owner_buf_round_trips() {
        let mut s = FootprintScratch::new();
        let mut buf = s.take_owner_buf();
        buf.push(t(5));
        s.restore_owner_buf(buf);
        assert_eq!(s.take_owner_buf(), vec![t(5)]);
    }
}
